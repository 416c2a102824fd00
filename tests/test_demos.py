"""Each demo in `demos/` runs to completion and prints what it printed
when its fixture in `demo_outputs/` was captured.

A change that moves a demo's output on purpose regenerates the fixtures
and says why in CHANGES.md:

    python3 tests/test_demos.py
"""
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
FIXTURES = pathlib.Path(__file__).with_name("demo_outputs")


def run_demo(demo: pathlib.Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return subprocess.run([sys.executable, str(demo)], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)


def test_every_demo_has_a_fixture():
    assert [d.stem for d in DEMOS] == sorted(f.stem for f in FIXTURES.glob("*.txt"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_output_matches_fixture(demo):
    done = run_demo(demo)
    assert done.returncode == 0, done.stderr
    assert done.stdout == (FIXTURES / f"{demo.stem}.txt").read_text()


if __name__ == "__main__":
    for demo in DEMOS:
        done = run_demo(demo)
        done.check_returncode()
        (FIXTURES / f"{demo.stem}.txt").write_text(done.stdout)
