"""Every canned scenario report, byte for byte, against a committed fixture.

The fixture `golden_reports.json` maps each scenario name to its
`report_json(run_scenario(name, seed=s))` text for seeds 0-4. A refactor
that is meant to keep behaviour must leave every one of them unchanged.

A change that moves a report on purpose regenerates the fixture and says
why in CHANGES.md:

    PYTHONPATH=src python3 tests/test_golden_reports.py
"""
import json
import pathlib

from arksim.harness import SCENARIOS, report_json, run_scenario

FIXTURE = pathlib.Path(__file__).with_name("golden_reports.json")
SEEDS = range(5)


def capture() -> dict:
    return {name: {str(s): report_json(run_scenario(name, seed=s)) for s in SEEDS}
            for name in sorted(SCENARIOS)}


def test_reports_match_golden_fixture():
    golden = json.loads(FIXTURE.read_text())
    assert set(golden) == set(SCENARIOS)
    differ = [f"{name} seed={seed}"
              for name, reports in capture().items()
              for seed, text in reports.items()
              if golden[name][seed] != text]
    assert not differ, "reports differ from the fixture: " + ", ".join(differ)


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(capture(), sort_keys=True, indent=1) + "\n")
