"""Internal invariants raise `InvariantError`, also under `python -O`.

Each `broken_*` function below breaks one invariant and returns what was
raised; each test runs it in a `python -O` subprocess, where a bare
`assert` would be stripped and the fault would pass silently.
"""

import ast
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

from arksim import InvariantError, crypto, footprint, harness
from arksim.arkcore import Vtxo, p2pk
from arksim.harness import PARAMS_TE40 as PARAMS, Simulation
from arksim.ledger import Tx

TESTS = pathlib.Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "arksim"


def _raised(fn) -> str:
    try:
        fn()
    except InvariantError as e:
        return f"InvariantError: {e}"
    return "nothing raised"


def broken_calibration() -> str:
    # with 44 vB per output the three reference shapes cannot all hold
    return _raised(lambda: footprint.calibrate(p2tr=Fraction(44)))


def broken_spent_book() -> str:
    sim = Simulation(PARAMS, 0)
    _, pk = crypto.keygen(b"invariant-owner")
    vtxo = Vtxo(1_000, p2pk(pk), "alice", pk)   # never given an outpoint
    return _raised(lambda: sim.operator._answer(vtxo, Tx(ins=(), outs=())))


def broken_extraction() -> str:
    # a key extraction that returns some other key than the operator's
    crypto.extract_secret = lambda *args: crypto.SecretKey(12345)
    return _raised(lambda: harness.ff_double_spend_trace(0, PARAMS, 2))


CASES = {
    "broken_calibration": "InvariantError: TxShape(keypath_ins=0, scriptpath_ins=1,"
                          " p2tr_outs=1, anchor_outs=1) weighs 106 vB",
    "broken_spent_book": "InvariantError: spent VTXO of alice in the book has no outpoint",
    "broken_extraction": "InvariantError: extracted key is not the operator's",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_invariant_raises_under_optimize(name):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (
        str(TESTS.parent / "src"), str(TESTS), os.environ.get("PYTHONPATH")))))
    code = f"import sys, test_invariants as t; print(sys.flags.optimize, t.{name}())"
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("1 " + CASES[name]), done.stdout


def test_invariants_hold_on_a_settled_round():
    sim = Simulation(PARAMS, 0)
    sim.operator.fund(50_000)
    sim.add_wallet("alice", [4_000])
    sim.board("alice", [4_000])
    sim.settle_commitment()
    assert harness.audit(sim) == []
    assert footprint.calibrate() == footprint.DEFAULT_MODEL


def test_package_has_no_assert_statement():
    # invariants raise InvariantError, never `assert`, which -O strips
    found = [f"{path.relative_to(PACKAGE)}:{node.lineno}"
             for path in sorted(PACKAGE.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []
