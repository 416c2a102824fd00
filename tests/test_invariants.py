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

from arksim import InvariantError, crypto, footprint, harness, operator_node
from arksim.arkcore import Vtxo, p2pk
from arksim.harness import ArkState, Simulation
from arksim.ledger import Params, Tx

TESTS = pathlib.Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "arksim"
PARAMS = Params(k=3, t_u=13, t_e=40, t_r=8)


def _raised(fn) -> str:
    try:
        fn()
    except InvariantError as e:
        return f"InvariantError: {e}"
    return "nothing raised"


def broken_partition() -> str:
    key = ("ab" * 32, 0)
    return _raised(ArkState(C={key}, F={key}).check)


def broken_conservation() -> str:
    account = {"L": 10_000, "B": 0, "V": 9_000, "U": 0, "M": 900, "F": 0,
               "connector": 0}
    return _raised(lambda: operator_node.check_conservation(account))


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
    "broken_partition": "InvariantError: in both C and F: [('" + "ab" * 32 + "', 0)]",
    "broken_conservation": "InvariantError: commitment does not conserve value",
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
    sim.state().check()
    for bundle in sim.all_bundles:
        operator_node.check_conservation(bundle.account)
    assert footprint.calibrate() == footprint.DEFAULT_MODEL


def test_package_has_no_assert_statement():
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []
