"""Every name the benchmark's tracer wraps, times or counts exists in
arksim, so a rename or deletion fails here, in tier-1, and not only in the
benchmark run; and one small run's traced work is pinned.
`perfbench/tracer.py` is read, never edited."""

import importlib
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)


@pytest.mark.parametrize("layer", sorted(tracer.TRACED))
def test_every_traced_name_resolves(layer):
    module = importlib.import_module(f"arksim.{layer}")
    missing = []
    for qualname in tracer.TRACED[layer]:
        owner, _, attr = qualname.rpartition(".")
        # the tracer wraps a method from its class's own __dict__
        scope = getattr(module, owner, None) if owner else module
        if scope is None or attr not in vars(scope):
            missing.append(qualname)
    assert missing == []


@pytest.mark.parametrize("table", ["TIMED", "COUNTED"])
def test_every_timed_and_counted_name_is_traced(table):
    # `<layer>.<function>` metrics read the spans of a traced name
    traced = {(layer, q.rpartition(".")[2]) for layer, names in tracer.TRACED.items()
              for q in names}
    wanted = {(layer, f) for layer, names in getattr(tracer, table).items() for f in names}
    assert wanted - traced == set()


_COUNTS = """
import json, sys
sys.path[:0] = [{src!r}, {perfbench!r}]
import tracer, workloads
with tracer.Tracer() as t:
    workloads.payment_stream(7, 0, users=4, rounds=4)
print(json.dumps(t.metrics()))
"""

# the work of a four-user, four-round payment stream with one aborted and
# retried ceremony: group operations, signatures, checks, ledger traffic
# and tree nodes.  Ratios and span counts are left out: they measure how
# the code is called, not what it computes.  Each of the 16 payers derives
# its reset's lock and its two outputs' locks once, from the memos
PINNED_COUNTS = {
    "crypto.point_mul_G": 223, "crypto.point_mul_var": 180, "crypto.sign": 208,
    "crypto.verify": 123, "crypto.aggregate": 292,
    "ledger.submit": 19, "ledger.advance_round": 47, "ledger.txs_confirmed": 19,
    "ledger.mempool_peak": 4,
    "script.evaluate": 123, "script.taproot": 430,
    "arkcore.vtxt_txs": 96, "operator_node.rounds_aborted": 1,
}


def test_a_small_payment_streams_traced_work_is_pinned():
    # in a fresh process, so no memo another test warmed saves any work
    root = TRACER.parents[1]
    code = _COUNTS.format(src=str(root / "src"), perfbench=str(TRACER.parent))
    proc = subprocess.run([sys.executable, "-c", code], check=True, stdout=subprocess.PIPE,
                          text=True, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
                          timeout=300)
    metrics = json.loads(proc.stdout.splitlines()[-1])
    assert {name: metrics[name] for name in PINNED_COUNTS} == PINNED_COUNTS
