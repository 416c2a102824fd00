"""Tests of the benchmark itself, on small inputs:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import pytest

import refsecp
import tracer
import workloads
from arksim import crypto

SMALL = {
    "wide_batch": lambda seed: workloads.wide_batch(seed, 0, n=8),
    "payment_stream": lambda seed: workloads.payment_stream(seed, 0, users=4,
                                                            rounds=4),
    "adversarial_traces": lambda seed: workloads.adversarial_traces(seed, 0),
}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_tracing_changes_nothing(name):
    plain = SMALL[name](5)
    with tracer.Tracer() as t:
        traced = SMALL[name](5)
    assert all(plain.checks.values()), plain.details
    assert plain.fingerprint.hexdigest() == traced.fingerprint.hexdigest()
    assert (plain.attempted, plain.failed, plain.pass_vb) == \
        (traced.attempted, traced.failed, traced.pass_vb)
    assert plain.failed == 0
    assert t.metrics()["trace.spans"] > 0
    assert not hasattr(crypto.sign, "__wrapped__")   # close() restored it


def test_payment_stream_aborts_and_retries():
    run = workloads.payment_stream(6, 0, users=4, rounds=4)
    assert all(run.checks.values()), run.details
    assert run.extra["rounds_aborted"][0] == 1
    assert run.attempted == 4 * 4 + 4 and len(run.op_s) == 16


def test_wrappers_see_every_call():
    keys = [crypto.SecretKey(0x5EED_0000 + 7919 * i) for i in range(1, 4)]
    pub0 = crypto._public_point.cache_info()
    agg0 = crypto._aggregate_members.cache_info()
    with tracer.Tracer() as t:
        agg = crypto.aggregate([k.public() for k in keys])
        sig = crypto.cosign(b"perfbench", keys, agg)
        assert crypto.verify(agg.point, b"perfbench", sig)
        assert crypto.aggregate([k.public() for k in reversed(keys)]) is agg
    pub1 = crypto._public_point.cache_info()
    agg1 = crypto._aggregate_members.cache_info()
    m = t.metrics()
    # G: three fresh public keys, the aggregate secret's public key, the
    # nonce point R, and s*G in verify.  Variable base: one coefficient
    # multiplication per member, and e*P in verify.
    assert (m["crypto.point_mul_G"], m["crypto.point_mul_var"]) == (6, 4)
    assert (m["crypto.sign"], m["crypto.verify"], m["crypto.aggregate"]) == (1, 1, 2)
    # public(): 3 + 3 for the second aggregate, 3 in cosign, 6 in
    # aggregate_secret, 1 in sign; the 4 new scalars miss
    lookups = (pub1.hits + pub1.misses) - (pub0.hits + pub0.misses)
    assert lookups == 16 and pub1.misses - pub0.misses == 4
    assert m["crypto.pubkey_hit_ratio"] == (pub1.hits - pub0.hits) / lookups
    assert m["crypto.aggregate_hit_ratio"] == \
        (agg1.hits - agg0.hits) / ((agg1.hits + agg1.misses) - (agg0.hits + agg0.misses))
    assert m["crypto.aggregate_hit_ratio"] == 0.5


def test_self_times_partition_traced_time():
    with tracer.Tracer() as t:
        crypto.keygen(b"perfbench-self")
        workloads.harness.exit_race(2, (0, 0))
    roots = sum(end - start for _, start, end, parent in t.spans if parent == -1)
    assert abs(sum(t.self_s.values()) - roots) < 1e-6
    m = t.metrics()
    assert 0 < m["harness.self_s"] < m["harness.exit_race_s"]
    assert m["crypto.self_s"] > 0 and m["ledger.self_s"] > 0


def test_refsecp_agrees_with_the_package():
    sk, pk = crypto.keygen(b"perfbench-ref")
    sig = crypto.sign(sk, b"message")
    assert refsecp.verify(pk.point, b"message", sig.R, sig.s)
    assert not refsecp.verify(pk.point, b"massage", sig.R, sig.s)
    assert not refsecp.verify(pk.point, b"message", sig.R, sig.s + 1)


_COUNTS = """
import json, sys
sys.path[:0] = [{src!r}, {here!r}]
import tracer, workloads
with tracer.Tracer() as t:
    workloads.payment_stream(7, 0, users=4, rounds=4)
print(json.dumps({{k: v for k, v in t.metrics().items() if not k.endswith("_s")}}))
"""


def test_traced_counts_repeat_across_processes():
    code = _COUNTS.format(src=os.path.join(ROOT, "src"), here=HERE)
    outs = []
    for hashseed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        proc = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                              stdout=subprocess.PIPE, text=True)
        outs.append(json.loads(proc.stdout.splitlines()[-1]))
    assert outs[0] == outs[1]
    assert outs[0]["operator_node.rounds_aborted"] == 1


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "adversarial_traces",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
