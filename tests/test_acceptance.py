"""Acceptance gate: one pass/fail line per criterion (run with -s to see
them).  Each criterion is a separate test with its stated tolerance and
budget; a failure both prints FAIL and fails the test."""

import itertools
import math
import random
import time

import numpy as np

from arksim import arkcore, crypto, footprint
from arksim.arkcore import Vtxo, p2pk, vtxo_lock
from arksim.crypto import Fixed, extract_secret, keygen, sign
from arksim.harness import (
    PARAMS_TE60,
    cosign_vtxt,
    exit_race,
    ff_double_spend_trace,
    run_scenario,
    report_json,
    tx_vbytes,
)
from arksim.ledger import Chain, Params
from arksim.script import Witness
from arksim.wallet import Holding, Wallet


def _line(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d} {name}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_01_footprint_exactness():
    t0 = time.perf_counter()
    model = footprint.calibrate()
    ok = (footprint.vbytes(footprint.COMMITMENT_SHAPE, model) == 197
          and footprint.vbytes(footprint.NODE_SHAPE, model) == 150
          and footprint.vbytes(footprint.LEAF_SHAPE, model) == 107
          and footprint.exit_cost(128, 6) == 6942)
    elapsed = time.perf_counter() - t0
    _line(1, "footprint exactness", ok and elapsed < 1.0,
          f"197/150/107 vB, exit_cost(128,6)={footprint.exit_cost(128, 6)}, "
          f"{elapsed:.2f}s")


def test_criterion_02_exit_scaling():
    t0 = time.perf_counter()
    params = Params(k=3, t_u=13, t_e=400)
    op_sk, op_pk = keygen(b"ac2-op")
    failures = []
    for n in [2 ** i for i in range(11)]:
        chain = Chain(params)
        sk, pk = keygen(b"ac2-user")
        wallet = Wallet("user", sk, chain, params, op_pk)
        leaves = [Vtxo(100, vtxo_lock(pk, op_pk, params.t_u), "user", pk)
                  for _ in range(n)]
        expiry = 2 * params.k + params.t_e
        funding = chain.grant(
            100 * n, arkcore.batch_lock(op_pk, crypto.aggregate([op_pk, pk]),
                                        expiry))
        vtxt, _ = arkcore.build_vtxt(funding, leaves, op_pk, expiry, 2)
        target = vtxt.leaves[0]
        for tx in vtxt.path_to(target.txid):
            lock, idx, agg = vtxt.session(tx.txid)
            sig = crypto.cosign(tx.digest(), [op_sk, sk], agg)
            tx.wits = [Witness(idx, (sig,), lock.paths)]
        wallet.holdings[target.vtxo.key()] = Holding(
            target.vtxo, vtxt.path_to(target.txid), "batch")
        submitted = wallet.unilateral_exit(target.vtxo)
        want_txs = footprint.exit_depth(n) + 1
        want_vb = footprint.exit_vbytes(n)
        got_vb = sum(tx_vbytes(tx) for tx in submitted)
        if len(submitted) != want_txs or got_vb != want_vb:
            failures.append((n, len(submitted), want_txs, got_vb, want_vb))
    elapsed = time.perf_counter() - t0
    _line(2, "exit scaling n=1..1024", not failures and elapsed < 5.0,
          f"failures={failures}, {elapsed:.2f}s")


def test_criterion_03_liveness_races():
    t0 = time.perf_counter()
    failures = []
    for k in (2, 3):
        for d in itertools.product(range(2 * k), repeat=2):
            if not exit_race(k, d).exit_confirmed_before_expiry:
                failures.append((k, d))
    rng = random.Random(1337)
    k = 6
    for _ in range(500):
        d = (rng.randrange(2 * k), rng.randrange(2 * k))
        if not exit_race(k, d).exit_confirmed_before_expiry:
            failures.append((k, d))
    late_losses = 0
    for k in (2, 3, 6):
        worst = (2 * k - 1, 2 * k - 1)
        if not exit_race(k, worst, late_by=1).exit_confirmed_before_expiry:
            late_losses += 1
    elapsed = time.perf_counter() - t0
    ok = not failures and late_losses >= 1 and elapsed < 60.0
    _line(3, "liveness under adversarial delays", ok,
          f"failures={failures[:3]}, late_losses={late_losses}/3, {elapsed:.1f}s")


def test_criterion_04_atomicity_200_traces():
    t0 = time.perf_counter()
    from arksim.harness import check_theorem
    out = check_theorem("T3", traces=200, seed=0)
    elapsed = time.perf_counter() - t0
    ok = out["pass"] and elapsed < 60.0
    _line(4, "ceremony atomicity (200 abort traces)", ok,
          f"violations={out['violations'][:3]}, {elapsed:.1f}s")


def test_criterion_05_conservation_identity():
    rep0 = run_scenario("operator_shutdown", seed=0, fee=0)
    exact0 = rep0["operator_final"] == rep0["operator_initial"]
    rep1 = run_scenario("operator_shutdown", seed=0, fee=40)
    exact1 = (rep1["operator_final"]
              == rep1["operator_initial"] + rep1["collected_fees"]
              and rep1["collected_fees"] > 0)
    _line(5, "operator conservation identity", exact0 and exact1,
          f"zero-fee {rep0['operator_final']}=={rep0['operator_initial']}, "
          f"fee {rep1['operator_final']}=="
          f"{rep1['operator_initial']}+{rep1['collected_fees']}")


def test_criterion_06_hostage_paired_comparison():
    with_resets = run_scenario("hostage_attack", seed=0, resets=True)
    without = run_scenario("hostage_attack", seed=0, resets=False)
    ok = (with_resets["deficit"] == 0
          and without["deficit"] == without["hostage_value"]
          and without["hostage_value"] > 0)
    _line(6, "hostage attack paired comparison", ok,
          f"with-resets deficit={with_resets['deficit']}, "
          f"without deficit={without['deficit']} "
          f"== vtxo value {without['hostage_value']}")


def test_criterion_07_spam_fee_accounting():
    rep = run_scenario("spam_attack", seed=0, hops=3)
    verdicts = {v["name"]: v["pass"] for v in rep["verdicts"]}
    acct = rep["fee_accounting"]
    ok = (verdicts["attacker_publishes_ark_chain"]
          and verdicts["operator_claims_forfeit"]
          and rep["forfeit_value"] == rep["expected_forfeit"]
          and set(rep["ark_publishers"]) == {"mallory"})
    _line(7, "spam attack fee accounting", ok,
          f"attacker vbytes={acct.get('mallory', {}).get('vbytes')}, "
          f"forfeit={rep['forfeit_value']}=={rep['expected_forfeit']}")


def test_criterion_08_fast_finality():
    p = PARAMS_TE60
    double_accepts = 0
    missing_burns = 0
    runs = 0
    for off in range(3):
        out = ff_double_spend_trace(0, p, 1, None, off)
        runs += 1
        double_accepts += out["both_accepted"]
        missing_burns += not (out["burned"]
                              and out["collateral"] > out["coalition_gain"])
    edges = [("mallory", "alice"), ("mallory", "bob"), ("alice", "bob"),
             ("alice", "mallory"), ("bob", "alice"), ("bob", "mallory")]
    for combo in itertools.product((1, 2), repeat=len(edges)):
        for off in range(3):
            out = ff_double_spend_trace(0, p, 2, dict(zip(edges, combo)), off)
            runs += 1
            double_accepts += out["both_accepted"]
            missing_burns += not (out["burned"]
                                  and out["collateral"] > out["coalition_gain"])
    extracted = 0
    for i in range(100):
        sk, pk = keygen(b"ac8-%d" % i)
        nonce = Fixed(1 + i * 7919)
        s1 = sign(sk, b"pay-a-%d" % i, nonce)
        s2 = sign(sk, b"pay-b-%d" % i, nonce)
        if extract_secret(pk, b"pay-a-%d" % i, s1,
                          b"pay-b-%d" % i, s2).scalar == sk.scalar:
            extracted += 1
    ok = double_accepts == 0 and missing_burns == 0 and extracted == 100
    _line(8, "fast finality deterrence", ok,
          f"{runs} gossip traces, double_accepts={double_accepts}, "
          f"missing_burns={missing_burns}, extraction {extracted}/100")


def test_criterion_09_commitment_timing_linear():
    t0 = time.perf_counter()
    params = Params()
    op_sk, op_pk = keygen(b"ac9-op")
    sizes = [2, 4, 8, 16, 32, 64, 128, 256]
    times = []
    for n in sizes:
        chain = Chain(params)
        users = [keygen(b"ac9-%d-%d" % (n, i)) for i in range(n)]
        leaves = [Vtxo(100, vtxo_lock(pk, op_pk, params.t_u), f"u{i}", pk)
                  for i, (_, pk) in enumerate(users)]
        funding = chain.grant(100 * n, p2pk(op_pk))
        t1 = time.perf_counter()
        # as the operator builds a tree: every node key in one pass first
        arkcore.tree_keys(leaves, op_pk, params.arity)
        vtxt, _ = arkcore.build_vtxt(funding, leaves, op_pk, 300, params.arity)
        secrets = {pk.hex(): sk for sk, pk in users}
        secrets[op_pk.hex()] = op_sk
        cosign_vtxt(vtxt, secrets)
        times.append(time.perf_counter() - t1)
    xs, ys = np.array(sizes, float), np.array(times, float)
    slope, intercept = np.polyfit(xs, ys, 1)
    pred = slope * xs + intercept
    r2 = 1 - float(np.sum((ys - pred) ** 2)) / float(np.sum((ys - ys.mean()) ** 2))
    elapsed = time.perf_counter() - t0
    ok = r2 >= 0.9 and elapsed < 120.0
    _line(9, "commitment timing linearity", ok,
          f"R^2={r2:.4f} over n={sizes[0]}..{sizes[-1]}, {elapsed:.1f}s")


def test_criterion_10_determinism():
    mismatches = []
    for scenario, cfg in (("happy_path", {}), ("censoring_operator", {}),
                          ("hostage_attack", {"resets": False})):
        a = report_json(run_scenario(scenario, seed=77, **cfg))
        b = report_json(run_scenario(scenario, seed=77, **cfg))
        if a.encode() != b.encode():
            mismatches.append(scenario)
    _line(10, "seeded determinism", not mismatches,
          f"byte-identical reports, mismatches={mismatches}")
