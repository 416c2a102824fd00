"""The benchmark's three workloads, driven through arksim's public API.

Each workload derives every input from its seed, runs a number of passes
fixed by the run length, times its set-ups and passes, and checks its
outputs against numbers it computes itself or against properties the
protocol must have.  `WORKLOADS` maps a workload's name to its function;
each returns a `Run`.

The number of passes is set from the requested run length and a nominal
pass time measured on the reference 2-core machine, not from the clock,
so two runs with the same seed and length do the same work whatever the
speed of the code.  A faster program therefore finishes sooner instead of
doing more passes, and the payment stream's state, which grows with the
rounds behind it, is the same size on both sides of a comparison.
"""

from __future__ import annotations

import hashlib
import math
import random
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from arksim import crypto, harness, ledger
from arksim.ledger import Params
from arksim.script import KEY_PATH, Witness

import refsecp

clock = time.perf_counter

# refsecp.reference_work() on the reference machine in a quiet phase
REFERENCE_S = 0.030
REFERENCE_REPEATS = 3
OPERATOR_FUNDS = 10 ** 12     # liquidity: each round locks the swapped value until expiry
SETUPS = 3                    # set-ups per run; setup_s is their median
SIGNATURE_SAMPLE = 12         # signatures re-verified by refsecp per run

# the paper's component sizes (vB) for the commitment check
TX_OVERHEAD_VB = 10.5
KEYPATH_INPUT_VB = 57.5
P2TR_OUTPUT_VB = 43
COMMITMENT_VB = 197
NODE_VB, LEAF_VB = 150, 107


@dataclass
class Run:
    setup_s: List[float] = field(default_factory=list)
    pass_s: List[float] = field(default_factory=list)
    op_s: List[float] = field(default_factory=list)     # unit-operation latencies
    pass_vb: List[int] = field(default_factory=list)    # vB confirmed per pass
    reference_s: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    checks: Dict[str, bool] = field(default_factory=dict)
    details: Dict[str, str] = field(default_factory=dict)
    extra: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    fingerprint: "hashlib._Hash" = field(default_factory=hashlib.sha256)

    def time_reference(self) -> None:
        """Time refsecp.reference_work a few times.  Called before each
        set-up and each pass, so the samples span the run."""
        for _ in range(REFERENCE_REPEATS):
            start = clock()
            refsecp.reference_work()
            self.reference_s.append(clock() - start)

    def speed_scale(self) -> float:
        """REFERENCE_S over the reference work's median time in this run:
        multiplying a time by it gives the time the reference machine takes
        in a quiet phase, so that the speed of a shared machine, which moves
        by tens of percent over minutes, cancels out."""
        return REFERENCE_S / statistics.median(self.reference_s)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        """Record one output check; a check that fails once stays failed."""
        self.checks[name] = self.checks.get(name, True) and bool(ok)
        if not ok and name not in self.details:
            self.details[name] = detail

    def stamp(self, *items) -> None:
        """Fold program outputs into the run's fingerprint."""
        for item in items:
            self.fingerprint.update(repr(item).encode())
            self.fingerprint.update(b"\0")

    def stamp_chain(self, chain) -> None:
        self.stamp(chain.height, chain.blocks, chain.total_value())


def passes_for(seconds: float, nominal_s: float, minimum: int) -> int:
    return max(minimum, round(seconds / nominal_s))


def confirmed_vb(chain, since_height: int = 0) -> int:
    return sum(harness.tx_vbytes(chain.records[txid].tx)
               for block in chain.blocks[since_height:] for txid in block)


def check_signatures(run: Run, chains, rng: random.Random) -> None:
    """Re-verify a seeded sample of confirmed signatures with refsecp, and
    check that refsecp rejects one of them under another message."""
    found = [sig for chain in chains for sig in refsecp.chain_signatures(chain)]
    sample = rng.sample(found, min(SIGNATURE_SAMPLE, len(found)))
    bad = [s for s in sample if not refsecp.verify(*s)]
    run.check("signatures_verify", sample and not bad,
              f"{len(bad)} of {len(sample)} sampled signatures fail")
    pk, msg, R, s = sample[0]
    run.check("signature_check_rejects_forgery",
              not refsecp.verify(pk, msg + b"x", R, s))


def _board_all(sim, values: Dict[str, int]) -> None:
    """Grant, board and settle every named user in one boarding round."""
    boarded = []
    for name, value in values.items():
        w = sim.add_wallet(name, [value])
        tx, req = w.make_boarding(w.funds, [value])
        tx.wits = [Witness(KEY_PATH, (crypto.sign(w.sk, tx.digest()),)) for _ in tx.ins]
        sim.chain.submit(tx, name)
        w.boarding_outputs.append((tx.outpoint(0), tx.outs[0]))
        w.funds = []
        boarded.append((w, req))
    sim.tick(sim.params.k + 1)
    for w, req in boarded:
        sim.operator.verify_boarding(req)
        w.open_requests.append(req)
    sim.settle_commitment()


def _round(sim, abort: Optional[Tuple[str, str]] = None):
    """One round from assembly to the signed commitment's submission.
    With `abort` = (step, party), that party aborts the ceremony at that
    step and the operator assembles and signs the round again.  Returns
    the bundle, the seconds to submission and whether the abort fired."""
    op = sim.operator
    start = clock()
    bundle = op.assemble_commitment()
    aborted = False
    if abort is not None:
        try:
            op.run_signing(bundle, sim.wallets,
                           lambda step, party: (step, party) == abort)
        except crypto.SessionAborted:
            aborted = True
            bundle = op.assemble_commitment()
    if abort is None or aborted:
        op.run_signing(bundle, sim.wallets)
    op.submit_and_track(bundle)
    elapsed = clock() - start
    sim.all_bundles.append(bundle)
    sim.tick(sim.params.k + 2)
    return bundle, elapsed, aborted


# --- wide_batch ------------------------------------------------------------

WIDE_N = 64
WIDE_PARAMS = Params(k=3, t_u=13, t_e=60, t_r=8)
WIDE_PASS_S = 3.0


def wide_batch(seed: int, seconds: float, n: int = WIDE_N) -> Run:
    """Per pass: n users board and settle (set-up); then all n swap into
    one new batch in a shuffled order, and every user exits unilaterally."""
    rng = random.Random(seed)
    run = Run()
    depth = math.ceil(math.log2(n))
    exit_s = []
    for _ in range(passes_for(seconds, WIDE_PASS_S, SETUPS)):
        run.time_reference()
        start = clock()
        sim = harness.Simulation(WIDE_PARAMS, rng.getrandbits(62))
        sim.operator.fund(OPERATOR_FUNDS)
        values = {f"user{i}": rng.randrange(1_000, 100_000) for i in range(n)}
        _board_all(sim, values)
        run.setup_s.append(clock() - start)
        run.attempted += n + 1
        granted = OPERATOR_FUNDS + sum(values.values())
        swap_order = rng.sample(sorted(values), n)
        exit_order = rng.sample(sorted(values), n)

        height = sim.chain.height
        run.time_reference()
        start = clock()
        for name in swap_order:
            w = sim.wallets[name]
            vtxos = [h.vtxo for h in w.holdings.values()]
            sim.operator.verify_batch_swap(
                w.make_swap(vtxos, [v.value for v in vtxos]))
        bundle, round_s, _ = _round(sim)
        exit_start = clock()
        for name in exit_order:
            w = sim.wallets[name]
            for h in list(w.holdings.values()):
                w.unilateral_exit(h.vtxo)
        leaves = bundle.batch.vtxt.leaves
        for _ in range(2 * sim.params.k + 1):   # the 2k inclusion bound, plus one
            if all(sim.chain.is_confirmed(leaf.txid) for leaf in leaves):
                break
            sim.tick(1)
        end = clock()
        run.pass_s.append(end - start)
        exit_s.append(end - exit_start)
        run.op_s.append(round_s)
        run.pass_vb.append(confirmed_vb(sim.chain, height))

        chain = sim.chain
        exited = sum(chain.is_confirmed(leaf.txid) for leaf in leaves)
        run.attempted += 1 + n
        run.failed += n - exited
        commit = bundle.commitment
        own_vb = math.ceil(TX_OVERHEAD_VB + KEYPATH_INPUT_VB * len(commit.ins)
                           + P2TR_OUTPUT_VB * len(commit.outs))
        run.check("commitment_197_vb",
                  (len(commit.ins), len(commit.outs)) == (1, 3)
                  and own_vb == COMMITMENT_VB
                  and harness.tx_vbytes(commit) == COMMITMENT_VB
                  and chain.is_confirmed(commit.txid),
                  f"{len(commit.ins)} in, {len(commit.outs)} out, {own_vb} vB")
        tree = bundle.batch.vtxt.txs
        run.check("tree_2n_minus_1_confirmed",
                  len(tree) == 2 * n - 1
                  and all(chain.is_confirmed(t) for t in tree),
                  f"{sum(chain.is_confirmed(t) for t in tree)} of {len(tree)}")
        for leaf in leaves:
            path = bundle.batch.vtxt.path_to(leaf.txid)
            run.check("leaf_path_log_n",
                      len(path) == depth + 1
                      and sum(map(harness.tx_vbytes, path))
                      == NODE_VB * depth + LEAF_VB,
                      f"{len(path)} txs on a leaf path")
            op = leaf.vtxo.outpoint
            run.check("leaf_unspent_with_requested_value",
                      chain.unspent(op)
                      and chain.utxos[op].output.value == values[leaf.vtxo.owner],
                      str(op))
        run.check("chain_value_conserved", chain.total_value() == granted,
                  f"{chain.total_value()} != {granted}")
        run.stamp(bundle.commitment.txid, sim.balances())
        run.stamp_chain(chain)
    run.extra["round_s"] = (statistics.median(run.op_s), "s")
    run.extra["exit_s"] = (statistics.median(exit_s), "s")
    check_signatures(run, [sim.chain], rng)
    return run


# --- payment_stream --------------------------------------------------------

PAY_USERS = 16
PAY_FUNDS = 100_000
PAY_PARAMS = Params(k=3, t_u=13, t_e=1000, t_r=8)   # no batch expires in a run
PAY_ROUND_S = 1.7
PAY_MIN_ROUNDS = 7            # >= 100 payments, for a p90 with 10 beyond it
ABORT_EVERY = 4
ABORT_STEPS = ("verify", "vtxt", "forfeit", "fund")


def payment_stream(seed: int, seconds: float, users: int = PAY_USERS,
                   rounds: Optional[int] = None) -> Run:
    """Users pay each other out of round, one payment each per round;
    every fourth round one seeded ceremony step aborts and is retried."""
    rng = random.Random(seed)
    run = Run()
    names = [f"user{i}" for i in range(users)]
    for _ in range(SETUPS):   # the stream runs on the last set-up
        run.time_reference()
        start = clock()
        sim = harness.Simulation(PAY_PARAMS, rng.getrandbits(62))
        sim.operator.fund(OPERATOR_FUNDS)
        _board_all(sim, {name: PAY_FUNDS for name in names})
        run.setup_s.append(clock() - start)
    granted = OPERATOR_FUNDS + users * PAY_FUNDS
    tally = {name: PAY_FUNDS for name in names}
    round_s = []
    injected = fired = 0
    if rounds is None:
        rounds = passes_for(seconds, PAY_ROUND_S, PAY_MIN_ROUNDS)
    for r in range(rounds):
        plan = []
        for sender in rng.sample(names, users):
            recipient = rng.choice([x for x in names if x != sender])
            plan.append((sender, recipient, rng.randrange(100, 1_000)))
        abort = None
        if r % ABORT_EVERY == ABORT_EVERY - 1:
            step = rng.choice(ABORT_STEPS)
            abort = (step, sim.operator.name if step == "fund"
                     else rng.choice(names))

        height = sim.chain.height
        run.time_reference()
        start = clock()
        for sender, recipient, amount in plan:
            ws, wr = sim.wallets[sender], sim.wallets[recipient]
            vtxo = max((h.vtxo for h in ws.holdings.values()
                        if h.kind == "batch" and h.intent == "hold"),
                       key=lambda v: (v.value, v.key()))
            paid = clock()
            payment = sim.ark_pay(sender, recipient, [vtxo], amount)
            run.op_s.append(clock() - paid)
            run.attempted += 1
            received = [v for v in payment.outputs if v.owner == recipient]
            if not all(v.key() in wr.holdings for v in received):
                run.failed += 1
                continue
            change = [v for v in payment.outputs if v.owner == sender]
            sim.operator.verify_batch_swap(
                ws.make_swap(change, [v.value for v in change]))
            tally[sender] -= amount
            tally[recipient] += amount
        _, seconds_to_submit, aborted = _round(sim, abort)
        run.pass_s.append(clock() - start)
        round_s.append(seconds_to_submit)
        run.pass_vb.append(confirmed_vb(sim.chain, height))
        run.attempted += 1
        injected += abort is not None
        fired += aborted

    chain = sim.chain
    balances = {name: sum(h.vtxo.value for h in sim.wallets[name].holdings.values()
                          if h.kind == "batch" and not h.exited)
                for name in names}
    run.check("balances_match_tally", balances == tally,
              f"{sum(balances[n] != tally[n] for n in names)} users differ")
    run.check("chain_value_conserved", chain.total_value() == granted,
              f"{chain.total_value()} != {granted}")
    oracle, book = sim.state(), sim.book_projection()
    run.check("oracle_equals_book_CFS",
              (oracle.C, oracle.F, oracle.S) == (book.C, book.F, book.S),
              f"C {len(oracle.C)}/{len(book.C)} F {len(oracle.F)}/{len(book.F)}"
              f" S {len(oracle.S)}/{len(book.S)}")
    run.check("every_injected_abort_fired", fired == injected,
              f"{fired} of {injected}")
    run.stamp(balances, sim.balances(),
              [sorted(part) for part in (oracle.C, oracle.F, oracle.S)])
    run.stamp_chain(chain)
    pays_ms = [s * 1e3 for s in run.op_s]
    run.extra["pay_ms"] = (statistics.median(pays_ms), "ms")
    if len(pays_ms) >= 100:
        run.extra["pay_p90_ms"] = (statistics.quantiles(pays_ms, n=10)[-1], "ms")
    run.extra["round_s"] = (statistics.median(round_s), "s")
    run.extra["rounds_aborted"] = (fired, "count")
    check_signatures(run, [chain], rng)
    return run


# --- adversarial_traces ----------------------------------------------------

RACE_KS = (2, 3, 6)
RACES_PER_K = 4               # on-time races per k per pass, plus one late race
FF_PER_PASS = 1
FF_PARAMS = Params(k=3, t_u=13, t_e=60, t_r=8)
FF_DELTA = 2
FF_EDGES = (("mallory", "alice"), ("mallory", "bob"), ("alice", "bob"),
            ("alice", "mallory"), ("bob", "alice"), ("bob", "mallory"))
ADV_PASS_S = 0.5


def _clear_caches() -> None:
    """Empty every memo in the package, as a fresh process would find it."""
    for name, module in list(sys.modules.items()):
        if name == "arksim" or name.startswith("arksim."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def _trace_plan(rng: random.Random) -> List[tuple]:
    plan = []
    for k in RACE_KS:
        for _ in range(RACES_PER_K):
            plan.append(("race", k, (rng.randrange(2 * k), rng.randrange(2 * k)), 0))
        plan.append(("race", k, (2 * k - 1, 2 * k - 1), 1))   # late, worst delays
    for _ in range(FF_PER_PASS):
        edges = {edge: rng.choice((1, FF_DELTA)) for edge in FF_EDGES}
        plan.append(("ff", edges, rng.randrange(3)))
    return plan


def _run_trace(trace: tuple):
    if trace[0] == "race":
        _, k, delays, late_by = trace
        return harness.exit_race(k, delays, late_by=late_by)
    _, edges, offset = trace
    return harness.ff_double_spend_trace(0, FF_PARAMS, FF_DELTA, edges, offset)


def adversarial_traces(seed: int, seconds: float) -> Run:
    """Short independent simulations over one fixed key set: exit races at
    k = 2, 3, 6 (on time, and late at the worst delays) and fast-finality
    double-spend traces over seeded gossip delays and send offsets."""
    rng = random.Random(seed)
    run = Run()
    passes = passes_for(seconds, ADV_PASS_S, SETUPS)
    sampled_pass = rng.randrange(passes)
    sampled_chains: List[ledger.Chain] = []
    created: List[ledger.Chain] = []

    class RecordingChain(ledger.Chain):
        """Records each ledger a harness trace builds internally, so the
        benchmark can read it; it changes no behaviour."""
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            created.append(self)

    saved, harness.Chain = harness.Chain, RecordingChain
    try:
        for _ in range(SETUPS):
            _clear_caches()
            run.time_reference()
            start = clock()
            _run_trace(("race", 2, (0, 0), 0))
            _run_trace(("ff", {}, 0))
            run.setup_s.append(clock() - start)
        for index in range(passes):
            plan = _trace_plan(rng)
            created.clear()
            results = []
            run.time_reference()
            start = clock()
            for trace in plan:
                began = clock()
                results.append(_run_trace(trace))
                run.op_s.append(clock() - began)
            run.pass_s.append(clock() - start)
            chains = list(created)
            run.check("one_ledger_per_trace", len(chains) == len(plan),
                      f"{len(chains)} ledgers for {len(plan)} traces")
            run.pass_vb.append(sum(confirmed_vb(c) for c in chains))
            if index == sampled_pass:
                sampled_chains = chains
            run.attempted += len(plan)
            late_losses = 0
            for trace, result, chain in zip(plan, results, chains):
                if trace[0] == "ff":
                    run.check("ff_no_double_acceptance",
                              not result["both_accepted"], str(result["accepted"]))
                    run.check("ff_collateral_burned_above_gain",
                              result["burned"]
                              and chain.is_confirmed(result["burn_txid"])
                              and result["collateral"] > result["coalition_gain"],
                              str(result))
                elif trace[3] == 0:
                    run.check("race_exit_before_expiry",
                              result.exit_confirmed_before_expiry
                              and not result.sweep_confirmed, str(trace))
                else:
                    late_losses += not result.exit_confirmed_before_expiry
                run.stamp(trace, result)
                run.stamp_chain(chain)
            run.check("late_race_loses", late_losses >= 1,
                      f"{late_losses} late losses in a pass")
    finally:
        harness.Chain = saved
    run.extra["traces_per_s"] = (len(run.op_s) / sum(run.pass_s), "1/s")
    check_signatures(run, sampled_chains, rng)
    return run


WORKLOADS: Dict[str, Callable[[int, float], Run]] = {
    "wide_batch": wide_batch,
    "payment_stream": payment_stream,
    "adversarial_traces": adversarial_traces,
}
