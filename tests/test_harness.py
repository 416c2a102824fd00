import json
from dataclasses import replace

import pytest

from arksim import arkcore, crypto, harness
from arksim.arkcore import p2pk
from arksim.harness import (
    PARAMS_TE40 as PARAMS,
    SCENARIOS,
    ArkState,
    RaceResult,
    Simulation,
    audit,
    check_theorem,
    exit_race,
    leaf_spend,
    report_json,
    run_scenario,
    scenario_censoring_operator,
    scenario_happy_path,
    value_conserved,
)
from arksim.errors import InvariantError
from arksim.ledger import Chain, MaxDelay, OutPoint, Output, Params, Tx
from arksim.script import KEY_PATH, Witness


def test_all_scenarios_registered():
    assert set(SCENARIOS) == {
        "happy_path", "censoring_operator", "hostage_attack", "spam_attack",
        "ff_double_spend", "bank_run", "handover", "operator_shutdown",
    }


def settled_sim():
    sim = Simulation(PARAMS, 0)
    sim.operator.fund(50_000)
    sim.add_wallet("alice", [4_000])
    sim.board("alice", [4_000])
    sim.settle_commitment()
    return sim


def test_state_sets_are_disjoint():
    sim = settled_sim()
    state = sim.state()
    assert not (state.C & state.F or state.C & state.S or state.F & state.S)
    assert [v for v in audit(sim) if v.invariant == "partition"] == []
    assert state.C and not state.F


def test_oracle_agrees_with_operator_book():
    sim = settled_sim()
    sim.add_wallet("bob", [])
    v = sim.vtxos("alice")[0]
    sim.ark_pay("alice", "bob", [v], 1_500)
    state, book = sim.state(), sim.book_projection()
    assert state.C == book.C
    assert state.S == book.S
    assert [v for v in audit(sim) if v.invariant == "oracle-book"] == []


def test_ark_payment_moves_vtxo_to_spent():
    sim = settled_sim()
    sim.add_wallet("bob", [])
    v = sim.vtxos("alice")[0]
    before = sim.state()
    assert v.key() in before.C
    sim.ark_pay("alice", "bob", [v], 1_500, auto_receive=False)
    after = sim.state()
    assert v.key() in after.S
    assert len(after.F) == 2    # payment output + change


def test_oracle_reaches_every_leaf_branch():
    # one batch of four leaves through each rule of derive_state: a leaf
    # counts in C once its commitment is k deep, and leaves C when its own
    # tx confirms (unrolled, claimed or not) or at expiry; a payment's
    # output counts in F until it is consumed (then in S for good), unrolled
    # or expired
    sim = Simulation(PARAMS, 0)
    op = sim.operator
    op.fund(100_000)
    alice = sim.add_wallet("alice", [4_000])
    sim.add_wallet("bob", [])
    sim.board("alice", [1_000] * 4)
    bundle = op.assemble_commitment()
    op.run_signing(bundle, sim.wallets)
    op.submit_and_track(bundle)
    sim.all_bundles.append(bundle)
    assert sim.state().as_tuple() == (set(), set(), set())
    sim.tick(1)
    assert sim.chain.is_confirmed(bundle.commitment.txid)
    assert not sim.chain.is_stable(bundle.commitment.txid)
    assert sim.state().as_tuple() == (set(), set(), set())
    sim.tick(PARAMS.k + 1)
    v, u, *rest = sim.vtxos("alice")
    keys = {w.key() for w in rest}
    assert sim.state().as_tuple() == ({v.key(), u.key()} | keys, set(), set())
    sim.unroll("alice", v)
    sim.tick(2 * PARAMS.k)
    assert sim.chain.unspent(v.outpoint)
    assert sim.state().as_tuple() == ({u.key()} | keys, set(), set())
    _, unilateral = arkcore.classify_paths(v.lock, op.pk, PARAMS.t_u)
    claim = leaf_spend(v, unilateral[0], alice.sk)
    sim.tick(PARAMS.t_u)
    sim.chain.submit(claim, "alice")
    sim.tick(1)
    assert sim.chain.is_confirmed(claim.txid)
    assert sim.state().as_tuple() == ({u.key()} | keys, set(), set())
    first = sim.ark_pay("alice", "bob", [u], 600, auto_receive=False)
    b1, a1 = first.outputs
    assert sim.state().as_tuple() == (keys, {b1.key(), a1.key()}, {u.key()})
    (b2,) = sim.ark_pay("alice", "bob", [a1], 400, auto_receive=False).outputs
    assert sim.state().as_tuple() == (keys, {b1.key(), b2.key()}, {u.key(), a1.key()})
    sim.unroll("alice", u, then=[*first.resets, first.ark])
    sim.tick(2 * PARAMS.k)
    assert sim.chain.is_confirmed(first.ark.txid)
    assert sim.state().as_tuple() == (keys, {b2.key()}, {u.key(), a1.key()})
    sim.tick(bundle.batch.expiry - sim.chain.height)
    assert sim.state().as_tuple() == (set(), set(), {u.key(), a1.key()})


def test_unrolling_a_vtxo_that_no_tree_holds_is_a_typed_error():
    # an ark output's tx is no node of any bundle's tree, so there is no
    # path to publish: unroll refuses it with a reason, publishing nothing
    sim = settled_sim()
    sim.add_wallet("bob", [])
    (v,) = sim.vtxos("alice")
    paid, _ = sim.ark_pay("alice", "bob", [v], 1_000, auto_receive=False).outputs
    mempool, trace = dict(sim.chain.mempool), list(sim.chain.trace)
    with pytest.raises(arkcore.ArkError,
                       match=f"^no bundle's tree holds VTXO {paid.outpoint.txid[:8]}$"):
        sim.unroll("bob", paid)
    assert sim.chain.mempool == mempool and sim.chain.trace == trace


# each scenario as the command line runs it, and the hostage attack
# without resets, the one run whose payments take derive_state's
# no-resets branch
AUDITED_RUNS = {**{name: (name, {}) for name in SCENARIOS},
                "hostage_attack-no-resets": ("hostage_attack", {"resets": False})}


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("name", sorted(AUDITED_RUNS))
def test_oracle_equals_book_after_every_watcher_step(audited, name, seed):
    # the whole audit holds after each watcher step.  handover is exempt
    # from oracle == book only: its second operator's bundle is in
    # all_bundles, but book_projection reads only the first one's book
    scenario, config = AUDITED_RUNS[name]
    if scenario == "handover":
        audited.exempt.add("oracle-book")
    run_scenario(scenario, seed=seed, **config)
    # these two scenarios never tick
    assert audited.steps or scenario in ("censoring_operator", "ff_double_spend")


@pytest.mark.parametrize("invariant", ["partition", "oracle-book", "conservation", "liquidity"])
def test_each_audit_clause_fires(monkeypatch, invariant):
    sim = settled_sim()
    leaf = sim.vtxos("alice")[0]
    if invariant == "partition":
        # the oracle and the book agree, on a key in both C and F
        both = ArkState(C={leaf.key()}, F={leaf.key()})
        monkeypatch.setattr(Simulation, "state", lambda sim: both)
        monkeypatch.setattr(Simulation, "book_projection", lambda sim: both)
    elif invariant == "oracle-book":
        del sim.operator.book.vtxos[leaf.key()]
    elif invariant == "conservation":
        # an output no transaction created
        entry = sim.chain.utxos[sim.all_bundles[0].commitment.outpoint(0)]
        entry.output = replace(entry.output, value=entry.output.value + 1)
    else:
        monkeypatch.setattr(sim.operator, "spendable_liquidity", lambda: [])
    assert [(v.invariant, v.height) for v in audit(sim)] == [(invariant, sim.chain.height)]


def test_theorem_t1_safety_holds():
    assert check_theorem("T1-safety")["pass"]


def test_exit_race_result_fields():
    res = exit_race(2, (0, 0))
    assert res.exit_confirmed_before_expiry
    assert not res.sweep_confirmed


def counted(monkeypatch, module, name):
    """Calls of `module.name`, which keeps working."""
    calls = []
    real = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_a_second_race_of_one_shape_builds_and_signs_nothing(monkeypatch):
    harness._race_batch.cache_clear()
    builds = counted(monkeypatch, arkcore, "build_vtxt")
    batches = counted(monkeypatch, crypto, "sign_batch")
    exit_race(2, (0, 0))
    # one two-leaf tree: a root and two leaves, cosigned in one call
    assert len(builds) == 1 and [len(pairs) for pairs, in batches] == [3]
    del builds[:], batches[:]
    exit_race(2, (3, 1), late_by=1)
    assert (builds, batches) == ([], [])


def race_ledgers(monkeypatch):
    """Every ledger `exit_race` builds, in order."""
    made = []

    class Recording(Chain):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(harness, "Chain", Recording)
    return made


@pytest.mark.parametrize("k", [2, 3])
def test_a_cached_race_batch_changes_no_race(monkeypatch, k):
    # every delay pair the benchmark draws, and the late race at the worst
    races = [((a, b), 0) for a in range(2 * k) for b in range(2 * k)]
    races.append(((2 * k - 1, 2 * k - 1), 1))
    ledgers = race_ledgers(monkeypatch)
    harness._race_batch.cache_clear()
    batch = harness._race_batch(k, 30)
    cached = [*batch.vtxt.txs.values(), batch.sweep]
    signed = [(Tx(tx.ins, tx.outs).txid, list(tx.wits)) for tx in cached]

    def run_all():
        results = [exit_race(k, delays, late_by=late_by) for delays, late_by in races]
        return results, [chain.blocks for chain in ledgers[-len(races):]]

    warm = run_all()
    assert len(ledgers) == len(races)
    # a cold build for each race: the memo's function, uncached
    monkeypatch.setattr(harness, "_race_batch", harness._race_batch.__wrapped__)
    assert run_all() == warm
    assert [(Tx(tx.ins, tx.outs).txid, list(tx.wits)) for tx in cached] == signed
    assert [tx.txid for tx in cached] == [txid for txid, _ in signed]


def test_a_race_refuses_a_grant_that_is_not_its_funding(monkeypatch):
    monkeypatch.setattr(Chain, "grant", lambda chain, value, lock: OutPoint("00" * 32, 0))
    with pytest.raises(InvariantError, match="funding outpoint"):
        exit_race(2, (0, 0))


def test_report_shape():
    rep = scenario_happy_path(seed=5, params=PARAMS)
    assert set(rep) >= {"scenario", "seed", "verdicts", "balances",
                        "footprint", "events"}
    for v in rep["verdicts"]:
        assert set(v) == {"name", "pass", "detail"}


def test_report_json_deterministic():
    a = report_json(run_scenario("happy_path", seed=9, params=PARAMS))
    b = report_json(run_scenario("happy_path", seed=9, params=PARAMS))
    assert a == b
    c = report_json(run_scenario("happy_path", seed=10, params=PARAMS))
    assert a != c


def test_report_json_is_valid_json():
    rep = run_scenario("censoring_operator", seed=2, params=PARAMS)
    parsed = json.loads(report_json(rep))
    assert parsed["scenario"] == "censoring_operator"


def test_check_theorem_unknown_id():
    import pytest
    with pytest.raises(KeyError):
        check_theorem("T99")


def test_theorem_t2_balance_recoverable():
    out = check_theorem("T2", seed=3)
    assert out["pass"]
    assert out["claimed"] == out["recovered"]


def test_censoring_late_exit_loses_the_race():
    rep = scenario_censoring_operator(seed=0, late=True)
    assert [v["pass"] for v in rep["verdicts"]] == [True, True]
    assert rep["verdicts"][1]["detail"] == "sweep_confirmed=True"
    # the late exit fires at the worst delays, whatever the seed
    assert rep["events"] == [{"delays": [5, 5], "late": True}]


def test_censoring_late_verdicts_fail_if_late_exit_wins(monkeypatch):
    won = RaceResult(exit_confirmed_before_expiry=True, sweep_confirmed=False,
                     leaf_stable=True)
    monkeypatch.setattr(harness, "exit_race", lambda *args, **kwargs: won)
    rep = scenario_censoring_operator(seed=0, late=True)
    assert [v["pass"] for v in rep["verdicts"]] == [False, False]


def test_happy_path_oracle_agreement_covers_spent_set(monkeypatch):
    real = Simulation.book_projection

    def without_spent(sim):
        book = real(sim)
        book.S = set()
        return book

    monkeypatch.setattr(Simulation, "book_projection", without_spent)
    verdicts = {v["name"]: v["pass"] for v in scenario_happy_path(seed=0)["verdicts"]}
    assert verdicts["oracle_agreement"] is False


def test_value_conserved_sees_minted_value():
    sim = settled_sim()
    assert value_conserved(sim.chain)
    # an output no transaction created breaks the identity
    entry = next(iter(sim.chain.utxos.values()))
    entry.output = replace(entry.output, value=entry.output.value + 1)
    assert not value_conserved(sim.chain)


def test_fee_accounting_bills_a_reconfirmed_tx_once():
    sim = Simulation(PARAMS, 0, adversary=MaxDelay(prefer_new=True))
    alice = sim.add_wallet("alice", [1_000])
    bob = sim.add_wallet("bob", [])
    (op, _), = alice.funds

    def spend(value):
        tx = Tx(ins=(op,), outs=(Output(value, p2pk(bob.pk)),))
        tx.wits = [Witness(KEY_PATH, (crypto.sign(alice.sk, tx.digest()),))]
        return tx

    a, b = spend(900), spend(950)
    sim.chain.submit(a, "alice")
    sim.tick()
    sim.chain.submit(b, "bob")      # displaces a
    sim.tick()
    sim.chain.submit(a, "alice")    # displaces b: a is confirmed twice
    sim.tick()
    assert [e.event for e in sim.chain.trace if e.reason == a.txid] == \
        ["confirmed", "replaced", "confirmed"]
    assert sim.chain.records[b.txid].status == "replaced"
    assert sim.fee_accounting() == {
        "alice": {"txs": 1, "vbytes": harness.tx_vbytes(a), "burned": 100}}
    assert harness.tx_vbytes(a) == 111


def traced_flow(seed):
    """Board, settle, pay, swap the payment and exit it unilaterally."""
    sim = Simulation(PARAMS, seed)
    sim.operator.fund(50_000)
    sim.add_wallet("alice", [4_000])
    sim.add_wallet("bob", [])
    sim.board("alice", [4_000])
    sim.settle_commitment()
    v = sim.vtxos("alice")[0]
    sim.ark_pay("alice", "bob", [v], 1_500)
    sim.settle_commitment()
    for v in sim.vtxos("bob"):
        sim.wallets["bob"].unilateral_exit(v)
    sim.tick(2 * PARAMS.k)
    return sim.chain.trace


def test_trace_is_deterministic_and_ordered():
    first, second = traced_flow(4), traced_flow(4)
    assert first == second
    rounds = [e.round for e in first]
    assert rounds == sorted(rounds)
    assert {"confirmed", "vtxt", "forfeit", "boarding", "fund", "ark",
            "reset", "payment_accepted", "unilateral_exit"} <= \
        {e.event for e in first}
    assert {e.layer for e in first} == {"ledger", "operator_node", "wallet"}


def test_every_swap_commitment_weighs_197_vb():
    # the paper's constant footprint: one funding input, and the batch,
    # connector and change outputs, whatever came before; with t_e = 20
    # the first connectors are released from round 8 on, and the dust
    # they return is not spent
    sim = Simulation(Params(k=3, t_u=13, t_e=20, t_r=8), 0)
    sim.operator.fund(1_000_000)
    names = ("alice", "bob")
    for name in names:
        sim.add_wallet(name, [5_000])
        sim.board(name, [5_000])
    sim.settle_commitment()
    swaps = []
    for r in range(14):
        for name in names:
            sim.swap(name, sim.vtxos(name))
        if r == 2:
            # bob drops out at the forfeit step; the round is assembled again
            with pytest.raises(crypto.SessionAborted):
                sim.settle_commitment(lambda step, party: (step, party) == ("forfeit", "bob"))
        swaps.append(sim.settle_commitment())
    assert all(sim.chain.is_confirmed(b.commitment.txid) for b in swaps)
    # a swap commitment spends the operator's funding and nothing else
    assert [len(b.commitment.ins) for b in swaps] == [1] * 14
    assert [harness.tx_vbytes(b.commitment) for b in swaps] == [197] * 14


def test_each_tick_walks_only_the_bundles_not_yet_distributed(monkeypatch):
    # a tick's distribution visits the bundles whose commitment is not yet
    # stable, not every bundle ever settled, so its work does not grow
    # with the run's history; a bundle visited reads its commitment's txid
    sim = Simulation(Params(k=3, t_u=13, t_e=20, t_r=8), 0)
    sim.operator.fund(1_000_000)
    sim.add_wallet("alice", [5_000])
    sim.board("alice", [5_000])
    read, visits = [], []
    real_txid = Tx.txid
    monkeypatch.setattr(Tx, "txid", property(
        lambda tx: read.append(tx) or real_txid.fget(tx)))
    distribute = sim._distribute_confirmations

    def counting():
        del read[:]
        distribute()
        commitments = {id(b.commitment) for b in sim.all_bundles}
        visits.append(len({id(tx) for tx in read if id(tx) in commitments}))

    monkeypatch.setattr(sim, "_distribute_confirmations", counting)
    sim.settle_commitment()
    per_round = []
    for _ in range(60):
        sim.swap("alice", sim.vtxos("alice"))
        del visits[:]
        sim.settle_commitment()
        per_round.append(list(visits))
    assert len(sim.all_bundles) == 61
    # each round's k + 2 ticks visit its own bundle until it is stable
    assert per_round == [[1, 1, 1, 1, 0]] * 60
    # a bundle appended directly, as a caller running the ceremony itself
    # does, is still picked up, after the ones before it
    sim.swap("alice", sim.vtxos("alice"))
    bundle = sim.operator.assemble_commitment()
    sim.operator.run_signing(bundle, sim.wallets)
    sim.operator.submit_and_track(bundle)
    sim.all_bundles.append(bundle)
    seen = []
    monkeypatch.setattr(sim.wallets["alice"], "on_commitment_confirmed", seen.append)
    sim.tick(sim.params.k + 2)
    assert seen == [bundle]
