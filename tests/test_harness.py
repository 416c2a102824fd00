import json
from dataclasses import replace

import pytest

from arksim import crypto, harness
from arksim.arkcore import p2pk
from arksim.harness import (
    SCENARIOS,
    RaceResult,
    Simulation,
    check_theorem,
    derive_state,
    exit_race,
    report_json,
    run_scenario,
    scenario_censoring_operator,
    scenario_happy_path,
    value_conserved,
)
from arksim.ledger import MaxDelay, Output, Params, Tx
from arksim.script import KEY_PATH, Witness

PARAMS = Params(k=3, t_u=13, t_e=40, t_r=8)


def test_all_scenarios_registered():
    assert set(SCENARIOS) == {
        "happy_path", "censoring_operator", "hostage_attack", "spam_attack",
        "ff_double_spend", "bank_run", "handover", "operator_shutdown",
    }


def test_state_sets_are_disjoint():
    sim = Simulation(PARAMS, 0)
    sim.operator.fund(50_000)
    sim.add_wallet("alice", [4_000])
    sim.board("alice", [4_000])
    sim.settle_commitment()
    state = sim.state()
    state.check()
    assert state.C and not state.F


def test_oracle_agrees_with_operator_book():
    sim = Simulation(PARAMS, 0)
    sim.operator.fund(50_000)
    sim.add_wallet("alice", [4_000])
    sim.add_wallet("bob", [])
    sim.board("alice", [4_000])
    sim.settle_commitment()
    v = next(h.vtxo for h in sim.wallets["alice"].holdings.values())
    sim.ark_pay("alice", "bob", [v], 1_500)
    state, book = sim.state(), sim.book_projection()
    assert state.C == book.C
    assert state.S == book.S


def test_ark_payment_moves_vtxo_to_spent():
    sim = Simulation(PARAMS, 0)
    sim.operator.fund(50_000)
    sim.add_wallet("alice", [4_000])
    sim.add_wallet("bob", [])
    sim.board("alice", [4_000])
    sim.settle_commitment()
    v = next(h.vtxo for h in sim.wallets["alice"].holdings.values())
    before = sim.state()
    assert v.key() in before.C
    sim.ark_pay("alice", "bob", [v], 1_500, auto_receive=False)
    after = sim.state()
    assert v.key() in after.S
    assert len(after.F) == 2    # payment output + change


def test_exit_race_result_fields():
    res = exit_race(2, (0, 0))
    assert res.exit_confirmed_before_expiry
    assert not res.sweep_confirmed


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
    sim = Simulation(PARAMS, 0)
    sim.operator.fund(50_000)
    sim.add_wallet("alice", [4_000])
    sim.board("alice", [4_000])
    sim.settle_commitment()
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
    v = next(h.vtxo for h in sim.wallets["alice"].holdings.values())
    sim.ark_pay("alice", "bob", [v], 1_500)
    sim.settle_commitment()
    bob = sim.wallets["bob"]
    for h in list(bob.holdings.values()):
        bob.unilateral_exit(h.vtxo)
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
            w = sim.wallets[name]
            v = next(h.vtxo for h in w.holdings.values())
            sim.operator.verify_batch_swap(w.make_swap([v], [v.value]))
        if r == 2:
            # bob drops out at the forfeit step; the round is assembled again
            with pytest.raises(crypto.SessionAborted):
                sim.settle_commitment(lambda step, party: (step, party) == ("forfeit", "bob"))
        swaps.append(sim.settle_commitment())
    assert all(sim.chain.is_confirmed(b.commitment.txid) for b in swaps)
    assert [len(b.funding_ins) for b in swaps] == [1] * 14
    assert [harness.tx_vbytes(b.commitment) for b in swaps] == [197] * 14
