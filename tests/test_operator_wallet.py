import copy
import dataclasses
import os
import pathlib
import subprocess
import sys

import pytest

from arksim import crypto
from arksim.arkcore import p2pk
from arksim.crypto import SessionAborted
from arksim.errors import InvariantError
from arksim.harness import Simulation
from arksim.ledger import OutPoint, Output, Params, Tx
from arksim.operator_node import Reject, Request, VtxoSpec
from arksim.script import KEY_PATH, Witness

PARAMS = Params(k=3, t_u=13, t_e=40, t_r=8)


def boarded_sim(seed=0, funds=5_000, use_resets=True, fee=0):
    sim = Simulation(PARAMS, seed, use_resets=use_resets, fee=fee)
    sim.operator.fund(100_000)
    sim.add_wallet("alice", [funds])
    sim.board("alice", [funds - fee])
    sim.settle_commitment()
    return sim


def first_vtxo(sim, name="alice"):
    return next(h.vtxo for h in sim.wallets[name].holdings.values())


def book_state(book):
    """A deep copy of the book's fields, with the queue given by the
    identities of its requests, since requests compare by identity."""
    return (copy.deepcopy(dataclasses.replace(book, queue=[])),
            [id(r) for r in book.queue])


# --- boarding ------------------------------------------------------------


def test_boarding_requires_stable_confirmation():
    sim = Simulation(PARAMS, 1)
    sim.operator.fund(10_000)
    w = sim.add_wallet("alice", [1_000])
    tx, req = w.make_boarding(w.funds, [1_000])
    from arksim.script import KEY_PATH, Witness
    tx.wits = [Witness(KEY_PATH, (crypto.sign(w.sk, tx.digest()),))
               for _ in tx.ins]
    sim.chain.submit(tx, "alice")
    sim.tick(1)     # confirmed but not yet k-deep
    with pytest.raises(Reject):
        sim.operator.verify_boarding(req)


def test_boarding_value_must_cover_request():
    sim = Simulation(PARAMS, 1)
    sim.operator.fund(10_000)
    w = sim.add_wallet("alice", [1_000])
    tx, req = w.make_boarding(w.funds, [1_000])
    bad = Request("boarding", "alice", boarding_outpoint=tx.outpoint(0),
                  boarding_output=None,
                  outputs=(VtxoSpec(2_000, "alice", w.pk),))
    from arksim.script import KEY_PATH, Witness
    tx.wits = [Witness(KEY_PATH, (crypto.sign(w.sk, tx.digest()),))
               for _ in tx.ins]
    sim.chain.submit(tx, "alice")
    sim.tick(PARAMS.k + 1)
    with pytest.raises(Reject):
        sim.operator.verify_boarding(bad)


def test_happy_boarding_yields_confirmed_vtxo():
    sim = boarded_sim()
    v = first_vtxo(sim)
    assert v.value == 5_000
    assert v.key() in sim.operator.book.confirmedVTXO


# --- malformed requests ----------------------------------------------------


@pytest.mark.parametrize("method, kind", [
    ("verify_boarding", "boarding"), ("verify_batch_swap", "batch-swap"),
    ("verify_exit", "exit"), ("verify_ark_request", "ark")])
def test_intake_rejects_wrong_kind(method, kind):
    sim = boarded_sim()
    v = first_vtxo(sim)
    alice = sim.wallets["alice"]
    # a well-formed request, sent to the wrong intake
    if kind == "batch-swap":
        r = Request("exit", "alice", inputs=(v,),
                    exit_outputs=((v.value, p2pk(alice.pk)),))
    else:
        r = Request("batch-swap", "alice", inputs=(v,),
                    outputs=(VtxoSpec(v.value, "alice", alice.pk),))
    args = (r, {alice.pk.hex(): alice.sk}) if kind == "ark" else (r,)
    book = book_state(sim.operator.book)
    with pytest.raises(Reject, match=f"expected a {kind} request"):
        getattr(sim.operator, method)(*args)
    assert book_state(sim.operator.book) == book


def test_boarding_without_outpoint_rejected():
    sim = Simulation(PARAMS, 1)
    w = sim.add_wallet("alice", [1_000])
    r = Request("boarding", "alice", outputs=(VtxoSpec(1_000, "alice", w.pk),))
    with pytest.raises(Reject, match="no outpoint"):
        sim.operator.verify_boarding(r)


@pytest.mark.parametrize("kind", ["batch-swap", "ark"])
def test_input_without_outpoint_rejected(kind):
    sim = boarded_sim()
    alice = sim.wallets["alice"]
    v = copy.copy(first_vtxo(sim))
    v.outpoint = None
    r = Request(kind, "alice", inputs=(v,),
                outputs=(VtxoSpec(v.value, "alice", alice.pk),))
    book = book_state(sim.operator.book)
    with pytest.raises(Reject, match="no outpoint"):
        if kind == "ark":
            sim.operator.verify_ark_request(r, {alice.pk.hex(): alice.sk})
        else:
            sim.operator.verify_batch_swap(r)
    assert book_state(sim.operator.book) == book


def spend_request(kind, owner, v, value):
    """A `kind` request spending `v` for `value` back to `owner`."""
    if kind == "exit":
        return Request("exit", owner.name, inputs=(v,),
                       exit_outputs=((value, p2pk(owner.pk)),))
    return Request(kind, owner.name, inputs=(v,),
                   outputs=(VtxoSpec(value, owner.name, owner.pk),))


def submit_spend(sim, r):
    alice = sim.wallets["alice"]
    if r.kind == "ark":
        return sim.operator.verify_ark_request(r, {alice.pk.hex(): alice.sk})
    if r.kind == "exit":
        return sim.operator.verify_exit(r)
    return sim.operator.verify_batch_swap(r)


@pytest.mark.parametrize("kind", ["batch-swap", "exit", "ark"])
@pytest.mark.parametrize("fault, reason", [
    ("unknown", "UnknownVtxo"), ("pending", "AlreadyPending"),
    ("value", "ValueExceeded")])
def test_spending_intake_shares_one_rule(kind, fault, reason):
    sim = boarded_sim()
    alice = sim.wallets["alice"]
    v = first_vtxo(sim)
    value = v.value
    if fault == "unknown":
        v = dataclasses.replace(v, outpoint=OutPoint("ab" * 32, 7))
    elif fault == "pending":
        sim.operator.verify_exit(spend_request("exit", alice, v, v.value))
    else:
        value += 1
    book = book_state(sim.operator.book)
    with pytest.raises(Reject, match=f"^{reason}"):
        submit_spend(sim, spend_request(kind, alice, v, value))
    assert book_state(sim.operator.book) == book


def test_a_settled_boarding_is_refused_again():
    sim = Simulation(PARAMS, 0)
    sim.operator.fund(100_000)
    sim.add_wallet("alice", [5_000])
    req = sim.board("alice", [5_000])
    sim.settle_commitment()
    assert sim.operator.book.preSpent == set()
    with pytest.raises(Reject, match="not confirmed"):
        sim.operator.verify_boarding(req)


@pytest.mark.parametrize("kind", ["batch-swap", "exit"])
def test_a_settled_input_is_refused_again(kind):
    # a booked swap's inputs leave preSpent, as the book no longer knows
    # them; an exited VTXO stays in confirmedVTXO, so it stays held
    sim = boarded_sim()
    alice = sim.wallets["alice"]
    v = first_vtxo(sim)
    submit_spend(sim, spend_request(kind, alice, v, v.value))
    sim.settle_commitment()
    assert not sim.operator.pending_bundles
    reason = "UnknownVtxo" if kind == "batch-swap" else "AlreadyPending"
    for again in ("batch-swap", "exit", "ark"):
        with pytest.raises(Reject, match=f"^{reason}"):
            submit_spend(sim, spend_request(again, alice, v, v.value))


# --- single-spend discipline --------------------------------------------


def test_operator_refuses_double_swap_of_same_vtxo():
    sim = boarded_sim()
    v = first_vtxo(sim)
    alice = sim.wallets["alice"]
    r1 = Request("batch-swap", "alice", inputs=(v,),
                 outputs=(VtxoSpec(v.value, "alice", alice.pk),))
    sim.operator.verify_batch_swap(r1)
    r2 = Request("batch-swap", "alice", inputs=(v,),
                 outputs=(VtxoSpec(v.value, "alice", alice.pk),))
    with pytest.raises(Reject):
        sim.operator.verify_batch_swap(r2)


def test_operator_refuses_ark_after_swap():
    sim = boarded_sim()
    v = first_vtxo(sim)
    alice = sim.wallets["alice"]
    sim.operator.verify_batch_swap(
        Request("batch-swap", "alice", inputs=(v,),
                outputs=(VtxoSpec(v.value, "alice", alice.pk),)))
    req = alice.make_ark_request([v], [VtxoSpec(v.value, "alice", alice.pk)])
    with pytest.raises(Reject):
        sim.operator.verify_ark_request(req, {alice.pk.hex(): alice.sk})


def test_ark_request_value_bounded():
    sim = boarded_sim()
    v = first_vtxo(sim)
    alice = sim.wallets["alice"]
    req = alice.make_ark_request([v], [VtxoSpec(v.value + 1, "alice", alice.pk)])
    with pytest.raises(Reject):
        sim.operator.verify_ark_request(req, {alice.pk.hex(): alice.sk})


def test_ark_request_requires_matching_reset():
    sim = boarded_sim()
    v = first_vtxo(sim)
    alice = sim.wallets["alice"]
    req = alice.make_ark_request([v], [VtxoSpec(v.value, "alice", alice.pk)])
    req = Request("ark", "alice", inputs=req.inputs, outputs=req.outputs,
                  resets=(), input_expiries=req.input_expiries)
    with pytest.raises(Reject):
        sim.operator.verify_ark_request(req, {alice.pk.hex(): alice.sk})


# --- ceremony and rollback ----------------------------------------------


def test_abort_releases_nothing():
    sim = boarded_sim()
    alice = sim.wallets["alice"]
    v = first_vtxo(sim)
    sim.operator.verify_batch_swap(alice.make_swap([v], [v.value]))
    book_before = (dict(sim.operator.book.confirmedVTXO),
                   list(sim.operator.book.queue))
    trace_before = len(sim.chain.trace)
    with pytest.raises(SessionAborted):
        sim.settle_commitment(abort=lambda step, party: step == "fund")
    # the queue and confirmed set are unchanged; no commitment onchain
    assert dict(sim.operator.book.confirmedVTXO) == book_before[0]
    assert list(sim.operator.book.queue) == book_before[1]
    assert all(e.event != "fund" for e in sim.chain.trace[trace_before:])


def test_rollback_requeues_requests():
    sim = boarded_sim()
    alice = sim.wallets["alice"]
    v = first_vtxo(sim)
    swap = alice.make_swap([v], [v.value])
    sim.operator.verify_batch_swap(swap)
    bundle = sim.operator.assemble_commitment()
    sim.operator.run_signing(bundle, sim.wallets)
    sim.operator.submit_and_track(bundle)
    assert sim.operator.book.queue == []
    # the commitment leaves the mempool unmined, so it never confirms
    del sim.chain.mempool[bundle.commitment.txid]
    sim.tick(PARAMS.t_r + 2)
    assert bundle not in sim.operator.pending_bundles
    assert sim.operator.book.queue == [swap]
    assert v.key() in sim.operator.book.confirmedVTXO


def test_rollback_requeues_every_kind_in_order():
    sim = Simulation(PARAMS, 2)
    sim.operator.fund(100_000)
    for name in ("alice", "bob", "carol", "dave"):
        sim.add_wallet(name, [5_000])
    for name in ("alice", "bob", "carol"):
        sim.board(name, [5_000])
    sim.settle_commitment()
    w = sim.wallets
    dave = w["dave"]
    tx, boarding = dave.make_boarding(dave.funds, [5_000])
    tx.wits = [Witness(KEY_PATH, (crypto.sign(dave.sk, tx.digest()),))
               for _ in tx.ins]
    sim.chain.submit(tx, "dave")
    sim.tick(PARAMS.k + 1)
    exit_ = w["carol"].make_exit([first_vtxo(sim, "carol")], [5_000])
    swap_b = w["bob"].make_swap([first_vtxo(sim, "bob")], [5_000])
    swap_a = w["alice"].make_swap([first_vtxo(sim, "alice")], [5_000])
    # arrival order mixes the kinds; assembly takes them per kind
    for verify, r in ((sim.operator.verify_exit, exit_),
                      (sim.operator.verify_batch_swap, swap_b),
                      (sim.operator.verify_boarding, boarding),
                      (sim.operator.verify_batch_swap, swap_a)):
        verify(r)
    bundle = sim.operator.assemble_commitment()
    assert bundle.requests == [boarding, swap_b, swap_a, exit_]
    sim.operator.run_signing(bundle, sim.wallets)
    sim.operator.submit_and_track(bundle)
    assert sim.operator.book.queue == []
    # the commitment leaves the mempool unmined, so it never confirms
    del sim.chain.mempool[bundle.commitment.txid]
    sim.tick(PARAMS.t_r + 2)
    assert bundle not in sim.operator.pending_bundles
    assert sim.operator.book.queue == bundle.requests
    # the re-queued swap still holds its input
    with pytest.raises(Reject, match="^AlreadyPending"):
        sim.operator.verify_batch_swap(spend_request(
            "batch-swap", w["alice"], swap_a.inputs[0], 5_000))
    again = sim.operator.assemble_commitment()
    assert again.requests == [boarding, swap_b, swap_a, exit_]
    assert [len(leaves) for leaves in again.leaves] == [1, 1, 1, 0]


def test_sweep_lands_at_expiry():
    sim = boarded_sim()
    expiry = sim.all_bundles[0].batch.expiry
    while sim.chain.height < expiry + 2 * PARAMS.k:
        sim.tick(1)
    swept = [e for e in sim.chain.trace
             if e.event == "confirmed" and e.actor == "operator"
             and e.round >= expiry]
    assert swept, "no sweep confirmed at expiry"
    assert min(e.round for e in swept) == expiry
    # the watcher notes the one sweep it submits, a block before expiry
    assert [e[1:3] + (e.round,) for e in sim.chain.trace if e.event == "sweep"] == \
        [("operator_node", "operator", expiry - 1)]


# --- connector outputs ---------------------------------------------------


def swap_round(sim, name="alice"):
    """Swap the named wallet's first VTXO in one settled round."""
    w = sim.wallets[name]
    v = first_vtxo(sim, name)
    sim.operator.verify_batch_swap(w.make_swap([v], [v.value]))
    return sim.settle_commitment()


def test_forfeit_confirms_after_the_next_round():
    sim = boarded_sim()
    old = first_vtxo(sim)
    transcript = list(sim.wallets["alice"].holdings[old.key()].transcript)
    forfeit = swap_round(sim).forfeits[old.key()]   # round B forfeits `old`
    swap_round(sim)                                  # round C
    # alice unrolls the VTXO she forfeited in round B; the watcher must
    # answer before her unilateral path opens t_u blocks after the leaf
    for tx in transcript:
        sim.chain.submit(tx, "alice")
    sim.tick(PARAMS.t_u - 1)
    assert sim.chain.is_confirmed(transcript[-1].txid)
    assert sim.chain.spent_by.get(old.outpoint) == forfeit.txid
    assert sim.chain.is_confirmed(forfeit.txid)


def funding(sim):
    """The outpoints the operator would fund its next commitment from."""
    return [op for op, _ in sim.operator.spendable_liquidity()]


def test_connector_is_released_after_the_last_backed_expiry_plus_t_u():
    sim = boarded_sim()
    old = first_vtxo(sim)
    bundle = swap_round(sim)
    op = bundle.connector.funding
    release = old.expiry + PARAMS.t_u
    entry = sim.operator.deadlines[op]
    assert (entry.action, entry.not_before, entry.payload) == ("reserve", release + 1, {op})
    assert bundle.commitment.outs[op.index].value == PARAMS.epsilon
    while sim.chain.height <= release:
        assert op in sim.operator.reserved()
        assert op not in funding(sim)
        sim.tick(1)
    # the last tick watched at the release height itself
    assert op in sim.operator.reserved()
    sim.operator.watch_step()
    assert op not in sim.operator.deadlines
    assert sim.chain.trace[-1][1:] == ("operator_node", "operator", "release",
                                       op.txid[:8])
    # released, the dust output is funding of last resort
    assert funding(sim)[-1] == op


def test_funding_a_reserved_connector_is_an_invariant_error():
    sim = boarded_sim()
    op = swap_round(sim).connector.funding
    out = sim.chain.utxos[op].output
    derived = sim.operator.spendable_liquidity
    sim.operator.spendable_liquidity = lambda: [(op, out)] + derived()
    v = first_vtxo(sim)
    sim.operator.verify_batch_swap(sim.wallets["alice"].make_swap([v], [v.value]))
    with pytest.raises(InvariantError, match="reserved connector"):
        sim.operator.assemble_commitment()


def test_every_output_of_an_unrolled_connector_tree_stays_reserved():
    sim = Simulation(PARAMS, 0)
    sim.operator.fund(100_000)
    for name in ("alice", "bob"):
        sim.add_wallet(name, [5_000])
        sim.board(name, [5_000])
    sim.settle_commitment()
    old = first_vtxo(sim)
    transcript = list(sim.wallets["alice"].holdings[old.key()].transcript)
    for name in ("alice", "bob"):
        w = sim.wallets[name]
        v = first_vtxo(sim, name)
        sim.operator.verify_batch_swap(w.make_swap([v], [v.value]))
    bundle = sim.settle_commitment()
    tree = bundle.connector.vtxt
    (node,) = tree.txs.values()             # two anchors under one node
    root = bundle.connector.funding
    outs = [node.outpoint(i) for i in range(len(node.outs))]
    release = max(v.expiry for r in bundle.requests for v in r.inputs) + PARAMS.t_u
    # alice unrolls the VTXO she forfeited; the watcher answers with the
    # connector node and her forfeit
    for tx in transcript:
        sim.chain.submit(tx, "alice")
    sim.tick(PARAMS.t_u - 1)
    forfeit = bundle.forfeits[old.key()]
    assert sim.chain.is_confirmed(node.txid) and sim.chain.is_confirmed(forfeit.txid)
    unspent = [op for op in outs if sim.chain.unspent(op)]
    assert len(unspent) == 1 and unspent[0] not in forfeit.ins
    while sim.chain.height <= release:
        assert sim.operator.reserved() == {root, *outs}
        assert not {root, *outs} & set(funding(sim))
        sim.tick(1)
    sim.operator.watch_step()
    assert sim.operator.reserved() == set()
    assert funding(sim)[-1] == unspent[0]


def test_sixty_swap_rounds_keep_funding_and_the_table_steady():
    # each swap locks 5,330 sats until the old batch is swept and the
    # connector released; both come back into funding, so the operator's
    # spendable sats and its table settle into a cycle instead of draining
    params = Params(k=3, t_u=13, t_e=20, t_r=8)
    sim = Simulation(params, 0)
    sim.operator.fund(100_000)
    sim.add_wallet("alice", [5_000])
    sim.board("alice", [5_000])
    sim.settle_commitment()
    op, chain, lock = sim.operator, sim.chain, p2pk(sim.operator.pk)
    seen = {}
    for r in range(1, 61):
        swap_round(sim)
        assert op.book.preSpent == set()
        reserved = op.reserved()
        own = [(o, e) for o, e in chain.utxos.items() if e.output.lock == lock]
        spendable = sum(out.value for _, out in op.spendable_liquidity())
        held = sum(e.output.value for o, e in own if o in reserved)
        young = sum(e.output.value for o, e in own if o not in reserved
                    and chain.height - e.confirm_height < params.k)
        assert spendable + held + young == op.onchain_balance()
        seen[r] = (spendable, len(op.deadlines))
    assert seen[30] == seen[60]


# --- wallet-side bundle audit -------------------------------------------


def swap_bundle(sim):
    alice = sim.wallets["alice"]
    v = first_vtxo(sim)
    sim.operator.verify_batch_swap(alice.make_swap([v], [v.value]))
    return sim.operator.assemble_commitment()


def test_wallet_accepts_honest_bundle():
    sim = boarded_sim()
    bundle = swap_bundle(sim)
    assert sim.wallets["alice"].verify_commitment(bundle)


def test_wallet_rejects_value_creation():
    sim = boarded_sim()
    bundle = swap_bundle(sim)
    bad = copy.deepcopy(bundle)
    outs = list(bad.commitment.outs)
    outs[0] = Output(outs[0].value + 1, outs[0].lock)
    bad.commitment = Tx(ins=bad.commitment.ins, outs=tuple(outs))
    assert not sim.wallets["alice"].verify_commitment(bad)


def test_wallet_rejects_short_expiry():
    sim = boarded_sim()
    bundle = swap_bundle(sim)
    bad = copy.deepcopy(bundle)
    bad.batch.expiry = sim.chain.height + 2 * PARAMS.k + PARAMS.t_e - 1
    assert not sim.wallets["alice"].verify_commitment(bad)


def test_wallet_rejects_missing_own_leaf():
    sim = boarded_sim()
    bundle = swap_bundle(sim)
    bad = copy.deepcopy(bundle)
    bad.leaves = [[] for _ in bad.leaves]
    assert not sim.wallets["alice"].verify_commitment(bad)


def test_wallet_rejects_wrong_leaf_value():
    sim = boarded_sim()
    bundle = swap_bundle(sim)
    bad = copy.deepcopy(bundle)
    for leaves in bad.leaves:
        for leaf in leaves:
            leaf.value -= 1
    assert not sim.wallets["alice"].verify_commitment(bad)


def test_wallet_rejects_leaf_lists_shorter_than_requests():
    sim = boarded_sim()
    bundle = swap_bundle(sim)
    bad = copy.deepcopy(bundle)
    bad.leaves = bad.leaves[:-1]
    alice = sim.wallets["alice"]
    assert not alice.verify_commitment(bad)
    assert sim.chain.trace[-1][1:] == ("wallet", "alice", "verify_failed",
                                       "leaf lists do not match the requests")


def test_wallet_rejects_boarding_request_without_its_output():
    sim = Simulation(PARAMS, 0)
    sim.operator.fund(100_000)
    alice = sim.add_wallet("alice", [5_000])
    tx, boarding = alice.make_boarding(alice.funds, [5_000])
    tx.wits = [Witness(KEY_PATH, (crypto.sign(alice.sk, tx.digest()),))
               for _ in tx.ins]
    sim.chain.submit(tx, "alice")
    sim.tick(PARAMS.k + 1)
    sim.operator.verify_boarding(boarding)
    bad = copy.deepcopy(sim.operator.assemble_commitment())
    bad.requests[0].boarding_output = None
    assert not alice.verify_commitment(bad)
    assert sim.chain.trace[-1][1:] == ("wallet", "alice", "verify_failed",
                                       "boarding request without its output")


def test_wallet_rejects_bundle_without_batch():
    sim = boarded_sim()
    bundle = swap_bundle(sim)
    bad = copy.deepcopy(bundle)
    bad.batch = None
    alice = sim.wallets["alice"]
    assert not alice.verify_commitment(bad)
    assert sim.chain.trace[-1][1:] == ("wallet", "alice", "verify_failed",
                                       "bundle has no batch")


def test_wallet_rejects_leaf_without_outpoint():
    sim = boarded_sim()
    bundle = swap_bundle(sim)
    bad = copy.deepcopy(bundle)
    for leaves in bad.leaves:
        for leaf in leaves:
            leaf.outpoint = None
    alice = sim.wallets["alice"]
    assert not alice.verify_commitment(bad)
    assert sim.chain.trace[-1][1:] == ("wallet", "alice", "verify_failed",
                                       "leaf has no outpoint")


def test_wallet_path_check_rejects_leaf_without_outpoint():
    sim = boarded_sim()
    bundle = swap_bundle(sim)
    leaf = copy.deepcopy(bundle.leaves[0][0])
    leaf.outpoint = None
    alice = sim.wallets["alice"]
    assert not alice.verify_path(bundle, leaf)
    assert sim.chain.trace[-1][1:] == ("wallet", "alice", "verify_failed",
                                       "leaf has no outpoint")


# --- payments and balances ----------------------------------------------


def payment_to_bob(sim):
    """Alice's payment of 2,000 to bob, as the operator returns it."""
    sim.add_wallet("bob", [])
    v = first_vtxo(sim)
    alice = sim.wallets["alice"]
    bob = sim.wallets["bob"]
    req = alice.make_ark_request([v], [VtxoSpec(2_000, "bob", bob.pk),
                                       VtxoSpec(v.value - 2_000, "alice", alice.pk)])
    return sim.operator.verify_ark_request(req, {alice.pk.hex(): alice.sk})


def outpointless_payment_receipt():
    """Bob's answer to a payment whose outputs name no outpoint, and the
    last trace record without its round."""
    sim = boarded_sim()
    payment = payment_to_bob(sim)
    for out in payment.outputs:
        out.outpoint = None
    bob = sim.wallets["bob"]
    return bob.receive_payment(payment), sim.chain.trace[-1][1:]


def test_payment_receipt_and_swap():
    sim = boarded_sim()
    sim.add_wallet("bob", [])
    v = first_vtxo(sim)
    payment = sim.ark_pay("alice", "bob", [v], 2_000)
    bob = sim.wallets["bob"]
    assert any(h.kind == "ark" and h.vtxo.value == 2_000
               for h in bob.holdings.values())
    assert any(e.actor == "bob" and e.event == "payment_accepted"
               for e in sim.chain.trace)


def test_recheck_of_accepted_payment_is_free(point_mul_calls):
    sim = boarded_sim()
    sim.add_wallet("bob", [])
    payment = sim.ark_pay("alice", "bob", [first_vtxo(sim)], 2_000)
    bob = sim.wallets["bob"]
    del point_mul_calls[:]
    # every witness was verified on receipt, so the memo answers for all
    assert bob._check_witnesses(payment)
    assert point_mul_calls == []
    crypto._verified.cache_clear()
    assert bob._check_witnesses(payment)
    assert point_mul_calls


def test_payment_rejected_without_transcript():
    sim = boarded_sim()
    payment = payment_to_bob(sim)
    bob = sim.wallets["bob"]
    payment.paths = [[] for _ in payment.ark.ins]   # transcript withheld
    assert bob.receive_payment(payment) is None
    assert any(e.actor == "bob" and e.event == "payment_rejected"
               for e in sim.chain.trace)


def test_payment_without_outpoints_rejected_under_optimize():
    # asserts are stripped under -O, so the rejection must not rest on one
    tests = pathlib.Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (
        str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH")))))
    code = "import test_operator_wallet as t; print(t.outpointless_payment_receipt())"
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == ("(None, ('wallet', 'bob', 'payment_rejected', "
                           "'output not in the ark tx'))\n")


def test_payment_rejected_on_output_outside_the_ark_tx():
    sim = boarded_sim()
    payment = payment_to_bob(sim)
    for out in payment.outputs:
        out.outpoint = OutPoint(out.outpoint.txid, len(payment.ark.outs))
    bob = sim.wallets["bob"]
    assert bob.receive_payment(payment) is None
    assert sim.chain.trace[-1][1:] == ("wallet", "bob", "payment_rejected",
                                       "output not in the ark tx")


def test_balance_counts_unexpired_only():
    sim = boarded_sim()
    alice = sim.wallets["alice"]
    assert alice.balance() == 5_000
    v = first_vtxo(sim)
    while sim.chain.height < v.expiry - 2 * PARAMS.k:
        sim.tick(1, watch=False)
    assert alice.balance() == 0     # too close to expiry to be safe


def test_unilateral_exit_confirms():
    sim = boarded_sim()
    alice = sim.wallets["alice"]
    v = first_vtxo(sim)
    alice.unilateral_exit(v)
    sim.tick(2 * PARAMS.k, watch=False)
    assert sim.chain.unspent(v.outpoint)


def test_change_vtxo_exits_unilaterally():
    sim = boarded_sim(funds=10_000)
    sim.add_wallet("bob", [])
    alice = sim.wallets["alice"]
    payment = sim.ark_pay("alice", "bob", [first_vtxo(sim)], 2_500)
    change = next(v for v in payment.outputs if v.owner == "alice")
    assert alice.unilateral_exit(change)
    sim.tick(2 * PARAMS.k + 2, watch=False)
    assert sim.chain.unspent(change.outpoint)


def test_spend_policy_fires_at_deadline():
    sim = boarded_sim()
    alice = sim.wallets["alice"]
    v = first_vtxo(sim)
    deadline = v.expiry - 2 * PARAMS.k - 1
    while sim.chain.height < deadline - 1:
        sim.tick(1, watch=False)
        assert not alice.spend_policy_step() or sim.chain.height >= deadline
    sim.tick(1, watch=False)
    assert sim.chain.height >= deadline or alice.spend_policy_step()
    while sim.chain.height < v.expiry:
        sim.tick(1, watch=False)
        alice.spend_policy_step()
    assert sim.chain.unspent(v.outpoint)
