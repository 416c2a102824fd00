import copy
import dataclasses
import functools
import os
import pathlib
import re
import subprocess
import sys
from types import SimpleNamespace

import pytest

from arksim import arkcore, crypto, harness, operator_node, wallet
from arksim.arkcore import classify_paths, p2pk
from arksim.crypto import SessionAborted
from arksim.errors import InvariantError
from arksim.fastfinality import FfOperator
from arksim.harness import PARAMS_TE40 as PARAMS, Simulation, leaf_spend
from arksim.ledger import OutPoint, Output, Params, SubmitError, Tx
from arksim.operator_node import (ArkPayment, Bundle, Operator, Reject, Request, VtxoSpec,
                                  consumed_vtxos)
from arksim.script import KEY_PATH, UNSPENDABLE, AbsTimelock, And, Witness, taproot
from arksim.wallet import transcript as wallet_transcript


def boarded_sim(seed=0, funds=5_000, use_resets=True, fee=0):
    sim = Simulation(PARAMS, seed, use_resets=use_resets, fee=fee)
    sim.operator.fund(100_000)
    sim.add_wallet("alice", [funds])
    sim.board("alice", [funds - fee])
    sim.settle_commitment()
    return sim


def submit_boarding(sim, name, values, funds=None):
    """`name`'s boarding tx for `values` from `funds` (all its funds by
    default), signed and submitted, and its request; the operator can
    verify the request once the tx is k deep."""
    w = sim.wallets[name]
    tx, req = w.make_boarding(w.funds if funds is None else funds, values)
    tx.wits = [Witness(KEY_PATH, (crypto.sign(w.sk, tx.digest()),))
               for _ in tx.ins]
    sim.chain.submit(tx, name)
    return tx, req


def forge(w, req):
    """`req`, which `w`'s owner forges on purpose, recorded in its wallet
    (`Wallet.requests`) as a request it made."""
    w.requests.append(req)
    return req


def book_state(book):
    """A deep copy of the book's fields, with the queue given by the
    identities of its requests, since requests compare by identity."""
    return (copy.deepcopy(dataclasses.replace(book, queue=[])),
            [id(r) for r in book.queue])


# --- boarding ------------------------------------------------------------


def test_boarding_requires_stable_confirmation():
    sim = Simulation(PARAMS, 1)
    sim.operator.fund(10_000)
    sim.add_wallet("alice", [1_000])
    _, req = submit_boarding(sim, "alice", [1_000])
    sim.tick(1)     # confirmed but not yet k-deep
    book = book_state(sim.operator.book)
    with pytest.raises(Reject, match="^boarding output not confirmed in the stable view$"):
        sim.operator.verify_boarding(req)
    assert book_state(sim.operator.book) == book


def test_boarding_value_must_cover_request():
    sim = Simulation(PARAMS, 1)
    sim.operator.fund(10_000)
    w = sim.add_wallet("alice", [1_000])
    tx, _ = submit_boarding(sim, "alice", [1_000])
    bad = Request("boarding", "alice", boarding_outpoint=tx.outpoint(0),
                  outputs=(VtxoSpec(2_000, "alice", w.pk),))
    sim.tick(PARAMS.k + 1)
    book = book_state(sim.operator.book)
    with pytest.raises(Reject, match="^funds do not cover the requested VTXOs$"):
        sim.operator.verify_boarding(bad)
    assert book_state(sim.operator.book) == book


def test_a_boarding_output_already_pending_is_refused():
    sim = Simulation(PARAMS, 1)
    sim.operator.fund(10_000)
    sim.add_wallet("alice", [1_000])
    _, req = submit_boarding(sim, "alice", [1_000])
    sim.tick(PARAMS.k + 1)
    sim.operator.verify_boarding(req)
    book = book_state(sim.operator.book)
    with pytest.raises(Reject, match="^boarding output already pending$"):
        sim.operator.verify_boarding(dataclasses.replace(req))   # a second request
    assert book_state(sim.operator.book) == book


@pytest.mark.parametrize("lock, reason", [
    (lambda user, op: p2pk(user), "VTXO key path must be unspendable"),
    (lambda user, op: arkcore.boarding_lock(user, op, PARAMS.t_b - 1),
     "path 1 neither requires the operator nor waits t_u"),
], ids=["key-path", "short-timeout"])
def test_a_boarding_output_under_an_unsafe_lock_is_refused(lock, reason):
    sim = Simulation(PARAMS, 1)
    sim.operator.fund(10_000)
    alice = sim.add_wallet("alice", [])
    op = sim.chain.grant(1_000, lock(alice.pk, sim.operator.pk))
    sim.tick(PARAMS.k + 1)
    req = Request("boarding", "alice", boarding_outpoint=op,
                  outputs=(VtxoSpec(1_000, "alice", alice.pk),))
    book = book_state(sim.operator.book)
    with pytest.raises(Reject, match=f"^boarding lock unsafe: {reason}$"):
        sim.operator.verify_boarding(req)
    assert book_state(sim.operator.book) == book


def test_a_round_the_operator_cannot_fund_is_refused():
    # boarding needs no operator funds; a swap needs its batch output and
    # connector, and this operator has none
    sim = Simulation(PARAMS, 0)
    sim.add_wallet("alice", [5_000])
    sim.board("alice", [5_000])
    assert sim.settle_commitment() is not None
    sim.swap("alice", sim.vtxos("alice"))
    op = sim.operator
    book, deadlines, trace = book_state(op.book), dict(op.deadlines), len(sim.chain.trace)
    with pytest.raises(Reject, match="^InsufficientLiquidity$"):
        op.assemble_commitment()
    assert book_state(op.book) == book and op.deadlines == deadlines
    assert op.pending_bundles == [] and sim.chain.trace[trace:] == []


def test_happy_boarding_yields_confirmed_vtxo():
    sim = boarded_sim()
    v = sim.vtxos("alice")[0]
    assert v.value == 5_000
    assert sim.operator.book.vtxos[v.key()] == ("C", v)


# --- malformed requests ----------------------------------------------------


@pytest.mark.parametrize("method, kind", [
    ("verify_boarding", "boarding"), ("verify_batch_swap", "batch-swap"),
    ("verify_exit", "exit"), ("verify_ark_request", "ark")])
def test_intake_rejects_wrong_kind(method, kind):
    sim = boarded_sim()
    v = sim.vtxos("alice")[0]
    alice = sim.wallets["alice"]
    # a well-formed request, sent to the wrong intake
    r = own_request("exit" if kind == "batch-swap" else "batch-swap", alice, v, v.value)
    args = (r, sim.wallets) if kind == "ark" else (r,)
    book = book_state(sim.operator.book)
    with pytest.raises(Reject, match=f"expected a {kind} request"):
        getattr(sim.operator, method)(*args)
    assert book_state(sim.operator.book) == book


def test_a_reclaimed_boarding_output_leaves_the_queue():
    # alice's queued boarding output outlives t_b unsettled, and she
    # reclaims it on its exit path.  Assembly reads each boarding output
    # from the chain, so it drops her request with a reason and releases
    # its key, and bob's boarding settles
    params = Params(k=3, t_u=13, t_e=40, t_b=5, t_r=8)
    sim = Simulation(params, 0)
    sim.operator.fund(100_000)
    alice = sim.add_wallet("alice", [5_000])
    sim.add_wallet("bob", [5_000])
    op = sim.board("alice", [5_000]).boarding_outpoint
    sim.tick(params.t_b + 1)
    out = sim.chain.utxos[op].output
    reclaim = Tx(ins=(op,), outs=(Output(out.value, p2pk(alice.pk)),))
    reclaim.wits = [Witness(arkcore.BOARDING_EXIT_PATH,
                            (crypto.sign(alice.sk, reclaim.digest()),), out.lock.paths)]
    sim.chain.submit(reclaim, "alice")
    sim.tick(1)
    assert sim.chain.is_confirmed(reclaim.txid)
    bob_request = sim.board("bob", [5_000])
    bundle = sim.settle_commitment()
    assert bundle.requests == [bob_request]
    assert sim.chain.is_stable(bundle.commitment.txid)
    assert [v.value for v in sim.vtxos("bob")] == [5_000]
    assert sim.operator.book.queue == [] and sim.operator.held() == set()
    assert [e[1:] for e in sim.chain.trace if e.event == "drop"] == [
        ("operator_node", "operator", "drop", f"boarding output spent {op.txid[:8]}")]
    # her wallet forgets the reclaimed output too; it counted 0 already
    assert alice.boarding_outputs == [] and alice.balance() == 0


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
    v = copy.copy(sim.vtxos("alice")[0])
    v.outpoint = None
    r = Request(kind, "alice", inputs=(v,),
                outputs=(VtxoSpec(v.value, "alice", alice.pk),))
    book = book_state(sim.operator.book)
    with pytest.raises(Reject, match="no outpoint"):
        if kind == "ark":
            sim.operator.verify_ark_request(r, sim.wallets)
        else:
            sim.operator.verify_batch_swap(r)
    assert book_state(sim.operator.book) == book


def spend_request(kind, owner, v, value, inputs=None):
    """A `kind` request spending `v` (or the tuple `inputs`) for `value`
    back to `owner`, built by hand as a request no wallet made: intake
    refuses it or not by its own rule (`own_request` for a wallet's own)."""
    inputs = (v,) if inputs is None else inputs
    if kind == "exit":
        return Request("exit", owner.name, inputs=inputs,
                       exit_outputs=((value, p2pk(owner.pk)),))
    return Request(kind, owner.name, inputs=inputs,
                   outputs=(VtxoSpec(value, owner.name, owner.pk),))


def own_request(kind, owner, v, value):
    """`spend_request`'s request of `v`, made by `owner`'s wallet."""
    if kind == "exit":
        return owner.make_exit([v], [value])
    if kind == "batch-swap":
        return owner.make_swap([v], [value])
    return owner.make_ark_request([v], [VtxoSpec(value, owner.name, owner.pk)])


def submit_spend(sim, r):
    if r.kind == "ark":
        return sim.operator.verify_ark_request(r, sim.wallets)
    if r.kind == "exit":
        return sim.operator.verify_exit(r)
    return sim.operator.verify_batch_swap(r)


@pytest.mark.parametrize("kind", ["batch-swap", "exit", "ark"])
@pytest.mark.parametrize("fault, reason", [
    ("unknown", "UnknownVtxo"), ("pending", "AlreadyPending"),
    ("value", "ValueExceeded"), ("empty", "NoInput"),
    ("duplicate", "DuplicateInput"), ("inflated", "InputMismatch"),
    ("foreign", "InputMismatch")])
def test_spending_intake_shares_one_rule(kind, fault, reason):
    # every value, lock and expiry the operator reads after intake is the
    # book's: a copy that differs from its booked VTXO is refused
    sim = boarded_sim()
    payer = sim.wallets["alice"]
    v = sim.vtxos("alice")[0]
    inputs, value = (v,), v.value
    if fault == "unknown":
        inputs = (dataclasses.replace(v, outpoint=OutPoint("ab" * 32, 7)),)
    elif fault == "pending":
        sim.operator.verify_exit(own_request("exit", payer, v, v.value))
    elif fault == "value":
        value += 1
    elif fault == "empty":
        inputs, value = (), 0
    elif fault == "duplicate":
        inputs, value = (v, v), 2 * v.value
    elif fault == "inflated":
        inputs, value = (dataclasses.replace(v, value=10 * v.value),), 10 * v.value
    else:
        # a wallet with no funds puts its own lock, owner and key on a copy
        # of alice's VTXO
        payer = sim.add_wallet("mallory", [])
        lock = arkcore.vtxo_lock(payer.pk, sim.operator.pk, PARAMS.t_u)
        inputs = (dataclasses.replace(v, lock=lock, owner="mallory",
                                      owner_pk=payer.pk),)
    book = book_state(sim.operator.book)
    with pytest.raises(Reject, match=f"^{reason}"):
        submit_spend(sim, spend_request(kind, payer, v, value, inputs))
    assert book_state(sim.operator.book) == book


@pytest.mark.parametrize("kind", ["boarding", "batch-swap", "exit", "ark"])
def test_a_negative_output_value_is_refused(kind):
    # 10,000 and -5,000 sats do not exceed a 5,000-sat input, yet would pay
    # out 10,000: every intake refuses a negative output before it books
    sim = boarded_sim()
    alice = sim.wallets["alice"]
    values = (10_000, -5_000)
    if kind == "boarding":
        bob = sim.add_wallet("bob", [5_000])
        tx, _ = submit_boarding(sim, "bob", [5_000])
        sim.tick(PARAMS.k + 1)
        r = Request("boarding", "bob", boarding_outpoint=tx.outpoint(0),
                    outputs=tuple(VtxoSpec(x, "bob", bob.pk) for x in values))
    elif kind == "exit":
        r = Request("exit", "alice", inputs=tuple(sim.vtxos("alice")),
                    exit_outputs=tuple((x, p2pk(alice.pk)) for x in values))
    else:
        r = Request(kind, "alice", inputs=tuple(sim.vtxos("alice")),
                    outputs=tuple(VtxoSpec(x, "alice", alice.pk) for x in values))
    book = book_state(sim.operator.book)
    with pytest.raises(Reject, match="^NegativeOutput$"):
        if kind == "boarding":
            sim.operator.verify_boarding(r)
        else:
            submit_spend(sim, r)
    assert book_state(sim.operator.book) == book


def test_a_settled_boarding_is_refused_again():
    sim = Simulation(PARAMS, 0)
    sim.operator.fund(100_000)
    sim.add_wallet("alice", [5_000])
    req = sim.board("alice", [5_000])
    sim.settle_commitment()
    assert sim.operator.held() == set()
    with pytest.raises(Reject, match="not confirmed"):
        sim.operator.verify_boarding(req)


@pytest.mark.parametrize("kind", ["batch-swap", "exit"])
def test_a_settled_input_is_refused_again(kind):
    # a booked swap's or exit's input is in the book's S, not C or F, so
    # intake no longer knows it
    sim = boarded_sim()
    alice = sim.wallets["alice"]
    v = sim.vtxos("alice")[0]
    submit_spend(sim, own_request(kind, alice, v, v.value))
    sim.settle_commitment()
    assert not sim.operator.pending_bundles
    assert sim.operator.book.vtxos[v.key()] == ("S", None)
    for again in ("batch-swap", "exit", "ark"):
        with pytest.raises(Reject, match="^UnknownVtxo"):
            submit_spend(sim, spend_request(again, alice, v, v.value))


def test_a_settled_exit_is_spent_in_the_book_and_the_oracle():
    sim = boarded_sim()
    (v,) = sim.vtxos("alice")
    sim.exit("alice", [v])
    sim.settle_commitment()
    state, book = sim.state(), sim.book_projection()
    assert v.key() in state.S and v.key() in book.S
    assert state.as_tuple() == book.as_tuple()


@pytest.mark.parametrize("kind", ["batch-swap", "exit", "ark"])
def test_an_expired_input_is_refused(kind):
    # at the batch's expiry the watcher sweeps it, and the oracle no longer
    # counts its leaves; intake refuses them by the same rule
    sim = boarded_sim()
    alice = sim.wallets["alice"]
    (v,) = sim.vtxos("alice")
    sim.tick(v.expiry - sim.chain.height)
    assert sim.chain.height == v.expiry and v.key() not in sim.state().C
    book = book_state(sim.operator.book)
    with pytest.raises(Reject, match=rf"^Expired \('{v.outpoint.txid}', 0\)$"):
        submit_spend(sim, own_request(kind, alice, v, v.value))
    assert book_state(sim.operator.book) == book


def claim(sim, owner, v):
    """`owner` claims `v`, already unrolled, on its unilateral path once
    t_u has passed."""
    _, unilateral = classify_paths(v.lock, sim.operator.pk, PARAMS.t_u)
    tx = leaf_spend(v, unilateral[0], owner.sk)
    sim.tick(PARAMS.t_u)
    sim.chain.submit(tx, owner.name)
    sim.tick(1)
    assert sim.chain.is_confirmed(tx.txid)


@pytest.mark.parametrize("kind", ["batch-swap", "exit", "ark"])
@pytest.mark.parametrize("case", ["leaf-unrolled", "leaf-claimed", "payment-claimed"])
def test_an_unrolled_input_is_refused(kind, case):
    # once a VTXO's own tx confirms it is a plain UTXO, no longer in C or
    # F: its owner can claim it on chain, so a forfeit, exit or reset of it
    # would pay it out a second time from the operator's funds
    sim = boarded_sim()
    owner = sim.wallets["alice"]
    (v,) = sim.vtxos("alice")
    if case == "payment-claimed":
        owner = sim.add_wallet("bob", [])
        payment = sim.ark_pay("alice", "bob", [v], 1_500, auto_receive=False)
        (v,) = (out for out in payment.outputs if out.owner == "bob")
        owner.receive_payment(payment)
        owner.unilateral_exit(v)
    else:
        sim.unroll("alice", v)
    sim.tick(2 * PARAMS.k)
    assert sim.chain.unspent(v.outpoint)
    if case != "leaf-unrolled":
        claim(sim, owner, v)
    book, balances = book_state(sim.operator.book), sim.balances()
    with pytest.raises(Reject, match=rf"^UnknownVtxo \('{v.outpoint.txid}', 0\)$"):
        submit_spend(sim, own_request(kind, owner, v, v.value))
    assert book_state(sim.operator.book) == book
    assert sim.balances() == balances


def test_expired_vtxos_leave_the_book_and_the_oracle():
    # the watcher's first step at a VTXO's expiry drops its C or F entry,
    # as the oracle drops it; an S entry stays
    sim = Simulation(PARAMS, 0)
    sim.operator.fund(100_000)
    sim.add_wallet("alice", [5_000])
    sim.add_wallet("bob", [])
    sim.board("alice", [2_500, 2_500])
    sim.settle_commitment()
    paid, kept = sim.vtxos("alice")
    payment = sim.ark_pay("alice", "bob", [paid], 1_500, auto_receive=False)
    book = sim.book_projection()
    assert book.C == {kept.key()} and book.F == {v.key() for v in payment.outputs}
    sim.tick(kept.expiry - sim.chain.height + 1)
    assert sim.book_projection().as_tuple() == (set(), set(), {paid.key()})
    assert sim.state().as_tuple() == sim.book_projection().as_tuple()


@pytest.mark.parametrize("kind", ["batch-swap", "ark"])
def test_an_input_without_a_cosigned_path_is_refused_where_it_would_be_cosigned(kind):
    # alice boards into a nonce-bound VTXO: its collaborative path takes
    # the operator's nonce-bound signature and hers, not an aggregate key,
    # so no forfeit or reset of it can be cosigned.  A swap or a payment of
    # it is refused at intake, where it stayed queued and raised in every
    # later ceremony; its exit is still accepted
    sim = Simulation(PARAMS, 0)
    sim.operator.fund(100_000)
    alice = sim.add_wallet("alice", [5_000])
    _, r_star = FfOperator(sim.operator).fresh_nonce(b"alice-vtxo")
    _, req = submit_boarding(sim, "alice", [5_000])
    req.outputs = (VtxoSpec(5_000, "alice", alice.pk, r_star),)
    sim.tick(PARAMS.k + 1)
    sim.operator.verify_boarding(req)
    sim.settle_commitment()
    (v,) = sim.vtxos("alice")
    assert sim.operator.book.vtxos[v.key()] == ("C", v)
    book = book_state(sim.operator.book)
    with pytest.raises(Reject, match=rf"^NotCosignable \('{v.outpoint.txid}', 0\)$"):
        submit_spend(sim, own_request(kind, alice, v, v.value))
    assert book_state(sim.operator.book) == book
    submit_spend(sim, own_request("exit", alice, v, v.value))


# --- single-spend discipline --------------------------------------------


def test_operator_refuses_double_swap_of_same_vtxo():
    sim = boarded_sim()
    v = sim.vtxos("alice")[0]
    alice = sim.wallets["alice"]
    sim.operator.verify_batch_swap(alice.make_swap([v], [v.value]))
    r2 = alice.make_swap([v], [v.value])
    with pytest.raises(Reject):
        sim.operator.verify_batch_swap(r2)


def test_operator_refuses_ark_after_swap():
    sim = boarded_sim()
    v = sim.vtxos("alice")[0]
    alice = sim.wallets["alice"]
    sim.operator.verify_batch_swap(alice.make_swap([v], [v.value]))
    req = alice.make_ark_request([v], [VtxoSpec(v.value, "alice", alice.pk)])
    with pytest.raises(Reject):
        sim.operator.verify_ark_request(req, sim.wallets)


def test_ark_request_value_bounded():
    sim = boarded_sim()
    v = sim.vtxos("alice")[0]
    alice = sim.wallets["alice"]
    req = alice.make_ark_request([v], [VtxoSpec(v.value + 1, "alice", alice.pk)])
    with pytest.raises(Reject):
        sim.operator.verify_ark_request(req, sim.wallets)


def test_the_operator_never_cosigns_a_second_spend_of_an_input():
    # a second payment of alice's booked VTXO, built past intake with other
    # outputs: its reset is the first one's, but its ark tx is another
    # spend of that reset's output, which the operator refuses unsigned
    sim = boarded_sim()
    v = sim.vtxos("alice")[0]
    first = payment_to_bob(sim)
    alice, op = sim.wallets["alice"], sim.operator
    again = alice.make_ark_request([v], [VtxoSpec(v.value, "alice", alice.pk)])
    before = (dict(op.cosigned_spends), list(sim.chain.trace))
    key = (first.ark.ins[0].txid, first.ark.ins[0].index)
    refusal = f"operator already co-signed a spend of {key}"
    with pytest.raises(Reject, match=f"^{re.escape(refusal)}$"):
        op.build_payment(again, sim.wallets)
    assert (dict(op.cosigned_spends), list(sim.chain.trace)) == before


def test_a_payment_of_a_vtxo_without_its_owners_secret_is_aborted_unsigned():
    # mallory names alice's VTXO: mallory approves the payment she asked
    # for, but alice asked for none, so she approves nothing, the ark tx's
    # session is refused, and nothing is signed, booked or noted
    sim = boarded_sim()
    v = sim.vtxos("alice")[0]
    mallory = sim.add_wallet("mallory", [])
    op = sim.operator
    req = forge(mallory, Request("ark", "mallory", inputs=(v,),
                                 outputs=(VtxoSpec(v.value, "mallory", mallory.pk),)))
    before = (book_state(op.book), dict(op.cosigned_spends), list(sim.chain.trace))
    with pytest.raises(SessionAborted, match=r"^ark: alice did not approve [0-9a-f]{8}$"):
        op.verify_ark_request(req, sim.wallets)
    assert (book_state(op.book), dict(op.cosigned_spends), list(sim.chain.trace)) == before


def pay_a_third_key(monkeypatch, sim):
    # every output the operator makes pays carol instead
    carol = sim.add_wallet("carol", [])
    real = Operator._make_leaf
    monkeypatch.setattr(Operator, "_make_leaf", lambda op, spec, expiry=0: real(
        op, dataclasses.replace(spec, owner="carol", owner_pk=carol.pk), expiry))


def relock_the_reset(monkeypatch, sim):
    # each reset pays the payer's VTXO to the operator's key alone
    pk = sim.operator.pk
    monkeypatch.setattr(operator_node, "reset_tx", lambda v, *_: Tx(
        ins=(v.outpoint,), outs=(Output(v.value, p2pk(pk)),)))


def inflate_the_change(monkeypatch, sim):
    # the change VTXO handed back claims 1,000 sats more than the ark tx pays
    real = arkcore.ark_tx

    def ark_tx(spent, outputs):
        tx = real(spent, outputs)
        outputs[-1].value += 1_000
        return tx
    monkeypatch.setattr(arkcore, "ark_tx", ark_tx)


@pytest.mark.parametrize("rewrite, reason", [
    (pay_a_third_key, "ark tx pays other outputs"),
    (relock_the_reset, "reset not derived from a requested input"),
    (inflate_the_change, "payment outputs differ from the ark tx's"),
], ids=["third-key", "reset-to-operator", "inflated-change"])
def test_a_payer_refuses_a_payment_it_did_not_ask_for(monkeypatch, rewrite, reason):
    # the operator builds another payment than alice's request: she refuses
    # it with her reason, and the ceremony aborts before anything is signed
    sim = boarded_sim()
    bob = sim.add_wallet("bob", [])
    alice, op = sim.wallets["alice"], sim.operator
    (v,) = sim.vtxos("alice")
    req = alice.make_ark_request([v], [VtxoSpec(2_000, "bob", bob.pk),
                                       VtxoSpec(v.value - 2_000, "alice", alice.pk)])
    rewrite(monkeypatch, sim)
    before = (book_state(op.book), dict(op.cosigned_spends), copy.deepcopy(alice.holdings))
    with pytest.raises(SessionAborted, match="^verify: alice rejected the payment$"):
        op.verify_ark_request(req, sim.wallets)
    assert last_refusal(sim) == ("wallet", "alice", "verify_failed", reason)
    assert not [e for e in sim.chain.trace if e.event in ("ark", "reset")]
    assert (book_state(op.book), dict(op.cosigned_spends), alice.holdings) == before


def test_a_payer_keeps_no_record_of_a_sent_payment():
    sim = boarded_sim()
    sim.add_wallet("bob", [])
    alice = sim.wallets["alice"]
    sim.ark_pay("alice", "bob", sim.vtxos("alice"), 2_000)
    assert alice.requests == [] and sim.vtxos("alice")[0].value == 3_000
    assert [e.event for e in sim.chain.trace if e.event in ("ark", "reset")] == ["ark", "reset"]


@pytest.mark.parametrize("rewrite, amount, error, reason", [
    (None, 5_001, Reject, "^ValueExceeded$"),
    (pay_a_third_key, 2_000, SessionAborted, "^verify: alice rejected the payment$"),
], ids=["intake", "ceremony"])
def test_a_refused_payment_leaves_the_payer_as_before(monkeypatch, rewrite, amount, error, reason):
    # a payment the operator refuses, at intake or in its ceremony, is
    # withdrawn: alice holds her VTXO as before and approves no payment
    sim = boarded_sim()
    sim.add_wallet("bob", [])
    alice = sim.wallets["alice"]
    (v,) = sim.vtxos("alice")
    assert v.value == 5_000
    if rewrite is not None:
        rewrite(monkeypatch, sim)
    with pytest.raises(error, match=reason):
        sim.ark_pay("alice", "bob", [v], amount)
    assert alice.requests == [] and alice.holdings[v.key()].intent == "hold"


@pytest.mark.parametrize("make", [
    lambda w, vtxos: w.make_swap(vtxos, [v.value for v in vtxos]),
    lambda w, vtxos: w.make_exit(vtxos, [v.value for v in vtxos]),
    lambda w, vtxos: w.make_ark_request(vtxos, [VtxoSpec(v.value, w.name, w.pk) for v in vtxos]),
], ids=["swap", "exit", "ark"])
def test_a_wallet_builds_no_request_over_a_vtxo_it_does_not_hold(make):
    # alice names her VTXO and one she does not hold: a typed refusal,
    # before her VTXO's intent or her payment record changes
    sim = boarded_sim()
    alice = sim.wallets["alice"]
    (v,) = sim.vtxos("alice")
    foreign = dataclasses.replace(v, outpoint=OutPoint("ee" * 32, 3))
    with pytest.raises(arkcore.ArkError, match="^alice holds no VTXO eeeeeeee:3$"):
        make(alice, [v, foreign])
    assert alice.holdings[v.key()].intent == "hold" and alice.requests == []


def test_the_operator_derives_every_reset_of_a_payment():
    # a request carries no reset or expiry: the operator builds each reset
    # from the booked input, and the outputs inherit the earliest expiry
    assert not {"resets", "input_expiries"} & {f.name for f in dataclasses.fields(Request)}
    assert "input_expiries" not in {f.name for f in dataclasses.fields(ArkPayment)}
    sim = boarded_sim()
    alice, op = sim.wallets["alice"], sim.operator
    alice.funds = [(sim.chain.grant(6_000, p2pk(alice.pk)), 6_000)]
    sim.board("alice", [6_000])
    sim.settle_commitment()
    vs = sorted(sim.vtxos("alice"), key=lambda v: v.expiry)
    assert vs[0].expiry < vs[1].expiry
    sim.add_wallet("bob", [])
    payment = sim.ark_pay("alice", "bob", vs, 2_000)
    assert [rst.txid for rst in payment.resets] == \
        [arkcore.reset_tx(v, op.pk, v.expiry, PARAMS.t_u).txid for v in vs]
    assert {out.expiry for out in payment.outputs} == {vs[0].expiry}
    (received,) = [h.vtxo for h in sim.wallets["bob"].holdings.values()]
    assert received.expiry == vs[0].expiry


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
def test_a_cooperatively_exited_vtxo_cannot_be_claimed_again():
    # alice is paid onchain for her VTXO, then unrolls its old leaf; an
    # exit leaves the operator no forfeit to answer with, so her claim
    # after t_u pays her a second time
    sim = boarded_sim()
    (v,) = sim.vtxos("alice")
    sim.exit("alice", [v])
    sim.settle_commitment()
    sim.unroll("alice", v)
    _, unilateral = classify_paths(v.lock, sim.operator.pk, PARAMS.t_u)
    claim = leaf_spend(v, unilateral[0], sim.wallets["alice"].sk)
    for _ in range(PARAMS.t_u + 4 * PARAMS.k):
        try:
            sim.chain.submit(claim, "alice")
        except SubmitError:
            pass
        sim.tick(1)
    assert not sim.chain.is_confirmed(claim.txid)


def _rewrite_queued(sim, req, **changes):
    """Replace `req` in the operator's queue with a copy carrying `changes`."""
    queue = sim.operator.book.queue
    queue[queue.index(req)] = dataclasses.replace(req, **changes)


def _exit_paid_to_the_operator(sim):
    (v,) = sim.vtxos("alice")
    req = sim.exit("alice", [v])
    _rewrite_queued(sim, req, exit_outputs=((5_000, p2pk(sim.operator.pk)),))
    bundle = sim.operator.assemble_commitment()
    assert Output(5_000, p2pk(sim.operator.pk)) in bundle.commitment.outs
    return bundle


def _boarding_shrunk_to_one_sat(sim):
    sim.add_wallet("bob", [5_000])
    req = sim.board("bob", [5_000])
    _rewrite_queued(sim, req, outputs=(VtxoSpec(1, "bob", sim.wallets["bob"].pk),))
    bundle = sim.operator.assemble_commitment()
    assert [leaf.vtxo.value for leaf in bundle.batch.vtxt.leaves] == [1]
    return bundle


@pytest.mark.parametrize("owner, rewrite", [("alice", _exit_paid_to_the_operator),
                                            ("bob", _boarding_shrunk_to_one_sat)],
                         ids=["exit-to-the-operator", "boarding-shrunk"])
def test_a_wallet_refuses_a_commitment_that_rewrites_its_request(owner, rewrite):
    # the operator swaps the request the wallet made for a copy that pays
    # the wallet less; the wallet must refuse to approve the commitment
    sim = boarded_sim()
    bundle = rewrite(sim)
    assert sim.wallets[owner].verify_commitment(bundle) is None
    assert last_refusal(sim) == ("wallet", owner, "verify_failed", NOT_MADE)


NOT_MADE = "request in its name that it did not make"


def _impersonated_boarding(sim, mallory):
    alice = sim.wallets["alice"]
    alice.funds = [(sim.chain.grant(4_000, p2pk(alice.pk)), 4_000)]
    tx, _ = submit_boarding(sim, "alice", [4_000])
    sim.tick(PARAMS.k + 1)
    r = Request("boarding", "alice", boarding_outpoint=tx.outpoint(0),
                outputs=(VtxoSpec(4_000, "mallory", mallory.pk),))
    return r, sim.operator.verify_boarding


def _impersonated_swap(sim, mallory):
    (v,) = sim.vtxos("alice")
    r = Request("batch-swap", "alice", inputs=(v,),
                outputs=(VtxoSpec(v.value, "mallory", mallory.pk),))
    return r, sim.operator.verify_batch_swap


def _impersonated_exit(sim, mallory):
    (v,) = sim.vtxos("alice")
    r = Request("exit", "alice", inputs=(v,), exit_outputs=((v.value, p2pk(mallory.pk)),))
    return r, sim.operator.verify_exit


@pytest.mark.parametrize("impersonate", [_impersonated_boarding, _impersonated_swap,
                                         _impersonated_exit], ids=["boarding", "swap", "exit"])
def test_a_wallet_refuses_a_request_queued_in_its_name_that_it_did_not_make(impersonate):
    # mallory queues, under alice's name, a request over alice's funds that
    # pays mallory: alice's record lacks it, so she refuses the bundle with
    # that reason, and the round stalls at its first step, nothing signed
    sim = boarded_sim()
    alice, mallory = sim.wallets["alice"], sim.add_wallet("mallory", [])
    r, intake = impersonate(sim, mallory)
    intake(forge(mallory, r))
    held, book = copy.deepcopy(alice.holdings), book_state(sim.operator.book)
    with pytest.raises(SessionAborted, match="^verify: alice rejected the bundle$"):
        sim.settle_commitment()
    assert last_refusal(sim) == ("wallet", "alice", "verify_failed", NOT_MADE)
    assert sim.operator.pending_bundles == [] and sim.operator.book.queue == [r]
    assert pays(sim, "mallory") == [] and sim.vtxos("mallory") == []
    assert alice.holdings == held and book_state(sim.operator.book) == book


@pytest.mark.parametrize("flow", ["swap", "exit"])
def test_a_refused_swap_or_exit_is_withdrawn(flow):
    # at its batch's expiry alice's VTXO is refused at intake: her wallet
    # withdraws the request, as for a refused payment, so her VTXO is held
    # again and her record keeps nothing of it
    sim = boarded_sim()
    alice = sim.wallets["alice"]
    (v,) = sim.vtxos("alice")
    sim.tick(v.expiry - sim.chain.height)
    with pytest.raises(Reject, match=r"^Expired "):
        getattr(sim, flow)("alice", [v])
    assert alice.holdings[v.key()].intent == "hold" and alice.requests == []


def test_a_payer_takes_its_change_from_the_ark_tx_it_approved(monkeypatch):
    # the change VTXO handed back after the ceremony claims 1,000 sats more
    # than the ark tx pays: alice holds what the ark tx pays her instead,
    # exactly as the operator booked it
    sim = boarded_sim()
    sim.add_wallet("bob", [])
    alice, op = sim.wallets["alice"], sim.operator
    real = Operator.verify_ark_request

    def inflated(self, r, *args):
        payment = real(self, r, *args)
        payment.outputs[-1] = dataclasses.replace(payment.outputs[-1],
                                                  value=payment.outputs[-1].value + 1_000)
        return payment
    monkeypatch.setattr(Operator, "verify_ark_request", inflated)
    sim.ark_pay("alice", "bob", sim.vtxos("alice"), 2_000)
    assert alice.balance() == 3_000
    (change,) = sim.vtxos("alice")
    assert op.book.vtxos[change.key()] == ("F", change)


# --- ceremony and rollback ----------------------------------------------


def test_abort_releases_nothing():
    sim = boarded_sim()
    sim.swap("alice", sim.vtxos("alice"))
    book_before = (dict(sim.operator.book.vtxos),
                   list(sim.operator.book.queue))
    trace_before = len(sim.chain.trace)
    with pytest.raises(SessionAborted):
        sim.settle_commitment(abort=lambda step, party: step == "fund")
    # the queue and the VTXO map are unchanged; no commitment onchain
    assert dict(sim.operator.book.vtxos) == book_before[0]
    assert list(sim.operator.book.queue) == book_before[1]
    assert all(e.event != "fund" for e in sim.chain.trace[trace_before:])


def test_rollback_requeues_requests():
    sim = boarded_sim()
    (v,) = sim.vtxos("alice")
    swap = sim.swap("alice", [v])
    bundle = sim.operator.assemble_commitment()
    sim.operator.run_signing(bundle, sim.wallets)
    sim.operator.submit_and_track(bundle)
    assert sim.operator.book.queue == []
    # the commitment leaves the mempool unmined, so it never confirms
    del sim.chain.mempool[bundle.commitment.txid]
    sim.tick(PARAMS.t_r + 2)
    assert bundle not in sim.operator.pending_bundles
    assert sim.operator.book.queue == [swap]
    assert sim.operator.book.vtxos[v.key()] == ("C", v) and v.key() in sim.operator.held()


def test_rollback_requeues_every_kind_in_order():
    sim = Simulation(PARAMS, 2)
    sim.operator.fund(100_000)
    for name in ("alice", "bob", "carol", "dave"):
        sim.add_wallet(name, [5_000])
    for name in ("alice", "bob", "carol"):
        sim.board(name, [5_000])
    sim.settle_commitment()
    w = sim.wallets
    _, boarding = submit_boarding(sim, "dave", [5_000])
    sim.tick(PARAMS.k + 1)
    # arrival order mixes the kinds; assembly takes them per kind
    exit_ = sim.exit("carol", sim.vtxos("carol"))
    swap_b = sim.swap("bob", sim.vtxos("bob"))
    sim.operator.verify_boarding(boarding)
    swap_a = sim.swap("alice", sim.vtxos("alice"))
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
        sim.operator.verify_batch_swap(own_request(
            "batch-swap", w["alice"], swap_a.inputs[0], 5_000))
    again = sim.operator.assemble_commitment()
    assert again.requests == [boarding, swap_b, swap_a, exit_]
    # the tree's leaves are the requests' outputs, in request order
    assert [leaf.vtxo.owner for leaf in again.batch.vtxt.leaves] == ["dave", "bob", "alice"]


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
    sim.swap(name, sim.vtxos(name)[:1])
    return sim.settle_commitment()


def test_forfeit_confirms_after_the_next_round():
    sim = boarded_sim()
    old = sim.vtxos("alice")[0]
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
    old = sim.vtxos("alice")[0]
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
    sim.swap("alice", sim.vtxos("alice"))
    with pytest.raises(InvariantError, match="reserved connector"):
        sim.operator.assemble_commitment()


def test_every_output_of_an_unrolled_connector_tree_stays_reserved():
    sim = Simulation(PARAMS, 0)
    sim.operator.fund(100_000)
    for name in ("alice", "bob"):
        sim.add_wallet(name, [5_000])
        sim.board(name, [5_000])
    sim.settle_commitment()
    old = sim.vtxos("alice")[0]
    transcript = list(sim.wallets["alice"].holdings[old.key()].transcript)
    for name in ("alice", "bob"):
        sim.swap(name, sim.vtxos(name))
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
    op, seen = sim.operator, {}
    for r in range(1, 61):
        swap_round(sim)
        assert op.held() == set()
        assert harness.audit(sim) == []
        seen[r] = (sum(out.value for _, out in op.spendable_liquidity()), len(op.deadlines))
    assert seen[30] == seen[60]


# --- wallet-side bundle audit -------------------------------------------


def forged_copy(bundle):
    """A deep copy of `bundle` that lists the same request objects, those
    its wallets recorded."""
    return copy.deepcopy(bundle, {id(r): r for r in bundle.requests})


def swap_bundle(sim):
    sim.swap("alice", sim.vtxos("alice"))
    return sim.operator.assemble_commitment()


def test_wallet_accepts_honest_bundle():
    sim = boarded_sim()
    bundle = swap_bundle(sim)
    assert sim.wallets["alice"].verify_commitment(bundle)
    sim, bundle = pair_bundle()
    assert len(bundle.batch.vtxt.txs) == 3
    assert all(sim.wallets[n].verify_commitment(bundle) for n in ("alice", "bob"))


def test_wallet_rejects_value_creation():
    sim = boarded_sim()
    bundle = swap_bundle(sim)
    bad = copy.deepcopy(bundle)
    outs = list(bad.commitment.outs)
    outs[0] = Output(outs[0].value + 1, outs[0].lock)
    bad.commitment = Tx(ins=bad.commitment.ins, outs=tuple(outs))
    assert not sim.wallets["alice"].verify_commitment(bad)


def last_refusal(sim):
    return sim.chain.trace[-1][1:]


def test_wallet_rejects_short_expiry():
    # the operator locks the whole batch, tree and all, one block below
    # the wallet's bound
    sim = boarded_sim()
    sim.operator.params = dataclasses.replace(PARAMS, t_e=PARAMS.t_e - 1)
    bundle = swap_bundle(sim)
    assert not sim.wallets["alice"].verify_commitment(bundle)
    assert last_refusal(sim) == ("wallet", "alice", "verify_failed",
                                 "batch expiry below the local bound")


def pair_bundle(monkeypatch=None, forged_lock=None):
    """A sim in which alice and bob have boarded, and the bundle that
    batches them, assembled with `arkcore.batch_lock` replaced by
    `forged_lock(real_batch_lock, operator, cosigners, expiry)`."""
    sim = Simulation(PARAMS, 0)
    sim.operator.fund(100_000)
    for name in ("alice", "bob"):
        sim.add_wallet(name, [5_000])
        sim.board(name, [5_000])
    if forged_lock is not None:
        monkeypatch.setattr(arkcore, "batch_lock",
                            functools.partial(forged_lock, arkcore.batch_lock))
    return sim, sim.operator.assemble_commitment()


def test_wallet_rejects_operator_only_unroll_keys(monkeypatch):
    # the operator alone could sign another tree over the batch output
    sim, bundle = pair_bundle(monkeypatch, lambda real, op, _, expiry:
                              real(op, crypto.aggregate([op]), expiry))
    assert not sim.wallets["alice"].verify_commitment(bundle)
    assert last_refusal(sim) == ("wallet", "alice", "verify_failed",
                                 "own key missing from a path cosigner set")


def short_root(real, op, cosigners, expiry):
    """The lock of the batch output over every cosigner, the commitment's,
    sweepable at height 10; every other lock honest."""
    return real(op, cosigners, 10 if len(cosigners.members) == 3 else expiry)


def test_wallet_rejects_a_short_commitment_batch_lock(monkeypatch):
    sim, bundle = pair_bundle(monkeypatch, short_root)
    assert not sim.wallets["alice"].verify_commitment(bundle)
    assert last_refusal(sim) == ("wallet", "alice", "verify_failed",
                                 "batch expiry below the local bound")


def test_wallet_rejects_a_tree_the_commitment_does_not_fund():
    # only the commitment's batch output is swapped for a short one, so
    # the tree's batch output is not the commitment's
    sim, bundle = pair_bundle()
    outs = list(bundle.commitment.outs)
    idx = bundle.batch.vtxt.funding.index
    outs[idx] = Output(outs[idx].value, arkcore.batch_lock(
        sim.operator.pk, outs[idx].lock.paths[arkcore.BATCH_UNROLL_PATH].key, 10))
    bundle.commitment = Tx(ins=bundle.commitment.ins, outs=tuple(outs))
    assert not sim.wallets["alice"].verify_commitment(bundle)
    assert last_refusal(sim) == ("wallet", "alice", "verify_failed",
                                 "batch tree not funded by the commitment")


def refuses(sim, name, bundle, reason):
    """`name` approves nothing of `bundle`, notes `reason` and keeps what it holds."""
    held = dict(sim.wallets[name].holdings)
    assert sim.wallets[name].verify_commitment(bundle) is None
    assert last_refusal(sim) == ("wallet", name, "verify_failed", reason)
    assert sim.wallets[name].holdings == held


def test_wallet_refuses_a_change_output_that_creates_value():
    # the operator's change output pays one sat more than the commitment spends
    sim = boarded_sim()
    bundle = swap_bundle(sim)
    outs = bundle.commitment.outs
    assert outs[-1].lock == p2pk(sim.operator.pk)
    bundle.commitment = Tx(ins=bundle.commitment.ins,
                           outs=outs[:-1] + (Output(outs[-1].value + 1, outs[-1].lock),))
    refuses(sim, "alice", bundle, "commitment creates value")


def test_wallet_rejects_a_leaf_outside_the_tree():
    sim, bundle = pair_bundle()
    bundle.batch.vtxt.leaves[0].vtxo.outpoint = OutPoint("ee" * 32, 0)     # alice's
    refuses(sim, "alice", bundle, "leaf missing from the tree")


def late_inner_locks(real, op, cosigners, expiry):
    """The locks of the tree's inner outputs, each under one user's key
    with the operator's, sweepable a block after the batch expiry; every
    other lock honest."""
    return real(op, cosigners, expiry + 1 if len(cosigners.members) == 2 else expiry)


def test_wallet_rejects_an_inner_output_swept_after_the_batch(monkeypatch):
    sim, bundle = pair_bundle(monkeypatch, late_inner_locks)
    for name in ("alice", "bob"):
        refuses(sim, name, bundle, "internal output is not sweep-shaped at expiry")


def test_wallet_rejects_an_anchor_that_is_not_dust():
    # the one anchor names the batch output instead of the connector output
    sim = boarded_sim()
    bundle = swap_bundle(sim)
    assert sim.wallets["alice"].verify_commitment(bundle)
    bundle.connector.anchors[0] = bundle.batch.vtxt.funding
    refuses(sim, "alice", bundle, "anchor value is not epsilon")


def test_wallet_rejects_an_exit_whose_output_the_commitment_lacks():
    sim = boarded_sim()
    sim.exit("alice", sim.vtxos("alice"))
    bundle = sim.operator.assemble_commitment()
    assert sim.wallets["alice"].verify_commitment(bundle)
    # alice's own request asks for one sat more than the commitment pays
    (r,) = bundle.requests
    ((value, lock),) = r.exit_outputs
    r.exit_outputs = ((value + 1, lock),)
    refuses(sim, "alice", bundle, "exit output missing")


def test_wallet_rejects_a_leaf_index_past_its_tx():
    sim, bundle = pair_bundle()
    leaf = bundle.batch.vtxt.leaves[0].vtxo     # alice's
    leaf.outpoint = OutPoint(leaf.outpoint.txid, 5)
    assert not sim.wallets["alice"].verify_commitment(bundle)
    assert last_refusal(sim) == ("wallet", "alice", "verify_failed", "leaf output mismatch")


def strip_path_inputs(payment):
    payment.paths[0][-1] = dataclasses.replace(payment.paths[0][-1], ins=())


def strip_reset_inputs(payment):
    payment.resets[0] = dataclasses.replace(payment.resets[0], ins=())


def strip_reset_outputs(payment):
    payment.resets[0] = dataclasses.replace(payment.resets[0], outs=())


def sweep_after_the_batch(payment):
    # the reset's output is sweepable one block after the batch it
    # descends from expires
    rst = payment.resets[0]
    *collab, sweep = rst.outs[0].lock.paths
    later = And(*(AbsTimelock(c.height + 1) if isinstance(c, AbsTimelock) else c
                  for c in sweep.children))
    lock = taproot(UNSPENDABLE, (*collab, later))
    payment.resets[0] = dataclasses.replace(rst, outs=(Output(rst.outs[0].value, lock),))


def root_past_its_tx(payment):
    # the path and its reset, relinked from an output index past the
    # confirmed root tx's outputs
    pth, rst = payment.paths[0], payment.resets[0]
    spent = OutPoint(pth[0].ins[0].txid, 99)
    for i, tx in enumerate(pth):
        pth[i] = dataclasses.replace(tx, ins=(spent,) + tx.ins[1:])
        spent = OutPoint(pth[i].txid, (pth + [rst])[i + 1].ins[0].index)
    payment.resets[0] = dataclasses.replace(rst, ins=(spent,))


def drop_payee_output(payment):
    payment.outputs = [v for v in payment.outputs if v.owner != "bob"]


def inflate_payee_output(payment):
    # bob's VTXO claims one sat more than the ark output it names
    payment.outputs = [dataclasses.replace(v, value=v.value + 1) if v.owner == "bob" else v
                       for v in payment.outputs]


def drop_path(payment):
    payment.paths = []


def empty_path(payment):
    payment.paths[0] = []


def relink_ark(payment, ins):
    """The payment's ark tx respent from `ins`, its outputs renamed to
    the new ark tx's txid."""
    payment.ark = dataclasses.replace(payment.ark, ins=ins)
    payment.outputs = [dataclasses.replace(v, outpoint=payment.ark.outpoint(v.outpoint.index))
                       for v in payment.outputs]


def ark_spends_elsewhere(payment):
    # the ark tx's one input is the reset's input, not the reset's output
    relink_ark(payment, payment.resets[0].ins)


def rename_payee_output(payment):
    # bob's VTXO names an outpoint of some other tx than the ark tx
    payment.outputs = [dataclasses.replace(v, outpoint=OutPoint("ee" * 32, 0))
                       if v.owner == "bob" else v for v in payment.outputs]


def repeat_path_root(payment):
    # alice's leaf is the tree's root, so a second copy of it does not
    # spend the first
    payment.paths[0].append(payment.paths[0][0])


def reset_spends_the_commitment(payment):
    rst = payment.resets[0]
    payment.resets[0] = dataclasses.replace(rst, ins=payment.paths[0][0].ins)


def reset_past_the_leaf(payment):
    # the reset spends an output index past the path leaf's outputs, and
    # the ark tx is relinked to the new reset, so only the witness replay
    # sees it
    rst = payment.resets[0]
    payment.resets[0] = dataclasses.replace(rst, ins=(OutPoint(rst.ins[0].txid, 99),))
    relink_ark(payment, (payment.resets[0].outpoint(0),))


@pytest.mark.parametrize("damage, reason", [
    (drop_payee_output, "no output"),
    (inflate_payee_output, "output script mismatch"),
    (rename_payee_output, "output not in the ark tx"),
    (drop_path, "incomplete transcript"),
    (empty_path, "empty path"),
    (ark_spends_elsewhere, "ark does not spend the reset"),
    (strip_path_inputs, "path tx without inputs"),
    (root_past_its_tx, "path not rooted onchain"),
    (repeat_path_root, "broken path"),
    (reset_spends_the_commitment, "reset does not spend the path leaf"),
    (strip_reset_inputs, "reset without inputs"),
    (strip_reset_outputs, "reset without outputs"),
    (sweep_after_the_batch, "reset expiry mismatch"),
    (reset_past_the_leaf, "unknown input"),
])
def test_wallet_rejects_a_malformed_payment_with_a_reason(damage, reason):
    # a rejection with its reason in the trace, not an IndexError or a
    # ValueError out of receive_payment, and the payee holds nothing new
    sim = boarded_sim()
    bob = sim.add_wallet("bob", [])
    payment = sim.ark_pay("alice", "bob", sim.vtxos("alice"), 2_000,
                          auto_receive=False)
    damage(payment)
    holdings = dict(bob.holdings)
    assert bob.receive_payment(payment) is None
    assert last_refusal(sim) == ("wallet", "bob", "payment_rejected", reason)
    assert bob.holdings == holdings


def colluding_payment(value, spends=1, debt=0):
    """A sim and alice's payment to bob of `value` sats, out of a reset
    that spends her 5,000-sat leaf `spends` times and, with `debt`, also
    pays an output of -`debt` sats: only an operator that colludes with
    the payer signs these, and the transcript can never confirm."""
    sim = boarded_sim()
    bob = sim.add_wallet("bob", [])
    alice, op = sim.wallets["alice"], sim.operator
    (v,) = sim.vtxos("alice")
    payment = sim.ark_pay("alice", "bob", [v], 2_000, auto_receive=False)
    agg = crypto.aggregate([alice.pk, op.pk])
    sks = {alice.pk: alice.sk, op.pk: op.sk}
    rst = payment.resets[0]
    reset = Tx(ins=rst.ins * spends, outs=(Output(value, rst.outs[0].lock),)
               + ((Output(-debt, rst.outs[0].lock),) if debt else ()))
    paid = arkcore.Vtxo(value, arkcore.vtxo_lock(bob.pk, op.pk, PARAMS.t_u),
                        "bob", bob.pk)
    ark = arkcore.ark_tx([(reset.outpoint(0), value)], [paid])
    for tx, wit in ((reset, rst.wits[0]), (ark, payment.ark.wits[0])):
        sig = crypto.cosign(tx.digest(), [sks[m] for m in agg.members], agg)
        tx.wits = [Witness(wit.path_index, (sig,), wit.revealed_paths)] * len(tx.ins)
    return sim, dataclasses.replace(payment, ark=ark, resets=[reset], outputs=[paid])


def test_wallet_rejects_a_transcript_that_creates_value():
    # a reset that turns alice's 5,000-sat leaf into 50,000 sats, and an ark
    # tx that pays bob all of it
    sim, forged = colluding_payment(50_000)
    bob = sim.wallets["bob"]
    assert bob.receive_payment(forged) is None
    assert last_refusal(sim) == ("wallet", "bob", "payment_rejected",
                                 "transcript creates value")
    assert bob.holdings == {}


def test_wallet_rejects_a_transcript_tx_that_spends_an_output_twice():
    # a reset that lists alice's 5,000-sat leaf twice, for 10,000 sats: each
    # input carries a valid witness and the sums balance, but the chain
    # refuses the tx, so bob could never exit what he is paid
    sim, forged = colluding_payment(10_000, spends=2)
    bob = sim.wallets["bob"]
    assert bob.receive_payment(forged) is None
    assert last_refusal(sim) == ("wallet", "bob", "payment_rejected",
                                 "transcript tx spends an output twice")
    assert bob.holdings == {}
    with pytest.raises(SubmitError, match="spent twice in one tx"):
        sim.chain.submit(forged.resets[0], "bob")


def strip_reset_witness(payment):
    payment.resets[0] = dataclasses.replace(payment.resets[0], wits=[])


def bend_reset_signature(payment):
    rst = payment.resets[0]
    wit = rst.wits[0]
    sig = wit.signatures[0]
    bent = Witness(wit.path_index, (crypto.Signature(sig.R, sig.s + 1),), wit.revealed_paths)
    payment.resets[0] = dataclasses.replace(rst, wits=[bent])


def honest_payment():
    sim = boarded_sim()
    sim.add_wallet("bob", [])
    return sim, sim.ark_pay("alice", "bob", sim.vtxos("alice"), 2_000, auto_receive=False)


def damaged_payment(damage):
    def build():
        sim, payment = honest_payment()
        damage(payment)
        return sim, payment
    return build


def chain_confirms(sim, txs):
    """The txs of `txs` the chain confirms within 2k rounds, each submitted
    in order until the chain refuses one."""
    for tx in txs:
        try:
            sim.chain.submit(tx, "bob")
        except SubmitError:
            break
    for _ in range(2 * PARAMS.k):
        sim.chain.advance_round()
    return [tx for tx in txs if sim.chain.is_confirmed(tx.txid)]


@pytest.mark.parametrize("forge, reason", [
    (damaged_payment(strip_reset_witness), "missing witness"),
    (lambda: colluding_payment(10_000, spends=2), "transcript tx spends an output twice"),
    (damaged_payment(reset_past_the_leaf), "unknown input"),
    (lambda: colluding_payment(50_000), "transcript creates value"),
    (lambda: colluding_payment(5_001, debt=1), "transcript creates value"),
    (damaged_payment(bend_reset_signature), "invalid witness"),
    (honest_payment, None),
], ids=["missing_witness", "spent_twice", "unknown_input", "value_created",
        "negative_output", "invalid_witness", "honest"])
def test_the_payee_and_the_chain_agree_on_a_transcript(forge, reason):
    # the payee replays its transcript under the ledger's rule, so it
    # refuses exactly the payments whose reset the chain never confirms
    sim, payment = forge()
    bob = sim.wallets["bob"]
    accepted = bob.receive_payment(payment) is not None
    assert accepted == (reason is None)
    if reason is not None:
        assert last_refusal(sim) == ("wallet", "bob", "payment_rejected", reason)
    txs = wallet_transcript(payment)
    reset = txs.index(payment.resets[0])
    assert chain_confirms(sim, txs) == (txs if accepted else txs[:reset])


def test_a_holding_transcript_names_each_tx_once():
    # alice pays bob out of both leaves of one batch: their paths share the
    # root, which bob's transcript and her change's each hold once
    sim = Simulation(PARAMS, 0)
    sim.operator.fund(100_000)
    alice, bob = sim.add_wallet("alice", [5_000]), sim.add_wallet("bob", [])
    sim.board("alice", [2_500, 2_500])
    vtxt = sim.settle_commitment().batch.vtxt
    payment = sim.ark_pay("alice", "bob", sim.vtxos("alice"), 4_000)
    expected = [vtxt.root, *(ref.txid for ref in vtxt.leaves),
                *(rst.txid for rst in payment.resets), payment.ark.txid]
    for w in (alice, bob):
        (held,) = w.holdings.values()
        assert [tx.txid for tx in held.transcript] == expected


def test_wallet_rejects_a_transcript_tx_with_a_negative_output():
    # a reset that splits alice's 5,000-sat leaf into 5,001 sats and -1 sat,
    # and an ark tx that pays bob the 5,001: the sums balance, but the chain
    # refuses the reset, so bob could never exit what he is paid
    sim, forged = colluding_payment(5_001, debt=1)
    bob = sim.wallets["bob"]
    assert bob.receive_payment(forged) is None
    assert last_refusal(sim) == ("wallet", "bob", "payment_rejected",
                                 "transcript creates value")
    assert bob.holdings == {}
    sim.chain.submit_package(forged.paths[0], "bob")
    with pytest.raises(SubmitError, match="^negative output value$"):
        sim.chain.submit(forged.resets[0], "bob")


def test_the_ceremony_refuses_a_tree_that_spends_one_output_twice():
    # a twin of alice's leaf spends her branch's output to the operator.
    # Each wallet audits only its own branch, and both approve, but the
    # twin's session names alice's key over a digest she did not approve:
    # the ceremony aborts before signing it, and funds nothing
    sim, bundle = pair_bundle()
    vtxt = bundle.batch.vtxt
    root = vtxt.txs[vtxt.root]
    twin = Tx(ins=(root.outpoint(0),), outs=(Output(1, p2pk(sim.operator.pk)),))
    vtxt.txs[twin.txid] = twin
    assert all(sim.wallets[n].verify_commitment(bundle) for n in ("alice", "bob"))
    book, trace = book_state(sim.operator.book), len(sim.chain.trace)
    with pytest.raises(SessionAborted, match=f"^vtxt: alice did not approve {twin.txid[:8]}$"):
        sim.operator.run_signing(bundle, sim.wallets)
    assert twin.wits == [] and bundle.commitment.wits == []
    assert all(e.event != "fund" for e in sim.chain.trace[trace:])
    assert book_state(sim.operator.book) == book


def root_anchor_spender(vtxt, op_pk):
    root = vtxt.txs[vtxt.root]
    return Tx(ins=(root.outpoint(len(root.outs) - 1),), outs=(Output(0, p2pk(op_pk)),))


def past_root_outputs_spender(vtxt, op_pk):
    root = vtxt.txs[vtxt.root]
    return Tx(ins=(root.outpoint(len(root.outs)),), outs=(Output(0, p2pk(op_pk)),))


@pytest.mark.parametrize("forge, reason", [
    (root_anchor_spender, "spends no cosigned output"),
    (past_root_outputs_spender, "spends no output of the tree"),
])
def test_the_ceremony_aborts_at_a_node_with_no_cosigned_session(forge, reason):
    # an extra node on neither wallet's branch, which both approve.  Every
    # node's session is read from the lock it spends before any is signed,
    # so the ceremony aborts with the node's reason and signs nothing
    sim, bundle = pair_bundle()
    vtxt = bundle.batch.vtxt
    node = forge(vtxt, sim.operator.pk)
    vtxt.txs[node.txid] = node
    assert all(sim.wallets[n].verify_commitment(bundle) for n in ("alice", "bob"))
    book, trace = book_state(sim.operator.book), len(sim.chain.trace)
    with pytest.raises(SessionAborted, match=f"^vtxt: {node.txid[:8]} {reason}$"):
        sim.operator.run_signing(bundle, sim.wallets)
    assert all(tx.wits == [] for tx in vtxt.txs.values())
    assert [e.event for e in sim.chain.trace[trace:]] == []
    assert book_state(sim.operator.book) == book


def rekey_leaf(vtxt, i, tx):
    """Leaf `i`'s node replaced by `tx`, stored under its txid."""
    ref = vtxt.leaves[i]
    del vtxt.txs[ref.txid]
    vtxt.txs[tx.txid] = tx
    ref.txid, ref.vtxo.outpoint = tx.txid, tx.outpoint(0)


def leaf_with_two_inputs(vtxt):
    leaf = vtxt.txs[vtxt.leaves[0].txid]
    rekey_leaf(vtxt, 0, Tx(ins=leaf.ins + (OutPoint("ee" * 32, 0),), outs=leaf.outs))


def leaf_past_the_root_outputs(vtxt):
    leaf, root = vtxt.txs[vtxt.leaves[0].txid], vtxt.txs[vtxt.root]
    rekey_leaf(vtxt, 0, Tx(ins=(root.outpoint(len(root.outs)),), outs=leaf.outs))


def leaf_and_root_under_each_others_keys(vtxt):
    # alice's leaf names the root's key, where her leaf node is stored; its
    # input names the root's key again
    ref, root = vtxt.leaves[0], vtxt.txs[vtxt.root]
    leaf = vtxt.txs[ref.txid]
    vtxt.txs[root.txid], vtxt.txs[leaf.txid] = leaf, root
    ref.txid, ref.vtxo.outpoint = root.txid, OutPoint(root.txid, 0)


def underfunded_leaf(vtxt):
    # bob's leaf pays 1,000 more than the root's output it spends
    leaf = vtxt.txs[vtxt.leaves[1].txid]
    extra = Output(1_000, leaf.outs[0].lock)
    rekey_leaf(vtxt, 1, Tx(ins=leaf.ins, outs=leaf.outs + (extra,)))


def leaf_with_a_negative_output(vtxt):
    # bob's leaf also pays -1 sat and +1 sat: its sum is unchanged
    leaf = vtxt.txs[vtxt.leaves[1].txid]
    lock = leaf.outs[0].lock
    rekey_leaf(vtxt, 1, Tx(ins=leaf.ins, outs=leaf.outs + (Output(-1, lock), Output(1, lock))))


@pytest.mark.parametrize("forge, owner, bystander, reason", [
    (leaf_with_two_inputs, "alice", "bob",
     "malformed batch tree: tree nodes are single-input transactions"),
    (leaf_past_the_root_outputs, "alice", "bob",
     "malformed batch tree: node spends no output of the node before it"),
    # the root is on bob's branch too
    (leaf_and_root_under_each_others_keys, "alice", None,
     "malformed batch tree: tree node not keyed by its txid"),
    (underfunded_leaf, "bob", "alice", "value increases down the tree"),
    (leaf_with_a_negative_output, "bob", "alice", "value increases down the tree"),
])
def test_a_wallet_refuses_a_forged_branch_with_a_reason(no_hang, forge, owner, bystander,
                                                        reason):
    # a wallet whose branch the forgery misses approves it; the owner of
    # the forged branch refuses, and the ceremony stops there
    sim, bundle = pair_bundle()
    forge(bundle.batch.vtxt)
    if bystander is not None:
        assert sim.wallets[bystander].verify_commitment(bundle) is not None
    assert sim.wallets[owner].verify_commitment(bundle) is None
    assert last_refusal(sim) == ("wallet", owner, "verify_failed", reason)
    with pytest.raises(SessionAborted, match=f"^verify: {owner} rejected the bundle$"):
        sim.operator.run_signing(bundle, sim.wallets)


def test_wallet_rejects_missing_own_leaf():
    sim = boarded_sim()
    bad = copy.deepcopy(swap_bundle(sim))
    bad.batch.vtxt.leaves = []
    assert not sim.wallets["alice"].verify_commitment(bad)
    assert last_refusal(sim) == ("wallet", "alice", "verify_failed",
                                 "tree leaves do not match the requests")


def test_wallet_rejects_wrong_leaf_value():
    sim = boarded_sim()
    bundle = swap_bundle(sim)
    bad = forged_copy(bundle)
    for leaf in bad.batch.vtxt.leaves:
        leaf.vtxo.value -= 1
    assert not sim.wallets["alice"].verify_commitment(bad)
    assert last_refusal(sim) == ("wallet", "alice", "verify_failed",
                                 "requested vtxo mismatch")


def test_wallet_rejects_leaf_lists_shorter_than_requests():
    # a tree one leaf short: bob's leaf is gone, and alice, whose own leaf
    # is still there, refuses too, since she cannot tell whose leaf is
    # missing
    sim, bundle = pair_bundle()
    bundle.batch.vtxt.leaves.pop()
    for name in ("alice", "bob"):
        assert not sim.wallets[name].verify_commitment(bundle)
        assert last_refusal(sim) == ("wallet", name, "verify_failed",
                                     "tree leaves do not match the requests")


def test_wallet_rejects_two_of_its_requests_given_one_leaf():
    # alice's two swaps are paid by one leaf listed twice: each looks
    # right alone, and the leaf total still fits the batch output
    sim = Simulation(PARAMS, 0)
    sim.operator.fund(100_000)
    alice = sim.add_wallet("alice", [5_000])
    sim.board("alice", [2_500, 2_500])
    sim.settle_commitment()
    for v in sim.vtxos("alice"):
        sim.swap("alice", [v])
    bundle = sim.operator.assemble_commitment()
    assert alice.verify_commitment(bundle)
    leaves = bundle.batch.vtxt.leaves
    leaves[1] = leaves[0]
    assert not alice.verify_commitment(bundle)
    assert last_refusal(sim) == ("wallet", "alice", "verify_failed",
                                 "two requests aliased to one output")


def test_wallet_rejects_boarding_request_without_its_output():
    # the commitment spends, in place of alice's boarding output, an
    # output the chain never held
    sim = Simulation(PARAMS, 0)
    sim.operator.fund(100_000)
    alice = sim.add_wallet("alice", [5_000])
    _, boarding = submit_boarding(sim, "alice", [5_000])
    sim.tick(PARAMS.k + 1)
    sim.operator.verify_boarding(boarding)
    bad = sim.operator.assemble_commitment()
    assert bad.commitment.ins[-1] == boarding.boarding_outpoint
    unknown = OutPoint("ee" * 32, 0)
    bad.commitment = Tx(ins=bad.commitment.ins[:-1] + (unknown,), outs=bad.commitment.outs)
    assert not alice.verify_commitment(bad)
    assert last_refusal(sim) == ("wallet", "alice", "verify_failed",
                                 "commitment spends an unknown output")


def test_wallet_rejects_a_commitment_that_spends_a_spent_output():
    # the funding input is swapped for alice's own funds, which her
    # boarding tx spent long ago: the commitment could never confirm
    sim = boarded_sim()
    bad = swap_bundle(sim)
    alice = sim.wallets["alice"]
    boarding_tx = sim.chain.records[sim.all_bundles[0].commitment.ins[-1].txid].tx
    spent = boarding_tx.ins[0]
    assert not sim.chain.unspent(spent)
    bad.commitment = Tx(ins=(spent,) + bad.commitment.ins[1:], outs=bad.commitment.outs)
    assert not alice.verify_commitment(bad)
    assert last_refusal(sim) == ("wallet", "alice", "verify_failed",
                                 "commitment spends an unknown output")


def test_the_bundle_walk_pairs_leaves_and_anchors_by_position():
    # a hand-laid bundle, in an order assembly never makes (an exit first,
    # a VTXO forfeited twice, one anchor short), so the walk alone decides:
    # the leaves are the requests' outputs in request order, the anchors
    # the forfeited VTXOs in that order, and each listing of a VTXO takes
    # its own anchor, with None past the connector's last
    spec = VtxoSpec(1, "x", None)
    exit_ = Request("exit", "a", inputs=("e1",), exit_outputs=((1, None),))
    swap = Request("batch-swap", "b", inputs=("s1", "s2"), outputs=(spec,))
    again = Request("batch-swap", "c", inputs=("s1",), outputs=(spec, spec))
    late = Request("batch-swap", "d", inputs=("s3",), outputs=(spec,))
    board = Request("boarding", "e", outputs=(spec,))
    leaves = [SimpleNamespace(vtxo=f"L{i}") for i in range(5)]
    bundle = Bundle(None, SimpleNamespace(vtxt=SimpleNamespace(leaves=leaves)),
                    SimpleNamespace(anchors=["A0", "A1", "A2"]),
                    [exit_, swap, again, late, board])
    assert list(bundle.entries()) == [
        (exit_, [], []),
        (swap, ["L0"], [("s1", "A0"), ("s2", "A1")]),
        (again, ["L1", "L2"], [("s1", "A2")]),
        (late, ["L3"], [("s3", None)]),
        (board, ["L4"], []),
    ]
    assert consumed_vtxos(bundle.requests) == ["e1", "s1", "s2", "s1", "s3"]


def test_wallet_rejects_a_connector_one_anchor_short():
    # alice's and bob's swaps forfeit against the connector's two anchors
    # in request order; with the last anchor gone, bob's VTXO has none
    sim = Simulation(PARAMS, 0)
    sim.operator.fund(100_000)
    for name in ("alice", "bob"):
        sim.add_wallet(name, [5_000])
        sim.board(name, [5_000])
    sim.settle_commitment()
    for name in ("alice", "bob"):
        sim.swap(name, sim.vtxos(name))
    bundle = sim.operator.assemble_commitment()
    anchors = {v.outpoint: a for _, _, forfeits in bundle.entries() for v, a in forfeits}
    assert list(anchors.values()) == bundle.connector.anchors
    bundle.connector.anchors.pop()
    assert sim.wallets["alice"].verify_commitment(bundle)
    assert not sim.wallets["bob"].verify_commitment(bundle)
    assert last_refusal(sim) == ("wallet", "bob", "verify_failed",
                                 "no anchor for forfeited vtxo")


def test_wallet_rejects_bundle_without_batch():
    # the swap asks for a leaf, and a bundle without a tree has none
    sim = boarded_sim()
    bundle = swap_bundle(sim)
    bad = copy.deepcopy(bundle)
    bad.batch = None
    alice = sim.wallets["alice"]
    assert not alice.verify_commitment(bad)
    assert last_refusal(sim) == ("wallet", "alice", "verify_failed",
                                 "tree leaves do not match the requests")


def test_wallet_rejects_leaf_without_outpoint():
    sim = boarded_sim()
    bundle = swap_bundle(sim)
    bad = forged_copy(bundle)
    for leaf in bad.batch.vtxt.leaves:
        leaf.vtxo.outpoint = None
    alice = sim.wallets["alice"]
    assert not alice.verify_commitment(bad)
    assert last_refusal(sim) == ("wallet", "alice", "verify_failed",
                                 "leaf has no outpoint")


def test_wallet_rejects_a_forfeited_vtxo_without_outpoint():
    # its forfeit could not be built, so there is nothing to approve
    sim = boarded_sim()
    bad = forged_copy(swap_bundle(sim))
    r = bad.requests[0]
    r.inputs = (dataclasses.replace(r.inputs[0], outpoint=None),)
    assert sim.wallets["alice"].verify_commitment(bad) is None
    assert last_refusal(sim) == ("wallet", "alice", "verify_failed",
                                 "no anchor for forfeited vtxo")


def test_wallet_path_check_rejects_leaf_without_outpoint():
    sim = boarded_sim()
    bundle = swap_bundle(sim)
    leaf = copy.deepcopy(bundle.batch.vtxt.leaves[0].vtxo)
    leaf.outpoint = None
    alice = sim.wallets["alice"]
    assert not alice.verify_path(bundle, leaf)
    assert last_refusal(sim) == ("wallet", "alice", "verify_failed",
                                 "leaf has no outpoint")


# --- payments and balances ----------------------------------------------


def payment_to_bob(sim):
    """Alice's payment of 2,000 to bob, as the operator returns it."""
    sim.add_wallet("bob", [])
    v = sim.vtxos("alice")[0]
    alice = sim.wallets["alice"]
    bob = sim.wallets["bob"]
    req = alice.make_ark_request([v], [VtxoSpec(2_000, "bob", bob.pk),
                                       VtxoSpec(v.value - 2_000, "alice", alice.pk)])
    return sim.operator.verify_ark_request(req, sim.wallets)


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
    v = sim.vtxos("alice")[0]
    payment = sim.ark_pay("alice", "bob", [v], 2_000)
    bob = sim.wallets["bob"]
    assert any(h.kind == "ark" and h.vtxo.value == 2_000
               for h in bob.holdings.values())
    assert any(e.actor == "bob" and e.event == "payment_accepted"
               for e in sim.chain.trace)


def test_recheck_of_accepted_payment_is_free(point_mul_calls):
    sim = boarded_sim()
    sim.add_wallet("bob", [])
    payment = sim.ark_pay("alice", "bob", [sim.vtxos("alice")[0]], 2_000)
    bob = sim.wallets["bob"]
    del point_mul_calls[:]
    # every witness was verified on receipt, so the memo answers for all
    assert bob.check_witnesses(payment)
    assert point_mul_calls == []
    crypto._verified.cache_clear()
    assert bob.check_witnesses(payment)
    assert point_mul_calls


# --- the first audit of a tree ---------------------------------------------

TREE_USERS = 16


def queued_boardings(seed=0, users=TREE_USERS):
    """A sim in which `users` users' boarding requests are verified and
    queued."""
    sim = Simulation(PARAMS, seed)
    sim.operator.fund(100_000)
    names = [f"user{i}" for i in range(users)]
    for name in names:
        sim.add_wallet(name, [5_000])
    requests = [submit_boarding(sim, name, [5_000])[1] for name in names]
    sim.tick(PARAMS.k + 1)
    for req in requests:
        sim.operator.verify_boarding(req)
    return sim


def tree_sim(seed=0):
    """`TREE_USERS` users boarded into one batch, plus "outsider", a
    wallet that took no part in it."""
    sim = queued_boardings(seed)
    sim.add_wallet("outsider", [])
    sim.settle_commitment()
    return sim


def ceremony_round(kind, users=TREE_USERS):
    """A round of `users` users, all of request `kind`, assembled and not
    yet signed: the sim and its bundle."""
    sim = queued_boardings(users=users)
    if kind == "batch-swap":
        sim.settle_commitment()
        sim.operator.fund(5_000 * users)
        for name in list(sim.wallets):
            sim.swap(name, sim.vtxos(name))
    bundle = sim.operator.assemble_commitment()
    assert {r.kind for r in bundle.requests} == {kind}
    return sim, bundle


@pytest.mark.parametrize("kind", ["boarding", "batch-swap"])
def test_the_ceremony_signs_its_sessions_ahead(point_mul_calls, monkeypatch, kind):
    # a round of TREE_USERS users: the 31 tree nodes (step 2), and the 16
    # forfeits with their anchor signatures (step 3) or the 16 boarding
    # cosigns (step 4), are each signed in one batch; only the funding
    # signature (step 5) is multiplied alone
    sim, bundle = ceremony_round(kind)
    op = sim.operator
    names = [f"user{i}" for i in range(TREE_USERS)]
    for sk in [op.sk] + [sim.wallets[name].sk for name in names]:
        sk.public()   # the signers' own keys, into the emptied memo
    del point_mul_calls[:]
    batches, real = [], crypto._g_multiples
    monkeypatch.setattr(crypto, "_g_multiples",
                        lambda scalars: batches.append(len(scalars)) or real(scalars))
    op.run_signing(bundle, sim.wallets)
    assert point_mul_calls == [crypto.G]
    # every batched scalar is a nonce: the nodes' aggregate keys come from
    # the aggregate memo, and a forfeit or boarding input is signed by a
    # leaf node's owner and operator, whose key step 2 recorded
    assert batches == [2 * TREE_USERS - 1,
                       2 * TREE_USERS if kind == "batch-swap" else TREE_USERS]


def test_assembly_aggregates_a_fresh_tree_in_one_pass(point_mul_calls, monkeypatch):
    # a fresh round of TREE_USERS users: every key of the tree, the
    # commitment's batch output's included, comes from one batch pass, so
    # assembly multiplies no variable base one by one (the batch output's
    # key over all 17 members took 17 such multiplications)
    monkeypatch.setattr(crypto, "_aggregate_members", crypto._insertable_cache(
        maxsize=crypto._CACHE_SIZE)(crypto._aggregate_members.__wrapped__))
    sim = queued_boardings()
    del point_mul_calls[:]
    bundle = sim.operator.assemble_commitment()
    assert len(bundle.batch.vtxt.txs) == 2 * TREE_USERS - 1
    assert [p for p in point_mul_calls if p != crypto.G] == []


def test_a_swap_ceremony_derives_each_aggregate_secret_once(monkeypatch):
    # each session's aggregate secret is read once, and each distinct
    # signer list derived once.  The 16 forfeits are signed by their owners'
    # leaf nodes' lists (owner and operator), so 47 sessions have 31
    # distinct lists, and only a list's first session misses the memo
    sim, bundle = ceremony_round("batch-swap")
    memo = crypto._aggregate_secret
    memo.cache_clear()
    lists, misses, real = [], [], crypto.aggregate_secret

    def aggregate_secret(signers):
        before = memo.cache_info().misses
        secret = real(signers)
        lists.append(tuple(signers))
        misses.append(memo.cache_info().misses - before)
        return secret

    monkeypatch.setattr(crypto, "aggregate_secret", aggregate_secret)
    sim.operator.run_signing(bundle, sim.wallets)
    assert len(lists) == 2 * TREE_USERS - 1 + TREE_USERS
    assert memo.cache_info().misses == len(set(lists)) == 2 * TREE_USERS - 1
    assert misses == [int(signers not in lists[:i]) for i, signers in enumerate(lists)]


def test_the_ceremony_signs_no_twin_root_of_the_batch(monkeypatch):
    # a second root over the funding outpoint pays the batch to the
    # operator.  Every wallet approves its own branch, which the twin is
    # not on; its session names every wallet's key, so the ceremony aborts
    # at it.  Consent is checked for every session before any is signed,
    # so nothing is signed at all
    sim, bundle = ceremony_round("boarding")
    vtxt, op = bundle.batch.vtxt, sim.operator
    twin = Tx(ins=(vtxt.funding,), outs=(Output(vtxt.funding_out.value, p2pk(op.pk)),))
    vtxt.txs[twin.txid] = twin
    assert all(w.verify_commitment(bundle) for w in sim.wallets.values())
    # every signature, batched or not, is read through `crypto.sign`
    signed = []
    real_sign = crypto.sign
    monkeypatch.setattr(crypto, "sign", lambda sk, m, *a: signed.append(m)
                        or real_sign(sk, m, *a))
    first = next(name for m in vtxt.session(twin.txid)[2].members
                 for name, w in sim.wallets.items() if w.pk == m)
    with pytest.raises(SessionAborted, match=f"^vtxt: {first} did not approve {twin.txid[:8]}$"):
        op.run_signing(bundle, sim.wallets)
    assert signed == []
    assert all(e.event != "fund" for e in sim.chain.trace)


def test_a_swap_of_another_wallets_vtxo_aborts_unsigned():
    # mallory asks to swap alice's VTXO, given exactly as booked.  She
    # approves its forfeit, but alice, outside the bundle, approves nothing
    sim = boarded_sim()
    mallory = sim.add_wallet("mallory", [])
    (v,) = sim.vtxos("alice")
    sim.operator.verify_batch_swap(forge(mallory, Request(
        "batch-swap", "mallory", inputs=(v,), outputs=(VtxoSpec(v.value, "mallory", mallory.pk),))))
    bundle = sim.operator.assemble_commitment()
    forfeit = arkcore.forfeit_tx(v, anchor_of(bundle, v), sim.operator.pk,
                                 PARAMS.epsilon)
    assert forfeit.digest() in mallory.verify_commitment(bundle)
    with pytest.raises(SessionAborted, match=f"^forfeit: alice did not approve {forfeit.txid[:8]}$"):
        sim.operator.run_signing(bundle, sim.wallets)
    assert bundle.forfeits == {}


def drops(sim):
    return [e[1:] for e in sim.chain.trace if e.event == "drop"]


def anchor_of(bundle, vtxo):
    """The connector anchor that `bundle`'s layout pairs with the forfeit
    of `vtxo`."""
    return next(a for _, _, forfeits in bundle.entries() for v, a in forfeits
                if v.outpoint == vtxo.outpoint)


def test_a_refused_swap_leaves_the_queue_and_the_next_round_settles():
    # mallory's swap of alice's booked VTXO is refused by alice at its
    # forfeit, so the ceremony drops it; bob's honest swap, aborted with
    # it, settles in the next round, and alice keeps her VTXO
    sim = boarded_sim()
    sim.add_wallet("bob", [5_000])
    sim.board("bob", [5_000])
    sim.settle_commitment()
    mallory = sim.add_wallet("mallory", [])
    (v,) = sim.vtxos("alice")
    mallory_request = forge(mallory, Request("batch-swap", "mallory", inputs=(v,),
                                             outputs=(VtxoSpec(v.value, "mallory", mallory.pk),)))
    sim.operator.verify_batch_swap(mallory_request)
    bob_request = sim.swap("bob", sim.vtxos("bob"))
    bundle = sim.operator.assemble_commitment()
    forfeit = arkcore.forfeit_tx(v, anchor_of(bundle, v), sim.operator.pk,
                                 PARAMS.epsilon)
    with pytest.raises(SessionAborted, match=f"^forfeit: alice did not approve {forfeit.txid[:8]}$"):
        sim.operator.run_signing(bundle, sim.wallets)
    assert drops(sim) == [("operator_node", "operator", "drop",
                           f"forfeit refused by alice {forfeit.txid[:8]}")]
    assert sim.operator.book.queue == [bob_request]
    assert v.key() not in sim.operator.held()
    settled = sim.settle_commitment()
    assert settled.requests == [bob_request]
    assert sim.chain.is_stable(settled.commitment.txid)
    assert [u.value for u in sim.vtxos("bob")] == [5_000]
    assert sim.vtxos("bob")[0].outpoint.txid in settled.batch.vtxt.txs
    assert sim.vtxos("alice") == [v] and sim.operator.book.vtxos[v.key()] == ("C", v)


def test_a_refused_boarding_leaves_the_queue_and_the_next_round_settles():
    # mallory asks to board alice's boarding output.  Its cosign is read
    # from that output's lock, which names alice's key, not mallory's, so
    # alice refuses it and the ceremony drops it; bob's honest boarding
    # settles in the next round, and alice can still board her output
    sim = Simulation(PARAMS, 0)
    sim.operator.fund(100_000)
    sim.add_wallet("alice", [5_000])
    sim.add_wallet("bob", [5_000])
    mallory = sim.add_wallet("mallory", [])
    alice_tx, alice_request = submit_boarding(sim, "alice", [5_000])
    sim.tick(PARAMS.k + 1)
    mallory_request = forge(mallory, Request(
        "boarding", "mallory", boarding_outpoint=alice_tx.outpoint(0),
        outputs=(VtxoSpec(5_000, "mallory", mallory.pk),)))
    sim.operator.verify_boarding(mallory_request)
    bob_request = sim.board("bob", [5_000])
    bundle = sim.operator.assemble_commitment()
    txid8 = bundle.commitment.txid[:8]
    with pytest.raises(SessionAborted, match=f"^boarding: alice did not approve {txid8}$"):
        sim.operator.run_signing(bundle, sim.wallets)
    assert drops(sim) == [("operator_node", "operator", "drop",
                           f"boarding refused by alice {txid8}")]
    assert sim.operator.book.queue == [bob_request]
    settled = sim.settle_commitment()
    assert settled.requests == [bob_request]
    assert sim.chain.is_stable(settled.commitment.txid)
    assert [u.value for u in sim.vtxos("bob")] == [5_000]
    assert sim.chain.unspent(alice_tx.outpoint(0))
    sim.operator.verify_boarding(alice_request)
    assert sim.operator.book.queue == [alice_request]


@pytest.mark.parametrize("mallory_first", [False, True])
def test_a_boarding_of_another_wallets_output_beside_its_own_is_dropped(mallory_first):
    # alice boards her output A while mallory asks to board alice's output
    # B in the same round.  The commitment has one digest, so approving it
    # for A would let B be signed under alice's key too: alice approves no
    # commitment that boards B for another party, and the ceremony drops
    # mallory's request whichever comes first.  The next round boards A
    # and bob's output, and B stays unspent
    sim = Simulation(PARAMS, 0)
    sim.operator.fund(100_000)
    alice = sim.add_wallet("alice", [5_000, 3_000])
    sim.add_wallet("bob", [5_000])
    mallory = sim.add_wallet("mallory", [])
    _, alice_request = submit_boarding(sim, "alice", [5_000], alice.funds[:1])
    b_tx, _ = submit_boarding(sim, "alice", [3_000], alice.funds[1:])
    sim.tick(PARAMS.k + 1)
    mallory_request = forge(mallory, Request(
        "boarding", "mallory", boarding_outpoint=b_tx.outpoint(0),
        outputs=(VtxoSpec(3_000, "mallory", mallory.pk),)))
    queued = [mallory_request, alice_request] if mallory_first else [alice_request, mallory_request]
    for r in queued:
        sim.operator.verify_boarding(r)
    bob_request = sim.board("bob", [5_000])
    bundle = sim.operator.assemble_commitment()
    txid8 = bundle.commitment.txid[:8]
    assert bundle.commitment.digest() not in alice.verify_commitment(bundle)
    with pytest.raises(SessionAborted, match=f"^boarding: alice did not approve {txid8}$"):
        sim.operator.run_signing(bundle, sim.wallets)
    assert [e for e in sim.chain.trace if e.event in ("boarding", "fund")] == []
    assert drops(sim) == [("operator_node", "operator", "drop",
                           f"boarding refused by alice {txid8}")]
    assert sim.operator.book.queue == [alice_request, bob_request]
    assert (b_tx.txid, 0) not in sim.operator.held()
    settled = sim.settle_commitment()
    assert settled.requests == [alice_request, bob_request]
    assert sim.chain.is_stable(settled.commitment.txid)
    assert [v.value for v in sim.vtxos("alice")] == [5_000]
    assert [v.value for v in sim.vtxos("bob")] == [5_000]
    assert sim.vtxos("mallory") == []
    assert sim.chain.unspent(b_tx.outpoint(0))


def test_a_boarding_lock_naming_no_signers_key_is_dropped():
    # mallory boards an output locked to a key of hers that no wallet
    # holds, so no signer here can cosign it: the ceremony drops her
    # request as refused by that key, and bob's boarding settles next
    sim = Simulation(PARAMS, 0)
    sim.operator.fund(100_000)
    mallory = sim.add_wallet("mallory", [5_000])
    sim.add_wallet("bob", [5_000])
    _, stranger = crypto.keygen(b"stranger")
    tx = arkcore.boarding_tx(mallory.funds, stranger, sim.operator.pk, PARAMS.t_b, 5_000)
    tx.wits = [Witness(KEY_PATH, (crypto.sign(mallory.sk, tx.digest()),))]
    sim.chain.submit(tx, "mallory")
    sim.tick(PARAMS.k + 1)
    mallory_request = forge(mallory, Request(
        "boarding", "mallory", boarding_outpoint=tx.outpoint(0),
        outputs=(VtxoSpec(5_000, "mallory", mallory.pk),)))
    sim.operator.verify_boarding(mallory_request)
    bob_request = sim.board("bob", [5_000])
    bundle = sim.operator.assemble_commitment()
    txid8, key8 = bundle.commitment.txid[:8], stranger.hex()[:8]
    with pytest.raises(SessionAborted, match=f"^boarding: {key8} did not approve {txid8}$"):
        sim.operator.run_signing(bundle, sim.wallets)
    assert drops(sim) == [("operator_node", "operator", "drop",
                           f"boarding refused by {key8} {txid8}")]
    assert sim.operator.book.queue == [bob_request]
    settled = sim.settle_commitment()
    assert settled.requests == [bob_request]
    assert sim.chain.is_stable(settled.commitment.txid)
    assert [v.value for v in sim.vtxos("bob")] == [5_000]
    assert sim.chain.unspent(tx.outpoint(0))


def two_vtxo_sim():
    """Alice holds two 5,000-sat VTXOs and an unrequested 3,000-sat
    boarding output, bob one VTXO; mallory holds nothing.  Returns the sim,
    alice's VTXOs and her boarding tx."""
    sim = Simulation(PARAMS, 0)
    sim.operator.fund(100_000)
    alice = sim.add_wallet("alice", [10_000, 3_000])
    sim.add_wallet("bob", [5_000])
    sim.add_wallet("mallory", [])
    _, alice_request = submit_boarding(sim, "alice", [5_000, 5_000], alice.funds[:1])
    sim.tick(PARAMS.k + 1)
    sim.operator.verify_boarding(alice_request)
    sim.board("bob", [5_000])
    sim.settle_commitment()
    b_tx, _ = submit_boarding(sim, "alice", [3_000], alice.funds[1:])
    sim.tick(PARAMS.k + 1)
    return sim, sim.vtxos("alice"), b_tx


def pays(sim, name):
    """Every output on the chain locked to `name`'s key alone."""
    lock = p2pk(sim.wallets[name].pk)
    return [o for rec in sim.chain.records.values() for o in rec.tx.outs if o.lock == lock]


def test_an_exit_of_another_wallets_vtxo_is_refused_by_its_owner():
    # mallory asks to exit alice's booked VTXO to herself.  An exit signs
    # nothing, but the VTXO's owner must approve the commitment that pays
    # it out, and alice, outside the bundle, approves nothing: the ceremony
    # drops the exit, bob's swap settles in the next round, no output pays
    # mallory, and alice keeps her VTXO
    sim = boarded_sim()
    sim.add_wallet("bob", [5_000])
    sim.board("bob", [5_000])
    sim.settle_commitment()
    mallory = sim.add_wallet("mallory", [])
    (v,) = sim.vtxos("alice")
    sim.operator.verify_exit(forge(mallory, Request("exit", "mallory", inputs=(v,),
                                                    exit_outputs=((5_000, p2pk(mallory.pk)),))))
    bob_request = sim.swap("bob", sim.vtxos("bob"))
    bundle = sim.operator.assemble_commitment()
    txid8 = bundle.commitment.txid[:8]
    with pytest.raises(SessionAborted, match=f"^exit: alice did not approve {txid8}$"):
        sim.operator.run_signing(bundle, sim.wallets)
    assert drops(sim) == [("operator_node", "operator", "drop",
                           f"exit refused by alice {txid8}")]
    assert bundle.commitment.wits == [] and bundle.forfeits == {}
    assert sim.operator.book.queue == [bob_request]
    settled = sim.settle_commitment()
    assert settled.requests == [bob_request]
    assert sim.chain.is_stable(settled.commitment.txid)
    assert pays(sim, "mallory") == []
    assert sim.vtxos("alice") == [v] and sim.operator.book.vtxos[v.key()] == ("C", v)


def test_one_abort_drops_every_foreign_request_of_a_round():
    # mallory swaps one of alice's VTXOs, boards her unrequested boarding
    # output and exits her other VTXO, beside bob's honest swap.  Consent
    # is checked for every session before any is signed, so one abort
    # drops all three, and the next round settles bob's swap alone
    sim, (v1, v2), b_tx = two_vtxo_sim()
    mallory = sim.wallets["mallory"]
    op = sim.operator
    op.verify_batch_swap(forge(mallory, Request(
        "batch-swap", "mallory", inputs=(v1,), outputs=(VtxoSpec(5_000, "mallory", mallory.pk),))))
    op.verify_boarding(forge(mallory, Request(
        "boarding", "mallory", boarding_outpoint=b_tx.outpoint(0),
        outputs=(VtxoSpec(3_000, "mallory", mallory.pk),))))
    op.verify_exit(forge(mallory, Request(
        "exit", "mallory", inputs=(v2,), exit_outputs=((5_000, p2pk(mallory.pk)),))))
    bob_request = sim.swap("bob", sim.vtxos("bob"))
    bundle = op.assemble_commitment()
    forfeit8 = arkcore.forfeit_tx(v1, anchor_of(bundle, v1), op.pk,
                                  PARAMS.epsilon).txid[:8]
    txid8, trace = bundle.commitment.txid[:8], len(sim.chain.trace)
    with pytest.raises(SessionAborted, match=f"^forfeit: alice did not approve {forfeit8}$"):
        op.run_signing(bundle, sim.wallets)
    # nothing was signed, not even the honest tree nodes
    assert [e[1:] for e in sim.chain.trace[trace:]] == [
        ("operator_node", "operator", "drop", reason) for reason in (
            f"forfeit refused by alice {forfeit8}", f"boarding refused by alice {txid8}",
            f"exit refused by alice {txid8}")]
    assert op.book.queue == [bob_request]
    settled = sim.settle_commitment()
    assert settled.requests == [bob_request]
    assert sim.chain.is_stable(settled.commitment.txid)
    assert pays(sim, "mallory") == [] and sim.vtxos("mallory") == []
    assert sim.vtxos("alice") == [v1, v2] and sim.chain.unspent(b_tx.outpoint(0))


def test_a_swap_naming_two_foreign_vtxos_is_dropped_once():
    # mallory's one swap names both of alice's VTXOs: both forfeits are
    # refused, and the request leaves the queue with one drop note
    sim, (v1, v2), _ = two_vtxo_sim()
    mallory = sim.wallets["mallory"]
    sim.operator.verify_batch_swap(forge(mallory, Request(
        "batch-swap", "mallory", inputs=(v1, v2),
        outputs=(VtxoSpec(10_000, "mallory", mallory.pk),))))
    bundle = sim.operator.assemble_commitment()
    forfeit8 = arkcore.forfeit_tx(v1, anchor_of(bundle, v1), sim.operator.pk,
                                  PARAMS.epsilon).txid[:8]
    with pytest.raises(SessionAborted, match=f"^forfeit: alice did not approve {forfeit8}$"):
        sim.operator.run_signing(bundle, sim.wallets)
    assert drops(sim) == [("operator_node", "operator", "drop",
                           f"forfeit refused by alice {forfeit8}")]
    assert sim.operator.book.queue == []


def test_an_exit_of_its_own_vtxo_approves_no_foreign_exit():
    # alice exits one VTXO while mallory exits her other one in the same
    # round.  The commitment has one digest for both exits, so alice
    # approves it for neither: the ceremony drops mallory's exit only, and
    # the next round pays alice's exit and nothing to mallory
    sim, (v1, v2), _ = two_vtxo_sim()
    mallory = sim.wallets["mallory"]
    alice_request = sim.exit("alice", [v1])
    sim.operator.verify_exit(forge(mallory, Request("exit", "mallory", inputs=(v2,),
                                                    exit_outputs=((5_000, p2pk(mallory.pk)),))))
    bundle = sim.operator.assemble_commitment()
    txid8 = bundle.commitment.txid[:8]
    assert bundle.commitment.digest() not in sim.wallets["alice"].verify_commitment(bundle)
    with pytest.raises(SessionAborted, match=f"^exit: alice did not approve {txid8}$"):
        sim.operator.run_signing(bundle, sim.wallets)
    assert drops(sim) == [("operator_node", "operator", "drop",
                           f"exit refused by alice {txid8}")]
    assert sim.operator.book.queue == [alice_request]
    settled = sim.settle_commitment()
    assert settled.requests == [alice_request]
    assert sim.chain.is_stable(settled.commitment.txid)
    assert pays(sim, "mallory") == []
    assert Output(5_000, p2pk(sim.wallets["alice"].pk)) in settled.commitment.outs
    assert sim.vtxos("alice") == [v2]


class ReadRecordingDict(dict):
    """A tree's txs that record each key read and each walk over them."""

    def __init__(self, txs):
        super().__init__(txs)
        self.reads, self.walks = set(), 0

    def __getitem__(self, key):
        self.reads.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.reads.add(key)
        return super().get(key, default)

    def __contains__(self, key):
        self.reads.add(key)
        return super().__contains__(key)

    def __iter__(self):
        self.walks += 1
        return super().__iter__()

    def keys(self):
        self.walks += 1
        return super().keys()

    def values(self):
        self.walks += 1
        return super().values()

    def items(self):
        self.walks += 1
        return super().items()


def test_a_wallet_audits_only_its_own_branch():
    # 64 users swap into one batch.  Each wallet reads at most depth + 2
    # nodes of the tree, never walks it, and approves exactly its path and
    # its forfeit; the whole-tree audit read all 127 nodes per wallet
    users = 64
    sim, bundle = ceremony_round("batch-swap", users=users)
    vtxt, op = bundle.batch.vtxt, sim.operator
    depth = len(vtxt.path_to(vtxt.leaves[0].txid)) - 1
    assert depth == 6
    anchors = {v.outpoint: a for _, _, forfeits in bundle.entries() for v, a in forfeits}
    vtxt.txs = ReadRecordingDict(vtxt.txs)
    for r, ref in zip(bundle.requests, list(vtxt.leaves)):
        vtxt.txs.reads.clear()
        approved = sim.wallets[r.party].verify_commitment(bundle)
        assert len(vtxt.txs.reads) <= depth + 2 and vtxt.txs.walks == 0, r.party
        (v,) = r.inputs
        forfeit = arkcore.forfeit_tx(v, anchors[v.outpoint], op.pk, PARAMS.epsilon)
        path = vtxt.path_to(ref.txid)
        assert approved == {tx.digest() for tx in path} | {forfeit.digest()}


def internal_node_keys(batch):
    """The aggregate key point that each internal node of the batch's tree
    is signed under.  A leaf node is signed under its owner's key with the
    operator's, the key of the owner's resets and ark spends too."""
    leaves = {leaf.txid for leaf in batch.vtxt.leaves}
    return {batch.vtxt.session(txid)[2].point.point
            for txid in batch.vtxt.txs if txid not in leaves}


def receipt(sim, sender, recipient):
    """`recipient`'s verdict on 1,000 sat from `sender`'s VTXO: the last
    trace record without its round."""
    payment = sim.ark_pay(sender, recipient, sim.vtxos(sender), 1_000,
                          auto_receive=False)
    sim.wallets[recipient].receive_payment(payment)
    return sim.chain.trace[-1][1:]


@pytest.fixture
def batch_sizes(monkeypatch):
    """The size of every batch equation checked, and its outcome."""
    sizes = []
    real = crypto._batch_holds

    def counting(batch):
        sizes.append((len(batch), real(batch)))
        return sizes[-1][1]

    monkeypatch.setattr(crypto, "_batch_holds", counting)
    return sizes


def test_first_receipt_checks_the_whole_tree_in_one_equation(point_mul_calls,
                                                              batch_sizes):
    sim = tree_sim()
    batch = sim.all_bundles[-1].batch
    assert len(batch.vtxt.txs) == 2 * TREE_USERS - 1
    payment = sim.ark_pay("user0", "user1", sim.vtxos("user0"), 1_000,
                          auto_receive=False)
    del point_mul_calls[:], batch_sizes[:]
    assert sim.wallets["user1"].receive_payment(payment) is not None
    assert batch_sizes == [(2 * TREE_USERS - 1, True)]
    # no internal node's key is multiplied, so none gets a comb table
    assert not set(point_mul_calls) & internal_node_keys(batch)


def test_a_tree_equation_folds_its_node_keys_onto_their_members(
        point_mul_calls, batch_sizes, multi_mul_terms):
    # one term per R, and two GLV halves per key: the users' and the
    # operator's, where the 31 node keys took 31 + 2 * 31 = 93
    sim = tree_sim()
    payment = sim.ark_pay("user0", "user1", sim.vtxos("user0"), 1_000,
                          auto_receive=False)
    del batch_sizes[:], multi_mul_terms[:]
    assert sim.wallets["user1"].receive_payment(payment) is not None
    nodes = 2 * TREE_USERS - 1
    assert batch_sizes == [(nodes, True)]
    assert multi_mul_terms == [nodes + 2 * (TREE_USERS + 1)]


def test_a_checked_path_builds_no_tree_checks(batch_sizes, monkeypatch):
    # user1's receipt checks the whole tree; user3's first receipt finds
    # every signature of user2's path in the verify memo, so it neither
    # builds the tree's checks nor runs an equation
    sim = tree_sim()
    assert receipt(sim, "user0", "user1")[2] == "payment_accepted"
    built = []
    real = wallet.witness_checks
    payment = sim.ark_pay("user2", "user3", sim.vtxos("user2"), 1_000,
                          auto_receive=False)
    path = {tx.txid for pth in payment.paths for tx in pth}

    def recording(tx, spent, height, confirmed=()):
        if tx.txid not in path:     # a tree node off the payer's path
            built.append(tx)
        return real(tx, spent, height, confirmed)

    monkeypatch.setattr(wallet, "witness_checks", recording)
    del batch_sizes[:]
    assert sim.wallets["user3"].trees != {}
    assert sim.wallets["user3"].receive_payment(payment) is not None
    assert built == [] and batch_sizes == []
    assert sim.wallets["user3"].trees == {}


def test_a_second_receipt_from_the_tree_checks_only_its_reset_and_ark(
        point_mul_calls, batch_sizes):
    sim = tree_sim()
    assert receipt(sim, "user0", "user1")[2] == "payment_accepted"
    payment = sim.ark_pay("user2", "user3", sim.vtxos("user2"), 1_000,
                          auto_receive=False)
    del point_mul_calls[:], batch_sizes[:]
    assert sim.wallets["user3"].receive_payment(payment) is not None
    assert batch_sizes == []
    # s * G and e * P for the reset's signature, then for the ark's, both
    # under user2's key with the operator's
    key = crypto.aggregate([sim.wallets["user2"].pk, sim.operator.pk]).point.point
    assert point_mul_calls == [crypto.G, key, crypto.G, key]


def tampered_receipts(monkeypatch, batch_min=None):
    """The verdicts on a payment whose path runs through a node with a bad
    signature, and on one whose path avoids it, from a fresh verify
    memo; with `batch_min`, `crypto.BATCH_MIN` is set to it."""
    if batch_min is not None:
        monkeypatch.setattr(crypto, "BATCH_MIN", batch_min)
    crypto._verified.cache_clear()
    sim = tree_sim()
    vtxt = sim.all_bundles[-1].batch.vtxt
    node = list(vtxt.txs.values())[1]       # the root's first child
    wit = node.wits[0]
    sig = wit.signatures[0]
    node.wits = [Witness(wit.path_index, (crypto.Signature(sig.R, sig.s + 1),),
                         wit.revealed_paths)]
    through, avoids = (leaf.vtxo.owner for leaf in (vtxt.leaves[0], vtxt.leaves[-1]))
    assert node in vtxt.path_to(vtxt.leaves[0].txid)
    assert node not in vtxt.path_to(vtxt.leaves[-1].txid)
    return receipt(sim, through, "user5"), receipt(sim, avoids, "user6")


def test_a_bad_node_signature_rejects_exactly_the_paths_through_it(
        point_mul_calls, batch_sizes, monkeypatch):
    batched = tampered_receipts(monkeypatch)
    assert batched[0] == ("wallet", "user5", "payment_rejected", "invalid witness")
    assert batched[1][:3] == ("wallet", "user6", "payment_accepted")
    # after the blocks' equations, the first tree equation held the bad
    # signature and failed; the second left out the two signatures (root
    # and bad node) that the first receipt then checked singly
    assert batch_sizes[-2:] == [(2 * TREE_USERS - 1, False),
                                (2 * TREE_USERS - 3, True)]
    del batch_sizes[:]
    assert tampered_receipts(monkeypatch, 2 * TREE_USERS) == batched
    assert batch_sizes == []


def test_a_remembered_tree_is_dropped_at_its_first_audit():
    sim = tree_sim()
    batch = sim.all_bundles[-1].batch
    remembered = {batch.vtxt.funding: batch}
    assert all(sim.wallets[f"user{i}"].trees == remembered
               for i in range(TREE_USERS))
    assert sim.wallets["outsider"].trees == {}
    receipt(sim, "user0", "user1")
    assert sim.wallets["user1"].trees == {}
    assert sim.wallets["user2"].trees == remembered


def test_a_remembered_tree_is_dropped_at_expiry():
    sim = boarded_sim()
    alice = sim.wallets["alice"]
    first = sim.all_bundles[-1].batch
    sim.add_wallet("bob", [5_000])
    sim.board("bob", [5_000])
    sim.settle_commitment()
    # bob's batch does not hold alice, and hers has not expired yet
    assert alice.trees == {first.vtxt.funding: first}
    sim.tick(first.expiry - sim.chain.height)
    sim.add_wallet("carol", [5_000])
    sim.board("carol", [5_000])
    sim.settle_commitment()
    assert alice.trees == {}
    second = sim.all_bundles[-2].batch
    assert sim.wallets["bob"].trees == {second.vtxt.funding: second}


def test_payment_rejected_without_transcript():
    sim = boarded_sim()
    payment = payment_to_bob(sim)
    bob = sim.wallets["bob"]
    payment.paths = [[] for _ in payment.ark.ins]   # transcript withheld
    assert bob.receive_payment(payment) is None
    assert any(e.actor == "bob" and e.event == "payment_rejected"
               for e in sim.chain.trace)


def test_a_payment_without_inputs_is_refused():
    # an ark tx that spends nothing, with no resets and no paths, paying
    # bob 0 sat: the transcript's three lengths agree at 0, and 0 sat in
    # covers 0 sat out, but there is no input to take an expiry from
    sim = boarded_sim()
    payment = payment_to_bob(sim)
    bob = sim.wallets["bob"]
    (mine,) = [v for v in payment.outputs if v.owner == "bob"]
    ark = Tx((), (Output(0, payment.ark.outs[mine.outpoint.index].lock),))
    mine.value, mine.outpoint = 0, OutPoint(ark.txid, 0)
    assert bob.receive_payment(ArkPayment(ark, [], [], [mine])) is None
    assert sim.chain.trace[-1][1:] == ("wallet", "bob", "payment_rejected",
                                       "ark tx without inputs")
    assert bob.holdings == {}


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
    v = sim.vtxos("alice")[0]
    while sim.chain.height < v.expiry - 2 * PARAMS.k:
        sim.tick(1, watch=False)
    assert alice.balance() == 0     # too close to expiry to be safe


def test_the_exit_deadline_is_expiry_less_2k_less_1():
    # the deadline written out here, not read from Params
    sim = boarded_sim()
    alice = sim.wallets["alice"]
    (v,) = sim.vtxos("alice")
    deadline = v.expiry - 2 * PARAMS.k - 1
    sim.tick(deadline - 1 - sim.chain.height, watch=False)
    assert sim.chain.height == deadline - 1
    assert alice.spend_policy_step() == []
    assert alice.balance() == 5_000
    sim.tick(1, watch=False)
    assert alice.balance() == 5_000     # counted until the exit fires
    transcript = alice.holdings[v.key()].transcript
    unconfirmed = [tx for tx in transcript if not sim.chain.is_confirmed(tx.txid)]
    assert unconfirmed and alice.spend_policy_step() == unconfirmed
    assert alice.balance() == 0


def test_unilateral_exit_confirms():
    sim = boarded_sim()
    alice = sim.wallets["alice"]
    v = sim.vtxos("alice")[0]
    alice.unilateral_exit(v)
    sim.tick(2 * PARAMS.k, watch=False)
    assert sim.chain.unspent(v.outpoint)


def three_leaf_sim():
    """alice, bob and carol each boarded 5,000 sat into one settled batch,
    whose tree has a path of three txs to each leaf."""
    sim = Simulation(PARAMS, 0)
    sim.operator.fund(100_000)
    for name in ("alice", "bob", "carol"):
        sim.add_wallet(name, [5_000])
        sim.board(name, [5_000])
    sim.settle_commitment()
    return sim


def test_a_refused_exit_submission_is_noted_and_only_the_submitted_txs_returned():
    sim = three_leaf_sim()
    alice = sim.wallets["alice"]
    (v,) = sim.vtxos("alice")
    *parents, leaf = alice.holdings[v.key()].transcript
    assert len(parents) == 2
    leaf.wits = []
    trace = len(sim.chain.trace)
    assert alice.unilateral_exit(v) == parents
    assert list(sim.chain.mempool) == [tx.txid for tx in parents]
    assert [e[1:] for e in sim.chain.trace[trace:]] == [
        ("wallet", "alice", "exit_submit_failed", "witness count mismatch"),
        ("wallet", "alice", "unilateral_exit", "2 txs")]


def test_an_exit_of_a_vtxo_the_wallet_does_not_hold_does_nothing():
    sim = three_leaf_sim()
    (v,) = sim.vtxos("bob")
    trace = list(sim.chain.trace)
    assert sim.wallets["alice"].unilateral_exit(v) == []
    assert sim.chain.trace == trace and sim.chain.mempool == {}
    assert not sim.wallets["bob"].holdings[v.key()].exited


def test_a_boarding_output_counts_until_a_stable_commitment_spends_it():
    # the boarding clause of balance(): the boarding output counts until
    # the commitment spending it is stable, also while that commitment is
    # in a block but not yet k deep; from then the wallet holds the VTXOs
    # and forgets the output, so the balance is their value, never both
    # and never neither
    sim = Simulation(PARAMS, 0)
    sim.operator.fund(100_000)
    alice = sim.add_wallet("alice", [5_000])
    assert alice.balance() == 0
    sim.board("alice", [3_000, 2_000])
    ((op, out),) = alice.boarding_outputs
    assert sim.chain.unspent(op) and out.value == 5_000 and alice.holdings == {}
    assert alice.balance() == 5_000
    # `settle_commitment`, one block at a time
    op_node = sim.operator
    bundle = op_node.assemble_commitment()
    op_node.run_signing(bundle, sim.wallets)
    op_node.submit_and_track(bundle)
    sim.all_bundles.append(bundle)
    seen = []
    for _ in range(PARAMS.k + 2):
        sim.tick(1)
        seen.append((sim.chain.unspent(op), sim.chain.is_stable(bundle.commitment.txid),
                     alice.balance()))
    # spent from the first block on, stable k blocks later
    assert seen == [(False, False, 5_000)] * PARAMS.k + [(False, True, 5_000)] * 2
    assert alice.boarding_outputs == []
    assert sorted(v.value for v in sim.vtxos("alice")) == [2_000, 3_000]


def test_change_vtxo_exits_unilaterally():
    sim = boarded_sim(funds=10_000)
    sim.add_wallet("bob", [])
    alice = sim.wallets["alice"]
    payment = sim.ark_pay("alice", "bob", [sim.vtxos("alice")[0]], 2_500)
    change = next(v for v in payment.outputs if v.owner == "alice")
    assert alice.unilateral_exit(change)
    sim.tick(2 * PARAMS.k + 2, watch=False)
    assert sim.chain.unspent(change.outpoint)


def test_spend_policy_fires_at_deadline():
    sim = boarded_sim()
    alice = sim.wallets["alice"]
    v = sim.vtxos("alice")[0]
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
