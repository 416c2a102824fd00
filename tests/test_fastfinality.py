import pytest

from arksim import arkcore, crypto, harness
from arksim.arkcore import Vtxo, nonce_bound_path, p2pk
from arksim.crypto import SessionAborted
from arksim.fastfinality import FfConfig, FfError
from arksim.harness import (
    PARAMS_TE60 as PARAMS,
    audit,
    ff_double_spend_trace,
    ff_setup,
    grant_batch,
    signed_batch,
)
from arksim.ledger import Output, Tx
from arksim.operator_node import Reject, Request, VtxoSpec
from arksim.wallet import Holding, transcript


def payment(sim, coord, vtxo, to, allow_conflict=False):
    """Mallory's fast-finality payment of `vtxo` to `to`."""
    path = sim.wallets["mallory"].holdings[vtxo.key()].transcript
    return coord.make_ff_payment(
        "mallory", [vtxo], [VtxoSpec(vtxo.value, to, sim.wallets[to].pk)], [path],
        allow_conflict=allow_conflict)


def run(sim, coord, rounds):
    for _ in range(rounds):
        coord.step()
        sim.chain.advance_round()


def test_config_requires_collateral_exceeding_value():
    with pytest.raises(Exception):
        FfConfig(members=("a", "b"), delta=1, v=100, c=100, t_p=10).validate()


def test_honest_payment_accepted_after_2delta():
    sim, coord, vtxo = ff_setup(0, PARAMS, 1)
    coord.ff_send("mallory", "alice", payment(sim, coord, vtxo, "alice"))
    run(sim, coord, 3 * coord.cfg.delta + 2)
    assert coord.accepted["alice"]
    assert not coord.burned


def test_honest_operator_refuses_double_sign():
    sim, coord, vtxo = ff_setup(0, PARAMS, 1)
    payment(sim, coord, vtxo, "alice")
    with pytest.raises(Reject, match=r"^UnknownVtxo "):
        payment(sim, coord, vtxo, "bob")


def test_a_refused_fast_finality_request_is_withdrawn():
    # mallory's second payment of her paid VTXO is refused at intake: her
    # wallet keeps no record of it, so it approves no later payment of it
    sim, coord, vtxo = ff_setup(0, PARAMS, 1)
    payment(sim, coord, vtxo, "alice")
    with pytest.raises(Reject, match=r"^UnknownVtxo "):
        payment(sim, coord, vtxo, "bob")
    assert sim.wallets["mallory"].requests == []


def test_nonce_bound_signer_refuses_a_second_spend_of_an_input():
    # the single-spend rule lives in the operator's one table: a second,
    # different spend of an input is refused unless allow_conflict
    sim, coord, vtxo = ff_setup(0, PARAMS, 1)
    first = payment(sim, coord, vtxo, "alice")
    rst = first.resets[0]
    _, r_star = nonce_bound_path(rst.outs[0].lock)
    other = Tx(ins=first.ark.ins, outs=(Output(rst.outs[0].value, p2pk(sim.wallets["bob"].pk)),))
    spends = dict(sim.operator.cosigned_spends)
    assert spends[(rst.txid, 0)] == first.ark.txid
    with pytest.raises(FfError, match="double-sign"):
        coord.ffop.sign_nonce_bound(other, r_star)
    assert sim.operator.cosigned_spends == spends
    coord.ffop.sign_nonce_bound(other, r_star, allow_conflict=True)
    assert sim.operator.cosigned_spends[(rst.txid, 0)] == other.txid


def test_the_builder_refuses_a_second_payment_of_a_paid_nonce_bound_vtxo():
    # mallory's VTXO is paid to alice; her second payment of it, to bob,
    # past intake and without allow_conflict, is refused at the nonce-bound
    # signer: no spend is recorded and nothing is noted
    sim, coord, vtxo = ff_setup(0, PARAMS, 1)
    payment(sim, coord, vtxo, "alice")
    mallory, bob = sim.wallets["mallory"], sim.wallets["bob"]
    again = mallory.make_ark_request([vtxo], [VtxoSpec(vtxo.value, "bob", bob.pk)])
    before = (dict(sim.operator.cosigned_spends), list(sim.chain.trace))
    with pytest.raises(FfError, match="^refusing to double-sign a nonce-bound spend$"):
        sim.operator.build_payment(again, sim.wallets, coord.ffop)
    assert (dict(sim.operator.cosigned_spends), list(sim.chain.trace)) == before


def test_a_fast_finality_payment_to_a_non_member_is_not_sent():
    sim, coord, vtxo = ff_setup(0, PARAMS, 1)
    pay = payment(sim, coord, vtxo, "alice")
    sim.add_wallet("carol", [])
    with pytest.raises(FfError, match="^parties must be opted in$"):
        coord.ff_send("mallory", "carol", pay)
    assert all(inbox == [] for inbox in coord.inboxes.values())


def test_the_nonce_bound_signer_refuses_an_unknown_commitment():
    sim, coord, vtxo = ff_setup(0, PARAMS, 1)
    first = payment(sim, coord, vtxo, "alice")
    spends = dict(sim.operator.cosigned_spends)
    # a nonce point the operator never committed to
    stranger = crypto.SecretKey(0x5EED).public().point
    with pytest.raises(FfError, match="unknown nonce commitment"):
        coord.ffop.sign_nonce_bound(first.ark, stranger)
    assert sim.operator.cosigned_spends == spends


def test_a_warm_double_spend_trace_multiplies_no_point(point_mul_calls):
    # the nonce points come from the public-key memo, as every other
    # public key does
    ff_double_spend_trace(0, PARAMS, 1)
    del point_mul_calls[:]
    outcome = ff_double_spend_trace(0, PARAMS, 1)
    assert outcome["burned"] and not outcome["both_accepted"]
    assert point_mul_calls == []


def test_a_payment_of_another_members_vtxo_is_refused_unsigned(monkeypatch):
    # bob forges a request of mallory's nonce-bound VTXO: bob approves it,
    # but mallory asked for no payment, so she approves nothing, the ark
    # tx's session is refused, and nothing is signed or booked
    sim, coord, vtxo = ff_setup(0, PARAMS, 1)
    book = sim.operator.book
    before = (dict(book.vtxos), sim.operator.held(), dict(sim.operator.cosigned_spends))
    built = []
    real = arkcore.ark_tx
    monkeypatch.setattr(arkcore, "ark_tx", lambda *args: built.append(real(*args)) or built[-1])
    r = Request("ark", "bob", inputs=(vtxo,),
                outputs=(VtxoSpec(vtxo.value, "bob", sim.wallets["bob"].pk),))
    sim.wallets["bob"].requests.append(r)
    with pytest.raises(SessionAborted) as refusal:
        sim.operator.verify_ark_request(r, sim.wallets, coord.ffop)
    assert str(refusal.value) == f"ark: mallory did not approve {built[0].txid[:8]}"
    assert (dict(book.vtxos), sim.operator.held(), dict(sim.operator.cosigned_spends)) == before


def test_a_member_requests_no_payment_of_a_vtxo_it_does_not_hold():
    # through the coordinator, bob's wallet refuses mallory's VTXO before
    # the operator sees a request
    sim, coord, vtxo = ff_setup(0, PARAMS, 1)
    book = sim.operator.book
    before = (dict(book.vtxos), sim.operator.held(), dict(sim.operator.cosigned_spends))
    path = sim.wallets["mallory"].holdings[vtxo.key()].transcript
    with pytest.raises(arkcore.ArkError,
                       match=rf"^bob holds no VTXO {vtxo.outpoint.txid[:8]}:0$"):
        coord.make_ff_payment("bob", [vtxo], [VtxoSpec(vtxo.value, "bob", sim.wallets["bob"].pk)],
                              [path])
    assert (dict(book.vtxos), sim.operator.held(), dict(sim.operator.cosigned_spends)) == before


def test_a_fast_finality_payment_is_in_the_book_and_the_oracle():
    sim, coord, vtxo = ff_setup(0, PARAMS, 1)
    pay = payment(sim, coord, vtxo, "alice")
    sim.payments.append(pay)
    state, book = sim.state(), sim.book_projection()
    keys = {v.key() for v in pay.outputs}
    assert keys and keys <= book.F and keys <= state.F
    assert vtxo.key() in book.S
    assert state.as_tuple() == book.as_tuple()


def test_payment_without_witnesses_rejected_once():
    sim, coord, vtxo = ff_setup(0, PARAMS, 1)
    pay = payment(sim, coord, vtxo, "alice")
    pay.ark.wits = []
    coord.ff_send("mallory", "alice", pay)
    run(sim, coord, 3 * coord.cfg.delta + 2)
    assert not coord.accepted["alice"]
    assert [e[1:] for e in sim.chain.trace if e.event == "payment_rejected"] == [
        ("wallet", "alice", "payment_rejected", "missing witness")]


def refusals(sim):
    return [e[1:] for e in sim.chain.trace if e.event == "payment_rejected"]


def paying_bob(sim, coord, vtxo):
    return payment(sim, coord, vtxo, "bob")


def with_a_reset_without_outputs(sim, coord, vtxo):
    pay = payment(sim, coord, vtxo, "alice")
    rst = pay.resets[0]
    pay.resets[0] = Tx(ins=rst.ins, outs=(), wits=rst.wits)
    return pay


@pytest.mark.parametrize("forge, reason", [
    (paying_bob, "no output"),
    (with_a_reset_without_outputs, "reset without outputs"),
])
def test_the_payee_refuses_what_the_wallet_audit_refuses(forge, reason):
    # a payment sent to alice is audited as her wallet audits any payment
    sim, coord, vtxo = ff_setup(0, PARAMS, 1)
    coord.ff_send("mallory", "alice", forge(sim, coord, vtxo))
    run(sim, coord, 3 * coord.cfg.delta + 2)
    assert not coord.pending["alice"] and not coord.accepted["alice"]
    assert refusals(sim) == [("wallet", "alice", "payment_rejected", reason)]


def test_a_payment_whose_reset_is_not_nonce_bound_is_refused():
    # mallory pays alice out of a VTXO that fixes no nonce: the wallet audit
    # passes it, but conflicting spends of it would not force nonce reuse
    sim, coord, _ = ff_setup(0, PARAMS, 1)
    mallory, alice, op = sim.wallets["mallory"], sim.wallets["alice"], sim.operator
    vtxo = Vtxo(4_000, arkcore.vtxo_lock(mallory.pk, op.pk, PARAMS.t_u), "mallory", mallory.pk)
    _, vtxt = signed_batch([vtxo], [(op.sk, op.pk), (mallory.sk, mallory.pk)],
                           sim.chain.height + 2 * PARAMS.k + PARAMS.t_e)
    grant_batch(sim.chain, vtxt)
    op.book.vtxos[vtxo.key()] = ("C", vtxo)
    mallory.holdings[vtxo.key()] = Holding(vtxo, vtxt.path_to(vtxo.outpoint.txid), "batch")
    req = mallory.make_ark_request([vtxo], [VtxoSpec(vtxo.value, "alice", alice.pk)])
    pay = op.verify_ark_request(req, sim.wallets)
    pay.paths = [vtxt.path_to(vtxo.outpoint.txid)]
    assert nonce_bound_path(pay.resets[0].outs[0].lock) is None
    coord.ff_send("mallory", "alice", pay)
    run(sim, coord, 3 * coord.cfg.delta + 2)
    assert not coord.pending["alice"] and not coord.accepted["alice"]
    assert refusals(sim) == [("fastfinality", "alice", "payment_rejected",
                              "incorrect output script")]


@pytest.mark.parametrize("seed", range(5))
def test_a_double_spend_trace_ends_with_the_oracle_equal_to_the_book(monkeypatch, seed):
    # the booked payment is among the oracle's payments; the conflicting
    # one, which only the byzantine builder saw, is not
    setups = []
    monkeypatch.setattr(harness, "ff_setup",
                        lambda *args: setups.append(ff_setup(*args)) or setups[-1])
    ff_double_spend_trace(seed, PARAMS, 1)
    ((sim, _, _),) = setups
    assert audit(sim) == []


def test_double_sign_detected_and_burned():
    sim, coord, vtxo = ff_setup(0, PARAMS, 1)
    coord.ff_send("mallory", "alice", payment(sim, coord, vtxo, "alice"))
    coord.ff_send("mallory", "bob", payment(sim, coord, vtxo, "bob", allow_conflict=True))
    run(sim, coord, 6 * coord.cfg.delta + 4)
    assert not (coord.accepted["alice"] and coord.accepted["bob"])
    assert [e[1:] for e in sim.chain.trace if e.layer == "fastfinality"] == [
        ("fastfinality", "alice", "payment_rejected", "conflict"),
        ("fastfinality", "bob", "payment_rejected", "conflict")]
    assert coord.burned
    assert sim.chain.is_confirmed(coord.burn_txid)
    # the burn destroys the collateral: the burn tx has no outputs
    burn = sim.chain.records[coord.burn_txid].tx
    assert burn.outs == ()


def test_a_conflict_published_onchain_while_a_payment_waits_is_refused_and_burned():
    # mallory publishes pay_b's path, reset and ark tx while alice waits out
    # 2 * delta on pay_a; alice has seen no conflicting payload, so only
    # the chain shows the conflict: she refuses pay_a and burns
    sim, coord, vtxo = ff_setup(0, PARAMS, 1)
    pay_a = payment(sim, coord, vtxo, "alice")
    pay_b = payment(sim, coord, vtxo, "bob", allow_conflict=True)
    coord.ff_send("mallory", "alice", pay_a)
    run(sim, coord, 1)
    assert [p.payload.payment for p in coord.pending["alice"]] == [pay_a]
    sim.chain.submit_package(transcript(pay_b), "mallory")
    run(sim, coord, 6 * coord.cfg.delta + 4)
    assert sim.chain.is_confirmed(pay_b.ark.txid)
    assert not coord.pending["alice"] and not coord.accepted["alice"]
    assert [e[1:] for e in sim.chain.trace if e.layer == "fastfinality"] == [
        ("fastfinality", "alice", "payment_rejected", "conflict")]
    assert coord.burned and sim.chain.is_confirmed(coord.burn_txid)


def test_extracted_key_is_operator_key():
    sim, coord, vtxo = ff_setup(0, PARAMS, 1)
    p1 = payment(sim, coord, vtxo, "alice")
    p2 = payment(sim, coord, vtxo, "bob", allow_conflict=True)
    pair = None
    for wa in p1.ark.wits:
        for sa in wa.signatures:
            for wb in p2.ark.wits:
                for sb in wb.signatures:
                    if sa.R == sb.R and sa.s != sb.s:
                        pair = (sa, sb)
    assert pair is not None, "conflicting payments share no nonce"
    sk = crypto.extract_secret(sim.operator.pk, p1.ark.digest(), pair[0],
                               p2.ark.digest(), pair[1])
    assert sk.public() == sim.operator.pk


def test_exhaustive_delta1_no_double_acceptance():
    for offset in range(3):
        out = ff_double_spend_trace(0, PARAMS, 1, None, offset)
        assert not out["both_accepted"]
        assert out["burned"]
        assert out["collateral"] > out["coalition_gain"]


def test_double_spend_trace_verify_count(monkeypatch):
    # extract_secret is the only signature check in extract_and_burn, and
    # a coordinator that has burned already does not verify again
    calls = []
    real = crypto.verify

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(crypto, "verify", counting)
    for seed in range(5):
        del calls[:]
        outcome = ff_double_spend_trace(seed, PARAMS, 1)
        assert outcome["burned"]
        assert len(calls) == 14
