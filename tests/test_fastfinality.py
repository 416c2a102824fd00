import pytest

from arksim import crypto
from arksim.fastfinality import FfConfig, FfError
from arksim.harness import PARAMS_TE60 as PARAMS, ff_double_spend_trace, ff_setup
from arksim.operator_node import VtxoSpec


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
    coord.ffop.byzantine = False
    payment(sim, coord, vtxo, "alice")
    with pytest.raises(FfError):
        payment(sim, coord, vtxo, "bob")


def test_payment_without_witnesses_rejected_once():
    sim, coord, vtxo = ff_setup(0, PARAMS, 1)
    pay = payment(sim, coord, vtxo, "alice")
    pay.ark.wits = []
    coord.ff_send("mallory", "alice", pay)
    run(sim, coord, 3 * coord.cfg.delta + 2)
    assert not coord.accepted["alice"]
    assert [e[1:] for e in sim.chain.trace if e.event == "payment_rejected"] == [
        ("wallet", "alice", "payment_rejected", "missing witness")]


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
