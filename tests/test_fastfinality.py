import pytest

from arksim import arkcore, crypto
from arksim.arkcore import Vtxo, batch_lock, vtxo_lock
from arksim.fastfinality import (
    FfConfig,
    FfError,
    FfOperator,
    FfCoordinator,
    setup_collateral,
)
from arksim.harness import Simulation, cosign_vtxt, ff_double_spend_trace
from arksim.ledger import Params
from arksim.operator_node import VtxoSpec
from arksim.wallet import Holding

PARAMS = Params(k=3, t_u=13, t_e=60, t_r=8)


def ff_setup(seed=0, byzantine=False, delta=1):
    sim = Simulation(PARAMS, seed)
    sim.operator.fund(100_000)
    for name in ("mallory", "alice", "bob"):
        sim.add_wallet(name, [])
    ffop = FfOperator(sim.operator, byzantine=byzantine)
    value = 5_000
    cfg = FfConfig(members=("mallory", "alice", "bob"), delta=delta,
                   v=value, c=value + 1_000, t_p=10_000)
    collateral = setup_collateral(ffop.operator, [b"c1", b"c2", b"c3"],
                                  cfg, sim.chain)
    mallory = sim.wallets["mallory"]
    _, r_star = ffop.fresh_nonce(b"vtxo-nonce")
    lock = vtxo_lock(mallory.pk, sim.operator.pk, PARAMS.t_u, r_star)
    vtxo = Vtxo(value, lock, "mallory", mallory.pk)
    expiry = sim.chain.height + 2 * PARAMS.k + PARAMS.t_e
    members = crypto.aggregate([sim.operator.pk, mallory.pk])
    funding = sim.chain.grant(value, batch_lock(sim.operator.pk, members, expiry))
    vtxt, signers = arkcore.build_vtxt(funding, [vtxo], sim.operator.pk, expiry, 2)
    cosign_vtxt(vtxt, signers, {sim.operator.pk.hex(): sim.operator.sk,
                                mallory.pk.hex(): mallory.sk})
    mallory.holdings[vtxo.key()] = Holding(
        vtxo, vtxt.path_to(vtxo.outpoint.txid), "batch")
    coord = FfCoordinator(cfg, sim.chain, ffop, dict(sim.wallets), collateral)
    return sim, coord, vtxo, cfg


def test_config_requires_collateral_exceeding_value():
    with pytest.raises(Exception):
        FfConfig(members=("a", "b"), delta=1, v=100, c=100, t_p=10).validate()


def test_honest_payment_accepted_after_2delta():
    sim, coord, vtxo, cfg = ff_setup()
    mallory = sim.wallets["mallory"]
    path = mallory.holdings[vtxo.key()].transcript
    pay = coord.make_ff_payment("mallory", [vtxo],
                                [VtxoSpec(vtxo.value, "alice",
                                          sim.wallets["alice"].pk)], [path])
    coord.ff_send("mallory", "alice", pay)
    for _ in range(3 * cfg.delta + 2):
        coord.step()
        sim.chain.advance_round()
    assert coord.accepted["alice"]
    assert not coord.burned


def test_honest_operator_refuses_double_sign():
    sim, coord, vtxo, cfg = ff_setup(byzantine=False)
    mallory = sim.wallets["mallory"]
    path = mallory.holdings[vtxo.key()].transcript
    coord.make_ff_payment("mallory", [vtxo],
                          [VtxoSpec(vtxo.value, "alice",
                                    sim.wallets["alice"].pk)], [path])
    with pytest.raises(FfError):
        coord.make_ff_payment("mallory", [vtxo],
                              [VtxoSpec(vtxo.value, "bob",
                                        sim.wallets["bob"].pk)], [path])


def test_payment_without_witnesses_rejected_once():
    sim, coord, vtxo, cfg = ff_setup()
    mallory = sim.wallets["mallory"]
    path = mallory.holdings[vtxo.key()].transcript
    pay = coord.make_ff_payment("mallory", [vtxo],
                                [VtxoSpec(vtxo.value, "alice",
                                          sim.wallets["alice"].pk)], [path])
    pay.ark.wits = []
    coord.ff_send("mallory", "alice", pay)
    for _ in range(3 * cfg.delta + 2):
        coord.step()
        sim.chain.advance_round()
    assert not coord.accepted["alice"]
    assert [e[1:] for e in sim.chain.trace if e.event == "payment_rejected"] == [
        ("wallet", "alice", "payment_rejected", "missing witness")]


def test_double_sign_detected_and_burned():
    sim, coord, vtxo, cfg = ff_setup(byzantine=True)
    mallory = sim.wallets["mallory"]
    path = mallory.holdings[vtxo.key()].transcript
    p1 = coord.make_ff_payment("mallory", [vtxo],
                               [VtxoSpec(vtxo.value, "alice",
                                         sim.wallets["alice"].pk)], [path])
    p2 = coord.make_ff_payment("mallory", [vtxo],
                               [VtxoSpec(vtxo.value, "bob",
                                         sim.wallets["bob"].pk)], [path],
                               allow_conflict=True)
    coord.ff_send("mallory", "alice", p1)
    coord.ff_send("mallory", "bob", p2)
    for _ in range(6 * cfg.delta + 4):
        coord.step()
        sim.chain.advance_round()
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
    sim, coord, vtxo, cfg = ff_setup(byzantine=True)
    mallory = sim.wallets["mallory"]
    path = mallory.holdings[vtxo.key()].transcript
    p1 = coord.make_ff_payment("mallory", [vtxo],
                               [VtxoSpec(vtxo.value, "alice",
                                         sim.wallets["alice"].pk)], [path])
    p2 = coord.make_ff_payment("mallory", [vtxo],
                               [VtxoSpec(vtxo.value, "bob",
                                         sim.wallets["bob"].pk)], [path],
                               allow_conflict=True)
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
