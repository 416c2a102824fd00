import pytest

from arksim import crypto
from arksim.script import (
    KEY_PATH,
    UNSPENDABLE,
    AbsTimelock,
    AlwaysTrue,
    And,
    CheckAggSig,
    CheckSig,
    NonceBound,
    RelTimelock,
    SpendContext,
    Witness,
    evaluate,
    signature_checks,
    taproot,
)

SK, PK = crypto.keygen(b"script-owner")
SK2, PK2 = crypto.keygen(b"script-op")


def ctx(height=10, confirm=0, digest=b"\x01" * 32):
    return SpendContext(height, confirm, digest)


def test_commitment_is_stable():
    a = taproot(PK, [CheckSig(PK2)])
    b = taproot(PK, [CheckSig(PK2)])
    assert a.commitment == b.commitment


def test_commitment_distinguishes_paths():
    a = taproot(PK, [CheckSig(PK2)])
    b = taproot(PK, [CheckSig(PK)])
    assert a.commitment != b.commitment


def test_unspendable_needs_paths():
    with pytest.raises(Exception):
        taproot(UNSPENDABLE, [])


def test_key_path_spend():
    lock = taproot(PK, [])
    c = ctx()
    sig = crypto.sign(SK, c.tx_digest)
    assert evaluate(lock, Witness(KEY_PATH, (sig,)), c)


def test_key_path_rejected_on_unspendable():
    lock = taproot(UNSPENDABLE, [AlwaysTrue()])
    c = ctx()
    sig = crypto.sign(SK, c.tx_digest)
    assert not evaluate(lock, Witness(KEY_PATH, (sig,)), c)


def test_script_path_checksig():
    lock = taproot(UNSPENDABLE, [CheckSig(PK)])
    c = ctx()
    sig = crypto.sign(SK, c.tx_digest)
    assert evaluate(lock, Witness(0, (sig,), lock.paths), c)
    bad = crypto.sign(SK2, c.tx_digest)
    assert not evaluate(lock, Witness(0, (bad,), lock.paths), c)


def test_wrong_revealed_paths_rejected():
    lock = taproot(UNSPENDABLE, [CheckSig(PK)])
    other = taproot(UNSPENDABLE, [CheckSig(PK2)])
    c = ctx()
    sig = crypto.sign(SK, c.tx_digest)
    assert not evaluate(lock, Witness(0, (sig,), other.paths), c)


def test_abs_timelock():
    lock = taproot(UNSPENDABLE, [And(CheckSig(PK), AbsTimelock(50))])
    sig_at = lambda c: crypto.sign(SK, c.tx_digest)
    early = ctx(height=49)
    late = ctx(height=50)
    assert not evaluate(lock, Witness(0, (sig_at(early),), lock.paths), early)
    assert evaluate(lock, Witness(0, (sig_at(late),), lock.paths), late)


def test_rel_timelock():
    lock = taproot(UNSPENDABLE, [And(CheckSig(PK), RelTimelock(5))])
    early = ctx(height=10, confirm=6)
    ready = ctx(height=11, confirm=6)
    sig_at = lambda c: crypto.sign(SK, c.tx_digest)
    assert not evaluate(lock, Witness(0, (sig_at(early),), lock.paths), early)
    assert evaluate(lock, Witness(0, (sig_at(ready),), lock.paths), ready)


def test_checkaggsig():
    agg = crypto.aggregate([PK, PK2])
    lock = taproot(UNSPENDABLE, [CheckAggSig(agg)])
    c = ctx()
    sig = crypto.cosign(c.tx_digest, [SK, SK2], agg)
    assert evaluate(lock, Witness(0, (sig,), lock.paths), c)
    solo = crypto.sign(SK, c.tx_digest)
    assert not evaluate(lock, Witness(0, (solo,), lock.paths), c)


def test_nonce_bound_requires_pinned_r():
    c = ctx()
    pinned = crypto.sign(SK2, c.tx_digest, crypto.Fixed(424242))
    lock = taproot(UNSPENDABLE, [And(NonceBound(PK2, pinned.R), CheckSig(PK))])
    owner_sig = crypto.sign(SK, c.tx_digest)
    assert evaluate(lock, Witness(0, (pinned, owner_sig), lock.paths), c)
    fresh = crypto.sign(SK2, c.tx_digest)  # different nonce
    assert not evaluate(lock, Witness(0, (fresh, owner_sig), lock.paths), c)


def test_signatures_consumed_in_order():
    lock = taproot(UNSPENDABLE, [And(CheckSig(PK), CheckSig(PK2))])
    c = ctx()
    s1, s2 = crypto.sign(SK, c.tx_digest), crypto.sign(SK2, c.tx_digest)
    assert evaluate(lock, Witness(0, (s1, s2), lock.paths), c)
    assert not evaluate(lock, Witness(0, (s2, s1), lock.paths), c)


def test_always_true():
    lock = taproot(UNSPENDABLE, [AlwaysTrue()])
    assert evaluate(lock, Witness(0, (), lock.paths), ctx())


def test_golden_lock_json():
    lock = taproot(UNSPENDABLE, [And(CheckSig(PK), RelTimelock(5))])
    j = lock.json()
    assert j["internal_key"] is None
    assert j["paths"][0]["kind"] == "and"
    assert j["paths"][0]["children"][1] == {"kind": "reltimelock", "blocks": 5}
    # the commitment hash is frozen: any serialization change must be deliberate
    assert j["commitment"] == (
        "0b244d2aec092b818507541560335a8c182ea1414e453dd8e9cf029761a9eda6")


def test_signature_checks_are_what_evaluate_verifies(monkeypatch):
    agg = crypto.aggregate([PK, PK2])
    r_star = crypto.sign(SK2, b"nonce").R
    lock = taproot(PK, [And(CheckSig(PK), RelTimelock(5)), CheckAggSig(agg),
                        And(NonceBound(PK2, r_star), CheckSig(PK))])
    c = ctx()
    own = crypto.sign(SK, c.tx_digest)
    nonce_bound = crypto.sign(SK2, c.tx_digest, crypto.Fixed(7))
    witnesses = [
        Witness(KEY_PATH, (own,)),
        Witness(0, (own,), lock.paths),
        Witness(1, (own,), lock.paths),
        Witness(2, (nonce_bound, own), lock.paths),   # R is not r_star
        Witness(3, (own,), lock.paths),               # no such path
        Witness(KEY_PATH, ()),
    ]
    for height in (3, 10):                            # before and after t = 5
        c = ctx(height=height, confirm=0)
        for wit in witnesses:
            seen = []

            def recording(pk, m, sig):
                seen.append((pk.point, m, sig))
                return True

            monkeypatch.setattr(crypto, "verify", recording)
            evaluate(lock, wit, c)
            monkeypatch.undo()
            assert signature_checks(lock, wit, c) == seen
    assert signature_checks(lock, witnesses[1], c) == [(PK.point, c.tx_digest, own)]
    assert signature_checks(lock, witnesses[3], c) == []
    # the revealed paths are not checked against the lock's commitment;
    # `evaluate` rejects such a spend before it verifies anything
    forged = Witness(0, (own,), (CheckSig(PK),))
    assert signature_checks(lock, forged, c) == [(PK.point, c.tx_digest, own)]
    assert not evaluate(lock, forged, c)
