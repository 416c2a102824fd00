import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arksim import crypto, harness, ledger, script
from arksim.script import (
    KEY_PATH,
    UNSPENDABLE,
    AbsTimelock,
    AlwaysTrue,
    And,
    CheckAggSig,
    CheckSig,
    LockScript,
    NonceBound,
    RelTimelock,
    SpendContext,
    Witness,
    _commitment,
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


# --- the lock memo ---------------------------------------------------------

def test_list_of_revealed_paths_is_judged_as_its_tuple():
    lock = taproot(UNSPENDABLE, [CheckSig(PK), CheckSig(PK2)])
    c = ctx()
    sig = crypto.sign(SK, c.tx_digest)
    assert evaluate(lock, Witness(0, (sig,), list(lock.paths)), c)


def test_mismatched_list_of_revealed_paths_rejected():
    lock = taproot(UNSPENDABLE, [CheckSig(PK)])
    c = ctx()
    sig = crypto.sign(SK, c.tx_digest)
    assert evaluate(lock, Witness(0, (sig,), [CheckSig(PK), AlwaysTrue()]), c) is False


def test_wrong_revealed_paths_rejected_after_right_ones_memoized():
    lock = taproot(PK2, [CheckSig(PK), AlwaysTrue()])
    c = ctx()
    sig = crypto.sign(SK, c.tx_digest)
    assert evaluate(lock, Witness(0, (sig,), lock.paths), c)
    # the wrong list memoizes a lock of its own, which commits differently
    for wrong in ([CheckSig(PK)], (CheckSig(PK), AlwaysTrue(), AlwaysTrue()),
                  [CheckSig(PK2), AlwaysTrue()], ()):
        assert not evaluate(lock, Witness(0, (sig,), wrong), c)
    assert evaluate(lock, Witness(0, (sig,), list(lock.paths)), c)


AGG = crypto.aggregate([PK, PK2])
R_STAR = crypto.sign(SK2, b"r-star").R

leaf_predicates = st.one_of(
    st.sampled_from([PK, PK2]).map(CheckSig),
    st.just(CheckAggSig(AGG)),
    st.integers(min_value=0, max_value=10**6).map(AbsTimelock),
    st.integers(min_value=0, max_value=10**6).map(RelTimelock),
    st.sampled_from([PK, PK2]).map(lambda pk: NonceBound(pk, R_STAR)),
    st.just(AlwaysTrue()),
)
predicates = st.recursive(
    leaf_predicates,
    lambda children: st.lists(children, min_size=1, max_size=3).map(lambda cs: And(*cs)),
    max_leaves=8)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([UNSPENDABLE, PK, PK2]), st.lists(predicates, max_size=4),
       st.booleans())
def test_memoized_taproot_equals_a_fresh_build(internal, paths, as_tuple):
    if internal is UNSPENDABLE and not paths:
        paths = [AlwaysTrue()]
    given_paths = tuple(paths) if as_tuple else list(paths)
    fresh = LockScript(internal, tuple(paths), _commitment(internal, tuple(paths)))
    first = taproot(internal, given_paths)
    again = taproot(internal, list(paths))        # a hit
    assert first == fresh and again is first
    assert first.json_text == fresh.json_text == json.dumps(
        fresh.json(), sort_keys=True, separators=(",", ":"))


def test_equal_locks_are_one_object_hashed_once():
    script._lock.cache_clear()
    a = taproot(PK, [And(CheckSig(PK2), RelTimelock(9))])
    b = taproot(PK, (And(CheckSig(PK2), RelTimelock(9)),))
    assert a is b
    info = script._lock.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_lock_memo_is_bounded():
    bound = script._LOCK_CACHE_SIZE
    assert script._lock.cache_info().maxsize == bound
    for height in range(bound + 10):
        taproot(UNSPENDABLE, [AbsTimelock(height)])
    assert script._lock.cache_info().currsize == bound


def _reference_txid(tx: ledger.Tx) -> str:
    blob = json.dumps(tx.json(), sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(b"arksim/txid" + blob).hexdigest()


def test_txid_escapes_like_the_reference():
    lock = taproot(PK, [])
    tx = ledger.Tx((ledger.OutPoint('q"\\é\n', 3), ledger.OutPoint("genesis", 0)),
                   (ledger.Output(330, lock), ledger.Output(0, lock)))
    assert tx.txid == _reference_txid(tx)
    assert ledger.Tx((), ()).txid == _reference_txid(ledger.Tx((), ()))
    # types the protocol never builds still hash as their JSON text
    odd = ledger.Tx((ledger.OutPoint(7, True),), (ledger.Output(1.5, lock),))
    assert odd.txid == _reference_txid(odd)


def test_every_scenario_txid_matches_the_reference(monkeypatch):
    made = []
    post_init = ledger.Tx.__post_init__

    def recording(self):
        post_init(self)
        made.append(self)

    monkeypatch.setattr(ledger.Tx, "__post_init__", recording)
    for name in sorted(harness.SCENARIOS):
        harness.run_scenario(name, seed=0)
    assert len(made) > 100
    assert all(tx.txid == _reference_txid(tx) for tx in made)


def test_timelock_refuses_what_equals_an_int_but_encodes_otherwise():
    # AbsTimelock(True) == AbsTimelock(1), so a revealed path holding it would
    # hit the memoized lock although its own commitment differs
    for make in (AbsTimelock, RelTimelock):
        for value in (True, 1.0):
            with pytest.raises(TypeError):
                make(value)
