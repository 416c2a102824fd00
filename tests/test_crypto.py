import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arksim import crypto
from arksim.crypto import (
    CryptoError,
    Fixed,
    HashCollision,
    NotReused,
    PublicKey,
    SessionAborted,
    aggregate,
    aggregate_secret,
    cosign,
    extract_secret,
    keygen,
    sign,
    verify,
)
from secp_oracle import ladder

Q = crypto.Q
OFF_CURVE = PublicKey((crypto.G[0], crypto.G[1] + 1))


def test_keygen_deterministic():
    assert keygen(b"seed") == keygen(b"seed")
    assert keygen(b"seed") != keygen(b"other")


def test_sign_verify_roundtrip():
    sk, pk = keygen(b"a")
    sig = sign(sk, b"message")
    assert verify(pk, b"message", sig)


def test_verify_rejects_wrong_message():
    sk, pk = keygen(b"a")
    sig = sign(sk, b"message")
    assert not verify(pk, b"other", sig)


def test_verify_rejects_wrong_key():
    sk, _ = keygen(b"a")
    _, pk2 = keygen(b"b")
    assert not verify(pk2, b"m", sign(sk, b"m"))


def test_verify_rejects_tampered_s():
    sk, pk = keygen(b"a")
    sig = sign(sk, b"m")
    bad = crypto.Signature(sig.R, (sig.s + 1) % crypto.Q)
    assert not verify(pk, b"m", bad)


def test_aggregate_order_independent():
    _, pk1 = keygen(b"a")
    _, pk2 = keygen(b"b")
    assert aggregate([pk1, pk2]) == aggregate([pk2, pk1])


def test_aggregate_rejects_duplicates_and_empty():
    _, pk = keygen(b"a")
    with pytest.raises(CryptoError):
        aggregate([pk, pk])
    with pytest.raises(CryptoError):
        aggregate([])


def test_cosign_verifies_under_aggregate():
    sks = [keygen(b"%d" % i)[0] for i in range(3)]
    agg = aggregate([sk.public() for sk in sks])
    sig = cosign(b"digest", sks, agg)
    assert verify(agg.point, b"digest", sig)


def test_cosign_aborts_on_missing_signer():
    sk1, pk1 = keygen(b"a")
    sk2, pk2 = keygen(b"b")
    agg = aggregate([pk1, pk2])
    with pytest.raises(SessionAborted):
        cosign(b"digest", [sk1], agg)


def test_cosign_aborts_on_extra_signer():
    sk1, pk1 = keygen(b"a")
    sk2, _ = keygen(b"b")
    agg = aggregate([pk1])
    with pytest.raises(SessionAborted):
        cosign(b"d", [sk1, sk2], agg)


def test_singleton_aggregate_signable_alone():
    sk, pk = keygen(b"solo")
    agg = aggregate([pk])
    sig = cosign(b"d", [sk], agg)
    assert verify(agg.point, b"d", sig)


def test_aggregate_secret_matches_aggregate_point():
    sks = [keygen(b"s%d" % i)[0] for i in range(4)]
    agg = aggregate([sk.public() for sk in sks])
    combined = aggregate_secret(sks)
    assert combined.public() == agg.point


def test_extract_secret_recovers_key():
    sk, pk = keygen(b"victim")
    nonce = Fixed(987654321)
    s1 = sign(sk, b"m1", nonce)
    s2 = sign(sk, b"m2", nonce)
    assert extract_secret(pk, b"m1", s1, b"m2", s2).scalar == sk.scalar


def test_extract_requires_shared_nonce():
    sk, pk = keygen(b"victim")
    s1 = sign(sk, b"m1", Fixed(1))
    s2 = sign(sk, b"m2", Fixed(2))
    with pytest.raises(NotReused):
        extract_secret(pk, b"m1", s1, b"m2", s2)


def test_extract_requires_distinct_messages():
    sk, pk = keygen(b"victim")
    nonce = Fixed(7)
    s1 = sign(sk, b"m", nonce)
    with pytest.raises((CryptoError, HashCollision)):
        extract_secret(pk, b"m", s1, b"m", s1)


def test_extract_randomized_100():
    for i in range(100):
        sk, pk = keygen(b"rand-%d" % i)
        nonce = Fixed(1 + i * 31337)
        s1 = sign(sk, b"first-%d" % i, nonce)
        s2 = sign(sk, b"second-%d" % i, nonce)
        assert extract_secret(pk, b"first-%d" % i, s1,
                              b"second-%d" % i, s2).scalar == sk.scalar


@settings(max_examples=30, deadline=None)
@given(st.binary(min_size=1, max_size=16), st.binary(min_size=1, max_size=64))
def test_property_sign_verify(seed, msg):
    sk, pk = keygen(seed)
    assert verify(pk, msg, sign(sk, msg))


@settings(max_examples=20, deadline=None)
@given(st.binary(min_size=1, max_size=8),
       st.integers(min_value=1, max_value=crypto.Q - 1))
def test_property_nonce_reuse_extracts(seed, r):
    sk, pk = keygen(seed)
    s1 = sign(sk, b"one", Fixed(r))
    s2 = sign(sk, b"two", Fixed(r))
    assert extract_secret(pk, b"one", s1, b"two", s2).scalar == sk.scalar


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=crypto.Q - 1))
def test_property_public_matches_ladder(x):
    want = crypto.PublicKey(ladder(crypto.G, x))
    assert crypto.SecretKey(x).public() == want
    assert crypto.SecretKey(x).public() == crypto.SecretKey(x).public()


EDGE_SCALARS = (0, 1, 2, Q - 1, Q, Q + 1, 2**128 - 1, 2**128 + 1)
scalars = st.sampled_from(EDGE_SCALARS) | st.integers(min_value=0, max_value=3 * Q - 1)


@st.composite
def bases(draw):
    """G, or a random multiple of G, or its negation."""
    if draw(st.booleans()):
        return crypto.G
    x, y = ladder(crypto.G, draw(st.integers(min_value=1, max_value=Q - 1)))
    return (x, crypto.P - y) if draw(st.booleans()) else (x, y)


@settings(max_examples=60, deadline=None)
@given(bases(), scalars)
def test_property_point_mul_matches_ladder(p, n):
    assert crypto.point_mul(p, n) == ladder(p, n)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(EDGE_SCALARS) | st.integers(min_value=0, max_value=Q - 1))
def test_property_glv_split(n):
    k1, k2 = crypto.glv_split(n % Q)
    assert (k1 + k2 * crypto.LAMBDA - n) % Q == 0
    assert abs(k1) < 2**129 and abs(k2) < 2**129


def test_endomorphism_constants():
    x, y = crypto.G
    assert ladder(crypto.G, crypto.LAMBDA) == (crypto.BETA * x % crypto.P, y)


def test_addition_of_equal_points_doubles():
    p = ladder(crypto.G, 7)
    two_p, neg_p = ladder(p, 2), (p[0], crypto.P - p[1])
    jac = crypto._jdbl(*p, 1)   # 2p with z != 1, so the inputs differ in form
    q = crypto._affine(*jac)
    assert q == two_p
    assert crypto._affine(*crypto._jadd_affine(*jac, q)) == ladder(p, 4)
    assert crypto._affine(*crypto._jadd(*jac, *jac)) == ladder(p, 4)
    assert crypto._affine(*crypto._jadd_affine(p[0], p[1], 1, neg_p)) is None
    assert crypto._affine(*crypto._jadd(p[0], p[1], 1, neg_p[0], neg_p[1], 1)) is None


def test_point_mul_rejects_off_curve_point():
    with pytest.raises(CryptoError):
        crypto.point_mul(OFF_CURVE.point, 5)


def test_verify_under_off_curve_key_is_false():
    sk, _ = keygen(b"a")
    assert not verify(OFF_CURVE, b"m", sign(sk, b"m"))


def test_aggregate_rejects_off_curve_member():
    _, pk = keygen(b"a")
    with pytest.raises(CryptoError):
        aggregate([pk, OFF_CURVE])


def test_public_derived_once_per_scalar(point_mul_calls):
    sk, pk = keygen(b"op-count")
    assert len(point_mul_calls) == 1
    assert sk.public() == pk
    assert crypto.SecretKey(sk.scalar).public() == pk
    assert len(point_mul_calls) == 1


def test_cosign_rederives_no_signer_key(point_mul_calls):
    sks = [keygen(b"op-count-%d" % i)[0] for i in range(3)]
    agg = aggregate([sk.public() for sk in sks])
    del point_mul_calls[:]
    sig = cosign(b"digest", sks, agg)
    # one nonce commitment plus one derivation of the aggregate secret's key;
    # the three signers' keys come from the memo
    assert len(point_mul_calls) == 2
    assert verify(agg.point, b"digest", sig)


# --- verification memo ---------------------------------------------------


def test_verify_memo_checks_each_triple_once(point_mul_calls):
    sk, pk = keygen(b"memo")
    sig = sign(sk, b"m")
    del point_mul_calls[:]
    assert verify(pk, b"m", sig)
    assert len(point_mul_calls) == 2
    assert verify(pk, b"m", sig)
    assert len(point_mul_calls) == 2


def test_verify_memo_rechecks_every_changed_input(point_mul_calls):
    sk, pk = keygen(b"memo")
    sig = sign(sk, b"m")
    assert verify(pk, b"m", sig)
    other_sig = sign(sk, b"other")
    _, other_pk = keygen(b"memo-other")
    del point_mul_calls[:]
    assert not verify(pk, b"m", crypto.Signature(sig.R, (sig.s + 1) % Q))
    assert not verify(pk, b"m", crypto.Signature(other_sig.R, sig.s))
    assert not verify(pk, b"other", sig)
    assert not verify(other_pk, b"m", sig)
    assert not verify(OFF_CURVE, b"m", sig)
    # each was a fresh check; the off-curve key fails in its e*P
    assert len(point_mul_calls) == 2 * 5


def test_verify_memo_is_bounded():
    assert crypto._verified.cache_info().maxsize == crypto._CACHE_SIZE


def test_verify_memo_clears(point_mul_calls):
    sk, pk = keygen(b"memo")
    sig = sign(sk, b"m")
    assert verify(pk, b"m", sig)
    crypto._verified.cache_clear()
    del point_mul_calls[:]
    assert verify(pk, b"m", sig)
    assert len(point_mul_calls) == 2
