import collections
import functools
import importlib
import pkgutil

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import arksim
from arksim import crypto
from arksim.crypto import (
    CryptoError,
    Fixed,
    Fresh,
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


_SIGNERS = [keygen(b"reject-%d" % i)[0] for i in range(2)]


@pytest.mark.parametrize("call, error, reason", [
    (lambda: cosign(b"d", []), SessionAborted, "no signers present"),
    (lambda: cosign(b"d", [_SIGNERS[0], _SIGNERS[0]]), SessionAborted, "duplicate signer"),
    (lambda: crypto.sign_batch([(_SIGNERS, b"d"), ([], b"d")]), SessionAborted,
     "no signers present"),
    (lambda: crypto.sign_batch([(_SIGNERS[0], b"d"), (_SIGNERS, b"")]), CryptoError,
     "empty message"),
], ids=["cosign-no-signers", "cosign-duplicate", "batch-no-signers", "batch-empty-message"])
def test_a_bad_signing_session_is_rejected_before_anything_is_signed(call, error, reason):
    # a batch checks every pair before it signs the first
    before = crypto._signature.cache_info()
    with pytest.raises(error, match=f"^{reason}$"):
        call()
    assert crypto._signature.cache_info() == before


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


def test_point_mul_rejects_off_curve_point(fresh_comb):
    for _ in range(2):
        with pytest.raises(CryptoError):
            crypto.point_mul(OFF_CURVE.point, 5)
    # rejected on every call, and never cached
    assert fresh_comb.cache_info().misses == 2
    assert fresh_comb.cache_info().currsize == 0


def test_verify_under_off_curve_key_is_false():
    sk, _ = keygen(b"a")
    assert not verify(OFF_CURVE, b"m", sign(sk, b"m"))


def test_verify_rejects_unreduced_nonce_point():
    sk, pk = keygen(b"a")
    r = 12345
    R = crypto.point_mul(crypto.G, r)
    # (x, y + p) encodes as -R, and the key holder can answer its challenge
    # so that s*G - e*pk == R modulo p; it is still not R
    odd_R = (R[0], R[1] + crypto.P)
    s = (r + crypto.challenge(odd_R, pk, b"m") * sk.scalar) % Q
    assert not verify(pk, b"m", crypto.Signature(odd_R, s))


def _signed():
    sk, pk = keygen(b"a")
    return pk, sign(sk, b"m")


def test_verify_rejects_s_of_q_or_more(point_mul_calls):
    pk, sig = _signed()
    del point_mul_calls[:]
    # s + q passes the group equation, since s*G reduces s mod q
    assert not verify(pk, b"m", crypto.Signature(sig.R, sig.s + Q))
    assert not verify(pk, b"m", crypto.Signature(sig.R, sig.s - Q))
    assert point_mul_calls == []


@pytest.mark.parametrize("shift", [(crypto.P, 0), (2**256, 0), (0, 2**256)])
def test_verify_rejects_unreduced_nonce_coordinate(point_mul_calls, shift):
    pk, sig = _signed()
    del point_mul_calls[:]
    R = (sig.R[0] + shift[0], sig.R[1] + shift[1])
    # an x of 2**256 or more does not even encode
    assert not verify(pk, b"m", crypto.Signature(R, sig.s))
    assert point_mul_calls == []


@pytest.mark.parametrize("shift", [(crypto.P, 0), (0, crypto.P), (2**256, 0)])
def test_verify_rejects_unreduced_key_coordinate(point_mul_calls, shift):
    pk, sig = _signed()
    del point_mul_calls[:]
    key = PublicKey((pk.point[0] + shift[0], pk.point[1] + shift[1]))
    assert not verify(key, b"m", sig)
    assert point_mul_calls == []


def test_aggregate_rejects_off_curve_member():
    _, pk = keygen(b"a")
    with pytest.raises(CryptoError):
        aggregate([pk, OFF_CURVE])


def test_aggregate_skips_zero_terms_and_rejects_a_zero_sum(monkeypatch):
    monkeypatch.setattr(crypto, "_aggregate_members", functools.lru_cache(
        maxsize=crypto._CACHE_SIZE)(crypto._aggregate_members.__wrapped__))
    _, pk = keygen(b"zero-sum")
    neg = PublicKey((pk.point[0], crypto.P - pk.point[1]))
    monkeypatch.setattr(crypto, "_coefficients", lambda members: [1, 1])
    with pytest.raises(CryptoError, match="degenerate"):
        aggregate([pk, neg])
    monkeypatch.setattr(crypto, "_coefficients", lambda members: [0, 1])
    agg = aggregate([pk, neg])
    assert agg.point == agg.members[1]


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


def counting_compress(monkeypatch):
    """Count `crypto.compress` calls per point from here on."""
    encoded = collections.Counter()
    real = crypto.compress

    def counting(p):
        encoded[p] += 1
        return real(p)

    monkeypatch.setattr(crypto, "compress", counting)
    return encoded


def test_each_key_is_encoded_once(point_mul_calls, monkeypatch):
    encoded = counting_compress(monkeypatch)
    sks = [keygen(b"encode-once-%d" % i)[0] for i in range(4)]
    for _ in range(3):
        # sorting, the coefficients, the aggregate secret and the signer
        # check all read the members' encodings, memo hits included
        agg = aggregate(sk.public() for sk in reversed(sks))
        assert aggregate(sk.public() for sk in sks) is agg
        cosign(b"digest", sks, agg)
        assert [sk.public().hex() for sk in sks]
    # the signers and the key of their aggregate secret, which signs
    keys = [sk.public() for sk in sks] + [aggregate_secret(sks).public()]
    assert [encoded[pk.point] for pk in keys] == [1] * 5


def test_cached_encoding_leaves_equality_hash_and_repr():
    _, pk = keygen(b"encode-field")
    pk.encode()
    twin = PublicKey(pk.point)
    assert twin == pk and hash(twin) == hash(pk) and repr(twin) == repr(pk)
    assert twin.encode() == pk.encode() == crypto.compress(pk.point)


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


# --- signing memo --------------------------------------------------------

nonces = st.just(Fresh()) | st.builds(Fixed, st.integers(min_value=1, max_value=Q - 1))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=Q - 1), st.binary(min_size=1, max_size=64), nonces)
def test_property_signing_memo_matches_the_uncached_body(x, m, nonce):
    sk = crypto.SecretKey(x)
    want = crypto._signature.__wrapped__(sk, m, nonce)
    assert sign(sk, m, nonce) == want
    assert sign(crypto.SecretKey(x), m, nonce) == want   # a hit on an equal key


def test_repeated_sign_costs_no_multiplication(point_mul_calls):
    sk, _ = keygen(b"sign-memo")
    del point_mul_calls[:]
    first = sign(sk, b"m")
    assert point_mul_calls == [crypto.G]   # the nonce point; the key is memoized
    pub = crypto._public_point.cache_info()
    assert sign(sk, b"m") == first
    assert point_mul_calls == [crypto.G]
    assert crypto._public_point.cache_info() == pub   # no public() lookup


def test_repeated_cosign_costs_no_multiplication(point_mul_calls):
    sks = [keygen(b"sign-memo-%d" % i)[0] for i in range(3)]
    agg = aggregate([sk.public() for sk in sks])
    sig = cosign(b"digest", sks, agg)
    del point_mul_calls[:]
    assert cosign(b"digest", sks, agg) == sig
    assert point_mul_calls == []


def test_empty_message_is_rejected_before_the_signing_memo(point_mul_calls):
    sk, _ = keygen(b"sign-memo")
    for nonce in (Fresh(), Fixed(5)):
        with pytest.raises(CryptoError, match="empty message"):
            sign(sk, b"", nonce)
    info = crypto._signature.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 0, 0)


def test_signing_memo_keeps_one_signature_per_message(point_mul_calls):
    sk, pk = keygen(b"victim")
    nonce = Fixed(987654321)
    s1, s2 = sign(sk, b"m1", nonce), sign(sk, b"m2", nonce)
    assert sign(sk, b"m1", nonce) == s1 and sign(sk, b"m2", nonce) == s2
    assert s1 != s2 and s1.R == s2.R
    assert crypto._signature.cache_info().currsize == 2
    assert extract_secret(pk, b"m1", s1, b"m2", s2).scalar == sk.scalar


def test_signing_memo_is_bounded(monkeypatch):
    bound = crypto._signature.cache_info().maxsize
    assert bound == crypto._SIGN_CACHE_SIZE
    # an empty memo of the same bound, private to the test
    memo = functools.lru_cache(maxsize=bound)(crypto._signature.__wrapped__)
    monkeypatch.setattr(crypto, "_signature", memo)
    sk, _ = keygen(b"sign-memo")
    for i in range(bound + 8):
        sign(sk, b"m-%d" % i)
        assert memo.cache_info().currsize <= bound
    assert memo.cache_info().currsize == bound
    misses = memo.cache_info().misses
    sign(sk, b"m-0")   # the oldest entry was evicted, so it is signed again
    assert memo.cache_info().misses == misses + 1


# --- variable-base comb --------------------------------------------------

# scalars whose GLV halves take each sign pattern, the larger half 128 bits
GLV_SIGN_CASES = (
    0x31B1891A0593DBA20E28B64F4EB19FCAA64F7613B4642EA4696C63D6F5EAD066,
    0x153E7C2A26A2C0BD3B1287FFF52DDF5D616499C9E25A7605AEC6F0245BD86D41,
    0x7F26144B98289FCD59A54A7BB1FEE08F571242425051C1CCD17F9ACAE01F5058,
    0x9E7D6B377936D536243D35702C1EEA1F265974A7CC966F46C6AA7D550101B812,
)
BASE = ladder(crypto.G, 0xC0FFEE)


def _halves_parity(n):
    k1, k2 = crypto.glv_split(n)
    return k1 & 1, k2 & 1


# scalars whose GLV halves are (even, even), (odd, even) and (even, odd):
# the comb reads odd halves only, so each needs a different lattice vector
# (adding 1 to n adds 1 to k1, and adding lambda adds 1 to k2)
EVEN_HALF_CASES = tuple(
    next(n for n in ((GLV_SIGN_CASES[0] + i + j * crypto.LAMBDA) % Q
                     for i in range(2) for j in range(2))
         if _halves_parity(n) == want)
    for want in ((0, 0), (1, 0), (0, 1)))


@pytest.fixture
def fresh_comb(monkeypatch):
    """An empty comb-table memo of the same bound, private to the test."""
    fresh = functools.lru_cache(maxsize=crypto._COMB_CACHE_SIZE)(
        crypto._comb_table.__wrapped__)
    monkeypatch.setattr(crypto, "_comb_table", fresh)
    return fresh


@pytest.fixture
def group_ops(monkeypatch):
    """Count the Jacobian doublings and additions by name."""
    counts = collections.Counter()
    for name in ("_jdbl", "_jadd", "_jadd_affine"):
        def counting(*args, _name=name, _real=getattr(crypto, name)):
            counts[_name] += 1
            return _real(*args)
        monkeypatch.setattr(crypto, name, counting)
    return counts


def test_glv_sign_cases_cover_every_sign():
    halves = [crypto.glv_split(n) for n in GLV_SIGN_CASES]
    assert {(k1 < 0, k2 < 0) for k1, k2 in halves} == {
        (False, False), (False, True), (True, False), (True, True)}
    assert all(max(abs(k1), abs(k2)).bit_length() == 128 for k1, k2 in halves)


@pytest.mark.parametrize("n", GLV_SIGN_CASES + (1, crypto.LAMBDA, Q - 1),
                         ids=lambda n: hex(n)[:10])
def test_comb_cold_and_cached_match_ladder(fresh_comb, n):
    cold = crypto.point_mul(BASE, n)
    assert fresh_comb.cache_info().currsize == 1
    assert crypto.point_mul(BASE, n) == cold == ladder(BASE, n)
    assert fresh_comb.cache_info().hits == 1


@pytest.mark.parametrize("t, u", [(12, 0), (-12, 0), (0, 12), (0, -12)])
def test_comb_reads_halves_up_to_132_bits(monkeypatch, t, u):
    # any k1 + k2 * lambda == n is a valid split; adding lattice vectors
    # widens the halves past glv_split's 2**129 toward the comb's 2**132
    real = crypto.glv_split

    def wide(n):
        k1, k2 = real(n)
        return (k1 + t * crypto._A1 + u * crypto._A2,
                k2 + t * crypto._B1 + u * crypto._B2)

    monkeypatch.setattr(crypto, "glv_split", wide)
    for n in GLV_SIGN_CASES:
        assert 2**130 < max(abs(k) for k in wide(n)) < 2**132
        assert crypto.point_mul(BASE, n) == ladder(BASE, n)


def test_even_half_cases_cover_every_parity():
    assert {_halves_parity(n) for n in EVEN_HALF_CASES} == {(0, 0), (1, 0), (0, 1)}
    # the parity fix-up: each lattice vector keeps n and makes both halves odd
    for n in EVEN_HALF_CASES:
        k1, k2 = crypto.glv_split(n)
        a, b = crypto._ODD_SHIFT[k1 & 1, k2 & 1]
        assert (a + b * crypto.LAMBDA) % Q == 0
        assert (k1 + a) & 1 and (k2 + b) & 1
        assert max(abs(k1 + a), abs(k2 + b)) < 2**130


@st.composite
def curve_points(draw):
    """A random point on the curve, with no known discrete logarithm: the
    first x from a random start whose x**3 + 7 is a square, and either
    root.  G's x is stepped over: Hypothesis also draws the integer
    literals of the code under test, and point_mul(G, n) reads the fixed
    G table, not a comb."""
    x = draw(st.integers(min_value=0, max_value=crypto.P - 1))
    while True:
        rhs = (x * x * x + 7) % crypto.P
        y = pow(rhs, (crypto.P + 1) // 4, crypto.P)   # p == 3 mod 4
        if y * y % crypto.P == rhs and x != crypto.G[0]:
            break
        x = (x + 1) % crypto.P
    return (x, crypto.P - y) if draw(st.booleans()) else (x, y)


comb_scalars = (st.sampled_from(GLV_SIGN_CASES + EVEN_HALF_CASES
                                + (1, 2, Q - 1, crypto.LAMBDA))
                | st.integers(min_value=1, max_value=Q - 1)
                | st.integers(min_value=1, max_value=Q - 1).filter(
                    lambda n: _halves_parity(n) != (1, 1)))


def _private_comb(mp):
    fresh = functools.lru_cache(maxsize=crypto._COMB_CACHE_SIZE)(
        crypto._comb_table.__wrapped__)
    mp.setattr(crypto, "_comb_table", fresh)
    return fresh


@settings(max_examples=40, deadline=None)
@given(curve_points(), comb_scalars)
def test_property_comb_cold_and_cached_match_ladder(p, n):
    want = ladder(p, n)
    with pytest.MonkeyPatch.context() as mp:
        memo = _private_comb(mp)
        assert crypto.point_mul(p, n) == want
        assert memo.cache_info().misses == 1
        assert crypto.point_mul(p, n) == want
        assert memo.cache_info().hits == 1


@settings(max_examples=20, deadline=None)
@given(curve_points(), st.integers(min_value=1, max_value=crypto.P - 1))
def test_comb_memo_never_holds_an_off_curve_point(p, dy):
    off = (p[0], (p[1] + dy) % crypto.P)
    # the only other point with p's x is -p
    assume(off[1] != crypto.P - p[1])
    n = GLV_SIGN_CASES[0]
    with pytest.MonkeyPatch.context() as mp:
        memo = _private_comb(mp)
        with pytest.raises(CryptoError):
            crypto.point_mul(off, n)
        crypto.point_mul(p, n)
        with pytest.raises(CryptoError):
            crypto.point_mul(off, n)
        assert memo.cache_info().currsize == 1
        # the one table held is p's, and every entry lies on the curve
        table = memo(p)
        assert memo.cache_info().hits == 1
        assert len(table) == 32 and all(crypto._on_curve(e) for e in table)


# (t, u): the lattice multiples added to GLV_SIGN_CASES[0]'s split that
# leave both halves below 2**132 but would push one past it when the
# parity vector is added, for halves (odd, even), (even, odd), (even, even)
WIDE_EVEN_SPLITS = ((-20, -11), (-9, 15), (1, 14))


@pytest.mark.parametrize("t, u", WIDE_EVEN_SPLITS)
def test_comb_reads_wide_even_halves_with_a_final_addition(
        monkeypatch, group_ops, t, u):
    real = crypto.glv_split
    n = GLV_SIGN_CASES[0]
    crypto.point_mul(BASE, n)   # the table, built before counting

    def wide(n):
        k1, k2 = real(n)
        return (k1 + t * crypto._A1 + u * crypto._A2,
                k2 + t * crypto._B1 + u * crypto._B2)

    k1, k2 = wide(n)
    a, b = crypto._ODD_SHIFT[k1 & 1, k2 & 1]
    assert max(abs(k1), abs(k2)) < 2**132 <= max(abs(k1 + a), abs(k2 + b))
    monkeypatch.setattr(crypto, "glv_split", wide)
    group_ops.clear()
    assert crypto.point_mul(BASE, n) == ladder(BASE, n)
    # an even half is read as one less, and p or lambda * p added back
    evens = (k1 & 1 == 0) + (k2 & 1 == 0)
    assert group_ops["_jdbl"] == 22
    assert group_ops["_jadd_affine"] == 44 + evens


def test_comb_cost_cold_then_cached(fresh_comb, group_ops):
    crypto.point_mul(BASE, GLV_SIGN_CASES[0])
    # the table: five teeth of 22 doublings each and one doubling of each
    # lower tooth; 5 additions for entry 0 and 1 + 2 + 4 + 8 + 16 more
    assert group_ops["_jdbl"] == 110 + 5 + 22
    assert group_ops["_jadd"] == 36
    assert group_ops["_jadd_affine"] == 44
    for n in GLV_SIGN_CASES + EVEN_HALF_CASES + (1, 2, Q - 1, crypto.LAMBDA):
        group_ops.clear()
        crypto.point_mul(BASE, n)
        # one doubling per column, the first on infinity, and one mixed
        # addition per column and half: every signed digit is nonzero
        assert group_ops["_jdbl"] == 22
        assert group_ops["_jadd"] == 0
        assert group_ops["_jadd_affine"] == 44


def test_comb_memo_is_bounded():
    assert crypto._comb_table.cache_info().maxsize == crypto._COMB_CACHE_SIZE


def test_comb_memo_clears(group_ops):
    crypto.point_mul(BASE, 5)
    assert crypto._comb_table.cache_info().currsize >= 1
    crypto._comb_table.cache_clear()
    assert crypto._comb_table.cache_info().currsize == 0
    group_ops.clear()
    crypto.point_mul(BASE, 5)
    assert group_ops["_jadd"] == 36   # the table was built again


def test_every_memo_is_bounded():
    # every module but __main__, which runs the command line on import
    modules = [importlib.import_module(f"arksim.{info.name}")
               for info in pkgutil.iter_modules(arksim.__path__)
               if info.name != "__main__"]
    memos = {f"{m.__name__}.{name}": v for m in modules
             for name, v in vars(m).items() if hasattr(v, "cache_info")}
    assert set(memos) == {
        "arksim.crypto._comb_table", "arksim.crypto._public_point",
        "arksim.crypto._aggregate_members", "arksim.crypto._aggregate_secret",
        "arksim.crypto._signature", "arksim.crypto._verified",
        "arksim.crypto._members_of", "arksim.script._lock",
        "arksim.harness._race_batch"}
    # lru_cache(maxsize=None) is unbounded
    assert all(isinstance(m.cache_info().maxsize, int) for m in memos.values())
    # every memo empties on cache_clear, as a benchmark's cold set-up
    # needs: a memo kept out of its reach would leave that set-up warm
    aggregate_secret([crypto.SecretKey(0x5EED_C1EA)])
    assert memos["arksim.crypto._aggregate_secret"].cache_info().currsize > 0
    for m in memos.values():
        m.cache_clear()
    assert all(m.cache_info().currsize == 0 for m in memos.values())


# --- fixed base: signed 8-bit digits -------------------------------------

def _bytes_of(b):
    return int.from_bytes(bytes([b]) * 32, "big")


G_RECODING_CASES = {
    "all_7f": _bytes_of(0x7F),   # every digit 127, no borrow
    "all_80": _bytes_of(0x80),   # every digit 128, the largest without one
    "all_81": _bytes_of(0x81),   # every digit -127, with a borrow
    "all_ff": 2**256 - 1,        # every digit -1: the borrow reaches row 32
    "2^255": 2**255,
    "q-1": Q - 1,
    **{f"128*256^{i}": 128 * 256**i for i in range(32)},
}


@pytest.mark.parametrize("n", G_RECODING_CASES.values(), ids=G_RECODING_CASES)
def test_g_recoding_matches_ladder(group_ops, n):
    # the raw recoding, since point_mul reduces 2**256 - 1 mod q first
    assert crypto._mul_g(n) == ladder(crypto.G, n)
    assert group_ops["_jadd_affine"] <= 33
    assert group_ops["_jdbl"] == 0 and group_ops["_jadd"] == 0


@pytest.mark.parametrize("i, d", [(0, 1), (0, 2), (0, 128), (13, 77),
                                  (31, 128), (32, 1), (32, 128)])
def test_g_table_entries(i, d):
    assert crypto._G_TABLE[i][d - 1] == ladder(crypto.G, d * 256**i)


def test_clearing_every_memo_keeps_the_g_table(group_ops):
    # as a benchmark pass does before it starts
    for value in vars(crypto).values():
        if callable(getattr(value, "cache_clear", None)):
            value.cache_clear()
    crypto.point_mul(crypto.G, GLV_SIGN_CASES[0])
    # a rebuilt table would have doubled its row bases
    assert group_ops["_jdbl"] == 0 and group_ops["_jadd"] == 0


# --- batch verification --------------------------------------------------

def _signed_triple(i):
    sk, pk = keygen(b"batch-%d" % i)
    m = b"batch-msg-%d" % i
    return pk.point, m, sign(sk, m)


BATCH_POOL = [_signed_triple(i) for i in range(41)]

# each corruption takes (triple, a valid triple of another key) to a
# triple that fails `verify`
BATCH_CORRUPTIONS = {
    "s+1": lambda t, o: (t[0], t[1], crypto.Signature(t[2].R, (t[2].s + 1) % Q)),
    "message": lambda t, o: (t[0], t[1] + b"!", t[2]),
    "swapped R": lambda t, o: (t[0], t[1], crypto.Signature(o[2].R, t[2].s)),
    "key": lambda t, o: (o[0], t[1], t[2]),
    "s >= q": lambda t, o: (t[0], t[1], crypto.Signature(t[2].R, t[2].s + Q)),
    "off-curve R": lambda t, o: (t[0], t[1], crypto.Signature(
        (t[2].R[0], t[2].R[1] + 1), t[2].s)),
    "unreduced R": lambda t, o: (t[0], t[1], crypto.Signature(
        (t[2].R[0], t[2].R[1] + crypto.P), t[2].s)),
    "unreduced key": lambda t, o: ((t[0][0] + crypto.P, t[0][1]), t[1], t[2]),
}
# these the batch leaves to `verify`; the others break its equation
LEFT_OUT = {"s >= q", "off-curve R", "unreduced R", "unreduced key"}


def _memo_key(t):
    point, m, sig = t
    return (point, m, sig.R, sig.s)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=8, max_value=40), st.data())
def test_verify_batch_proves_exactly_the_valid_batches(size, data):
    batch = list(BATCH_POOL[:size])
    kind = data.draw(st.sampled_from([None] + sorted(BATCH_CORRUPTIONS)))
    if kind is not None:
        i = data.draw(st.integers(min_value=0, max_value=size - 1))
        batch[i] = BATCH_CORRUPTIONS[kind](batch[i], BATCH_POOL[-1])
    saved = crypto.BATCH_MIN
    crypto.BATCH_MIN = 8
    try:
        crypto._verified.cache_clear()
        proven = crypto.verify_batch(batch)
        recorded = {k: crypto._verified.peek(k) for k in map(_memo_key, batch)}
        crypto._verified.cache_clear()
        singly = [verify(PublicKey(point), m, sig) for point, m, sig in batch]
    finally:
        crypto.BATCH_MIN = saved
    assert proven == all(singly) == (kind is None)
    # only True verdicts are recorded, and only for triples that verify
    assert all(v in (None, True) for v in recorded.values())
    assert all(ok for k, ok in zip(recorded, singly) if recorded[k])
    if kind is None:
        assert all(recorded.values())
    elif kind in LEFT_OUT:
        # the rest still make a batch from 8 triples up, and hold
        missing = sum(v is None for v in recorded.values())
        assert missing == (1 if size - 1 >= 8 else size)
    else:
        assert not any(recorded.values())


def test_batch_coefficients_repeat():
    keys = [_memo_key(t) for t in BATCH_POOL[:20]]
    coefs = crypto._batch_coefficients(keys)
    assert crypto._batch_coefficients(list(keys)) == coefs
    assert coefs[0] == 1 and all(0 < a < 2**128 for a in coefs)
    assert len(set(coefs)) == 20
    # any change to the batch draws other coefficients
    assert crypto._batch_coefficients(keys[1:])[1:] != coefs[2:]
    assert crypto._batch_coefficients(keys[:19] + [_memo_key(BATCH_POOL[40])])[1:] \
        != coefs[1:]


def test_verify_batch_below_the_crossover_is_left_to_verify(point_mul_calls):
    small = BATCH_POOL[:crypto.BATCH_MIN - 1]
    assert not crypto.verify_batch(small)
    assert point_mul_calls == []
    assert crypto._verified.cache_info().currsize == 0


def test_verify_batch_costs_one_g_multiplication(point_mul_calls, fresh_comb):
    batch = BATCH_POOL[:crypto.BATCH_MIN]
    assert crypto.verify_batch(batch)
    assert point_mul_calls == [crypto.G]
    assert fresh_comb.cache_info().misses == 0
    # every verdict is now a memo hit; a repeat call checks nothing
    del point_mul_calls[:]
    assert all(verify(PublicKey(point), m, sig) for point, m, sig in batch)
    assert crypto.verify_batch(batch)
    assert point_mul_calls == []


def test_multi_mul_matches_separate_multiplications():
    points = [crypto.point_mul(crypto.G, 0xBA7C4 + 7919 * i) for i in range(20)]
    for count, scalars in ((1, [100]), (3, [0, 1, 2**130 - 1]),
                           (20, [(0x9E37 * i) ** 9 % 2**129 for i in range(20)])):
        terms = list(zip(scalars, points[:count]))
        want = crypto._jsum(ladder(p, k) for k, p in terms)
        assert crypto._affine(*crypto._multi_mul(terms)) == crypto._affine(*want)


def test_multi_mul_sums_a_bucket_that_meets_equal_x():
    # a term twice, and a term with its negation: their buckets meet a
    # doubling and a sum to infinity, which the affine sums leave out
    points = [crypto.point_mul(crypto.G, 0xFEED + i) for i in range(30)]
    p, k = points[0], 2**128 + 12345
    for extra in ([(k, p)], [(k, (p[0], crypto.P - p[1]))]):
        terms = [(k, p)] + extra + [(3**i % 2**129, q) for i, q in enumerate(points[1:])]
        want = crypto._jsum(ladder(q, n) for n, q in terms)
        assert crypto._affine(*crypto._multi_mul(terms)) == crypto._affine(*want)


def test_verify_batch_encodes_each_point_once(point_mul_calls, monkeypatch):
    # one key signs three times, so its encoding serves three challenges
    sk, pk = keygen(b"batch-0")
    extra = [(pk.point, m, sign(sk, m)) for m in (b"again-1", b"again-2")]
    batch = BATCH_POOL[:crypto.BATCH_MIN] + extra
    del point_mul_calls[:]
    encoded = counting_compress(monkeypatch)
    assert crypto.verify_batch(batch)
    points = {point for point, _, _ in batch} | {sig.R for _, _, sig in batch}
    assert len(points) == 2 * len(batch) - 2
    assert encoded == dict.fromkeys(points, 1)
    assert point_mul_calls == [crypto.G]


def test_verify_reads_the_encoding_its_key_holds(point_mul_calls, monkeypatch):
    sk, pk = keygen(b"verify-encoding")
    sig = sign(sk, b"m")
    pk.encode()
    encoded = counting_compress(monkeypatch)
    assert verify(pk, b"m", sig)
    assert encoded == {sig.R: 1}
    # without a key object the point is compressed once, to the same verdict
    crypto._verified.cache_clear()
    assert crypto._verified(pk.point, b"m", sig.R, sig.s)
    assert encoded == {sig.R: 2, pk.point: 1}


# --- folded batch equations ---------------------------------------------

FOLD_SKS = [keygen(b"fold-%d" % i)[0] for i in range(8)]
FOLD_PKS = [sk.public() for sk in FOLD_SKS]
# member sets, by index into FOLD_SKS: the aggregate memo holds HELD_SETS
# and WIDE_SET, and has evicted EVICTED_SET.  Key 0 also signs alone.
# Folding WIDE_SET, whose members sign nothing else, adds a point, so a
# batch that has it folds only if the other folds save more.  The forged
# key names members 0 and 1 but is key 5's point, which the point ->
# members lookup is made to map to them
HELD_SETS = ((0, 1), (1, 2), (0, 2), (0, 1, 2))
WIDE_SET = (6, 7)
EVICTED_SET = (2, 3, 4)
FORGED = crypto.AggregateKey(FOLD_PKS[5], crypto._sorted_members(FOLD_PKS[:2]))


def _fold_triples():
    """(kind, triple) for every signature of the fold tests: plain keys,
    held, wide and evicted aggregates, and the forged key."""
    out = []
    for kind, signers in ([("plain", [i]) for i in (0, 3)]
                          + [("held", list(s)) for s in HELD_SETS]
                          + [("wide", list(WIDE_SET)),
                             ("evicted", list(EVICTED_SET)), ("forged", [5])]):
        sks = [FOLD_SKS[i] for i in signers]
        for j in range(3):
            m = b"fold-%s-%d" % (bytes(signers), j)
            if kind in ("plain", "forged"):
                point, sig = sks[0].public().point, sign(sks[0], m)
            else:
                point = aggregate(sk.public() for sk in sks).point.point
                sig = cosign(m, sks)
            out.append((kind, (point, m, sig)))
    return out


FOLD_POOL = _fold_triples()
FOLD_OTHER = _signed_triple(99)     # a valid triple of a key outside the pool


def _fold_memos(mp):
    """Private aggregate memo and point -> members lookup: the memo holds
    exactly the held and wide sets' keys, the lookup also the evicted
    set's and the forged key's; and a record of each `_folded` call's
    input and output."""
    mp.setattr(crypto, "_aggregate_members", crypto._insertable_cache(
        maxsize=len(HELD_SETS) + 1)(crypto._aggregate_members.__wrapped__))
    mp.setattr(crypto, "_members_of", crypto._insertable_cache(
        maxsize=crypto._CACHE_SIZE)(crypto._members_of.__wrapped__))
    for s in (EVICTED_SET, WIDE_SET) + HELD_SETS:     # the first is evicted
        aggregate(FOLD_PKS[i] for i in s)
    crypto._members_of.insert((FORGED.point.point,), FORGED.members)
    calls = []
    real = crypto._folded

    def recording(per_key):
        calls.append((dict(per_key), real(per_key)))
        return calls[-1][1]

    mp.setattr(crypto, "_folded", recording)
    return calls


def test_a_fold_keeps_the_equation_and_skips_unvouched_keys():
    points = {kind: [t[0] for k, t in FOLD_POOL if k == kind][::3]
              for kind in ("plain", "held", "evicted", "forged")}
    per_key = {p: 0x5EED + 7919 * i
               for i, p in enumerate(p for ps in points.values() for p in ps)}
    with pytest.MonkeyPatch.context() as mp:
        _fold_memos(mp)
        folded = crypto._folded(per_key)
    # the four held keys give way to their members 0, 1 and 2; key 0
    # also signs alone, and key 3's term is its own
    members = {pk.point for pk in FOLD_PKS[:3]}
    assert set(folded) == members | set(points["plain"]) \
        | set(points["evicted"]) | set(points["forged"])
    assert len(folded) < len(per_key)
    for kind in ("evicted", "forged"):
        (p,) = points[kind]
        assert folded[p] == per_key[p]
    # the same sum of multiples either way
    def total(terms):
        return crypto._affine(*crypto._jsum(
            crypto.point_mul(p, n) for p, n in terms.items()))
    assert total(folded) == total(per_key)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.sampled_from(range(len(FOLD_POOL))), min_size=8,
                max_size=len(FOLD_POOL), unique=True), st.data())
def test_a_folded_batch_decides_as_verify_does(picks, data):
    batch = [FOLD_POOL[i][1] for i in picks]
    kind = data.draw(st.sampled_from([None] + sorted(BATCH_CORRUPTIONS)))
    if kind is not None:
        i = data.draw(st.integers(min_value=0, max_value=len(batch) - 1))
        batch[i] = BATCH_CORRUPTIONS[kind](batch[i], FOLD_OTHER)
    with pytest.MonkeyPatch.context() as mp:
        calls = _fold_memos(mp)
        mp.setattr(crypto, "BATCH_MIN", 8)
        crypto._verified.cache_clear()
        proven = crypto.verify_batch(batch)
        recorded = {k: crypto._verified.peek(k) for k in map(_memo_key, batch)}
    crypto._verified.cache_clear()
    singly = [verify(PublicKey(point), m, sig) for point, m, sig in batch]
    assert proven == all(singly) == (kind is None)
    assert all(v in (None, True) for v in recorded.values())
    assert all(ok for k, ok in zip(recorded, singly) if recorded[k])
    if kind is None:
        assert all(recorded.values())
    elif kind not in LEFT_OUT:
        assert not any(recorded.values())
    # never more points than keys, and the evicted and forged keys are
    # never folded
    unvouched = {t[0] for k, t in FOLD_POOL if k in ("evicted", "forged")}
    for per_key, folded in calls:
        assert len(folded) <= len(per_key)
        assert all(folded[p] == n for p, n in per_key.items() if p in unvouched)


# --- batched curve work --------------------------------------------------

BATCH_KEYS = [keygen(b"lockstep-%d" % i)[1] for i in range(72)]


def _neg(pk):
    return PublicKey((pk.point[0], crypto.P - pk.point[1]))


@pytest.fixture
def batch_memos(monkeypatch):
    """Empty aggregate and signing memos of the same kind and bound,
    private to the test, and batch minimums of 0, so that every batch
    call does its work."""
    memos = {}
    for name, bound in (("_aggregate_members", crypto._CACHE_SIZE),
                        ("_signature", crypto._SIGN_CACHE_SIZE)):
        memos[name] = crypto._insertable_cache(maxsize=bound)(
            getattr(crypto, name).__wrapped__)
        monkeypatch.setattr(crypto, name, memos[name])
    monkeypatch.setattr(crypto, "AGGREGATE_BATCH_MIN", 0)
    monkeypatch.setattr(crypto, "SIGN_BATCH_MIN", 0)
    return memos


def _memo_state():
    return [m.cache_info() for m in (crypto._aggregate_members, crypto._signature,
                                     crypto._public_point, crypto._verified)]


@settings(max_examples=12, deadline=None)
@given(st.lists(st.lists(st.sampled_from(range(len(BATCH_KEYS))), min_size=1,
                         max_size=70, unique=True), min_size=1, max_size=3))
def test_property_aggregate_batch_matches_aggregate(picks):
    sets = [[BATCH_KEYS[i] for i in pick] for pick in picks]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(crypto, "_aggregate_members", crypto._insertable_cache(
            maxsize=crypto._CACHE_SIZE)(crypto._aggregate_members.__wrapped__))
        mp.setattr(crypto, "AGGREGATE_BATCH_MIN", 0)
        crypto.aggregate_batch(sets)
        memo = crypto._aggregate_members
        for pks in sets:
            members = crypto._sorted_members(pks)
            recorded = memo.peek((members,))
            # the per-item body, uncached, on the same members
            assert recorded == memo.__wrapped__(members)
            misses = memo.cache_info().misses
            assert aggregate(reversed(pks)) is recorded   # a hit
            assert memo.cache_info().misses == misses


@settings(max_examples=12, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=1, max_value=Q - 1),
                          st.binary(min_size=1, max_size=8)),
                min_size=1, max_size=40))
def test_property_sign_batch_matches_sign(pairs):
    with pytest.MonkeyPatch.context() as mp:
        for name, bound in (("_signature", crypto._SIGN_CACHE_SIZE),
                            ("_public_point", crypto._CACHE_SIZE)):
            mp.setattr(crypto, name, crypto._insertable_cache(maxsize=bound)(
                getattr(crypto, name).__wrapped__))
        mp.setattr(crypto, "SIGN_BATCH_MIN", 0)
        crypto.sign_batch((crypto.SecretKey(x), m) for x, m in pairs)
        for x, m in pairs:
            sk = crypto.SecretKey(x)
            recorded = crypto._signature.peek((sk, m, Fresh()))
            assert recorded == crypto._signature.__wrapped__(sk, m, Fresh())
            assert sign(sk, m) is recorded
            # the signer's key is recorded as public() would derive it
            key = crypto._public_point.peek((x,))
            assert key == crypto._public_point.__wrapped__(x)
            assert sk.public() is key
            assert verify(key, m, recorded)


@settings(max_examples=12, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=Q - 1), min_size=1,
                max_size=6, unique=True))
def test_property_aggregate_secret_memo_matches_its_body(scalars):
    sks = [crypto.SecretKey(x) for x in scalars]
    memo = crypto._aggregate_secret
    secret = aggregate_secret(sks)
    assert secret == memo.__wrapped__(tuple(sks))
    hits = memo.cache_info().hits
    assert aggregate_secret(list(sks)) is secret   # the list as given: a hit
    assert memo.cache_info().hits == hits + 1
    assert secret.public() == aggregate([sk.public() for sk in sks]).point
    # another order is another entry with the same secret
    assert aggregate_secret(sks[::-1]) == secret


def test_aggregate_secret_of_no_signers_raises_and_records_nothing():
    memo = crypto._aggregate_secret
    size = memo.cache_info().currsize
    for _ in range(2):
        with pytest.raises(CryptoError, match="out of range"):
            aggregate_secret([])
        assert memo.peek(((),)) is None
        assert memo.cache_info().currsize == size


def _sessions(count, size, seed):
    """`count` signer lists of `size` fresh secrets each, and a message
    for each."""
    return [([crypto.SecretKey(seed + 97 * i + j) for j in range(size)], b"s%d" % i)
            for i in range(count)]


def test_sign_batch_signs_a_session_as_cosign_does(batch_memos, monkeypatch):
    monkeypatch.setattr(crypto, "_public_point", crypto._insertable_cache(
        maxsize=crypto._CACHE_SIZE)(crypto._public_point.__wrapped__))
    sessions = _sessions(6, 3, 0x5E55_0000)
    # the aggregate memo holds the keys of the first three signer sets
    known = [aggregate([sk.public() for sk in sks]) for sks, _ in sessions[:3]]
    scalars, real = [], crypto._g_multiples
    monkeypatch.setattr(crypto, "_g_multiples",
                        lambda ns: scalars.extend(ns) or real(ns))
    sigs = crypto.sign_batch(sessions)
    secrets = [aggregate_secret(sks).scalar for sks, _ in sessions]
    # six nonces, and the keys of the three sets the aggregate memo lacks
    assert len(scalars) == 9 and scalars[6:] == secrets[3:]
    for (sks, m), n, sig in zip(sessions, secrets, sigs):
        key = crypto._public_point.peek((n,))
        assert key == crypto._public_point.__wrapped__(n)
        assert crypto._signature.peek((crypto.SecretKey(n), m, Fresh())) is sig
        assert cosign(m, sks) is sig
        assert verify(key, m, sig)
    assert [crypto._public_point.peek((n,)) for n in secrets[:3]] == \
        [agg.point for agg in known]


def test_sign_batch_returns_what_sign_and_cosign_return(point_mul_calls):
    # more pairs than the signing memo holds, sessions and single secrets
    # interleaved: two full chunks signed in G-table passes, then a last
    # chunk below the batch minimum, signed per item
    bound = crypto._signature.cache_info().maxsize
    sessions = _sessions(bound // 2, 2, 0x5E55_3000)
    solo = [(crypto.SecretKey(0x5010_0000 + i), b"m%d" % i) for i in range(bound // 2 + 3)]
    pairs = [p for two in zip(solo, sessions) for p in two] + solo[len(sessions):]
    assert len(pairs) == bound + 3
    for sks, _ in sessions:
        for sk in sks:
            sk.public()   # the signers' own keys, into the emptied memo
    del point_mul_calls[:]
    sigs = crypto.sign_batch(pairs)
    # only the last chunk's three nonce points and keys are multiplied alone
    assert point_mul_calls == [crypto.G] * 6
    assert len(sigs) == len(pairs)
    for (signer, m), sig in zip(pairs, sigs):
        solo_pair = isinstance(signer, crypto.SecretKey)
        sk = signer if solo_pair else aggregate_secret(signer)
        assert sig == crypto._signature.__wrapped__(sk, m, Fresh())
        assert sig == (sign(signer, m) if solo_pair else cosign(m, signer))


def test_sign_batch_takes_no_key_from_another_member_set(batch_memos, monkeypatch):
    # the aggregate memo holds a key of a superset of the signers' keys:
    # the signers' aggregate secret has another key, which is computed
    monkeypatch.setattr(crypto, "_public_point", crypto._insertable_cache(
        maxsize=crypto._CACHE_SIZE)(crypto._public_point.__wrapped__))
    (sks, m), = _sessions(1, 3, 0x5E55_1000)
    extra = crypto.SecretKey(0x5E55_2000)
    aggregate([sk.public() for sk in sks + [extra]])
    crypto.sign_batch([(sks, m)])
    n = aggregate_secret(sks).scalar
    assert crypto._public_point.peek((n,)) == crypto._public_point.__wrapped__(n)
    assert verify(aggregate([sk.public() for sk in sks]).point, m, cosign(m, sks))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.lists(st.sampled_from(range(len(BATCH_KEYS))), min_size=1,
                         max_size=9), min_size=1, max_size=5))
def test_property_affine_sums_match_jacobian_sums(picks):
    # repeats and negations among a list's points meet equal x somewhere
    lists = [[BATCH_KEYS[i // 2].point if i % 2 else _neg(BATCH_KEYS[i // 2]).point
              for i in pick] for pick in picks]
    for pts, got in zip(lists, crypto._affine_sums(lists)):
        if got is not None:
            assert got == crypto._affine(*crypto._jsum(pts))
        else:
            assert len({x for x, _ in pts}) < len(pts)


def test_affine_sums_refuse_an_addition_of_equal_x():
    p, q = BATCH_KEYS[0].point, BATCH_KEYS[1].point
    neg_p = _neg(BATCH_KEYS[0]).point
    sums = crypto._affine_sums([[p, p], [p, neg_p], [p, q], [q]])
    assert sums == [None, None, crypto._affine(*crypto._jsum([p, q])), q]
    two_p = crypto._affine(*crypto._jdbl(*p, 1))
    assert crypto._affine_doubles([p, q]) == [two_p, crypto._affine(*crypto._jdbl(*q, 1))]


def test_aggregate_batch_leaves_an_exceptional_sum_to_aggregate(batch_memos, monkeypatch):
    # P and -P first among the members, with every coefficient 1: the first
    # column's pairwise sums give X and -X, so the batch meets equal x,
    # while the aggregate, P - P + Q = Q, is a point
    p = next(pk for pk in BATCH_KEYS if pk.encode()[0] == 2)
    q = next(pk for pk in BATCH_KEYS if pk.encode()[0] == 3 and pk.point[0] > p.point[0])
    members = crypto._sorted_members([q, _neg(p), p])
    assert members == (p, _neg(p), q)
    monkeypatch.setattr(crypto, "_coefficients", lambda members: [1] * len(members))
    crypto.aggregate_batch([members])
    memo = batch_memos["_aggregate_members"]
    assert memo.peek((members,)) is None
    assert memo.cache_info().currsize == 0
    assert aggregate(members).point == q


def test_batches_leave_rejected_inputs_to_the_per_item_path(batch_memos, monkeypatch):
    sk, pk = keygen(b"lockstep-reject")
    p = BATCH_KEYS[0]
    crypto.point_mul(p.point, 1), crypto.point_mul(_neg(p).point, 1)   # warm tables
    before, tables = _memo_state(), crypto._comb_table.cache_info().currsize
    with monkeypatch.context() as mp:
        # {P, -P} with equal coefficients sums to infinity
        mp.setattr(crypto, "_coefficients", lambda members: [1] * len(members))
        crypto.aggregate_batch([[p, _neg(p)]])
        assert _memo_state() == before
        with pytest.raises(CryptoError, match="degenerate"):
            aggregate([p, _neg(p)])
    before = _memo_state()
    crypto.aggregate_batch([[], [pk, pk], [OFF_CURVE, pk]])
    with pytest.raises(CryptoError, match="empty message"):
        crypto.sign_batch([(sk, b""), (sk, b"")])
    assert _memo_state() == before
    assert crypto._comb_table.cache_info().currsize == tables
    with pytest.raises(CryptoError, match="empty member set"):
        aggregate([])
    with pytest.raises(CryptoError, match="duplicate member"):
        aggregate([pk, pk])
    with pytest.raises(CryptoError, match="not on secp256k1"):
        aggregate([OFF_CURVE, pk])
    with pytest.raises(CryptoError, match="empty message"):
        sign(sk, b"")


def test_batches_below_their_minimum_do_nothing(monkeypatch):
    # below its minimum, a signing batch signs each pair as `sign` does,
    # with no G-table pass
    fresh = [crypto.SecretKey(0x10C5 + i) for i in range(crypto.SIGN_BATCH_MIN - 1)]
    passes = []
    monkeypatch.setattr(crypto, "_g_multiples", passes.append)
    sigs = crypto.sign_batch((sk, b"m") for sk in fresh)
    assert passes == []
    assert sigs == [crypto._signature.__wrapped__(sk, b"m", Fresh()) for sk in fresh]
    before = _memo_state()
    small = [BATCH_KEYS[:3], BATCH_KEYS[3:6]]
    assert sum(map(len, small)) < crypto.AGGREGATE_BATCH_MIN
    crypto.aggregate_batch(small)
    assert _memo_state() == before


def test_aggregate_batch_reads_each_comb_table_once(batch_memos, fresh_comb, point_mul_calls):
    # three sets over four bases: a table is fetched once per pass, not
    # once per term, and no term goes through point_mul
    sets = [BATCH_KEYS[:4], BATCH_KEYS[1:4], BATCH_KEYS[:2]]
    crypto.aggregate_batch(sets)
    assert fresh_comb.cache_info() == (0, 4, crypto._COMB_CACHE_SIZE, 4)
    assert point_mul_calls == []
    assert batch_memos["_aggregate_members"].cache_info().currsize == 3
