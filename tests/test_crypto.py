import collections
import functools
import importlib
import pkgutil

import pytest
from hypothesis import given, settings
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


def test_comb_cost_cold_then_cached(fresh_comb, group_ops):
    crypto.point_mul(BASE, GLV_SIGN_CASES[0])
    # the table: three teeth of 33 doublings each, and 11 subset sums
    assert group_ops["_jdbl"] == 99 + 33
    assert group_ops["_jadd"] == 11
    assert group_ops["_jadd_affine"] <= 66
    for n in GLV_SIGN_CASES:
        group_ops.clear()
        crypto.point_mul(BASE, n)
        assert group_ops["_jdbl"] == 33
        assert group_ops["_jadd"] == 0
        assert group_ops["_jadd_affine"] <= 66


def test_comb_memo_is_bounded():
    assert crypto._comb_table.cache_info().maxsize == crypto._COMB_CACHE_SIZE


def test_comb_memo_clears(group_ops):
    crypto.point_mul(BASE, 5)
    assert crypto._comb_table.cache_info().currsize >= 1
    crypto._comb_table.cache_clear()
    assert crypto._comb_table.cache_info().currsize == 0
    group_ops.clear()
    crypto.point_mul(BASE, 5)
    assert group_ops["_jadd"] == 11   # the table was built again


def test_every_memo_is_bounded():
    # every module but __main__, which runs the command line on import
    modules = [importlib.import_module(f"arksim.{info.name}")
               for info in pkgutil.iter_modules(arksim.__path__)
               if info.name != "__main__"]
    memos = {f"{m.__name__}.{name}": v for m in modules
             for name, v in vars(m).items() if hasattr(v, "cache_info")}
    assert set(memos) == {
        "arksim.crypto._comb_table", "arksim.crypto._public_point",
        "arksim.crypto._aggregate_members", "arksim.crypto._signature",
        "arksim.crypto._verified", "arksim.script._lock"}
    # lru_cache(maxsize=None) is unbounded
    assert all(isinstance(m.cache_info().maxsize, int) for m in memos.values())


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
