"""Schnorr signatures over secp256k1, n-of-n key aggregation, and
private-key extraction from nonce reuse.

The scheme signs s = r + H(R || pk || m) * sk (mod q) and verifies by
checking R = s*G - H(R || pk || m)*pk.  Aggregation is a deterministic
coefficient-hashed n-of-n combine over a canonically ordered member set;
the interactive signing session is modeled as a single synchronous call
that either yields a full signature or aborts without output.

Every scalar multiplication goes through `point_mul`, in Jacobian
coordinates with one field inversion at the end:

- Fixed base (p == G): n is recoded into 33 signed 8-bit digits in
  [-128, 128] (a byte above 128 becomes byte - 256 and carries one into
  the next digit), and a table of d * 256**i * G for i < 33 and
  d = 1..128, affine, holds every digit's multiple; a negative digit
  negates the entry's y.  n * G is the sum of one entry per nonzero
  digit: at most 33 mixed additions and no doublings.  The 4,224 entries
  are built once at import, column by column in affine coordinates with
  one batched inversion per column: about 30 ms on a 2-core x86 machine.
- Variable base: the GLV endomorphism lambda * (x, y) = (beta * x, y)
  (Gallant, Lambert and Vanstone, CRYPTO 2001) splits n into
  k1 + k2 * lambda with |k1|, |k2| < 2**129.  Each half is read as a
  signed-digit comb (Hamburg 2012, as in libsecp256k1's `ecmult_gen`)
  with six teeth 22 bits apart.  An odd k with |k| < 2**132 is 132
  digits of +-1, so every 6-digit column is nonzero: with its top digit
  +1 it is one of the 32 sums 2**110 p +- 2**88 p +- ... +- p, and with
  its top digit -1 the negation of one, which negates y.  A half made
  odd by adding a lattice vector still has the same n.  The table of 32
  affine sums serves both halves, since scaling x by beta gives
  lambda * p's sums, and one chain of doublings serves both.  So one
  multiplication is 22 doublings and exactly 44 mixed additions, and a
  table costs 115 doublings and 36 additions.  On a 2-core x86 machine,
  medians of 15 interleaved repetitions, a warm multiplication took
  about 0.75x as long as the four-tooth unsigned comb (Lim and Lee,
  CRYPTO '94) this replaces, 33 doublings and up to 66 additions, and a
  table build about 1.6x.  The endomorphism holds only on the curve, so
  an off-curve point is rejected with `CryptoError`.

Sums of several multiplications (an aggregate key, and s*G - e*P in
`verify`) are added in Jacobian form too, and `verify` compares the sum
with R without an inversion.

`verify_batch` checks many signatures in one equation (BIP340 batch
verification; Wuille, Nick and Ruffing 2020):

    (sum a_i s_i) * G == sum a_i * R_i + sum (a_i e_i) * P_i

- Coefficients: a_0 = 1, and each other a_i is the top 128 bits of a
  tagged hash of the whole batch and i.  A run stays byte-deterministic,
  and no signer can fit a bad signature to the a_i, since any change to
  the batch draws new ones.  Each distinct key and R is compressed once,
  and those bytes serve both this hash and the challenges e_i.
- Multiplications: G goes through `point_mul` once.  The R_i and the GLV
  halves of each (a_i e_i) * P_i (the coefficients of one key summed
  first) go through one Pippenger bucket pass (Pippenger 1976) over
  signed digits, with the digit width picked from the number of terms.
  Each bucket is summed in affine coordinates, with one inversion per
  level across the buckets of four windows (`_affine_sums`, below): on
  a 2-core x86 machine, medians of 9 runs on recorded equations, that
  took 0.80x the time of Jacobian buckets at 97 terms and 0.71x at 257,
  and held at most about 0.2 MB more.  That pass builds no comb table,
  so a key verified once costs no table.
  A wallet checks every signature of a VTXT it cosigned in one batch on
  its first audit of a path from it (see `wallet`), so in a tree of at
  least `BATCH_MIN` signatures the aggregate key of each internal node,
  which signs once, gets no table.  A key that `verify` checks singly
  still builds one.
- Folding (`_folded`): an aggregate key is P = sum c_j P_j over its
  members (see `aggregate`), so its term n * P is also sum (n c_j) * P_j,
  and the terms of members shared by several keys add up before the
  GLV split.  A key is folded only when the aggregate memo maps the
  member set that a point -> members lookup gives for it to exactly
  that point; the lookup is filled where that memo is (`aggregate` and
  `aggregate_batch`) and bounded like it.  So an evicted entry or a
  forged `AggregateKey`, whose point is not its members' aggregate, is
  a term of its own.  The batch folds every such key when that leaves
  fewer points than keys, and none otherwise, so an equation never has
  more terms than unfolded.  The checks, the verify memo's keys and the
  verdicts do not change.  A signed tree of n users then needs one key
  term per user and the operator, not one per node: the first audit of
  a 16-user tree (31 nodes) goes from 93 terms to 65, of a
  `payment_stream` tree (63 nodes) from 155-157 to 97, and a 64-leaf
  tree's exit block from 381 to 257.  A block of three exits from that
  tree keeps its 54, since the root alone has 65 members.
- Left out: a triple `verify` rejects before any multiplication (s >= q,
  or an unreduced coordinate) and one with an off-curve R or key, on
  which the group law does not hold.  So is the whole batch when fewer
  than `BATCH_MIN` triples remain.
- Results: when the equation holds, each triple gets a `True` verdict in
  the verify memo.  When it fails, nothing is recorded and `verify` later
  checks each signature singly, so every verdict and rejection stays per
  signature.
- Crossover: on a 2-core x86 machine, medians of 9 runs, a batch of n
  fresh signatures took 0.70x (n = 8), 0.60x (12) and 0.56x (16) of
  single verification with cold comb tables, and 1.13x, 1.00x and 0.96x
  with warm ones; at 127 signatures, 0.32x and 0.52x.  `BATCH_MIN` = 16
  is the smallest measured size that wins either way.

The plain double-and-add ladder these replace is kept in
`tests/secp_oracle.py`, and the tests check both paths against it.

Six pure functions are memoized in bounded least-recently-used caches:
the comb table of a variable base, the public key of a scalar (one
`PublicKey` object per scalar, which compresses its point once), the
aggregate key of a member set, the aggregate secret of a signer list, the
signature `sign` returns, and the verdict of `verify`.  The last five are
`_insertable_cache`s, so that `cache_clear` empties each one, and so that
`aggregate_batch`, `sign_batch` and `verify_batch` can record results
(see below).  So is the point -> members lookup that folding reads,
which is only ever filled, never computed.
The aggregate secret is keyed on the signer list exactly as the caller
passes it, not on the sorted member set: sorting needs each signer's
public key and encoding, which is most of what a hit saves.  Every caller
lists a session's signers in its lock's member order, so a round's
`sign_batch` and a later payment's `sign_batch` under the same lock share
one entry; a list in another order is another entry with the same secret.
A batch multiplies each signer key about log n times while aggregating
its subtrees, so a table is built once per key and reused.  The table is a function of the point
alone, and the point is checked to lie on the curve before anything is
cached, so a hit is exactly the table a fresh build would give and an
off-curve point never enters the memo.  A transcript is checked again at
inclusion, on every receipt and at exit, so the same (key, message,
signature) triple recurs; as in Bitcoin Core's signature cache, each
distinct triple is checked once.  Each memo is keyed on every input its
function reads (for `verify`, the key's point, the message, R and s), so
a hit returns exactly what the full computation would, and any change
to an input is a fresh check.

Signing is deterministic (the nonce is a tagged hash of the key and the
message, as in BIP340 and RFC 6979), and a trace re-signs the same
transactions under one fixed key set, so the signing memo is keyed on the
secret scalar, the message and the nonce (`Fresh()` or `Fixed(r)`): two
messages under one fixed nonce are still two signatures, and
`extract_secret` still sees them.  Its bound is 256, not the shared 4096:
the largest repeated working set measured (acceptance criterion 8) needs
209 entries, while at 4096 a benchmark workload whose signatures are all
new kept every one, which raised its peak RSS by about 4%.

Batched curve work: `aggregate_batch` and `sign_batch` make many
independent multiplications at once, and record them in the memos that
`aggregate` and `sign` read (`sign_batch` then reads each signature back
through `sign`).  So those keep their bodies, and a memo hit still equals
a fresh computation.

- Kernel: `_affine_sums` sums many lists of affine points pairwise, level
  by level, and one inversion serves every addition of a level across all
  the lists (Montgomery's simultaneous inversion, Montgomery 1987).  An
  affine addition then costs about 6 multiplications mod p, against 11
  for a mixed Jacobian one.
- `aggregate_batch(member_sets)` computes the aggregate key of every set
  the aggregate memo lacks, each a multi-comb sum of its terms coef * P.
  Each GLV half of a term reads one signed-digit column entry of P's
  memoized comb table per column, and a Horner pass runs over the 22
  columns, most significant first: each sum is doubled, then gains its
  column's entries.  Each distinct base's table is fetched once per pass.
  A tree over 256 users reads 257 tables, where key-by-key aggregation
  evicted and rebuilt about half of them (518 misses).  Entries are made
  one column at a time, so only one column's are held.
- `sign_batch(pairs)` returns the signature of each (secret, message) or
  (signers, message) pair, in chunks of at most half the signing memo's
  bound, which the memo still holds when it reads them back.  It computes
  the nonce point R of each pair the memo lacks, and each of those
  secrets' public keys the public-key memo lacks, from the G table, 32
  scalars at a time: all 254 of a `wide_batch` round at once raised its
  peak RSS by about 1 MB.  The keys are recorded too: a later signature
  under the same aggregate secret, such as a payment's signature under
  the forfeit's owner and operator, then finds its key.
- Known keys: a session's aggregate secret sum a_i x_i has the key
  sum a_i P_i, which the aggregate memo already holds when the round
  built the lock it signs.  So `sign_batch` takes that key from the
  aggregate memo, when its entry's members are exactly the signers' sorted
  keys, instead of a G multiplication: a 64-user `wide_batch` round makes
  257 fixed-base multiplications instead of 319, and its set-up 322
  instead of 449.  The rule lives only here, from `SIGN_BATCH_MIN` fresh
  pairs up.  Below that, as in a payment of fewer than four inputs, and
  in `cosign`, `sign` multiplies each new key itself, as the per-item
  path, and the counts pinned on it, do.
- Exceptional pairs: two points with equal x (a doubling, or a sum to
  infinity) are never added.  The list that meets them is dropped, and
  nothing is recorded for its set or pair.  Nothing is recorded either for
  a set `aggregate` rejects: an empty set, a duplicate or an off-curve or
  unreduced member.  `aggregate` and `sign` then compute or reject each of
  these as before.  `sign_batch` rejects a session without signers and an
  empty message, as `cosign` and `sign` do, before it signs any pair.
- Measured minimum: on a 2-core x86 machine, with warm tables and medians
  of 9 interleaved runs, a batch took 1.06-1.17x the per-item time at
  12-16 fresh comb terms and 0.83-0.95x at 18-32, so
  `AGGREGATE_BATCH_MIN` = 20.  At `wide_batch`'s 63 sets of 447 terms it
  took about 0.57x.  A batch of fresh signatures took 0.97x at one
  signature whose key is not yet known and 0.6-0.7x from 8 up, and 1.0x at
  two signatures under known keys.  `SIGN_BATCH_MIN` is 8, so that the
  ceremonies of a few signers, which a fixed key set mostly finds in the
  memo, are signed per item.
"""

from __future__ import annotations

import functools
import hashlib
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, NamedTuple, Optional, Sequence, Tuple

# secp256k1 parameters
P = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFC2F
Q = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141
G = (
    0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798,
    0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8,
)

Point = Optional[Tuple[int, int]]  # None is the point at infinity


class CryptoError(Exception):
    pass


class SessionAborted(CryptoError):
    """A cosigning session failed; no partial signature is released."""


class NotReused(CryptoError):
    """The two signatures do not share a nonce commitment."""


class HashCollision(CryptoError):
    """The two challenge hashes coincide mod q; extraction impossible."""


# --- Jacobian arithmetic ---------------------------------------------------
# (X, Y, Z) stands for the affine point (X/Z^2, Y/Z^3); Z == 0 is infinity.

_INF = (0, 0, 0)


def _jdbl(x: int, y: int, z: int) -> Tuple[int, int, int]:
    if z == 0 or y == 0:
        return _INF
    yy = y * y % P
    s = 4 * x * yy % P
    m = 3 * x * x % P  # curve a == 0
    nx = (m * m - 2 * s) % P
    return nx, (m * (s - nx) - 8 * yy * yy) % P, 2 * y * z % P


def _jadd(x1: int, y1: int, z1: int, x2: int, y2: int, z2: int) -> Tuple[int, int, int]:
    if z1 == 0:
        return x2, y2, z2
    if z2 == 0:
        return x1, y1, z1
    z1s, z2s = z1 * z1 % P, z2 * z2 % P
    u1, u2 = x1 * z2s % P, x2 * z1s % P
    s1, s2 = y1 * z2s * z2 % P, y2 * z1s * z1 % P
    h = (u2 - u1) % P
    r = (s2 - s1) % P
    if h == 0:
        return _jdbl(x1, y1, z1) if r == 0 else _INF
    hh = h * h % P
    hhh = hh * h % P
    v = u1 * hh % P
    nx = (r * r - hhh - 2 * v) % P
    return nx, (r * (v - nx) - s1 * hhh) % P, h * z1 * z2 % P


def _jadd_affine(x1: int, y1: int, z1: int, q: Tuple[int, int]) -> Tuple[int, int, int]:
    """Mixed addition: Jacobian (x1, y1, z1) plus the affine point q."""
    x2, y2 = q
    if z1 == 0:
        return x2, y2, 1
    zz = z1 * z1 % P
    h = (x2 * zz - x1) % P
    r = (y2 * zz * z1 - y1) % P
    if h == 0:
        return _jdbl(x1, y1, z1) if r == 0 else _INF
    hh = h * h % P
    hhh = hh * h % P
    v = x1 * hh % P
    nx = (r * r - hhh - 2 * v) % P
    return nx, (r * (v - nx) - y1 * hhh) % P, z1 * h % P


def _batch_inverse(values: Sequence[int]) -> list:
    """The inverses mod p of nonzero values, with one inversion
    (Montgomery's trick)."""
    prefix = []
    acc = 1
    for v in values:
        prefix.append(acc)
        acc = acc * v % P
    inv = pow(acc, -1, P)
    out = [0] * len(values)
    for i in range(len(values) - 1, -1, -1):
        out[i] = inv * prefix[i] % P
        inv = inv * values[i] % P
    return out


def _batch_affine(points: Sequence[Tuple[int, int, int]]) -> list:
    """Normalize finite Jacobian points with one inversion."""
    out = []
    for (x, y, _), zi in zip(points, _batch_inverse([z for _, _, z in points])):
        zi2 = zi * zi % P
        out.append((x * zi2 % P, y * zi2 * zi % P))
    return out


def _jsum(points: Iterable[Point]) -> Tuple[int, int, int]:
    """The sum of affine points, None among them, left in Jacobian form."""
    x = y = z = 0
    for q in points:
        if q is not None:
            x, y, z = _jadd_affine(x, y, z, q)
    return x, y, z


def _affine(x: int, y: int, z: int) -> Point:
    return None if z == 0 else _batch_affine(((x, y, z),))[0]


def _on_curve(p: Tuple[int, int]) -> bool:
    return (p[1] * p[1] - p[0] * p[0] * p[0] - 7) % P == 0


# --- fixed base: G ---------------------------------------------------------


# Signed digits of this many bits: 33 of them cover any n < 2**256, the
# last one taking the final borrow, and each is in [-128, 128].
_G_WINDOW = 8
_G_MASK = (1 << _G_WINDOW) - 1
_G_HALF = 1 << (_G_WINDOW - 1)
_G_ROWS = 256 // _G_WINDOW + 1


def _g_table() -> Tuple[Tuple[Tuple[int, int], ...], ...]:
    """Row i holds d * 256**i * G for d = 1..128, affine."""
    bases = [(G[0], G[1], 1)]
    for _ in range(_G_ROWS - 1):
        b = bases[-1]
        for _ in range(_G_WINDOW):
            b = _jdbl(*b)
        bases.append(b)
    bases = _batch_affine(bases)
    # column d - 1 holds d * base for every row base; each column past the
    # second adds the bases to the one before in affine coordinates, so the
    # 33 chord slopes of a column share one batched inversion
    cols = [bases, _batch_affine([_jdbl(x, y, 1) for x, y in bases])]
    for _ in range(_G_HALF - 2):
        prev = cols[-1]
        invs = _batch_inverse([x - bx for (x, _), (bx, _) in zip(prev, bases)])
        col = []
        for (x, y), (bx, by), inv in zip(prev, bases, invs):
            lam = (y - by) * inv % P
            nx = (lam * lam - x - bx) % P
            col.append((nx, (lam * (x - nx) - y) % P))
        cols.append(col)
    return tuple(zip(*cols))


# A plain constant rather than a memo: it never changes, and emptying the
# package's caches must not throw it away.
_G_TABLE = _g_table()


def _g_entries(n: int) -> list:
    """The table entries whose sum is n * G, 0 <= n < 2**256: one per
    nonzero signed digit of n."""
    out = []
    for row in _G_TABLE:
        d = n & _G_MASK
        n >>= _G_WINDOW
        if d > _G_HALF:
            # the digit is d - 256: borrow one from the next digit and take
            # the entry for 256 - d with y negated
            n += 1
            ex, ey = row[_G_MASK - d]
            out.append((ex, P - ey))
        elif d:
            out.append(row[d - 1])
    return out


def _mul_g(n: int) -> Point:
    # one mixed addition per nonzero signed digit of n, no doublings
    return _affine(*_jsum(_g_entries(n)))


# --- variable base: GLV endomorphism + per-base comb -----------------------

# lambda * (x, y) == (beta * x, y) for every point on the curve
LAMBDA = 0x5363AD4CC05C30E0A5261C028812645A122E22EA20816678DF02967C1B23BD72
BETA = 0x7AE96A2B657C07106E64479EAC3434E99CF0497512F58995C1396C28719501EE
# a short basis (a1, b1), (a2, b2) of {(a, b) : a + b * lambda == 0 mod q}
_A1 = 0x3086D221A7D46BCDE86C90E49284EB15
_B1 = -0xE4437ED6010E88286F547FA90ABFE4C3
_A2 = 0x114CA50F7A8E2F3F657C1108D9D44CFD8
_B2 = _A1


def glv_split(n: int) -> Tuple[int, int]:
    """Split 0 <= n < q into (k1, k2) with k1 + k2 * lambda == n (mod q)
    and |k1|, |k2| < 2**129, by rounding n onto the lattice basis."""
    c1 = (_B2 * n + Q // 2) // Q
    c2 = (-_B1 * n + Q // 2) // Q
    return n - c1 * _A1 - c2 * _A2, -c1 * _B1 - c2 * _B2


# Six teeth 22 bits apart span 132 bits: the comb reads any odd half k
# with |k| < 2**132, which leaves room for glv_split's 2**129 plus the
# lattice vector that makes a half odd.
_COMB_TEETH = 6
_COMB_SPACING = 22
_COMB_BITS = _COMB_TEETH * _COMB_SPACING
_COMB_TOP = 1 << (_COMB_TEETH - 1)   # the top tooth's bit in a column

# The lattice vector (a, b), a + b * lambda == 0 (mod q), that makes both
# halves odd, by the parities (k1 & 1, k2 & 1): _A1, _B1 and _B2 are odd
# and _A2 is even.  Each component is below 2**129.
_ODD_SHIFT = {(1, 1): (0, 0), (0, 0): (_A1, _B1), (1, 0): (_A2, _B2),
              (0, 1): (_A1 + _A2, _B1 + _B2)}

# Bound on the comb-table memo.  A table is about 5.9 KB, so 256 tables
# are about 1.5 MB and hold the signer keys of a wide batch; the shared
# bound below would also keep a table for every key `verify` checks once.
_COMB_CACHE_SIZE = 256

# Bound on the signing memo: see the module docstring for the measurement.
_SIGN_CACHE_SIZE = 256


@lru_cache(maxsize=_COMB_CACHE_SIZE)
def _comb_table(p: Tuple[int, int]) -> Tuple[Tuple[int, int], ...]:
    """Entry i (i = 0..31) is the top tooth 2**110 p plus, for each lower
    tooth 2**(22 j) p (j = 0..4), the tooth if bit j of i is set and its
    negation if it is clear, affine."""
    if not _on_curve(p):
        raise CryptoError("point is not on secp256k1")
    px, py = p
    teeth = [(px, py, 1)]
    for _ in range(_COMB_TEETH - 1):
        tooth = teeth[-1]
        for _ in range(_COMB_SPACING):
            tooth = _jdbl(*tooth)
        teeth.append(tooth)
    # entry 0 subtracts every lower tooth; setting bit j adds 2 * tooth j
    # to each entry so far.  Every entry is c * p with 0 < c < 2**111 < q,
    # so none is infinity and no addition meets equal points
    first = teeth[-1]
    for x, y, z in teeth[:-1]:
        first = _jadd(*first, x, P - y, z)
    sums = [first]
    for tooth in teeth[:-1]:
        twice = _jdbl(*tooth)
        sums += [_jadd(*s, *twice) for s in sums]
    return tuple(_batch_affine(sums))


# A column's digits, top tooth first, as a string of binary characters ->
# the table entry and whether to negate it: a column whose top digit is -1
# is the negation of its complement, whose top digit is +1.
_COMB_COLUMN = {format(v, f"0{_COMB_TEETH}b"):
                (v - _COMB_TOP, False) if v & _COMB_TOP else (_COMB_TOP - 1 - v, True)
                for v in range(2 * _COMB_TOP)}


def _comb_columns(k: int) -> list:
    """The (entry, negate) pair of each column of odd k, |k| < 2**132,
    most significant first.  k is read as 132 signed digits of +-1: bit i
    of m = (k + 2**132 - 1) / 2 is 1 for digit +1 and 0 for -1, so that
    k = 2m - (2**132 - 1).  Column c holds digits c, c + 22, ..., c + 110."""
    bits = format((k + (1 << _COMB_BITS) - 1) >> 1, f"0{_COMB_BITS}b")
    return [_COMB_COLUMN[bits[c::_COMB_SPACING]] for c in range(_COMB_SPACING)]


def _comb_points(table: Sequence[Tuple[int, int]], k: int) -> list:
    """The entries a comb adds for odd k, one per column, most significant
    first."""
    out = []
    for i, negate in _comb_columns(k):
        x, y = table[i]
        out.append((x, P - y) if negate else (x, y))
    return out


def _comb_halves(p: Tuple[int, int], n: int) -> Tuple[int, int, list]:
    """Odd halves k1, k2 with |k1|, |k2| < 2**132 and a tail of points
    such that n * p = k1 * p + k2 * (lambda * p) + the sum of the tail."""
    k1, k2 = glv_split(n)
    a, b = _ODD_SHIFT[k1 & 1, k2 & 1]
    if abs(k1 + a) < 1 << _COMB_BITS and abs(k2 + b) < 1 << _COMB_BITS:
        return k1 + a, k2 + b, []
    # only a split wider than glv_split's gets here: an even half takes one
    # less, and p or lambda * p is added back at the end
    tail = []
    if not k1 & 1:
        k1 -= 1
        tail.append(p)
    if not k2 & 1:
        k2 -= 1
        tail.append((BETA * p[0] % P, p[1]))
    return k1, k2, tail


def _mul_var(p: Tuple[int, int], n: int) -> Point:
    table = _comb_table(p)
    k1, k2, tail = _comb_halves(p, n)
    # k2 multiplies lambda * p, which is p with x scaled by beta; both
    # halves share one chain of 22 doublings
    twisted = [(BETA * x % P, y) for x, y in _comb_points(table, k2)]
    x = y = z = 0
    for e1, e2 in zip(_comb_points(table, k1), twisted):
        x, y, z = _jdbl(x, y, z)
        x, y, z = _jadd_affine(x, y, z, e1)
        x, y, z = _jadd_affine(x, y, z, e2)
    for e in tail:
        x, y, z = _jadd_affine(x, y, z, e)
    return _affine(x, y, z)


def point_mul(p: Point, n: int) -> Point:
    """n * p.  The single entry point for every scalar multiplication."""
    n %= Q
    if n == 0 or p is None:
        return None
    if p == G:
        return _mul_g(n)
    return _mul_var(p, n)


def compress(p: Point) -> bytes:
    if p is None:
        raise CryptoError("cannot encode the point at infinity")
    return bytes([2 + (p[1] & 1)]) + p[0].to_bytes(32, "big")


class _CacheInfo(NamedTuple):
    hits: int
    misses: int
    maxsize: int
    currsize: int


def _insertable_cache(maxsize: int):
    """A bounded least-recently-used memo of a pure function, with the
    `cache_info()` and `cache_clear()` of `lru_cache`, that also takes
    results computed elsewhere: `insert(args, result)`, and
    `peek(args)`, the recorded result or None without counting a hit.
    Keyword arguments are not part of the key: they are hints a miss
    passes on to `fn`, which may make it cheaper but not change it."""
    def decorate(fn):
        entries: OrderedDict = OrderedDict()
        stats = [0, 0]   # hits, misses

        def insert(key: tuple, value) -> None:
            entries[key] = value
            entries.move_to_end(key)
            if len(entries) > maxsize:
                entries.popitem(last=False)

        @functools.wraps(fn)
        def memo(*key, **hints):
            try:
                value = entries[key]
            except KeyError:
                stats[1] += 1
                value = fn(*key, **hints)
                insert(key, value)
                return value
            stats[0] += 1
            entries.move_to_end(key)
            return value

        def cache_clear() -> None:
            entries.clear()
            stats[:] = [0, 0]

        memo.insert = insert
        memo.peek = entries.get
        memo.cache_info = lambda: _CacheInfo(stats[0], stats[1], maxsize, len(entries))
        memo.cache_clear = cache_clear
        return memo
    return decorate


# Bound on each memo below: far above the keys, member sets and signatures
# one batch uses, so a whole run hits, while a long process cannot grow
# without limit.
_CACHE_SIZE = 4096


@_insertable_cache(maxsize=_CACHE_SIZE)
def _public_point(scalar: int) -> "PublicKey":
    # the key object itself, not only its point: every public() of one
    # scalar returns one PublicKey, which encodes its point once
    return PublicKey(point_mul(G, scalar))


def _tagged(tag: str, *chunks: bytes) -> int:
    h = hashlib.sha256(tag.encode())
    for c in chunks:
        h.update(c)
    return int.from_bytes(h.digest(), "big")


@dataclass(frozen=True)
class SecretKey:
    scalar: int

    def __post_init__(self):
        if not 1 <= self.scalar < Q:
            raise CryptoError("secret scalar out of range")

    def public(self) -> "PublicKey":
        # memoized on the scalar: equal keys share one sk*G computation
        return _public_point(self.scalar)

    def hex(self) -> str:
        return self.scalar.to_bytes(32, "big").hex()


@dataclass(frozen=True, slots=True)
class PublicKey:
    point: Tuple[int, int]
    # the 33-byte encoding, computed on first use and kept on the key;
    # equality, hash and repr read only `point`.  Slots, not a __dict__,
    # keep the memoized keys small
    _encoding: Optional[bytes] = field(default=None, init=False, repr=False,
                                       compare=False)
    # the hash a dataclass gives, hash((point,)), computed once: a memo
    # keyed on a member set hashes every member on each lookup
    _hash: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.point,)))

    def __hash__(self) -> int:
        return self._hash

    def encode(self) -> bytes:
        if self._encoding is None:
            object.__setattr__(self, "_encoding", compress(self.point))
        return self._encoding

    def hex(self) -> str:
        return self.encode().hex()


@dataclass(frozen=True)
class Signature:
    R: Tuple[int, int]
    s: int

    def hex(self) -> str:
        return (compress(self.R) + self.s.to_bytes(32, "big")).hex()


@dataclass(frozen=True)
class AggregateKey:
    point: PublicKey
    members: Tuple[PublicKey, ...]  # canonically ordered


@dataclass(frozen=True)
class Fresh:
    pass


@dataclass(frozen=True)
class Fixed:
    r: int

    def __post_init__(self):
        if self.r % Q == 0:
            raise CryptoError("fixed nonce must be nonzero")


def challenge(R: Point, pk: PublicKey, m: bytes) -> int:
    return _challenge(compress(R), pk.encode(), m)


def _challenge(R: bytes, pk: bytes, m: bytes) -> int:
    # H(R || pk || m) over the encodings, reduced mod q
    return _tagged("arksim/challenge", R, pk, m) % Q


def keygen(seed: bytes) -> Tuple[SecretKey, PublicKey]:
    """Deterministically derive a keypair from 256-bit entropy."""
    counter = 0
    while True:
        sk = _tagged("arksim/keygen", seed, counter.to_bytes(4, "big")) % Q
        if sk != 0:
            break
        counter += 1
    secret = SecretKey(sk)
    return secret, secret.public()


def sign(sk: SecretKey, m: bytes, nonce: Fresh | Fixed = Fresh()) -> Signature:
    if not m:
        raise CryptoError("empty message")
    return _signature(sk, m, nonce)


@_insertable_cache(maxsize=_SIGN_CACHE_SIZE)
def _signature(sk: SecretKey, m: bytes, nonce: Fresh | Fixed) -> Signature:
    # a SecretKey hashes and compares by its scalar, so the memo is keyed
    # on every input the body reads
    r = nonce.r % Q if isinstance(nonce, Fixed) else _nonce(sk, m)
    R = point_mul(G, r)
    pk = sk.public()
    s = (r + challenge(R, pk, m) * sk.scalar) % Q
    return Signature(R, s)


def _nonce(sk: SecretKey, m: bytes) -> int:
    # deterministic nonce, unique per (key, message)
    return _tagged("arksim/nonce", sk.scalar.to_bytes(32, "big"), m) % Q or 1


def verify(pk: PublicKey, m: bytes, sig: Signature) -> bool:
    return _verified(pk.point, m, sig.R, sig.s, pk=pk)


def _reduced(p: Point) -> bool:
    return p is not None and 0 <= p[0] < P and 0 <= p[1] < P


@_insertable_cache(maxsize=_CACHE_SIZE)
def _verified(point: Tuple[int, int], m: bytes, R: Point, s: int,
              pk: Optional[PublicKey] = None) -> bool:
    # keyed on every field of (pk, m, sig): a changed bit is a fresh check.
    # `pk`, the key object of `point` when the caller holds one, is a hint:
    # its kept encoding spares a compression.  Only the canonical form
    # verifies, as in BIP340: s + q would pass as a second form of the same
    # signature, a key holder can make R's y + p satisfy the Jacobian
    # equation, and a coordinate of 2**256 or more does not encode at all
    if not (0 <= s < Q and _reduced(R) and _reduced(point)):
        return False
    try:
        key = pk.encode() if pk is not None else compress(point)
        e = _challenge(compress(R), key, m)
        terms = (point_mul(G, s), point_mul(point, Q - e))
    except CryptoError:
        return False
    x, y, z = _jsum(terms)
    # s*G - e*P == R, compared in Jacobian form so no inversion is needed
    return _equals(x, y, z, R)


def _equals(x: int, y: int, z: int, p: Point) -> bool:
    """Whether Jacobian (x, y, z) is the affine point p (None: infinity),
    without an inversion."""
    if p is None or z == 0:
        return p is None and z == 0
    zz = z * z % P
    return x == p[0] * zz % P and y == p[1] * zz * z % P


# --- batch verification ----------------------------------------------------

# Below this many signatures to check, a batch is left to `verify`: see the
# module docstring for the measurement.  A caller that counts fewer
# signatures can skip collecting them.
BATCH_MIN = 16

Check = Tuple[Tuple[int, int], bytes, Signature]


def verify_batch(checks: Iterable[Check]) -> bool:
    """Check the (key point, message, signature) triples the verify memo
    has no verdict for in one equation, and record a `True` verdict for
    each when it holds.  Returns whether every triple is now known to
    verify.  Nothing is recorded for a failed equation, a triple left out
    of it, or a batch below `BATCH_MIN`: `verify` checks those one by
    one, as it would without this call."""
    keys = list(dict.fromkeys((point, m, sig.R, sig.s) for point, m, sig in checks))
    # a triple `verify` rejects before any multiplication stays out, and
    # so does an off-curve point, on which the group law does not hold
    batch = [k for k in keys if _verified.peek(k) is None
             and 0 <= k[3] < Q and _reduced(k[0]) and _reduced(k[2])
             and _on_curve(k[0]) and _on_curve(k[2])]
    if len(batch) >= BATCH_MIN and _batch_holds(batch):
        for k in batch:
            _verified.insert(k, True)
    return all(_verified.peek(k) for k in keys)


def _encodings(batch: Sequence[tuple]) -> dict:
    """The encoding of each distinct key and R in a batch, each compressed
    once, for its coefficients and its challenges."""
    points = dict.fromkeys(p for point, _, R, _ in batch for p in (point, R))
    return {p: compress(p) for p in points}


def _batch_coefficients(batch: Sequence[tuple],
                        encoded: Optional[dict] = None) -> list[int]:
    """a_0 = 1, and a_i for i > 0 the top 128 bits of a hash of the whole
    batch and i (1 in the negligible case that they are 0), so a run is
    deterministic while no signer can choose a batch's coefficients
    without changing the batch."""
    if encoded is None:
        encoded = _encodings(batch)
    h = hashlib.sha256(b"arksim/batch")
    for point, m, R, s in batch:
        h.update(encoded[point] + encoded[R] + s.to_bytes(32, "big")
                 + len(m).to_bytes(4, "big") + m)
    seed = h.digest()
    return [1] + [(_tagged("arksim/batchcoef", seed, i.to_bytes(4, "big")) >> 128) or 1
                  for i in range(1, len(batch))]


def _batch_holds(batch: Sequence[tuple]) -> bool:
    """(sum a_i s_i) * G == sum a_i * R_i + sum (a_i e_i) * P_i."""
    total = 0
    terms = []
    per_key: dict = {}   # a key that signs several times is one term
    encoded = _encodings(batch)
    for a, (point, m, R, s) in zip(_batch_coefficients(batch, encoded), batch):
        total += a * s
        terms.append((a, R))
        e = _challenge(encoded[R], encoded[point], m)
        per_key[point] = per_key.get(point, 0) + a * e
    for point, n in _folded(per_key).items():
        terms.extend(_glv_terms(point, n % Q))
    return _equals(*_multi_mul(terms), point_mul(G, total))


def _folded(per_key: dict) -> dict:
    """The key terms n * P of a batch equation, with each aggregate key
    P = sum c_j P_j whose members the aggregate memo vouches for replaced
    by its members' terms (n c_j) * P_j, summed per point; or the terms
    as they are, unless that leaves fewer points."""
    members = {}
    for point in per_key:
        found = _members_of.peek((point,))
        if found is not None:
            known = _aggregate_members.peek((found,))
            # `_multi_mul` adds in affine coordinates, which needs them reduced
            if known is not None and known.point.point == point \
                    and all(_reduced(pk.point) for pk in found):
                members[point] = found
    points = {p for p in per_key if p not in members}
    points.update(pk.point for found in members.values() for pk in found)
    if len(points) >= len(per_key):
        return per_key
    out = {p: n for p, n in per_key.items() if p not in members}
    for point, found in members.items():
        n = per_key[point]
        for pk, coef in zip(found, _coefficients(found)):
            out[pk.point] = out.get(pk.point, 0) + n * coef
    return out


def _glv_terms(p: Tuple[int, int], n: int) -> Tuple[Tuple[int, Tuple[int, int]], ...]:
    """n * p as two terms k * p' with 0 <= k < 2**129: the GLV halves over
    p and lambda * p, each point negated where its half is negative."""
    k1, k2 = glv_split(n)
    x, y = p
    return ((abs(k1), (x, y if k1 >= 0 else P - y)),
            (abs(k2), (BETA * x % P, y if k2 >= 0 else P - y)))


def _window(terms: int) -> int:
    """The digit width that minimises the estimated additions of
    `_multi_mul` over 130-bit scalars: per window one mixed addition a
    term, and two additions a bucket."""
    return min(range(1, 13), key=lambda c: (130 // c + 1) * (terms + 2 ** c))


# `_multi_mul` sums the buckets of this many windows in one `_affine_sums`
# pass.  On a 2-core x86 machine, all windows in one pass saved at most 5%
# more time and held about 1 MB more at 257 terms
_WINDOW_GROUP = 4


def _multi_mul(terms: Sequence[Tuple[int, Tuple[int, int]]]) -> Tuple[int, int, int]:
    """sum k * p over the terms, k >= 0, p affine, reduced and on the
    curve, in Jacobian form, by Pippenger's bucket method over signed
    digits: no comb table, one chain of doublings for all terms.  Each
    bucket's points are added in affine coordinates (`_affine_sums`, one
    inversion per level across the buckets of `_WINDOW_GROUP` windows);
    a bucket that meets equal x is summed in Jacobian form instead."""
    c = _window(len(terms))
    half, full, mask = 1 << (c - 1), 1 << c, (1 << c) - 1
    windows = max(k.bit_length() for k, _ in terms) // c + 1
    # each scalar as `windows` signed digits in (-half, half], least first
    digits = []
    for k, _ in terms:
        row = []
        for _ in range(windows):
            d = k & mask
            k >>= c
            if d > half:
                d -= full
                k += 1
            row.append(d)
        digits.append(row)
    points = [(p, (p[0], P - p[1])) for _, p in terms]
    acc = _INF
    for top in range(windows - 1, -1, -_WINDOW_GROUP):
        group = range(top, max(top - _WINDOW_GROUP, -1), -1)
        # bucket j of the group's i-th window, most significant first, is
        # buckets[i * half + j - 1]: the points whose digit there is j, and
        # the negations of those whose digit is -j
        buckets = [[] for _ in range(len(group) * half)]
        for row, (p, neg) in zip(digits, points):
            for base, w in zip(range(0, len(buckets), half), group):
                d = row[w]
                if d > 0:
                    buckets[base + d - 1].append(p)
                elif d < 0:
                    buckets[base - d - 1].append(neg)
        sums = _affine_sums([b or None for b in buckets])
        for base in range(0, len(buckets), half):
            for _ in range(c):
                acc = _jdbl(*acc)
            # sum of j * bucket j, as running sums from the top bucket down
            running = window = _INF
            for j in range(base + half - 1, base - 1, -1):
                if sums[j] is not None:
                    running = _jadd_affine(*running, sums[j])
                elif buckets[j]:
                    running = _jadd(*running, *_jsum(buckets[j]))
                window = _jadd(*window, *running)
            acc = _jadd(*acc, *window)
    return acc


def _sorted_members(pks: Iterable[PublicKey]) -> Tuple[PublicKey, ...]:
    return tuple(sorted(pks, key=PublicKey.encode))


def _coefficients(members: Sequence[PublicKey]) -> list[int]:
    setdigest = b"".join(p.encode() for p in members)
    return [_tagged("arksim/aggcoef", setdigest, p.encode()) % Q for p in members]


def aggregate(pks: Iterable[PublicKey]) -> AggregateKey:
    members = _sorted_members(pks)
    if not members:
        raise CryptoError("empty member set")
    if len(set(members)) != len(members):
        raise CryptoError("duplicate member")
    return _aggregate_members(members)


@_insertable_cache(maxsize=_CACHE_SIZE)
def _aggregate_members(members: Tuple[PublicKey, ...]) -> AggregateKey:
    x, y, z = _jsum(point_mul(pk.point, coef)
                    for pk, coef in zip(members, _coefficients(members)))
    if z == 0:
        raise CryptoError("degenerate aggregate key")
    point = _affine(x, y, z)
    _members_of.insert((point,), members)
    return AggregateKey(PublicKey(point), members)


@_insertable_cache(maxsize=_CACHE_SIZE)
def _members_of(point: Tuple[int, int]) -> Optional[Tuple[PublicKey, ...]]:
    # point -> the member set it aggregates, as `_aggregate_members` and
    # `aggregate_batch` record it for `_folded`, which only peeks: there
    # is nothing to compute from a point alone
    return None


def aggregate_secret(signers: Sequence[SecretKey]) -> SecretKey:
    return _aggregate_secret(tuple(signers))


@_insertable_cache(maxsize=_CACHE_SIZE)
def _aggregate_secret(signers: Tuple[SecretKey, ...]) -> SecretKey:
    # keyed on the signer list as given, not sorted (see the module
    # docstring): a hit costs no public() lookup and no sort
    members = _sorted_members(sk.public() for sk in signers)
    by_pk = {sk.public(): sk for sk in signers}
    total = 0
    for pk, coef in zip(members, _coefficients(members)):
        total = (total + coef * by_pk[pk].scalar) % Q
    return SecretKey(total)


def cosign(
    tx_digest: bytes,
    signers: Sequence[SecretKey],
    expected: AggregateKey | None = None,
) -> Signature:
    """One simulated n-of-n signing session.

    `expected` pins the member set of the lock being satisfied; any
    mismatch (an absent or refusing signer) aborts with no output.
    """
    if not signers:
        raise SessionAborted("no signers present")
    present = _sorted_members(sk.public() for sk in signers)
    if len(set(present)) != len(present):
        raise SessionAborted("duplicate signer")
    if expected is not None and present != expected.members:
        raise SessionAborted("signer set does not match the aggregate key")
    return sign(aggregate_secret(signers), tx_digest)


def extract_secret(
    pk: PublicKey, m1: bytes, sig1: Signature, m2: bytes, sig2: Signature
) -> SecretKey:
    """Recover the private key from two signatures sharing a nonce:
    sk = (s1 - s2) / (H(R||pk||m1) - H(R||pk||m2)) mod q."""
    if m1 == m2:
        raise CryptoError("messages must differ")
    if sig1.R != sig2.R:
        raise NotReused("nonce commitments differ")
    if not (verify(pk, m1, sig1) and verify(pk, m2, sig2)):
        raise CryptoError("signatures do not verify under pk")
    denom = (challenge(sig1.R, pk, m1) - challenge(sig2.R, pk, m2)) % Q
    if denom == 0:
        raise HashCollision("challenge hashes coincide mod q")
    sk = (sig1.s - sig2.s) * pow(denom, -1, Q) % Q
    return SecretKey(sk)


# --- batched curve work ----------------------------------------------------

# Below this many fresh comb terms (members summed over the member sets the
# aggregate memo lacks), `aggregate_batch` leaves the sets to `aggregate`;
# below this many fresh signatures, `sign_batch` leaves the pairs to
# `sign`.  See the module docstring for the measurements.
AGGREGATE_BATCH_MIN = 20
SIGN_BATCH_MIN = 8
# `sign_batch` records at most this many signatures before it reads them
# back, so that the signing memo still holds them all
_SIGN_CHUNK = _SIGN_CACHE_SIZE // 2
# `sign_batch` sums this many scalars' G-table entries at a time
_G_GROUP = 32


def _affine_sums(lists: Sequence[list]) -> list:
    """The sum of each nonempty list of finite affine points, or None for
    a list that meets an addition of two points with equal x (a doubling,
    or a sum to infinity).  Each list is summed pairwise, level by level,
    and one `_batch_inverse` serves every addition of a level across all
    the lists."""
    lists = list(lists)
    while True:
        left, right, spans = [], [], []
        for j, pts in enumerate(lists):
            if pts is not None and len(pts) > 1:
                b = pts[1::2]
                spans.append((j, len(left), len(b)))
                left += pts[0:2 * len(b):2]
                right += b
        if not spans:
            return [None if pts is None else pts[0] for pts in lists]
        # the coordinates are reduced, so x1 == x2 exactly when a gap is 0
        gaps = [x2 - x1 for (x1, _), (x2, _) in zip(left, right)]
        if 0 in gaps:
            for j, start, half in spans:
                if 0 in gaps[start:start + half]:
                    lists[j] = None
            continue
        sums = []
        for (x1, y1), (x2, y2), inv in zip(left, right, _batch_inverse(gaps)):
            lam = (y2 - y1) * inv % P
            x3 = (lam * lam - x1 - x2) % P
            sums.append((x3, (lam * (x1 - x3) - y1) % P))
        for j, start, half in spans:
            lists[j] = sums[start:start + half] + lists[j][2 * half:]


def _affine_doubles(points: Sequence[Tuple[int, int]]) -> list:
    """2p for each finite affine point p, with one batched inversion (no
    point of secp256k1 has y == 0)."""
    out = []
    for (x, y), inv in zip(points, _batch_inverse([2 * y for _, y in points])):
        lam = 3 * x * x * inv % P
        nx = (lam * lam - 2 * x) % P
        out.append((nx, (lam * (x - nx) - y) % P))
    return out


def aggregate_batch(member_sets: Iterable[Iterable[PublicKey]]) -> None:
    """Record in the aggregate memo the key of every member set it lacks,
    as `aggregate` would compute it, in one multi-comb pass over all of
    them.  Sets `aggregate` would reject, sets with a member off the curve
    or unreduced, and sets whose sum meets equal x are left out: nothing is
    recorded for them, and `aggregate` computes or rejects each one itself."""
    member_sets = [tuple(pks) for pks in member_sets]
    # the terms of every set bound the fresh ones: below the minimum, no
    # set is sorted or looked up
    if sum(map(len, member_sets)) < AGGREGATE_BATCH_MIN:
        return
    fresh: dict = {}
    for pks in member_sets:
        # a point that does not encode cannot be sorted; aggregate rejects it
        if not all(_reduced(pk.point) for pk in pks):
            continue
        members = _sorted_members(pks)
        if (members and _aggregate_members.peek((members,)) is None
                and len(set(members)) == len(members)
                and all(_on_curve(pk.point) for pk in members)):
            fresh[members] = None
    if sum(map(len, fresh)) < AGGREGATE_BATCH_MIN:
        return
    # each distinct base's comb table, fetched once, and the same sums of
    # lambda * p, which the second GLV half reads
    tables: dict = {}
    live, accs = [], []
    for members in fresh:
        halves, tail = [], []   # (table, columns) per GLV half of each term
        for pk, coef in zip(members, _coefficients(members)):
            if coef % Q:
                p = pk.point
                if p not in tables:
                    table = _comb_table(p)
                    tables[p] = table, [(BETA * x % P, y) for x, y in table]
                k1, k2, extra = _comb_halves(p, coef % Q)
                table, twisted = tables[p]
                halves += [(table, _comb_columns(k1)), (twisted, _comb_columns(k2))]
                tail += extra
        if halves:
            live.append((members, halves, tail))
            accs.append(None)
    # Horner over the 22 columns, most significant first: each sum is
    # doubled, then gains one entry per GLV half of each term
    last = _COMB_SPACING - 1
    for c in range(_COMB_SPACING):
        lists = []
        for (_, halves, tail), acc in zip(live, _affine_doubles(accs) if c else accs):
            pts = [] if acc is None else [acc]
            for table, columns in halves:
                i, negate = columns[c]
                entry = table[i]
                pts.append((entry[0], P - entry[1]) if negate else entry)
            lists.append(pts + tail if c == last else pts)
        kept = [(entry, s) for entry, s in zip(live, _affine_sums(lists)) if s is not None]
        live, accs = [e for e, _ in kept], [s for _, s in kept]
    for (members, _, _), point in zip(live, accs):
        _aggregate_members.insert((members,), AggregateKey(PublicKey(point), members))
        _members_of.insert((point,), members)


def _g_multiples(scalars: Sequence[int]) -> list:
    """n * G for each 0 < n < q, or None where a sum meets equal x: each
    n's entries summed in `_affine_sums`, in groups of `_G_GROUP` scalars,
    so that only one group's entries are held at once."""
    out = []
    for i in range(0, len(scalars), _G_GROUP):
        out += _affine_sums([_g_entries(n) for n in scalars[i:i + _G_GROUP]])
    return out


def sign_batch(pairs: Iterable[Tuple[SecretKey | Sequence[SecretKey], bytes]]) -> list:
    """The signature of each pair, in order: a secret and a message, signed
    as `sign` signs it, or a session's signers and a message, signed as
    `cosign` signs it, under their aggregate secret.  A session without
    signers and an empty message are rejected as there, before any pair is
    signed.  Each chunk's fresh signatures are recorded, then read back
    through `sign`."""
    keyed = []
    for signer, m in pairs:
        if isinstance(signer, SecretKey):
            sk = signer
        elif signer:
            sk = aggregate_secret(signer)
        else:
            raise SessionAborted("no signers present")
        if not m:
            raise CryptoError("empty message")
        keyed.append((sk, m, signer))
    sigs = []
    for i in range(0, len(keyed), _SIGN_CHUNK):
        chunk = keyed[i:i + _SIGN_CHUNK]
        _record_signatures(chunk)
        sigs += [sign(sk, m) for sk, m, _ in chunk]
    return sigs


def _record_signatures(chunk: Sequence[tuple]) -> None:
    """Record in the signing memo the signature of each (secret, message,
    signer) it lacks, from `SIGN_BATCH_MIN` of them up, each nonce point
    and signing key from the G table in one pass.  A session's key is taken
    from the aggregate memo when that holds the key of exactly its signers'
    keys: sum a_i x_i * G is sum a_i P_i.  A pair whose nonce point or key
    meets equal x is left to `sign`."""
    nonces: dict = {}     # memo key -> nonce
    sessions: dict = {}   # aggregate secret's scalar -> its signers
    for sk, m, signer in chunk:
        if not isinstance(signer, SecretKey):
            sessions[sk.scalar] = signer
        key = (sk, m, Fresh())
        if key not in nonces and _signature.peek(key) is None:
            nonces[key] = _nonce(sk, m)
    if len(nonces) < SIGN_BATCH_MIN:
        return
    keys = {sk.scalar: _public_point.peek((sk.scalar,)) for sk, _, _ in nonces}
    for n, pk in keys.items():
        if pk is None and n in sessions:
            members = _sorted_members(s.public() for s in sessions[n])
            known = _aggregate_members.peek((members,))
            if known is not None:
                keys[n] = known.point
                _public_point.insert((n,), known.point)
    missing = [n for n, pk in keys.items() if pk is None]
    points = _g_multiples([*nonces.values(), *missing])
    for n, point in zip(missing, points[len(nonces):]):
        if point is not None:
            keys[n] = PublicKey(point)
            _public_point.insert((n,), keys[n])
    for (key, r), R in zip(nonces.items(), points):
        sk, m, _ = key
        pk = keys[sk.scalar]
        if R is not None and pk is not None:
            e = _challenge(compress(R), pk.encode(), m)
            _signature.insert(key, Signature(R, (r + e * sk.scalar) % Q))
