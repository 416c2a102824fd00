"""Independent Schnorr verification for the benchmark's output checks.

Written from the scheme that arksim's crypto module documents: a
signature (R, s) on message m under key P verifies when
R = s*G - H(R || P || m)*P, with H a SHA-256 tagged "arksim/challenge"
over the compressed points and the message, reduced mod the group order.
The arithmetic here is affine and most-significant-bit first, sharing no
code with the package's Jacobian ladder, so a fault in either shows as a
disagreement.
"""

from __future__ import annotations

import hashlib
from typing import Iterator, Optional, Tuple

from arksim import script

# secp256k1 domain parameters (SEC 2, section 2.4.1)
P = 2 ** 256 - 2 ** 32 - 977
N = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141
G = (0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798,
     0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8)

Point = Optional[Tuple[int, int]]


def _add(a: Point, b: Point) -> Point:
    if a is None:
        return b
    if b is None:
        return a
    if a[0] == b[0]:
        if (a[1] + b[1]) % P == 0:
            return None
        slope = 3 * a[0] * a[0] * pow(2 * a[1], P - 2, P) % P
    else:
        slope = (b[1] - a[1]) * pow(b[0] - a[0], P - 2, P) % P
    x = (slope * slope - a[0] - b[0]) % P
    return x, (slope * (a[0] - x) - a[1]) % P


def _mul(k: int, point: Point) -> Point:
    acc: Point = None
    for bit in bin(k % N)[2:]:
        acc = _add(acc, acc)
        if bit == "1":
            acc = _add(acc, point)
    return acc


# scalar for `reference_work`: a fixed 128-bit value, so every call does
# the same 127 doublings and the same additions
_REFERENCE_SCALAR = 0xC0FFEE1234567890ABCDEF1234567891


def reference_work() -> None:
    """One fixed scalar multiplication.  Its time tracks how fast this
    machine runs big-integer arithmetic at the moment, which is what the
    package's own time is spent on."""
    _mul(_REFERENCE_SCALAR, G)


def _compressed(point: Tuple[int, int]) -> bytes:
    return bytes([2 + (point[1] & 1)]) + point[0].to_bytes(32, "big")


def on_curve(point: Tuple[int, int]) -> bool:
    x, y = point
    return (y * y - x * x * x - 7) % P == 0


def verify(pk: Tuple[int, int], msg: bytes, R: Tuple[int, int], s: int) -> bool:
    if not (on_curve(pk) and on_curve(R)):
        return False
    h = hashlib.sha256(b"arksim/challenge" + _compressed(R) + _compressed(pk)
                       + msg).digest()
    e = int.from_bytes(h, "big") % N
    return _add(_mul(s, G), _mul(N - e, pk)) == R


def _signed_keys(predicate) -> Iterator[Tuple[int, int]]:
    """Public keys whose signatures a revealed script path consumes, in
    the order the witness supplies them."""
    if isinstance(predicate, (script.CheckSig, script.NonceBound)):
        yield predicate.pk.point
    elif isinstance(predicate, script.CheckAggSig):
        yield predicate.key.point.point
    elif isinstance(predicate, script.And):
        for child in predicate.children:
            yield from _signed_keys(child)


def chain_signatures(chain) -> Iterator[tuple]:
    """(public key, message, R, s) for every signature in a witness of a
    transaction confirmed on `chain`."""
    for block in chain.blocks:
        for txid in block:
            tx = chain.records[txid].tx
            msg = tx.digest()
            for op, wit in zip(tx.ins, tx.wits):
                spent = chain.records[op.txid].tx.outs[op.index].lock
                if wit.path_index == script.KEY_PATH:
                    keys = [spent.internal_key.point]
                else:
                    keys = list(_signed_keys(wit.revealed_paths[wit.path_index]))
                for pk, sig in zip(keys, wit.signatures):
                    yield pk, msg, sig.R, sig.s
