"""Taproot-style locking scripts as predicate ASTs, witnesses, and
evaluation against a spending context.

A lock commits to an optional internal key plus an ordered list of
script-path predicates via a flat hash (standing in for the Merkle
tree); a witness names one path, reveals the full path list, and
supplies the signatures its predicates consume in AST order.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Callable, Iterator, List, Tuple, Union

from . import crypto
from .crypto import AggregateKey, PublicKey, Signature


class Unspendable:
    """Disabled key path (the lock's internal key is False)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Unspendable"


UNSPENDABLE = Unspendable()

KEY_PATH = -1


@dataclass(frozen=True)
class CheckSig:
    pk: PublicKey


@dataclass(frozen=True)
class CheckAggSig:
    key: AggregateKey


@dataclass(frozen=True)
class AbsTimelock:
    height: int


@dataclass(frozen=True)
class RelTimelock:
    blocks: int


@dataclass(frozen=True)
class NonceBound:
    """Signature check that additionally pins the nonce commitment,
    modeling the range-check script that forces R = R_star."""

    pk: PublicKey
    r_star: Tuple[int, int]


@dataclass(frozen=True)
class AlwaysTrue:
    """Dust anchor predicate; any witness satisfies it."""


@dataclass(frozen=True)
class And:
    children: Tuple["Predicate", ...]

    def __init__(self, *children: "Predicate"):
        object.__setattr__(self, "children", tuple(children))


Predicate = Union[CheckSig, CheckAggSig, AbsTimelock, RelTimelock, NonceBound, AlwaysTrue, And]


def predicate_json(p: Predicate) -> dict:
    if isinstance(p, CheckSig):
        return {"kind": "checksig", "pk": p.pk.hex()}
    if isinstance(p, CheckAggSig):
        return {"kind": "checkaggsig", "pk": p.key.point.hex(),
                "members": [m.hex() for m in p.key.members]}
    if isinstance(p, AbsTimelock):
        return {"kind": "abstimelock", "blocks": p.height}
    if isinstance(p, RelTimelock):
        return {"kind": "reltimelock", "blocks": p.blocks}
    if isinstance(p, NonceBound):
        return {"kind": "noncebound", "pk": p.pk.hex(),
                "nonce": crypto.compress(p.r_star).hex()}
    if isinstance(p, AlwaysTrue):
        return {"kind": "anchor"}
    if isinstance(p, And):
        return {"kind": "and", "children": [predicate_json(c) for c in p.children]}
    raise TypeError(f"unknown predicate {p!r}")


@dataclass(frozen=True)
class LockScript:
    internal_key: Union[PublicKey, Unspendable]
    paths: Tuple[Predicate, ...]
    commitment: bytes

    def json(self) -> dict:
        internal = None if isinstance(self.internal_key, Unspendable) else self.internal_key.hex()
        return {"internal_key": internal,
                "paths": [predicate_json(p) for p in self.paths],
                "commitment": self.commitment.hex()}


def _commitment(internal: Union[PublicKey, Unspendable], paths: Tuple[Predicate, ...]) -> bytes:
    body = {
        "internal_key": None if isinstance(internal, Unspendable) else internal.hex(),
        "paths": [predicate_json(p) for p in paths],
    }
    blob = json.dumps(body, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(b"arksim/lock" + blob).digest()


def taproot(internal: Union[PublicKey, Unspendable], paths: list[Predicate] | Tuple[Predicate, ...]) -> LockScript:
    paths = tuple(paths)
    if isinstance(internal, Unspendable) and not paths:
        raise ValueError("unspendable key path requires at least one script path")
    return LockScript(internal, paths, _commitment(internal, paths))


@dataclass(frozen=True)
class Witness:
    path_index: int  # KEY_PATH for the key-path spend
    signatures: Tuple[Signature, ...] = ()
    revealed_paths: Tuple[Predicate, ...] = ()


@dataclass(frozen=True)
class SpendContext:
    chain_height: int
    input_confirm_height: int
    tx_digest: bytes


# what a walk does at each signature: (key, message, signature) -> verdict
Verifier = Callable[[PublicKey, bytes, Signature], bool]


def _eval(p: Predicate, sigs: Iterator[Signature], ctx: SpendContext, check: Verifier) -> bool:
    if isinstance(p, CheckSig):
        sig = next(sigs, None)
        return sig is not None and check(p.pk, ctx.tx_digest, sig)
    if isinstance(p, CheckAggSig):
        sig = next(sigs, None)
        return sig is not None and check(p.key.point, ctx.tx_digest, sig)
    if isinstance(p, NonceBound):
        sig = next(sigs, None)
        return (sig is not None and sig.R == p.r_star
                and check(p.pk, ctx.tx_digest, sig))
    if isinstance(p, AbsTimelock):
        return ctx.chain_height >= p.height
    if isinstance(p, RelTimelock):
        return ctx.chain_height >= ctx.input_confirm_height + p.blocks
    if isinstance(p, AlwaysTrue):
        return True
    if isinstance(p, And):
        return all(_eval(c, sigs, ctx, check) for c in p.children)
    return False


def _walk(lock: LockScript, wit: Witness, ctx: SpendContext, check: Verifier) -> bool:
    """Evaluate the witness's path with `check` for each signature; the
    path commitment is left to the caller."""
    if wit.path_index == KEY_PATH:
        if isinstance(lock.internal_key, Unspendable):
            return False
        sig = wit.signatures[0] if wit.signatures else None
        return sig is not None and check(lock.internal_key, ctx.tx_digest, sig)
    if not 0 <= wit.path_index < len(wit.revealed_paths):
        return False
    return _eval(wit.revealed_paths[wit.path_index], iter(wit.signatures), ctx, check)


def evaluate(lock: LockScript, wit: Witness, ctx: SpendContext) -> bool:
    if (wit.path_index != KEY_PATH
            and _commitment(lock.internal_key, wit.revealed_paths) != lock.commitment):
        return False
    return _walk(lock, wit, ctx, crypto.verify)


def signature_checks(lock: LockScript, wit: Witness,
                     ctx: SpendContext) -> List[crypto.Check]:
    """The (key point, message, signature) triples `evaluate` passes to
    `crypto.verify` when each of them verifies, for `crypto.verify_batch`.
    The path commitment, a hash of every revealed path, is not checked: a
    spend it would reject only costs the batch the work of its triples."""
    found: List[crypto.Check] = []

    def collect(pk: PublicKey, m: bytes, sig: Signature) -> bool:
        found.append((pk.point, m, sig))
        return True

    _walk(lock, wit, ctx, collect)
    return found
