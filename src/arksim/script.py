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
from typing import Iterator, Tuple, Union

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


def _eval(p: Predicate, sigs: Iterator[Signature], ctx: SpendContext) -> bool:
    if isinstance(p, CheckSig):
        sig = next(sigs, None)
        return sig is not None and crypto.verify(p.pk, ctx.tx_digest, sig)
    if isinstance(p, CheckAggSig):
        sig = next(sigs, None)
        return sig is not None and crypto.verify(p.key.point, ctx.tx_digest, sig)
    if isinstance(p, NonceBound):
        sig = next(sigs, None)
        return (sig is not None and sig.R == p.r_star
                and crypto.verify(p.pk, ctx.tx_digest, sig))
    if isinstance(p, AbsTimelock):
        return ctx.chain_height >= p.height
    if isinstance(p, RelTimelock):
        return ctx.chain_height >= ctx.input_confirm_height + p.blocks
    if isinstance(p, AlwaysTrue):
        return True
    if isinstance(p, And):
        return all(_eval(c, sigs, ctx) for c in p.children)
    return False


def evaluate(lock: LockScript, wit: Witness, ctx: SpendContext) -> bool:
    if wit.path_index == KEY_PATH:
        if isinstance(lock.internal_key, Unspendable):
            return False
        sig = wit.signatures[0] if wit.signatures else None
        return sig is not None and crypto.verify(lock.internal_key, ctx.tx_digest, sig)
    if _commitment(lock.internal_key, wit.revealed_paths) != lock.commitment:
        return False
    if not 0 <= wit.path_index < len(wit.revealed_paths):
        return False
    return _eval(wit.revealed_paths[wit.path_index], iter(wit.signatures), ctx)
