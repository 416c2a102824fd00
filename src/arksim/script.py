"""Taproot-style locking scripts as predicate ASTs, witnesses, and
evaluation against a spending context.

A lock commits to an optional internal key plus an ordered list of
script-path predicates via a flat hash (standing in for the Merkle
tree); a witness names one path, reveals the full path list, and
supplies the signatures its predicates consume in AST order.

`taproot` returns locks from a bounded least-recently-used memo keyed on
`(internal key, tuple of paths)`, so equal locks are one shared object:
its commitment is hashed once, and its canonical JSON text (`json_text`,
which `Tx.txid` reuses) is encoded at most once.  `evaluate` checks the
revealed paths against the same memo.  A hit equals a fresh build
because the key holds every input the build reads: the predicates are
frozen dataclasses compared by value, and equal values encode alike
(keys and points encode through `compress`, and a timelock refuses a
bool or float, which would equal an int but encode differently).  The bound of 512 is
the smallest power of two that loses no hit on the benchmark workloads:
at seed 1 over 15 s they build 23 (`adversarial_traces`), 800
(`payment_stream`, at most 512 of them in use together) and about 450
distinct locks per `wide_batch` pass, which at 256 lost 315 of its 3,265
hits.  `wide_batch`'s peak RSS (28.3 MB without the memo) rose by about
0.4 MB at 256 entries, 0.5 MB at 512 and 1.6 MB at 4096, where every
lock of a run stays resident.  At 512, the 513 locks alive after a run
hold 305 KiB of cached text.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cached_property, lru_cache
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


def _require_int(name: str, value) -> None:
    # a bool or float equals an int but encodes differently, so it would
    # share that int's entry in the lock memo under another commitment
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an int, got {value!r}")


@dataclass(frozen=True)
class AbsTimelock:
    height: int

    def __post_init__(self):
        _require_int("height", self.height)


@dataclass(frozen=True)
class RelTimelock:
    blocks: int

    def __post_init__(self):
        _require_int("blocks", self.blocks)


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

    @cached_property
    def json_text(self) -> str:
        """`json()` as canonical JSON text (sorted keys, no spaces), which
        `Tx.txid` splices into its blob."""
        return _canonical(self.json())


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _commitment(internal: Union[PublicKey, Unspendable], paths: Tuple[Predicate, ...]) -> bytes:
    body = {
        "internal_key": None if isinstance(internal, Unspendable) else internal.hex(),
        "paths": [predicate_json(p) for p in paths],
    }
    return hashlib.sha256(b"arksim/lock" + _canonical(body).encode()).digest()


# Bound on the lock memo: see the module docstring for the measurement.
_LOCK_CACHE_SIZE = 512


@lru_cache(maxsize=_LOCK_CACHE_SIZE)
def _lock(internal: Union[PublicKey, Unspendable], paths: Tuple[Predicate, ...]) -> LockScript:
    return LockScript(internal, paths, _commitment(internal, paths))


def taproot(internal: Union[PublicKey, Unspendable], paths: list[Predicate] | Tuple[Predicate, ...]) -> LockScript:
    paths = tuple(paths)
    if isinstance(internal, Unspendable) and not paths:
        raise ValueError("unspendable key path requires at least one script path")
    return _lock(internal, paths)


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
    # a list of revealed paths from outside cannot key the memo; its tuple can
    if (wit.path_index != KEY_PATH
            and _lock(lock.internal_key, tuple(wit.revealed_paths)).commitment
            != lock.commitment):
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
