"""Construction of the commit-chain artifacts: VTXO locks, virtual
transaction trees (VTXTs), batch and connector outputs, and the
boarding / reset / ark / forfeit transaction templates.

A VTXO lock has an unspendable key path, at least one collaborative path
requiring the operator's signature, and at least one unilateral path
delayed by t_u.  A batch output commits to a VTXT whose internal nodes
reuse the batch lock shape (operator sweep after expiry + cosigner
unroll), so the recursive sweep works at every level.

A `Vtxt` holds only the funding outpoint, the output it names
(`funding_out`), the txs (root first, in preorder) and the leaves.  The
output a node spends, its cosigners (that output's cosigned key), a leaf's
path and a batch's expiry are derived from them, so whoever reads them
reads what was signed, not a copy of it.

The lock readers `collab_aggregate`, `cosigners`, `nonce_bound_path` and
`sweep_path` are the one source of signer sets and path indices: every
spend takes the index of the path it satisfies, and for a cosigned path its
aggregate key, from the lock it spends, never from the position a builder
put it at or from a member list rebuilt out of wallet keys.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from . import crypto
from .crypto import AggregateKey, PublicKey
from .ledger import OutPoint, Output, Tx, value_fault
from .script import (
    UNSPENDABLE,
    AbsTimelock,
    AlwaysTrue,
    And,
    CheckAggSig,
    CheckSig,
    LockScript,
    NonceBound,
    Predicate,
    RelTimelock,
    taproot,
)


class ArkError(Exception):
    pass


def p2pk(pk: PublicKey) -> LockScript:
    """Plain key-path output."""
    return taproot(pk, ())


# the anyone-can-spend anchor output's lock, built once: a LockScript is
# frozen and compares by value, so every anchor shares this one
ANCHOR_LOCK = taproot(UNSPENDABLE, [AlwaysTrue()])


@dataclass
class Vtxo:
    value: int
    lock: LockScript
    owner: str
    owner_pk: PublicKey
    expiry: int = 0                  # T_e of the batch it descends from
    outpoint: Optional[OutPoint] = None

    def key(self) -> Tuple[str, int]:
        if self.outpoint is None:
            raise ArkError("VTXO has no outpoint yet")
        return (self.outpoint.txid, self.outpoint.index)


def vtxo_lock(owner: PublicKey, operator: PublicKey, t_u: int,
              r_star: Optional[Tuple[int, int]] = None) -> LockScript:
    """Single-signature VTXO lock: collaborative owner+operator path and
    a t_u-delayed unilateral owner path.  With r_star set, the
    collaborative path pins the operator's nonce commitment and checks
    the owner's signature separately (fast-finality variant)."""
    if t_u <= 0:
        raise ArkError("unilateral delay must be positive")
    if r_star is None:
        collab: Predicate = CheckAggSig(crypto.aggregate([owner, operator]))
    else:
        collab = And(NonceBound(operator, r_star), CheckSig(owner))
    unilateral = And(CheckSig(owner), RelTimelock(t_u))
    return taproot(UNSPENDABLE, [collab, unilateral])


def _requires_key(p: Predicate, pk: PublicKey) -> bool:
    if isinstance(p, CheckSig) or isinstance(p, NonceBound):
        return p.pk == pk
    if isinstance(p, CheckAggSig):
        return pk in p.key.members
    if isinstance(p, And):
        return any(_requires_key(c, pk) for c in p.children)
    return False


def _min_rel_delay(p: Predicate) -> int:
    if isinstance(p, RelTimelock):
        return p.blocks
    if isinstance(p, And):
        return max((_min_rel_delay(c) for c in p.children), default=0)
    return 0


def classify_paths(lock: LockScript, operator: PublicKey, t_u: int
                   ) -> Tuple[List[int], List[int]]:
    """Split a lock's paths into collaborative (operator-required) and
    valid unilateral (operator-free, delayed >= t_u) path indices;
    raises unless the lock satisfies the VTXO definition."""
    if not isinstance(lock.internal_key, type(UNSPENDABLE)):
        raise ArkError("VTXO key path must be unspendable")
    collab, unilateral = [], []
    for i, p in enumerate(lock.paths):
        if _requires_key(p, operator):
            collab.append(i)
        elif _min_rel_delay(p) >= t_u:
            unilateral.append(i)
        else:
            raise ArkError(f"path {i} neither requires the operator nor waits t_u")
    if not collab:
        raise ArkError("no collaborative path")
    if not unilateral:
        raise ArkError("no unilateral path")
    return collab, unilateral


def collab_aggregate(lock: LockScript) -> Tuple[int, AggregateKey]:
    """Index and aggregate key of the collaborative CheckAggSig path,
    whichever operator it names."""
    for i, p in enumerate(lock.paths):
        if isinstance(p, CheckAggSig):
            return i, p.key
    raise ArkError("no aggregate collaborative path")


def cosigners(lock: LockScript) -> Set[PublicKey]:
    """Every key that one of the lock's cosigned paths names."""
    return {m for p in lock.paths if isinstance(p, CheckAggSig) for m in p.key.members}


def _fixed_nonce(p: Predicate) -> Optional[Tuple[int, int]]:
    if isinstance(p, NonceBound):
        return p.r_star
    if isinstance(p, And):
        return next(filter(None, map(_fixed_nonce, p.children)), None)
    return None


def nonce_bound_path(lock: LockScript) -> Optional[Tuple[int, Tuple[int, int]]]:
    """Index of a lock's nonce-bound path and the operator nonce `r*` it
    fixes, if it has one: a fast-finality VTXO's lock or its reset's."""
    for i, p in enumerate(lock.paths):
        r_star = _fixed_nonce(p)
        if r_star is not None:
            return i, r_star
    return None


def batch_lock(operator: PublicKey, cosigners: AggregateKey, expiry: int) -> LockScript:
    """Batch-shaped output: operator sweep after expiry, cosigner unroll."""
    sweep = And(CheckSig(operator), AbsTimelock(expiry))
    unroll = CheckAggSig(cosigners)
    return taproot(UNSPENDABLE, [sweep, unroll])


BATCH_SWEEP_PATH = 0
BATCH_UNROLL_PATH = 1


def sweep_path(lock: LockScript) -> Optional[Tuple[int, int]]:
    """Index and expiry height of a lock's sweep path, if it has one."""
    for i, p in enumerate(lock.paths):
        if isinstance(p, And):
            locks = [c for c in p.children if isinstance(c, AbsTimelock)]
            sigs = [c for c in p.children if isinstance(c, CheckSig)]
            if locks and sigs:
                return i, locks[0].height
    return None


def sweep_path_height(lock: LockScript) -> Optional[int]:
    """Expiry height of a batch-shaped lock, if it has one."""
    return (sweep_path(lock) or (None, None))[1]


@dataclass
class LeafRef:
    txid: str
    vtxo: Vtxo


@dataclass
class Vtxt:
    funding: OutPoint
    funding_out: Output
    txs: Dict[str, Tx] = field(default_factory=dict)
    leaves: List[LeafRef] = field(default_factory=list)

    @property
    def root(self) -> str:
        return next(iter(self.txs))

    def spent(self, txid: str) -> Optional[Output]:
        """The output node `txid` spends, its parent's or the root's `funding_out`; else None."""
        op = self.txs[txid].ins[0]
        parent = self.txs.get(op.txid)
        return self.funding_out if op == self.funding else parent.output(op) if parent else None

    def session(self, txid: str) -> Tuple[LockScript, int, AggregateKey]:
        """(lock, index, key): the lock node `txid` spends and its cosigned
        path, the node's signing session; `ArkError` if there is none."""
        out = self.spent(txid) if txid in self.txs and self.txs[txid].ins else None
        if out is None:
            raise ArkError(f"{txid[:8]} spends no output of the tree")
        try:
            return (out.lock, *collab_aggregate(out.lock))
        except ArkError:
            raise ArkError(f"{txid[:8]} spends no cosigned output") from None

    def path_to(self, leaf_txid: str) -> List[Tx]:
        """The nodes from the root down to node `leaf_txid`.  Raises
        `ArkError` unless each is single-input, keyed by its txid and spends
        an output of the node before it, the root the funding outpoint; so
        the walk ends on any tree, forged or not."""
        path, key = [self.txs[leaf_txid]], leaf_txid
        while path[-1].ins != (self.funding,) or path[-1].txid != key:
            if path[-1].txid != key or len(path) > len(self.txs):
                raise ArkError("tree node not keyed by its txid")
            if len(path[-1].ins) != 1:
                raise ArkError("tree nodes are single-input transactions")
            key, index = path[-1].ins[0].txid, path[-1].ins[0].index
            if index >= len(self.txs[key].outs if key in self.txs else ()):
                raise ArkError("node spends no output of the node before it")
            path.append(self.txs[key])
        return path[::-1]


def check_vtxt(vtxt: Vtxt) -> None:
    """Structural validity: single-input nodes keyed by their txids; a
    first node, the root, that spends the funding outpoint; every other node
    spends an existing output of an earlier node, its unique parent (the
    edge condition); and no two nodes spend one outpoint."""
    earlier: Dict[str, Tx] = {}
    spent: Set[OutPoint] = set()
    for txid, tx in vtxt.txs.items():
        if len(tx.ins) != 1:
            raise ArkError("tree nodes are single-input transactions")
        if tx.txid != txid:
            raise ArkError("tree node not keyed by its txid")
        op = tx.ins[0]
        if op in spent:
            raise ArkError("two tree nodes spend one output")
        if not earlier:
            if op != vtxt.funding:
                raise ArkError("root must spend the funding outpoint")
        elif op.txid not in earlier:
            raise ArkError("edge condition violated")
        elif op.index >= len(earlier[op.txid].outs):
            raise ArkError("input index past its parent's outputs")
        earlier[txid] = tx
        spent.add(op)
    if not earlier:
        raise ArkError("tree has no root")


def _chunks(items: List, arity: int) -> List[List]:
    if arity < 2:
        raise ArkError("arity must be at least 2")
    n = len(items)
    width = math.ceil(n / arity)
    return [items[i:i + width] for i in range(0, n, width)]


def batch_output(leaves: Sequence[Vtxo], operator: PublicKey, expiry: int) -> Output:
    """The batch-shaped output paying `leaves`, unrolled by their owners
    with the operator: a batch's commitment output, or a tree node's."""
    pks = {operator.encode(): operator}
    for v in leaves:
        pks[v.owner_pk.encode()] = v.owner_pk
    return Output(sum(v.value for v in leaves),
                  batch_lock(operator, crypto.aggregate(pks.values()), expiry))


def tree_keys(leaves: Sequence[Vtxo], operator: PublicKey, arity: int = 2) -> None:
    """Aggregate the key of every output a tree over `leaves` pays, the
    batch output's included, in one `crypto.aggregate_batch` pass; run
    before `batch_output` and `build_vtxt`."""
    groups, stack = [], [list(leaves)]
    while stack:
        groups.append(stack.pop())
        if len(groups[-1]) > 1:
            stack.extend(_chunks(groups[-1], arity))
    crypto.aggregate_batch({operator, *(v.owner_pk for v in g)} for g in groups)


def _grow(vtxt: Vtxt, items: List, arity: int,
          node: Callable[[OutPoint, List, List[List]], Optional[Tx]]) -> None:
    """Add a tree over `items` to `vtxt.txs` in preorder, root first (a
    node's first child's subtree before its second child): `node(outpoint,
    group, chunks)` makes the tx spending `outpoint` whose output i pays
    `chunks[i]` (a group of one has none), or None to make none there."""
    stack = [(vtxt.funding, list(items))]
    while stack:
        outpoint, group = stack.pop()
        chunks = _chunks(group, arity) if len(group) > 1 else []
        tx = node(outpoint, group, chunks)
        if tx is not None:
            vtxt.txs[tx.txid] = tx
            stack.extend((tx.outpoint(i), g) for i, g in reversed(list(enumerate(chunks))))


def build_vtxt(funding: OutPoint, leaves: Sequence[Vtxo], operator: PublicKey,
               expiry: int, arity: int = 2) -> Tuple[Vtxt, Output]:
    """Balanced VTXT over the funding outpoint, and the batch output that
    outpoint must name (`vtxt.funding_out`).  Internal node outputs are
    batch-shaped over the cosigners of their subtree (path-only
    cosigning); each leaf transaction carries its VTXO plus a zero-value
    fee anchor."""
    if not leaves:
        raise ArkError("empty leaf set")
    vtxt = Vtxt(funding, batch_output(leaves, operator, expiry))

    def node(outpoint: OutPoint, group: List[Vtxo], chunks: List[List[Vtxo]]) -> Tx:
        if chunks:
            return Tx(ins=(outpoint,), outs=(*(batch_output(g, operator, expiry) for g in chunks),
                                             Output(0, ANCHOR_LOCK)))
        v = group[0]
        tx = Tx(ins=(outpoint,), outs=(Output(v.value, v.lock), Output(0, ANCHOR_LOCK)))
        v.outpoint, v.expiry = tx.outpoint(0), expiry
        vtxt.leaves.append(LeafRef(tx.txid, v))
        return tx

    _grow(vtxt, leaves, arity, node)
    check_vtxt(vtxt)
    return vtxt, vtxt.funding_out


@dataclass
class BatchOutput:
    vtxt: Vtxt                               # its funding_out is the batch output

    @property
    def expiry(self) -> Optional[int]:
        return sweep_path_height(self.vtxt.funding_out.lock)


@dataclass
class ConnectorOutput:
    vtxt: Vtxt                               # without txs for a single anchor
    anchors: List[OutPoint]

    @property
    def funding(self) -> OutPoint:
        """The commitment output the anchors come from."""
        return self.vtxt.funding


def build_connector(funding: OutPoint, anchor_count: int, operator: PublicKey,
                    epsilon: int, arity: int = 2) -> ConnectorOutput:
    """Operator-only tree fanning the funding value out into anchor_count
    dust anchors of value epsilon each, depth first; one is the funding."""
    if anchor_count < 1:
        raise ArkError("need at least one anchor")
    op_lock = p2pk(operator)
    conn = ConnectorOutput(Vtxt(funding, Output(anchor_count * epsilon, op_lock)), [])

    def node(outpoint: OutPoint, group: List[int], chunks: List[List[int]]) -> Optional[Tx]:
        if not chunks:
            conn.anchors.append(outpoint)
            return None
        return Tx(ins=(outpoint,), outs=tuple(Output(len(g) * epsilon, op_lock) for g in chunks))

    _grow(conn.vtxt, list(range(anchor_count)), arity, node)
    return conn


def boarding_lock(owner: PublicKey, operator: PublicKey, t_b: int) -> LockScript:
    return taproot(UNSPENDABLE, [
        CheckAggSig(crypto.aggregate([owner, operator])),
        And(CheckSig(owner), RelTimelock(t_b)),
    ])


BOARDING_EXIT_PATH = 1


def boarding_tx(funds: Sequence[Tuple[OutPoint, int]], owner: PublicKey,
                operator: PublicKey, t_b: int, vtxo_total: int) -> Tx:
    """Move user funds into a boarding output the operator can later
    claim cooperatively (or the owner reclaims after t_b)."""
    total = sum(v for _, v in funds)
    if total < vtxo_total:
        raise ArkError("funds do not cover the requested VTXOs")
    lock = boarding_lock(owner, operator, t_b)
    return Tx(ins=tuple(op for op, _ in funds), outs=(Output(total, lock),))


def reset_lock(vtxo: Vtxo, operator: PublicKey, expiry: int, t_u: int) -> LockScript:
    collab_idx, _ = classify_paths(vtxo.lock, operator, t_u)
    collab_paths = tuple(vtxo.lock.paths[i] for i in collab_idx)
    sweep = And(CheckSig(operator), AbsTimelock(expiry))
    return taproot(UNSPENDABLE, collab_paths + (sweep,))


def reset_tx(vtxo: Vtxo, operator: PublicKey, expiry: int, t_u: int) -> Tx:
    """Intermediate transaction that re-locks a spent VTXO so the
    operator can sweep it at the originating batch's expiry."""
    if vtxo.outpoint is None:
        raise ArkError("VTXO has no outpoint yet")
    lock = reset_lock(vtxo, operator, expiry, t_u)
    return Tx(ins=(vtxo.outpoint,), outs=(Output(vtxo.value, lock),))


def ark_tx(reset_outs: Sequence[Tuple[OutPoint, int]], outputs: Sequence[Vtxo]) -> Tx:
    """Spend reset outputs into fresh VTXOs."""
    outs = tuple(Output(v.value, v.lock) for v in outputs)
    fault = value_fault((v for _, v in reset_outs), outs)
    if fault:
        raise ArkError(fault)
    tx = Tx(ins=tuple(op for op, _ in reset_outs), outs=outs)
    for i, v in enumerate(outputs):
        v.outpoint = tx.outpoint(i)
    return tx


def forfeit_tx(vtxo: Vtxo, anchor: OutPoint, operator: PublicKey, epsilon: int) -> Tx:
    """Give a VTXO (plus one connector anchor) to the operator; the
    SIGHASH_ALL digest binds it to the commitment holding the anchor."""
    if vtxo.outpoint is None:
        raise ArkError("VTXO has no outpoint yet")
    return Tx(ins=(vtxo.outpoint, anchor),
              outs=(Output(vtxo.value + epsilon, p2pk(operator)),))
