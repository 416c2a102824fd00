"""Deterministic round-based simulated blockchain.

One block per round, unbounded block size, no explicit forks: reorg risk
is folded into the depth-k stability rule.  The adversary controls a
bounded per-transaction inclusion delay and, for conflicting spends, may
displace an already included transaction as long as it is not yet k
blocks deep.  An honest submission at height h is therefore in every
stable view by height h + 2k.

The chain also keeps the run's one trace, `Chain.trace`: a list of
`Event(round, layer, actor, event, reason)` records, written through
`Chain.note`, which stamps the current height as the round.  The chain
writes `confirmed`, `replaced` and `dropped` with the txid as the reason;
the operator, wallets and fast-finality coordinator write their ceremony
steps and rejections through the chain they already hold.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import Dict, List, NamedTuple, Optional, Tuple

from .crypto import BATCH_MIN, Check, verify_batch
from .script import LockScript, SpendContext, Witness, evaluate, signature_checks


@dataclass(frozen=True)
class Params:
    k: int = 6
    t_u: int = 25          # unilateral VTXO delay; safety needs t_u > 4k
    t_e: int = 120         # batch expiry span
    t_b: int = 144         # boarding timeout
    t_r: int = 10          # commitment rollback timeout
    epsilon: int = 330     # dust anchor value (sats)
    arity: int = 2         # VTXT radix

    def validate(self, unsafe: bool = False) -> None:
        """Every field is an int, k >= 1, arity >= 2 and the rest >= 0;
        unless `unsafe`, also t_u > 4k."""
        for name in self.__dataclass_fields__:
            value, least = getattr(self, name), {"k": 1, "arity": 2}.get(name, 0)
            if isinstance(value, bool) or not isinstance(value, int) or value < least:
                raise ValueError(f"parameter {name!r} must be an integer >= {least},"
                                 f" got {value!r}")
        if not unsafe and self.t_u <= 4 * self.k:
            raise ValueError(f"t_u must exceed 4k (t_u={self.t_u}, k={self.k})")


@dataclass(frozen=True)
class OutPoint:
    txid: str
    index: int


@dataclass(frozen=True)
class Output:
    value: int
    lock: LockScript


def _json_scalar(v) -> str:
    """`json.dumps(v)`, without its encoder set-up (about 2 us) for a
    plain str or int; the separators do not change a scalar's text."""
    if type(v) is str:
        return encode_basestring_ascii(v)
    if type(v) is int:
        return int.__repr__(v)
    return json.dumps(v)


@dataclass
class Tx:
    ins: Tuple[OutPoint, ...]
    outs: Tuple[Output, ...]
    wits: List[Witness] = field(default_factory=list)

    def __post_init__(self):
        self.ins = tuple(self.ins)
        self.outs = tuple(self.outs)
        self._txid: Optional[str] = None

    def json(self) -> dict:
        # canonical serialization; the txid covers inputs and outputs only
        return {
            "ins": [{"txid": o.txid, "index": o.index} for o in self.ins],
            "outs": [{"value": o.value, "lock": o.lock.json()} for o in self.outs],
        }

    @property
    def txid(self) -> str:
        """sha256 of b"arksim/txid" and `json()` as canonical JSON text
        (sorted keys, no spaces).  The blob is spelled out here so that
        each output splices in its lock's cached `json_text` instead of
        encoding the lock again."""
        if self._txid is None:
            ins = ",".join('{"index":%s,"txid":%s}' % (_json_scalar(o.index), _json_scalar(o.txid))
                           for o in self.ins)
            outs = ",".join('{"lock":%s,"value":%s}' % (o.lock.json_text, _json_scalar(o.value))
                            for o in self.outs)
            blob = ('{"ins":[%s],"outs":[%s]}' % (ins, outs)).encode()
            self._txid = hashlib.sha256(b"arksim/txid" + blob).hexdigest()
        return self._txid

    def digest(self) -> bytes:
        # SIGHASH_ALL: commits to every input and output
        return hashlib.sha256(b"arksim/sighash" + bytes.fromhex(self.txid)).digest()

    def outpoint(self, index: int) -> OutPoint:
        return OutPoint(self.txid, index)


class SubmitError(Exception):
    pass


class InvalidWitness(SubmitError):
    pass


class DoubleSpend(SubmitError):
    pass


class ValueCreated(SubmitError):
    pass


class MissingInput(SubmitError):
    pass


class Adversary:
    """Inclusion policy hooks. Delay is clamped so the 2k bound holds."""

    def delay(self, tx: Tx, height: int, party: str) -> int:
        return 0

    def prefer_newcomer(self, new: Tx, old: Tx) -> bool:
        return False


class MaxDelay(Adversary):
    def __init__(self, prefer_new: bool = True, max_delay: Optional[int] = None,
                 per_tx: Optional[Dict[str, int]] = None, exempt: Tuple[str, ...] = ()):
        self.prefer_new = prefer_new
        self.max_delay = max_delay
        self.per_tx = per_tx or {}
        self.exempt = exempt

    def delay(self, tx: Tx, height: int, party: str) -> int:
        if party in self.exempt:
            return 0
        if tx.txid in self.per_tx:
            return self.per_tx[tx.txid]
        return self.max_delay if self.max_delay is not None else 0

    def prefer_newcomer(self, new: Tx, old: Tx) -> bool:
        return self.prefer_new


class Event(NamedTuple):
    round: int
    layer: str
    actor: str
    event: str
    reason: str


@dataclass
class _Pending:
    tx: Tx
    party: str
    due_height: int


@dataclass
class _Record:
    tx: Tx
    party: str
    height: Optional[int]  # None once evicted
    status: str            # confirmed | replaced


@dataclass
class _Utxo:
    output: Output
    confirm_height: int


class Chain:
    def __init__(self, params: Params, adversary: Optional[Adversary] = None):
        self.params = params
        self.adversary = adversary or Adversary()
        self.height = 0
        self.utxos: Dict[OutPoint, _Utxo] = {}
        self.spent_by: Dict[OutPoint, str] = {}
        self.records: Dict[str, _Record] = {}
        self.mempool: Dict[str, _Pending] = {}   # txid -> pending, in submission order
        self.blocks: List[List[str]] = []   # txids per block, height = index + 1
        self.trace: List[Event] = []
        self.parties: set[str] = set()

    # --- setup -----------------------------------------------------------

    def register(self, party: str) -> None:
        self.parties.add(party)

    def note(self, layer: str, actor: str, event: str, reason: str = "") -> None:
        self.trace.append(Event(self.height, layer, actor, event, reason))

    def grant(self, value: int, lock: LockScript) -> OutPoint:
        """Mint a genesis-style output (initial funding only)."""
        tx = Tx(ins=(), outs=(Output(value, lock),))
        self.records[tx.txid] = _Record(tx, "genesis", self.height, "confirmed")
        op = tx.outpoint(0)
        self.utxos[op] = _Utxo(tx.outs[0], self.height)
        return op

    # --- queries ---------------------------------------------------------

    def is_stable(self, txid: str) -> bool:
        rec = self.records.get(txid)
        return (rec is not None and rec.status == "confirmed"
                and rec.height is not None and self.height - rec.height >= self.params.k)

    def is_confirmed(self, txid: str) -> bool:
        rec = self.records.get(txid)
        return rec is not None and rec.status == "confirmed" and rec.height is not None

    def confirm_height(self, txid: str) -> Optional[int]:
        rec = self.records.get(txid)
        if rec is None or rec.status != "confirmed":
            return None
        return rec.height

    def unspent(self, op: OutPoint, depth: int = 0) -> bool:
        entry = self.utxos.get(op)
        if entry is None:
            return False
        if depth > 0 and self.height - entry.confirm_height < depth:
            return False
        return True

    def view(self, party: str, depth: int = 0) -> dict:
        if party not in self.parties and party != "oracle":
            raise KeyError(f"unknown party {party}")
        horizon = self.height - depth
        utxos = {op: e.output for op, e in self.utxos.items() if e.confirm_height <= horizon}
        confirmed = {txid for txid, rec in self.records.items()
                     if rec.status == "confirmed" and rec.height is not None
                     and rec.height <= horizon}
        return {"height": self.height, "stable_height": horizon,
                "utxos": utxos, "confirmed": confirmed}

    def total_value(self) -> int:
        return sum(e.output.value for e in self.utxos.values())

    # --- submission ------------------------------------------------------

    def _resolve_input(self, op: OutPoint) -> Optional[Output]:
        entry = self.utxos.get(op)
        if entry is not None:
            return entry.output
        parent = self.mempool.get(op.txid)
        if parent is not None and 0 <= op.index < len(parent.tx.outs):
            return parent.tx.outs[op.index]
        return None

    def submit(self, tx: Tx, by: str) -> bool:
        """Validate against the current view and queue for inclusion.
        Inputs may be outputs of transactions already in the mempool
        (package submission, parents first)."""
        if len(tx.wits) != len(tx.ins):
            raise InvalidWitness("witness count mismatch")
        if self.is_confirmed(tx.txid) or tx.txid in self.mempool:
            return False
        in_total = 0
        for op in tx.ins:
            resolved = self._resolve_input(op)
            if resolved is None:
                spender = self.spent_by.get(op)
                if spender is not None:
                    if self.is_stable(spender):
                        raise DoubleSpend(f"{op} spent by stable {spender[:8]}")
                    if not self.adversary.prefer_newcomer(tx, self.records[spender].tx):
                        raise DoubleSpend(f"{op} spent by {spender[:8]}")
                    resolved = self.records[op.txid].tx.outs[op.index]
                else:
                    raise MissingInput(f"{op} unknown")
            in_total += resolved.value
        # conflicting mempool entries are allowed; inclusion decides the winner
        if in_total < sum(o.value for o in tx.outs):
            raise ValueCreated("outputs exceed inputs")
        d = self.adversary.delay(tx, self.height, by)
        d = max(0, min(d, 2 * self.params.k - 1))
        due = self.height + 1 + min(d, self.params.k - 1)
        self.mempool[tx.txid] = _Pending(tx, by, due)
        return True

    def submit_package(self, txs: List[Tx], by: str) -> int:
        count = 0
        for tx in txs:
            if self.is_confirmed(tx.txid):
                continue
            self.submit(tx, by)
            count += 1
        return count

    # --- block production ------------------------------------------------

    def _evict(self, txid: str) -> None:
        rec = self.records.get(txid)
        if rec is None or rec.status != "confirmed":
            return
        # children first
        for i in range(len(rec.tx.outs)):
            op = rec.tx.outpoint(i)
            child = self.spent_by.get(op)
            if child is not None:
                self._evict(child)
            self.utxos.pop(op, None)
        for op in rec.tx.ins:
            spender = self.spent_by.get(op)
            if spender == txid:
                del self.spent_by[op]
                src = self.records.get(op.txid)
                if src is not None and src.height is not None:
                    self.utxos[op] = _Utxo(src.tx.outs[op.index], src.height)
        if rec.height is not None and rec.height - 1 < len(self.blocks):
            blk = self.blocks[rec.height - 1]
            if txid in blk:
                blk.remove(txid)
        rec.height = None
        rec.status = "replaced"
        self.note("ledger", rec.party, "replaced", txid)

    def _try_include(self, p: _Pending, block_outs: Dict[OutPoint, int]) -> bool:
        """Attempt to place one pending tx in the block being formed at
        self.height (already incremented). Returns True if included."""
        tx = p.tx
        confirm_heights: List[int] = []
        resolved: List[Output] = []
        evictions: List[str] = []
        for op in tx.ins:
            entry = self.utxos.get(op)
            if entry is not None:
                resolved.append(entry.output)
                confirm_heights.append(entry.confirm_height)
                continue
            if op in block_outs:
                src = self.records[op.txid]
                resolved.append(src.tx.outs[op.index])
                confirm_heights.append(self.height)
                continue
            spender = self.spent_by.get(op)
            if spender is not None:
                # conflict: displaceable only while the spender is not stable
                depth = self.height - 1 - (self.records[spender].height or 0)
                if depth < self.params.k and self.adversary.prefer_newcomer(tx, self.records[spender].tx):
                    src = self.records.get(op.txid)
                    if src is None or src.height is None:
                        return False
                    evictions.append(spender)
                    resolved.append(src.tx.outs[op.index])
                    confirm_heights.append(src.height)
                    continue
            return False
        if sum(o.value for o in resolved) < sum(o.value for o in tx.outs):
            return False
        for op, wit, out, ch in zip(tx.ins, tx.wits, resolved, confirm_heights):
            ctx = SpendContext(self.height, ch, tx.digest())
            if not evaluate(out.lock, wit, ctx):
                return False
        for victim in set(evictions):
            self._evict(victim)
        for op in tx.ins:
            self.utxos.pop(op, None)
            self.spent_by[op] = tx.txid
        for i, out in enumerate(tx.outs):
            op = tx.outpoint(i)
            self.utxos[op] = _Utxo(out, self.height)
            block_outs[op] = self.height
        self.records[tx.txid] = _Record(tx, p.party, self.height, "confirmed")
        self.blocks[-1].append(tx.txid)
        self.note("ledger", p.party, "confirmed", tx.txid)
        return True

    def _signature_checks(self, txs: List[Tx]) -> List[Check]:
        """The signature checks of txs that may confirm in the block being
        formed, each against the lock of the output it spends, whether
        that output is confirmed or comes from a tx in the mempool."""
        checks: List[Check] = []
        for tx in txs:
            digest = tx.digest()
            for op, wit in zip(tx.ins, tx.wits):
                src = self.records.get(op.txid) or self.mempool.get(op.txid)
                if src is None or not 0 <= op.index < len(src.tx.outs):
                    continue
                entry = self.utxos.get(op)
                height = entry.confirm_height if entry is not None else self.height
                checks += signature_checks(src.tx.outs[op.index].lock, wit,
                                           SpendContext(self.height, height, digest))
        return checks

    def advance_round(self) -> int:
        self.height += 1
        self.blocks.append([])
        due = [p for p in self.mempool.values() if p.due_height <= self.height]
        # one batch equation for the due txs' signatures, when they are
        # enough for one; the inclusion loop below then finds their
        # verdicts in the verify memo
        if due and sum(len(w.signatures) for p in due for w in p.tx.wits) >= BATCH_MIN:
            verify_batch(self._signature_checks([p.tx for p in due]))
        block_outs: Dict[OutPoint, int] = {}
        progress = True
        while progress:
            progress = False
            left = []
            for p in due:
                if self._try_include(p, block_outs):
                    del self.mempool[p.tx.txid]
                    progress = True
                else:
                    left.append(p)
            due = left
        # drop pending txs that permanently lost their inputs to stable spends
        for p in list(self.mempool.values()):
            for op in p.tx.ins:
                spender = self.spent_by.get(op)
                if spender and spender != p.tx.txid and self.is_stable(spender):
                    del self.mempool[p.tx.txid]
                    self.note("ledger", p.party, "dropped", p.tx.txid)
                    break
        return self.height
