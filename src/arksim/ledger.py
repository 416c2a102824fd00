"""Deterministic round-based simulated blockchain.

One block per round, unbounded block size, no explicit forks: reorg risk
is folded into the depth-k stability rule.  The adversary controls a
bounded per-transaction inclusion delay and, for conflicting spends, may
displace an already included transaction as long as it is not yet k
blocks deep.  The delay is at most k - 1 blocks past the next, so an
honest submission at height h is included by h + k and is in every stable
view by height h + 2k.  `Params` derives each deadline the protocol acts
on from this bound, once: `batch_expiry`, `exit_deadline` and
`claim_horizon`.

One rule judges a tx, `tx_fault`, and one lookup names the output an
outpoint spends, `Tx.output` (over the chain, `Chain.output`): submission,
inclusion and a payee's replay of its transcript share both.  One walk,
`_spends`, pairs each input's witness with the lock it spends: `tx_fault`
evaluates the pairs, and `witness_checks` returns the triples they verify.

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
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

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

    # The timing model: a tx submitted at height h is included by h + k
    # (`Chain.submit`) and stable, k deep, from h + 2k on (`Chain.is_stable`).

    def batch_expiry(self, height: int) -> int:
        """height + 2k + t_e: the expiry of a batch whose commitment is made
        at `height`.  The commitment is stable by height + 2k, so the batch
        lives t_e blocks in every stable view before its sweep path opens."""
        return height + 2 * self.k + self.t_e

    def exit_deadline(self, expiry: int) -> int:
        """expiry - 2k - 1: the last height at which an owner can fire the
        unilateral exit of a VTXO expiring at `expiry`.  Submitted then, its
        path is stable by expiry - 1, before the operator's sweep can land."""
        return expiry - 2 * self.k - 1

    def claim_horizon(self, expiry: int) -> int:
        """expiry + t_u + 1: the first height at which no unrolled VTXO
        expiring at `expiry` can still open its owner's claim: the leaf
        confirms by `expiry`, when the operator sweeps the batch, and the
        claim waits t_u blocks after it.  A forfeit and its connector stay
        answerable until then; t_u > 4k (`validate`) is what lets the
        answer be stable before the claim opens."""
        return expiry + self.t_u + 1


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

    def output(self, op: OutPoint) -> Optional[Output]:
        """The output `op` names, or None unless it names one of this tx's."""
        named = op.txid == self.txid and 0 <= op.index < len(self.outs)
        return self.outs[op.index] if named else None


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


class MissingWitness(InvalidWitness):
    pass


def value_fault(in_values: Iterable[int], outs: Sequence[Output]) -> str:
    """The ledger's value rule: why spending `in_values` into `outs` breaks
    it, the first fault of the two below, or "" if it holds."""
    if sum(in_values) < sum(o.value for o in outs):
        return "outputs exceed inputs"
    if any(o.value < 0 for o in outs):
        return "negative output value"
    return ""


def tx_fault(tx: Tx, spent: Sequence[Optional[Output]], height: Optional[int] = None,
             confirmed: Sequence[int] = ()) -> Optional[SubmitError]:
    """The ledger's rule for one tx spending `spent` (None for an input
    naming no known output): its first fault, or None.  In order: no input,
    a witness count unlike the input count, an input twice, an unknown
    input, the value rule and, given a `height`, a witness failing its lock
    then, the output confirmed at its `confirmed` entry, else at `height`."""
    if not tx.ins:
        return MissingInput("tx without inputs")
    if len(tx.wits) != len(tx.ins):
        return MissingWitness("witness count mismatch")
    if len(tx.ins) > 1 and len(set(tx.ins)) < len(tx.ins):
        op = next(op for i, op in enumerate(tx.ins) if op in tx.ins[:i])
        return DoubleSpend(f"{op} spent twice in one tx")
    for op, out in zip(tx.ins, spent):
        if out is None:
            return MissingInput(f"{op} unknown")
    fault = value_fault((o.value for o in spent), tx.outs)
    if fault:
        return ValueCreated(fault)
    if height is not None and not _spends(tx, spent, height, confirmed, evaluate):
        return InvalidWitness("invalid witness")
    return None


def _spends(tx: Tx, spent: Sequence[Optional[Output]], height: int, confirmed: Sequence[int],
            visit: Callable[[LockScript, Witness, SpendContext], bool]) -> bool:
    """Whether `visit(lock, witness, context)` holds for each input of `tx`
    spending a known output, in input order, up to the first that fails:
    the one place a witness meets the lock it spends, at `height`, its
    output confirmed at its `confirmed` entry, else at `height`."""
    digest = tx.digest()
    for out, wit, ch in zip(spent, tx.wits, confirmed or [height] * len(spent)):
        if out is not None and not visit(out.lock, wit, SpendContext(height, ch, digest)):
            return False
    return True


def witness_checks(tx: Tx, spent: Sequence[Optional[Output]], height: int,
                   confirmed: Sequence[int] = ()) -> List[Check]:
    """The (key point, message, signature) triples that `tx_fault` passes
    to `crypto.verify` when each of them verifies, in input order, for
    `crypto.verify_batch`."""
    checks: List[Check] = []

    def collect(lock: LockScript, wit: Witness, ctx: SpendContext) -> bool:
        checks.extend(signature_checks(lock, wit, ctx))
        return True

    _spends(tx, spent, height, confirmed, collect)
    return checks


class Adversary:
    """Inclusion policy hooks.  `Chain.submit` clamps a delay to [0, k - 1]
    blocks past the next, so a tx submitted at h is included by h + k and
    stable by h + 2k, the bound `Params`' deadlines rest on."""

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

    @property
    def status(self) -> str:
        return "replaced" if self.height is None else "confirmed"


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
        self.records[tx.txid] = _Record(tx, "genesis", self.height)
        op = tx.outpoint(0)
        self.utxos[op] = _Utxo(tx.outs[0], self.height)
        return op

    # --- queries ---------------------------------------------------------

    def is_stable(self, txid: str) -> bool:
        h = self.confirm_height(txid)
        return h is not None and self.height - h >= self.params.k

    def is_confirmed(self, txid: str) -> bool:
        return self.confirm_height(txid) is not None

    def confirm_height(self, txid: str) -> Optional[int]:
        rec = self.records.get(txid)
        return None if rec is None else rec.height

    def output(self, op: OutPoint, pending: bool = False) -> Optional[Output]:
        """The output `op` names in a recorded tx (confirmed or replaced
        since), else, if `pending`, in a mempool tx; None if there is none."""
        src = self.records.get(op.txid) or (self.mempool.get(op.txid) if pending else None)
        return src.tx.output(op) if src is not None else None

    def unspent(self, op: OutPoint, depth: int = 0) -> bool:
        entry = self.utxos.get(op)
        return entry is not None and self.height - entry.confirm_height >= depth

    def view(self, party: str, depth: int = 0) -> dict:
        if party not in self.parties and party != "oracle":
            raise KeyError(f"unknown party {party}")
        horizon = self.height - depth
        utxos = {op: e.output for op, e in self.utxos.items() if e.confirm_height <= horizon}
        confirmed = {txid for txid, rec in self.records.items()
                     if rec.height is not None and rec.height <= horizon}
        return {"height": self.height, "stable_height": horizon,
                "utxos": utxos, "confirmed": confirmed}

    def total_value(self) -> int:
        return sum(e.output.value for e in self.utxos.values())

    # --- submission ------------------------------------------------------

    def _displaceable(self, spender: str, last: int) -> bool:
        """Whether a conflict may displace `spender`, an included spend, in
        the block after block `last`: until it is k deep as of that block."""
        return last - self.records[spender].height < self.params.k

    def submit(self, tx: Tx, by: str) -> bool:
        """Admit conflicts, apply `tx_fault` but for the witnesses, and queue
        for inclusion.  Inputs may be outputs of mempool txs (package
        submission, parents first); inclusion settles conflicting entries."""
        if self.is_confirmed(tx.txid) or tx.txid in self.mempool:
            return False
        spent: List[Optional[Output]] = []
        for op in tx.ins:
            entry = self.utxos.get(op)
            spender = self.spent_by.get(op) if entry is None else None
            if spender is not None:
                if not self._displaceable(spender, self.height):
                    raise DoubleSpend(f"{op} spent by stable {spender[:8]}")
                if not self.adversary.prefer_newcomer(tx, self.records[spender].tx):
                    raise DoubleSpend(f"{op} spent by {spender[:8]}")
            # an output of a replaced tx, neither unspent nor spent, is unknown
            known = spender is not None or op.txid in self.mempool
            spent.append(entry.output if entry else self.output(op, pending=True) if known else None)
        fault = tx_fault(tx, spent)
        if fault:
            raise fault
        d = max(0, min(self.adversary.delay(tx, self.height, by), self.params.k - 1))
        due = self.height + 1 + d
        self.mempool[tx.txid] = _Pending(tx, by, due)
        return True

    def submit_package(self, txs: List[Tx], by: str) -> int:
        todo = [tx for tx in txs if not self.is_confirmed(tx.txid)]
        for tx in todo:
            self.submit(tx, by)
        return len(todo)

    # --- block production ------------------------------------------------

    def _evict(self, txid: str) -> None:
        rec = self.records.get(txid)
        if rec is None or rec.height is None:
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
                height = self.confirm_height(op.txid)
                if height is not None:
                    self.utxos[op] = _Utxo(self.output(op), height)
        self.blocks[rec.height - 1].remove(txid)
        rec.height = None
        self.note("ledger", rec.party, "replaced", txid)

    def _try_include(self, p: _Pending) -> bool:
        """Attempt to place one pending tx in the block being formed at
        self.height (already incremented). Returns True if included."""
        tx = p.tx
        spent: List[Output] = []
        heights: List[int] = []
        evictions: List[str] = []
        for op in tx.ins:
            entry = self.utxos.get(op)
            if entry is None:
                # a conflict, judged as of the last block (this one is being formed)
                spender = self.spent_by.get(op)
                if spender is None or not self._displaceable(spender, self.height - 1) \
                        or not self.adversary.prefer_newcomer(tx, self.records[spender].tx):
                    return False
                evictions.append(spender)
                entry = _Utxo(self.output(op), self.confirm_height(op.txid))
            spent.append(entry.output)
            heights.append(entry.confirm_height)
        if tx_fault(tx, spent, self.height, heights):
            return False
        for victim in set(evictions):
            self._evict(victim)
        for op in tx.ins:
            self.utxos.pop(op, None)
            self.spent_by[op] = tx.txid
        for i, out in enumerate(tx.outs):
            op = tx.outpoint(i)
            self.utxos[op] = _Utxo(out, self.height)
        self.records[tx.txid] = _Record(tx, p.party, self.height)
        self.blocks[-1].append(tx.txid)
        self.note("ledger", p.party, "confirmed", tx.txid)
        return True

    def advance_round(self) -> int:
        self.height += 1
        self.blocks.append([])
        if not self.mempool:
            # an empty block: nothing to include and nothing to drop
            return self.height
        due = [p for p in self.mempool.values() if p.due_height <= self.height]
        # one batch equation for the due txs' signatures, when they are
        # enough for one; the inclusion loop below then finds their
        # verdicts in the verify memo
        if due and sum(len(w.signatures) for p in due for w in p.tx.wits) >= BATCH_MIN:
            # an output spent is confirmed at its UTXO entry's height, else at this one
            verify_batch([check for p in due for check in witness_checks(
                p.tx, [self.output(op, pending=True) for op in p.tx.ins], self.height,
                [getattr(self.utxos.get(op), "confirm_height", self.height) for op in p.tx.ins])])
        progress = True
        while progress:
            progress = False
            left = []
            for p in due:
                if self._try_include(p):
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
