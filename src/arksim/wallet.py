"""User-side state machine: request construction, commitment
verification, payment receipt, unilateral exit, the exit-deadline
policy, and balance computation.  Rounds and payments read one record
of what the wallet asked for (`Wallet.requests`): each `make_*` records
the request it builds, over VTXOs it holds, until the request settles,
its payment is audited or the operator refuses it (`withdraw`).  A
bundle that lists under the wallet's name a request the record lacks is
refused, so `Request.party` only routes.

The bundle audit reads only the chain, the commitment and the wallet's
branch of the batch tree.  The commitment must spend outputs the chain
holds, create no value and create the tree's funding output, whose sweep
height is the batch expiry.  The wallet reads its own requests' leaves
and each forfeit's connector anchor from the bundle's one layout walk
(`Bundle.entries`), and refuses two leaves at one outpoint (another
owner's leaf fails the lock check).  Every node on the path to each
(`Vtxt.path_to`) must need its key, create no value and sweep-lock its
outputs at the expiry.  The audit approves what the ceremony may sign
under the wallet's key: those nodes, the forfeit of each VTXO it swaps
and the commitment it boards into or exits from, if every input of the
commitment locked to its key is one it boards and every exit of a VTXO
of its key is one it asked for.

A payment is signed in a ceremony too, and its payer audits it first
(`verify_payment`) against the ark request in its record: each reset must
be the one `arkcore.reset_tx` derives for an input of that request, and
the ark tx must spend exactly those resets' outputs (or, without resets,
the inputs) and pay exactly the requested outputs, each under the nonce
its lock fixes, if any, as the payment's outputs must (`_paid`, which
also gives the payer its change).  The audit approves the ark tx and the
resets, and forgets the request either way.

A wallet keeps a complete transcript (root-to-leaf unroll path, plus any
reset and ark transactions) for every VTXO it holds, so it can always
turn its balance into confirmed UTXOs without the operator's help.  A
payee accepts a payment in either finality mode only through one audit
(`audit_payment`): each output it is paid must be one of the ark tx's,
and it replays its transcript under the ledger's own rule for one tx
(`ledger.tx_fault`; the tree and commitment audits apply its value rule,
`ledger.value_fault`).  It takes each input's expiry from its reset's
sweep height, no later than its path's batch's.  Every refused bundle or
payment, accepted payment and unilateral exit is noted in the chain's
trace, with the reason for a refusal.

A wallet also remembers the signed VTXT of every batch it cosigns, by the
tree's funding outpoint, from the batch's confirmation until its first
audit of a payment path rooted in that tree or the batch's expiry.  That
audit checks the whole tree in one `crypto.verify_batch` equation
(`check_witnesses`), so a later audit of any path through it finds every
signature in the verify memo.  Most are under internal-node aggregate keys
verified once each, and the batch spares `verify` a comb table for each.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from . import arkcore
from .arkcore import BatchOutput, Vtxo, cosigners, forfeit_tx, p2pk, sweep_path_height, vtxo_lock
from .crypto import BATCH_MIN, PublicKey, SecretKey, verify_batch
from .ledger import (Chain, DoubleSpend, InvalidWitness, MissingInput, MissingWitness, OutPoint,
                     Output, Params, SubmitError, Tx, ValueCreated, tx_fault, value_fault,
                     witness_checks)
from .operator_node import ArkPayment, Bundle, Request, VtxoSpec, consumed_vtxos
from .script import LockScript

# the payee's reason for each fault of the ledger's rule in its transcript
_REPLAY_REASONS = {MissingInput: "unknown input", MissingWitness: "missing witness",
                   DoubleSpend: "transcript tx spends an output twice",
                   ValueCreated: "transcript creates value", InvalidWitness: "invalid witness"}


@dataclass
class Holding:
    vtxo: Vtxo
    transcript: List[Tx]            # every virtual tx needed to exit, parents first
    kind: str                       # batch | ark
    intent: str = "hold"            # hold | swap | exit | pay
    exited: bool = False


def transcript(payment: ArkPayment) -> List[Tx]:
    """A holding's transcript out of `payment`: each tx of its paths once,
    parents first, then its resets and its ark tx."""
    txs: List[Tx] = []
    for tx in (tx for pth in payment.paths for tx in pth):
        if tx not in txs:
            txs.append(tx)
    return txs + list(payment.resets) + [payment.ark]


class Wallet:
    def __init__(self, name: str, sk: SecretKey, chain: Chain, params: Params,
                 operator_pk: PublicKey):
        self.name = name
        self.sk = sk
        self.pk = sk.public()
        self.chain = chain
        self.params = params
        self.operator_pk = operator_pk
        self.holdings: Dict[Tuple[str, int], Holding] = {}
        self.boarding_outputs: List[Tuple[OutPoint, Output]] = []
        # the batches this wallet cosigned whose trees it has not audited
        # yet, by funding outpoint: see the module docstring
        self.trees: Dict[OutPoint, BatchOutput] = {}
        # never read or written here; kept only because the benchmark's
        # workloads (perfbench/workloads.py) still append to it
        self.open_requests: List[Request] = []
        # what this wallet asked for: see the module docstring
        self.requests: List[Request] = []
        self.fee = 0                # operator's flat per-request fee
        chain.register(name)

    # --- request construction -------------------------------------------

    def make_boarding(self, funds: Sequence[Tuple[OutPoint, int]],
                      values: Sequence[int]) -> Tuple[Tx, Request]:
        tx = arkcore.boarding_tx(funds, self.pk, self.operator_pk,
                                 self.params.t_b, sum(values) + self.fee)
        specs = tuple(VtxoSpec(v, self.name, self.pk) for v in values)
        return tx, self._record(Request("boarding", self.name, boarding_outpoint=tx.outpoint(0),
                                        outputs=specs))

    def _record(self, req: Request, intent: str = "hold") -> Request:
        """Record `req` and mark each of its inputs with `intent`, or refuse
        it, changing nothing, if this wallet does not hold one."""
        for v in req.inputs:
            if v.key() not in self.holdings:
                txid, index = v.key()
                raise arkcore.ArkError(f"{self.name} holds no VTXO {txid[:8]}:{index}")
        for v in req.inputs:
            self.holdings[v.key()].intent = intent
        self.requests.append(req)
        return req

    def make_swap(self, vtxos: Sequence[Vtxo], values: Sequence[int]) -> Request:
        specs = tuple(VtxoSpec(v, self.name, self.pk) for v in values)
        return self._record(Request("batch-swap", self.name, inputs=tuple(vtxos), outputs=specs),
                            "swap")

    def make_exit(self, vtxos: Sequence[Vtxo], values: Sequence[int]) -> Request:
        outs = tuple((v, p2pk(self.pk)) for v in values)
        return self._record(Request("exit", self.name, inputs=tuple(vtxos), exit_outputs=outs),
                            "exit")

    def make_ark_request(self, vtxos: Sequence[Vtxo],
                         outputs: Sequence[VtxoSpec]) -> Request:
        return self._record(Request("ark", self.name, inputs=tuple(vtxos),
                                    outputs=tuple(outputs)), "pay")

    def withdraw(self, req: Request) -> None:
        """Forget `req`, which the operator refused: its inputs are held again."""
        for v in req.inputs:
            self.holdings[v.key()].intent = "hold"
        self.requests = [r for r in self.requests if r is not req]

    # --- commitment verification (the user-side bundle audit) ------------

    def _fail(self, reason: str) -> None:
        self.chain.note("wallet", self.name, "verify_failed", reason)

    def verify_path(self, bundle: Bundle, vtxo: Vtxo) -> Optional[List[Tx]]:
        """The tree's path to `vtxo`, root first, or None to refuse it."""
        batch = bundle.batch
        if batch is None:
            return self._fail("bundle has no batch")
        if vtxo.outpoint is None:
            return self._fail("leaf has no outpoint")
        vtxt, expiry = batch.vtxt, batch.expiry
        try:
            txs = vtxt.path_to(vtxo.outpoint.txid)
            keys = [vtxt.session(tx.txid)[2] for tx in txs]
        except KeyError:
            return self._fail("leaf missing from the tree")
        except arkcore.ArkError as e:
            return self._fail(f"malformed batch tree: {e}")
        for tx, key in zip(txs, keys):
            if self.pk not in key.members:
                return self._fail("own key missing from a path cosigner set")
            if value_fault([vtxt.spent(tx.txid).value], tx.outs):
                return self._fail("value increases down the tree")
            for out in tx.outs[:-1] if tx.txid != vtxo.outpoint.txid else ():
                if sweep_path_height(out.lock) != expiry:
                    return self._fail("internal output is not sweep-shaped at expiry")
        if txs[-1].output(vtxo.outpoint) != Output(vtxo.value, vtxo.lock):
            return self._fail("leaf output mismatch")
        return txs

    def verify_connector(self, bundle: Bundle, anchor: Optional[OutPoint]) -> Optional[OutPoint]:
        """A forfeited VTXO's anchor (`Bundle.entries`), if it is an epsilon output."""
        if anchor is None:
            return self._fail("no anchor for forfeited vtxo")
        tree = bundle.connector.vtxt.txs
        out = tree.get(anchor.txid, bundle.commitment).output(anchor)  # or the commitment's
        if out is None or out.value != self.params.epsilon:
            return self._fail("anchor value is not epsilon")
        return anchor

    def verify_commitment(self, bundle: Bundle) -> Optional[Set[bytes]]:
        """The digests this wallet approves (module docstring), or None to refuse."""
        leaves = bundle.batch.vtxt.leaves if bundle.batch is not None else []
        if len(leaves) != sum(len(r.outputs) for r in bundle.requests):
            return self._fail("tree leaves do not match the requests")
        spent = [self.chain.utxos.get(op) for op in bundle.commitment.ins]
        if any(e is None for e in spent):
            return self._fail("commitment spends an unknown output")
        if value_fault((e.output.value for e in spent), bundle.commitment.outs):
            return self._fail("commitment creates value")
        if bundle.batch is not None:
            vtxt = bundle.batch.vtxt
            if bundle.commitment.output(vtxt.funding) != vtxt.funding_out:
                return self._fail("batch tree not funded by the commitment")
            if (bundle.batch.expiry or 0) < self.params.batch_expiry(self.chain.height):
                return self._fail("batch expiry below the local bound")
        approved: Set[bytes] = set()
        seen: set[Tuple[str, int]] = set()
        boards: Set[OutPoint] = set()
        exits: Set[OutPoint] = set()
        for r, made, forfeits in bundle.entries():
            if r not in self.requests:
                if r.party == self.name:
                    return self._fail("request in its name that it did not make")
                continue
            for leaf, spec in zip(made, r.outputs):
                expected = vtxo_lock(spec.owner_pk, self.operator_pk,
                                     self.params.t_u, spec.r_star)
                if leaf.value != spec.value or leaf.lock != expected:
                    return self._fail("requested vtxo mismatch")
                path = self.verify_path(bundle, leaf)
                if path is None:
                    return None
                if leaf.key() in seen:
                    return self._fail("two requests aliased to one output")
                seen.add(leaf.key())
                approved.update(tx.digest() for tx in path)
            for v, anchor in forfeits:
                anchor = self.verify_connector(bundle, v.outpoint and anchor)
                if anchor is None:
                    return None
                approved.add(forfeit_tx(v, anchor, self.operator_pk, self.params.epsilon).digest())
            if r.kind == "boarding":
                boards.add(r.boarding_outpoint)
            if r.kind == "exit":
                exits.update(v.outpoint for v in r.inputs)
                for value, lock in r.exit_outputs:
                    if Output(value, lock) not in bundle.commitment.outs:
                        return self._fail("exit output missing")
        # the commitment has one digest for all its inputs and exits, so
        # approving it approves each input locked to this wallet's key and
        # each exit of its VTXOs: only if it boards or exits every one of them
        locked = {op for op, e in zip(bundle.commitment.ins, spent)
                  if self.pk in cosigners(e.output.lock)}
        exited = {v.outpoint for r in bundle.requests if r.kind == "exit"
                  for v in r.inputs if v.owner_pk == self.pk}
        if (boards or exits) and locked <= boards and exited <= exits:
            approved.add(bundle.commitment.digest())
        return approved

    def verify_payment(self, payment: ArkPayment) -> Optional[Set[bytes]]:
        """The digests of unsigned `payment` this wallet approves as its
        payer (module docstring), none if it asked for no payment, or None
        to refuse.  Either way its request is forgotten."""
        req = next((r for r in self.requests if r.kind == "ark"), None)
        if req is None:
            return set()
        self.requests.remove(req)
        ark, resets = payment.ark, payment.resets
        if resets and [rst.txid for rst in resets] != [
                arkcore.reset_tx(v, self.operator_pk, v.expiry, self.params.t_u).txid
                for v in req.inputs]:
            return self._fail("reset not derived from a requested input")
        if list(ark.ins) != ([rst.outpoint(0) for rst in resets]
                             or [v.outpoint for v in req.inputs]):
            return self._fail("ark tx spends other outputs")
        if len(ark.outs) != len(req.outputs) or any(
                out != Output(spec.value, self._expected_lock(spec.owner_pk, spec.r_star, out.lock))
                for spec, out in zip(req.outputs, ark.outs)):
            return self._fail("ark tx pays other outputs")
        if payment.outputs != self._paid(req, ark):
            return self._fail("payment outputs differ from the ark tx's")
        return {ark.digest(), *(rst.digest() for rst in resets)}

    @staticmethod
    def _paid(req: Request, ark: Tx) -> List[Vtxo]:
        """The VTXOs `ark` pays for `req`'s outputs, as the operator books them."""
        expiry = min(v.expiry for v in req.inputs)
        return [Vtxo(out.value, out.lock, spec.owner, spec.owner_pk, expiry, ark.outpoint(i))
                for i, (spec, out) in enumerate(zip(req.outputs, ark.outs))]

    def _expected_lock(self, owner_pk: PublicKey, r_star: Optional[Tuple[int, int]],
                       lock: LockScript) -> LockScript:
        """The lock of a VTXO of `owner_pk` under nonce `r_star`, or else
        under the nonce `lock` fixes, if any."""
        r_star = r_star or (arkcore.nonce_bound_path(lock) or (None, None))[1]
        return vtxo_lock(owner_pk, self.operator_pk, self.params.t_u, r_star)

    # --- lifecycle -------------------------------------------------------

    def on_commitment_confirmed(self, bundle: Bundle) -> None:
        h = self.chain.height
        self.trees = {op: b for op, b in self.trees.items() if b.expiry > h}
        for r, leaves, _ in bundle.entries():
            if r in self.requests:
                self.requests.remove(r)
                for leaf in leaves:
                    path = bundle.batch.vtxt.path_to(leaf.outpoint.txid)
                    self.holdings[leaf.key()] = Holding(leaf, list(path), "batch")
                    self.trees[bundle.batch.vtxt.funding] = bundle.batch
                for v in consumed_vtxos([r]):
                    self.holdings.pop(v.key(), None)
        self.boarding_outputs = [(op, out) for op, out in self.boarding_outputs
                                 if self._boarding_counts(op)]

    def _boarding_counts(self, op: OutPoint) -> bool:
        """Whether boarding output `op` is still this wallet's: until a
        stable tx, the commitment or a reclaim, spends it."""
        return not self.chain.is_stable(self.chain.spent_by.get(op, ""))

    def on_payment_sent(self, req: Request, payment: ArkPayment) -> None:
        # the payment's paths are its inputs' transcripts (`Simulation.ark_pay`);
        # its change is read from the ark tx it approved
        for v in req.inputs:
            self.holdings.pop(v.key(), None)
        for out in self._paid(req, payment.ark):
            if out.owner == self.name:  # change output
                self.holdings[out.key()] = Holding(out, transcript(payment), "ark")

    def _reject(self, reason: str) -> None:
        self.chain.note("wallet", self.name, "payment_rejected", reason)

    def audit_payment(self, payment: ArkPayment) -> Optional[List[Vtxo]]:
        """The outputs `payment` pays this wallet, or None to refuse it: the
        one audit of a received payment in both finality modes.  Each output
        must be a VTXO of this wallet's key, under the nonce its lock fixes,
        if any."""
        mine = [v for v in payment.outputs if v.owner == self.name]
        if not mine:
            return self._reject("no output")
        for v in mine:
            out = payment.ark.output(v.outpoint) if v.outpoint is not None else None
            if out is None:
                return self._reject("output not in the ark tx")
            expected = self._expected_lock(self.pk, None, out.lock)
            if out.lock.commitment != expected.commitment or out.value != v.value:
                return self._reject("output script mismatch")
        if not payment.ark.ins:
            return self._reject("ark tx without inputs")
        if not len(payment.paths) == len(payment.resets) == len(payment.ark.ins):
            return self._reject("incomplete transcript")
        for pth, rst in zip(payment.paths, payment.resets):
            if not self._check_path(pth, rst):
                return None
            if rst.outpoint(0) not in payment.ark.ins:
                return self._reject("ark does not spend the reset")
        return mine if self.check_witnesses(payment) else None

    def receive_payment(self, payment: ArkPayment) -> Optional[Request]:
        """Audit a received payment; on acceptance store the transcript
        and immediately request a batch swap of the new VTXO."""
        mine = self.audit_payment(payment)
        if mine is None:
            return None
        for v in mine:
            v.expiry = min(sweep_path_height(rst.outs[0].lock) for rst in payment.resets)
            self.holdings[v.key()] = Holding(v, transcript(payment), "ark")
        self.chain.note("wallet", self.name, "payment_accepted",
                        f"{sum(v.value for v in mine)} sat")
        values = [v.value for v in mine]
        values[0] -= self.fee   # swap fee comes out of the received value
        return self.make_swap(mine, values)

    def _check_path(self, pth: List[Tx], rst: Tx) -> Optional[bool]:
        if not pth:
            return self._reject("empty path")
        if not all(tx.ins for tx in pth):
            return self._reject("path tx without inputs")
        if not rst.ins:
            return self._reject("reset without inputs")
        if not rst.outs:
            return self._reject("reset without outputs")
        root = pth[0].ins[0]
        funding = self.chain.output(root) if self.chain.is_confirmed(root.txid) else None
        if funding is None:
            return self._reject("path not rooted onchain")
        for parent, child in zip(pth, pth[1:]):
            if child.ins[0].txid != parent.txid:
                return self._reject("broken path")
        if rst.ins[0].txid != pth[-1].txid:
            return self._reject("reset does not spend the path leaf")
        sweep, batch = (sweep_path_height(o.lock) for o in (rst.outs[0], funding))
        if sweep is None or batch is None or sweep > batch:
            return self._reject("reset expiry mismatch")
        return True

    def check_witnesses(self, payment: ArkPayment) -> Optional[bool]:
        """Replay check, True or None to refuse: the payee replays its
        transcript, parents first, under the ledger's rule (`tx_fault`) at
        the current height, reading a tx's inputs from the transcript's
        earlier txs, or else from the chain's records, never its mempool.
        A path rooted in a remembered tree is that tree's first audit (module
        docstring): `verify_batch` checks the path's nodes, then, unless each
        verifies, the whole tree, each node by `witness_checks`.  A batch
        records only `True` verdicts, so the replay's verdicts do not change."""
        h = self.chain.height
        for pth in payment.paths:
            funding = pth[0].ins[0] if pth and pth[0].ins else None
            batch = self.trees.pop(funding, None)
            # each node of a signed tree carries one signature
            if batch is not None and batch.expiry > h \
                    and len(batch.vtxt.txs) >= BATCH_MIN:
                vtxt = batch.vtxt
                own = [(tx.txid, tx) for tx in pth if tx.txid in vtxt.txs]
                for nodes in (own, vtxt.txs.items()):
                    if verify_batch([check for txid, tx in nodes
                                     for check in witness_checks(tx, [vtxt.spent(txid)], h)]):
                        break
        earlier: Dict[str, Tx] = {}
        for tx in transcript(payment):
            spent = [earlier[op.txid].output(op) if op.txid in earlier else self.chain.output(op)
                     for op in tx.ins]
            fault = tx_fault(tx, spent, h)
            if fault:
                return self._reject(_REPLAY_REASONS[type(fault)])
            earlier[tx.txid] = tx
        return True

    # --- exits -----------------------------------------------------------

    def unilateral_exit(self, vtxo: Vtxo) -> List[Tx]:
        """Publish the stored transcript, skipping any prefix already
        confirmed onchain."""
        holding = self.holdings.get(vtxo.key())
        if holding is None:
            return []
        todo = [tx for tx in holding.transcript
                if not self.chain.is_confirmed(tx.txid)]
        submitted: List[Tx] = []
        for tx in todo:
            try:
                self.chain.submit(tx, self.name)
                submitted.append(tx)
            except SubmitError as e:
                self.chain.note("wallet", self.name, "exit_submit_failed", str(e))
        holding.exited = True
        self.chain.note("wallet", self.name, "unilateral_exit",
                        f"{len(submitted)} txs")
        return submitted

    def spend_policy_step(self) -> List[Tx]:
        """Fire the unilateral fallback at its exit deadline
        (`Params.exit_deadline`) for any VTXO not yet exited."""
        submitted: List[Tx] = []
        h = self.chain.height
        for holding in list(self.holdings.values()):
            if holding.exited:
                continue
            if h >= self.params.exit_deadline(holding.vtxo.expiry):
                submitted.extend(self.unilateral_exit(holding.vtxo))
        return submitted

    # --- balance ---------------------------------------------------------

    def balance(self) -> int:
        """VTXOs not past their exit deadline, and each boarding output
        until a stable tx spends it: then the commitment's VTXOs count
        instead, or the reclaimed output is a plain onchain output, outside
        the Ark balance."""
        h = self.chain.height
        total = 0
        for holding in self.holdings.values():
            if holding.exited:
                continue
            if h <= self.params.exit_deadline(holding.vtxo.expiry):
                total += holding.vtxo.value
        return total + sum(out.value for op, out in self.boarding_outputs
                           if self._boarding_counts(op))

