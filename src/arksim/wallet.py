"""User-side state machine: request construction, commitment
verification, payment receipt, unilateral exit, the exit-deadline
policy, and balance computation.

A wallet keeps a complete transcript (root-to-leaf unroll path, plus any
reset and ark transactions) for every VTXO it holds, so it can always
turn its balance into confirmed UTXOs without the operator's help.
Every refused bundle or payment, accepted payment and unilateral exit is
noted in the chain's trace, with the reason for a refusal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from . import arkcore
from .arkcore import Vtxo, p2pk, reset_tx, sweep_path_height, vtxo_lock
from .crypto import PublicKey, SecretKey
from .ledger import Chain, OutPoint, Output, Params, SubmitError, Tx
from .operator_node import ArkPayment, Bundle, Request, VtxoSpec
from .script import SpendContext, evaluate


@dataclass
class Holding:
    vtxo: Vtxo
    transcript: List[Tx]            # every virtual tx needed to exit, parents first
    kind: str                       # batch | ark
    intent: str = "hold"            # hold | swap | exit | pay
    exited: bool = False


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
        # never read or written here; kept only because the benchmark's
        # workloads (perfbench/workloads.py) still append to it
        self.open_requests: List[Request] = []
        self.fee = 0                # operator's flat per-request fee
        chain.register(name)

    # --- request construction -------------------------------------------

    def make_boarding(self, funds: Sequence[Tuple[OutPoint, int]],
                      values: Sequence[int]) -> Tuple[Tx, Request]:
        tx = arkcore.boarding_tx(funds, self.pk, self.operator_pk,
                                 self.params.t_b, sum(values) + self.fee)
        specs = tuple(VtxoSpec(v, self.name, self.pk) for v in values)
        req = Request("boarding", self.name, boarding_outpoint=tx.outpoint(0),
                      outputs=specs)
        return tx, req

    def make_swap(self, vtxos: Sequence[Vtxo], values: Sequence[int]) -> Request:
        specs = tuple(VtxoSpec(v, self.name, self.pk) for v in values)
        req = Request("batch-swap", self.name, inputs=tuple(vtxos), outputs=specs)
        for v in vtxos:
            self.holdings[v.key()].intent = "swap"
        return req

    def make_exit(self, vtxos: Sequence[Vtxo], values: Sequence[int]) -> Request:
        outs = tuple((v, p2pk(self.pk)) for v in values)
        req = Request("exit", self.name, inputs=tuple(vtxos), exit_outputs=outs)
        for v in vtxos:
            self.holdings[v.key()].intent = "exit"
        return req

    def make_ark_request(self, vtxos: Sequence[Vtxo],
                         outputs: Sequence[VtxoSpec]) -> Request:
        resets = tuple(reset_tx(v, self.operator_pk, v.expiry, self.params.t_u)
                       for v in vtxos)
        req = Request("ark", self.name, inputs=tuple(vtxos), outputs=tuple(outputs),
                      resets=resets,
                      input_expiries=tuple(v.expiry for v in vtxos))
        for v in vtxos:
            self.holdings[v.key()].intent = "pay"
        return req

    # --- commitment verification (the user-side bundle audit) ------------

    def _fail(self, reason: str) -> bool:
        self.chain.note("wallet", self.name, "verify_failed", reason)
        return False

    def verify_path(self, bundle: Bundle, vtxo: Vtxo) -> bool:
        batch = bundle.batch
        if batch is None:
            return self._fail("bundle has no batch")
        if vtxo.outpoint is None:
            return self._fail("leaf has no outpoint")
        try:
            txs = batch.vtxt.path_to(vtxo.outpoint.txid)
        except KeyError:
            return self._fail("leaf missing from the tree")
        for tx in txs:
            members = batch.signers.get(tx.txid, ())
            if self.pk not in members:
                return self._fail("own key missing from a path cosigner set")
            in_value = batch.vtxt.input_values[tx.txid]
            if in_value < sum(o.value for o in tx.outs):
                return self._fail("value increases down the tree")
            for out in tx.outs[:-1] if tx.txid != vtxo.outpoint.txid else ():
                if sweep_path_height(out.lock) != batch.expiry:
                    return self._fail("internal output is not sweep-shaped at expiry")
        leaf_tx = txs[-1]
        out = leaf_tx.outs[vtxo.outpoint.index]
        if out.value != vtxo.value or out.lock != vtxo.lock:
            return self._fail("leaf output mismatch")
        return True

    def verify_connector(self, bundle: Bundle, vtxo: Vtxo) -> bool:
        anchor = bundle.gamma.get(vtxo.key())
        if anchor is None or bundle.connector is None:
            return self._fail("no anchor for forfeited vtxo")
        if anchor not in bundle.connector.anchors:
            return self._fail("anchor not in the connector")
        if bundle.connector.vtxt is None:
            value = bundle.connector.value
        else:
            tx = bundle.connector.vtxt.txs[anchor.txid]
            value = tx.outs[anchor.index].value
        if value != self.params.epsilon:
            return self._fail("anchor value is not epsilon")
        return True

    def _mine(self, bundle: Bundle) -> Iterator[Tuple[Request, List[Vtxo]]]:
        """This wallet's requests in the bundle, each with the leaves made
        for it; an exit has none."""
        for r, leaves in zip(bundle.requests, bundle.leaves):
            if r.party == self.name:
                yield r, leaves

    def verify_commitment(self, bundle: Bundle) -> bool:
        if len(bundle.leaves) != len(bundle.requests):
            return self._fail("leaf lists do not match the requests")
        boarded = [r.boarding_output for r in bundle.requests
                   if r.kind == "boarding"]
        if any(o is None for o in boarded):
            return self._fail("boarding request without its output")
        in_value = sum(o.value for _, o in bundle.funding_ins) \
            + sum(o.value for o in boarded)
        if in_value < sum(o.value for o in bundle.commitment.outs):
            return self._fail("commitment creates value")
        if bundle.batch is not None:
            floor = self.chain.height + 2 * self.params.k + self.params.t_e
            if bundle.batch.expiry < floor:
                return self._fail("batch expiry below the local bound")
            if bundle.batch.value < sum(l.vtxo.value for l in bundle.batch.vtxt.leaves):
                return self._fail("batch value below the leaf total")
        seen: set[Tuple[str, int]] = set()
        for leaves in bundle.leaves:
            for leaf in leaves:
                if leaf.outpoint is None:
                    return self._fail("leaf has no outpoint")
                key = leaf.key()
                if key in seen:
                    return self._fail("two requests aliased to one output")
                seen.add(key)
        for r, leaves in self._mine(bundle):
            if r.kind in ("boarding", "batch-swap"):
                if len(leaves) != len(r.outputs):
                    return self._fail("missing requested vtxo")
                for leaf, spec in zip(leaves, r.outputs):
                    expected = vtxo_lock(spec.owner_pk, self.operator_pk,
                                         self.params.t_u, spec.r_star)
                    if leaf.value != spec.value or leaf.lock != expected:
                        return self._fail("requested vtxo mismatch")
                    if not self.verify_path(bundle, leaf):
                        return False
            if r.kind == "batch-swap":
                for v in r.inputs:
                    if not self.verify_connector(bundle, v):
                        return False
            if r.kind == "exit":
                for value, lock in r.exit_outputs:
                    if Output(value, lock) not in bundle.commitment.outs:
                        return self._fail("exit output missing")
        return True

    # --- lifecycle -------------------------------------------------------

    def on_commitment_confirmed(self, bundle: Bundle) -> None:
        for r, leaves in self._mine(bundle):
            for leaf in leaves:
                transcript = bundle.batch.vtxt.path_to(leaf.outpoint.txid)
                self.holdings[leaf.key()] = Holding(leaf, list(transcript), "batch")
            if r.kind in ("batch-swap", "exit"):
                for v in r.inputs:
                    self.holdings.pop(v.key(), None)
            if r.kind == "boarding":
                self.boarding_outputs = [
                    (op, out) for op, out in self.boarding_outputs
                    if op != r.boarding_outpoint]

    def on_payment_sent(self, req: Request, payment: ArkPayment) -> None:
        # the change inherits the inputs' transcripts, so read them before
        # the inputs leave the holdings
        transcript = self._input_transcripts(req) + list(payment.resets) \
            + [payment.ark]
        for v in req.inputs:
            self.holdings.pop(v.key(), None)
        for out in payment.outputs:
            if out.owner == self.name:  # change output
                self.holdings[out.key()] = Holding(out, list(transcript), "ark")

    def _input_transcripts(self, req: Request) -> List[Tx]:
        txs: List[Tx] = []
        for v in req.inputs:
            h = self.holdings.get(v.key())
            if h is not None:
                for tx in h.transcript:
                    if tx not in txs:
                        txs.append(tx)
        return txs

    def _reject(self, reason: str) -> bool:
        self.chain.note("wallet", self.name, "payment_rejected", reason)
        return False

    def _audit_payment(self, payment: ArkPayment, mine: List[Vtxo]) -> bool:
        if not mine:
            return self._reject("no output")
        for v in mine:
            expected = vtxo_lock(self.pk, self.operator_pk, self.params.t_u)
            if v.outpoint is None or \
                    not 0 <= v.outpoint.index < len(payment.ark.outs):
                return self._reject("output not in the ark tx")
            out = payment.ark.outs[v.outpoint.index]
            if out.lock.commitment != expected.commitment or out.value != v.value:
                return self._reject("output script mismatch")
        if len(payment.paths) != len(payment.ark.ins) or \
                len(payment.resets) != len(payment.ark.ins):
            return self._reject("incomplete transcript")
        for pth, rst, expiry in zip(payment.paths, payment.resets,
                                    payment.input_expiries):
            if not self._check_path(pth, rst, expiry):
                return False
            if rst.outpoint(0) not in payment.ark.ins:
                return self._reject("ark does not spend the reset")
        return self._check_witnesses(payment)

    def receive_payment(self, payment: ArkPayment) -> Optional[Request]:
        """Audit a received payment; on acceptance store the transcript
        and immediately request a batch swap of the new VTXO."""
        mine = [v for v in payment.outputs if v.owner == self.name]
        if not self._audit_payment(payment, mine):
            return None
        transcript: List[Tx] = []
        for pth in payment.paths:
            for tx in pth:
                if tx not in transcript:
                    transcript.append(tx)
        transcript.extend(payment.resets)
        transcript.append(payment.ark)
        for v in mine:
            v.expiry = min(payment.input_expiries)
            self.holdings[v.key()] = Holding(v, list(transcript), "ark")
        self.chain.note("wallet", self.name, "payment_accepted",
                        f"{sum(v.value for v in mine)} sat")
        values = [v.value for v in mine]
        values[0] -= self.fee   # swap fee comes out of the received value
        return self.make_swap(mine, values)

    def _check_path(self, pth: List[Tx], rst: Tx, expiry: int) -> bool:
        if not pth:
            return self._reject("empty path")
        root_src = pth[0].ins[0]
        if not self.chain.is_confirmed(root_src.txid):
            return self._reject("path not rooted onchain")
        for parent, child in zip(pth, pth[1:]):
            if child.ins[0].txid != parent.txid:
                return self._reject("broken path")
        if rst.ins[0].txid != pth[-1].txid:
            return self._reject("reset does not spend the path leaf")
        sweep = sweep_path_height(rst.outs[0].lock)
        if sweep != expiry:
            return self._reject("reset expiry mismatch")
        return True

    def _check_witnesses(self, payment: ArkPayment) -> bool:
        """Replay check: every transcript tx must carry a witness that
        satisfies the output it spends."""
        pool: List[Tx] = []
        for pth in payment.paths:
            pool.extend(pth)
        pool.extend(payment.resets)
        pool.append(payment.ark)
        pool_txs = {tx.txid: tx for tx in pool}
        h = self.chain.height
        for tx in pool:
            if len(tx.wits) != len(tx.ins):
                return self._reject("missing witness")
            for op, wit in zip(tx.ins, tx.wits):
                src = pool_txs.get(op.txid)
                if src is None and op.txid in self.chain.records:
                    src = self.chain.records[op.txid].tx
                if src is None or not 0 <= op.index < len(src.outs):
                    return self._reject("unknown input")
                out = src.outs[op.index]
                ctx = SpendContext(h, h, tx.digest())
                if not evaluate(out.lock, wit, ctx):
                    return self._reject("invalid witness")
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
        """Fire the unilateral fallback at exactly T_e - 2k - 1 for any
        VTXO whose collaborative processing has not completed."""
        submitted: List[Tx] = []
        h = self.chain.height
        for holding in list(self.holdings.values()):
            if holding.exited:
                continue
            deadline = holding.vtxo.expiry - 2 * self.params.k - 1
            if h >= deadline:
                submitted.extend(self.unilateral_exit(holding.vtxo))
        return submitted

    # --- balance ---------------------------------------------------------

    def balance(self) -> int:
        h = self.chain.height
        total = 0
        for holding in self.holdings.values():
            if holding.exited:
                continue
            if holding.vtxo.expiry - h > 2 * self.params.k:
                total += holding.vtxo.value
        for op, out in self.boarding_outputs:
            if self.chain.unspent(op):
                total += out.value
        return total

