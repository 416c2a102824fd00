"""Operator state machine: request intake and verification, commitment
assembly, signing orchestration, the request queue, sweeping, and the
per-round watch loop.

All effects flow through the book's request queue and VTXO sets; the signing
ceremony releases nothing until every required signature (including all
forfeits) is held, and the onchain watcher answers any unrolled spent
VTXO with its stored reset or forfeit transaction.  Each cosign and each
funding signature is noted in the chain's trace under its step's label.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from . import arkcore, crypto
from .arkcore import (
    BATCH_UNROLL_PATH,
    BOARDING_COOP_PATH,
    BatchOutput,
    ConnectorOutput,
    SignerTree,
    Vtxo,
    batch_lock,
    build_connector,
    build_vtxt,
    classify_paths,
    collab_aggregate,
    forfeit_tx,
    p2pk,
    reset_tx,
    sweep_path_height,
)
from .crypto import PublicKey, SecretKey, SessionAborted
from .errors import InvariantError
from .ledger import Chain, OutPoint, Output, Params, SubmitError, Tx
from .script import KEY_PATH, UNSPENDABLE, LockScript, Witness, taproot


class Reject(Exception):
    pass


@dataclass
class VtxoSpec:
    """Requested output: value to a fresh single-signature VTXO."""
    value: int
    owner: str
    owner_pk: PublicKey
    r_star: Optional[Tuple[int, int]] = None


@dataclass(eq=False)
class Request:
    """One party's request; compared and hashed by identity, so the book
    queues, bundles, re-queues and retires the request object itself."""
    kind: str                      # boarding | batch-swap | exit | ark
    party: str
    cosigners: Tuple[PublicKey, ...] = ()
    boarding_outpoint: Optional[OutPoint] = None
    boarding_output: Optional[Output] = None
    inputs: Tuple[Vtxo, ...] = ()
    outputs: Tuple[VtxoSpec, ...] = ()
    exit_outputs: Tuple[Tuple[int, LockScript], ...] = ()
    resets: Tuple[Tx, ...] = ()
    input_expiries: Tuple[int, ...] = ()


def _require_kind(r: Request, kind: str) -> None:
    if r.kind != kind:
        raise Reject(f"expected a {kind} request, got {r.kind!r}")


def _input_key(v: Vtxo) -> Tuple[str, int]:
    if v.outpoint is None:
        raise Reject("input VTXO has no outpoint")
    return v.key()


def check_conservation(account: Dict[str, int]) -> None:
    """The commitment's conservation identity: liquidity and boarding
    inputs equal the batch, exit, change and connector outputs."""
    if account["L"] + account["B"] != (account["V"] + account["U"] + account["M"]
                                       + account["connector"]):
        raise InvariantError(f"commitment does not conserve value: {account}")


def _held_keys(r: Request) -> List[Tuple[str, int]]:
    """The outpoints a queued request holds in `OperatorBook.preSpent`."""
    if r.kind == "boarding":
        return [(r.boarding_outpoint.txid, r.boarding_outpoint.index)]
    return [v.key() for v in r.inputs]


@dataclass
class OperatorBook:
    """The operator's book.  `queue` holds the paper's three request lists
    (to board, to batch-swap, to exit) as one list in arrival order, told
    apart by `Request.kind`."""
    queue: List[Request] = field(default_factory=list)
    confirmedVTXO: Dict[Tuple[str, int], Vtxo] = field(default_factory=dict)
    confirmedBatches: List[BatchOutput] = field(default_factory=list)
    spent: List[Tuple[Vtxo, Tx]] = field(default_factory=list)
    preSpent: Set[Tuple[str, int]] = field(default_factory=set)
    preConfirmed: Dict[Tuple[str, int], Vtxo] = field(default_factory=dict)


@dataclass
class Bundle:
    """Everything the parties inspect and sign for one commitment.
    `requests` holds the bundled requests in assembly order (boarding
    requests, then batch swaps, then exits), and `leaves[i]` the leaf
    VTXOs made for `requests[i]`; an exit's list is empty.  The commitment
    spends `funding_ins` first, then each boarding request's output."""
    commitment: Tx
    batch: Optional[BatchOutput]
    connector: Optional[ConnectorOutput]
    gamma: Dict[Tuple[str, int], OutPoint]          # forfeited vtxo -> anchor
    requests: List[Request]
    leaves: List[List[Vtxo]]
    funding_ins: List[Tuple[OutPoint, Output]]      # operator liquidity inputs
    forfeits: Dict[Tuple[str, int], Tx] = field(default_factory=dict)
    submit_height: Optional[int] = None
    account: Dict[str, int] = field(default_factory=dict)  # Lemma-4 style flows


@dataclass
class ArkPayment:
    """Signed payload handed to a payee: the ark tx, its reset txs, and
    per-input unroll paths with their batch expiries."""
    ark: Tx
    resets: List[Tx]
    paths: List[List[Tx]]
    input_expiries: List[int]
    outputs: List[Vtxo]


class Operator:
    def __init__(self, name: str, sk: SecretKey, chain: Chain, params: Params,
                 fee: int = 0):
        self.name = name
        self.sk = sk
        self.pk = sk.public()
        self.chain = chain
        self.params = params
        self.fee = fee              # flat per-request fee
        self.book = OperatorBook()
        self.liquidity: List[Tuple[OutPoint, Output]] = []
        self.pending_bundles: List[Bundle] = []
        self.cosigned_spends: Dict[Tuple[str, int], str] = {}
        self.reset_sweeps: List[Tuple[OutPoint, int]] = []  # (outpoint, expiry)
        self.use_resets = True
        self.collected_fees = 0
        self._confirmed_bundles: List[Bundle] = []
        chain.register(name)

    # --- funding ---------------------------------------------------------

    def fund(self, value: int) -> OutPoint:
        op = self.chain.grant(value, p2pk(self.pk))
        self.liquidity.append((op, Output(value, p2pk(self.pk))))
        return op

    def _spendable_liquidity(self) -> List[Tuple[OutPoint, Output]]:
        return [(op, out) for op, out in self.liquidity if self.chain.unspent(op)]

    def onchain_balance(self) -> int:
        total = 0
        for op, entry in self.chain.utxos.items():
            lock = entry.output.lock
            if lock == p2pk(self.pk):
                total += entry.output.value
        return total

    # --- instrumented cosigning -----------------------------------------

    def _cosign(self, tx: Tx, members: Sequence[PublicKey],
                secrets: Dict[str, SecretKey], label: str) -> crypto.Signature:
        # honest single-spend discipline: never co-sign two different
        # transactions spending the same input
        for op in tx.ins:
            key = (op.txid, op.index)
            prior = self.cosigned_spends.get(key)
            if prior is not None and prior != tx.txid and label not in ("forfeit", "boarding"):
                raise Reject(f"operator already co-signed a spend of {key}")
        sks = []
        for m in members:
            sk = secrets.get(m.hex())
            if sk is None:
                raise SessionAborted(f"{label}: signer {m.hex()[:8]} absent")
            sks.append(sk)
        sig = crypto.cosign(tx.digest(), sks, crypto.aggregate(members))
        self.chain.note("operator_node", self.name, label, tx.txid[:8])
        for op in tx.ins:
            self.cosigned_spends[(op.txid, op.index)] = tx.txid
        return sig

    # --- request intake --------------------------------------------------

    def _enqueue(self, r: Request) -> None:
        self.book.queue.append(r)
        self.book.preSpent.update(_held_keys(r))

    def verify_boarding(self, r: Request) -> None:
        _require_kind(r, "boarding")
        if r.boarding_outpoint is None:
            raise Reject("boarding request names no outpoint")
        if not self.chain.unspent(r.boarding_outpoint, depth=self.params.k):
            raise Reject("boarding output not confirmed in the stable view")
        if _held_keys(r)[0] in self.book.preSpent:
            raise Reject("boarding output already pending")
        out = self.chain.utxos[r.boarding_outpoint].output
        try:
            classify_paths(out.lock, self.pk, self.params.t_b)
        except arkcore.ArkError as e:
            raise Reject(f"boarding lock unsafe: {e}")
        if out.value < sum(s.value for s in r.outputs) + self.fee:
            raise Reject("funds do not cover the requested VTXOs")
        r.boarding_output = out
        self._enqueue(r)

    def _check_inputs(self, r: Request, kind: str, out_value: int) -> None:
        """The intake rule for every request that spends VTXOs: each input
        is a known VTXO not already pending, and `out_value` (outputs plus
        any fee) does not exceed the inputs."""
        _require_kind(r, kind)
        for v in r.inputs:
            key = _input_key(v)
            if key not in self.book.confirmedVTXO and key not in self.book.preConfirmed:
                raise Reject(f"UnknownVtxo {key}")
            if key in self.book.preSpent:
                raise Reject(f"AlreadyPending {key}")
        if out_value > sum(v.value for v in r.inputs):
            raise Reject("ValueExceeded")

    def verify_batch_swap(self, r: Request) -> None:
        self._check_inputs(r, "batch-swap",
                           sum(s.value for s in r.outputs) + self.fee)
        self._enqueue(r)

    def verify_exit(self, r: Request) -> None:
        self._check_inputs(r, "exit", sum(v for v, _ in r.exit_outputs) + self.fee)
        self._enqueue(r)

    # --- ark transactions ------------------------------------------------

    def verify_ark_request(self, r: Request, secrets: Dict[str, SecretKey]
                           ) -> ArkPayment:
        """Check and co-sign an offchain payment: the ark tx is signed
        first, the reset txs last, so the payer never holds a usable
        reset without the payment being complete."""
        self._check_inputs(r, "ark", sum(s.value for s in r.outputs))
        all_secrets = dict(secrets)
        all_secrets[self.pk.hex()] = self.sk
        outputs = [self._make_leaf(s) for s in r.outputs]
        for out in outputs:
            out.expiry = min(r.input_expiries)  # inherits the earliest input expiry
        if self.use_resets:
            if len(r.resets) != len(r.inputs):
                raise Reject("MissingReset")
            resets = list(r.resets)
            for v, rst, exp in zip(r.inputs, resets, r.input_expiries):
                if exp != v.expiry:
                    raise Reject("MissingReset: wrong expiry")
                expected = reset_tx(v, self.pk, v.expiry, self.params.t_u)
                if rst.txid != expected.txid:
                    raise Reject("MissingReset: reset does not re-lock the input")
            ark = arkcore.ark_tx(
                [(rst.outpoint(0), rst.outs[0].value) for rst in resets], outputs)
            # sign the ark tx first ...
            for v, rst in zip(r.inputs, resets):
                members = crypto.aggregate([v.owner_pk, self.pk]).members
                sig = self._cosign(ark, members, all_secrets, "ark")
                ark.wits.append(Witness(0, (sig,), rst.outs[0].lock.paths))
            # ... the reset txs last
            for v, rst in zip(r.inputs, resets):
                collab_idx, _ = classify_paths(v.lock, self.pk, self.params.t_u)
                members = crypto.aggregate([v.owner_pk, self.pk]).members
                sig = self._cosign(rst, members, all_secrets, "reset")
                rst.wits = [Witness(collab_idx[0], (sig,), v.lock.paths)]
        else:
            # legacy shape without reset transactions: the ark tx spends
            # the input VTXOs directly (the hostage-attack configuration)
            resets = []
            ark = arkcore.ark_tx(
                [(v.outpoint, v.value) for v in r.inputs], outputs)
            for v in r.inputs:
                collab_idx, _ = classify_paths(v.lock, self.pk, self.params.t_u)
                members = crypto.aggregate([v.owner_pk, self.pk]).members
                sig = self._cosign(ark, members, all_secrets, "ark")
                ark.wits.append(Witness(collab_idx[0], (sig,), v.lock.paths))
        for v, rst in zip(r.inputs, resets or [None] * len(r.inputs)):
            key = v.key()
            self.book.confirmedVTXO.pop(key, None)
            self.book.preConfirmed.pop(key, None)
            self.book.preSpent.add(key)
            if rst is not None:
                self.book.spent.append((v, rst))
                self.reset_sweeps.append((rst.outpoint(0), v.expiry))
        for out in outputs:
            self.book.preConfirmed[out.key()] = out
        return ArkPayment(ark, resets, [], list(r.input_expiries), outputs)

    # --- commitment assembly --------------------------------------------

    def _make_leaf(self, spec: VtxoSpec) -> Vtxo:
        lock = arkcore.vtxo_lock(spec.owner_pk, self.pk, self.params.t_u, spec.r_star)
        return Vtxo(spec.value, lock, spec.owner, spec.owner_pk)

    def assemble_commitment(self) -> Optional[Bundle]:
        requests = [r for kind in ("boarding", "batch-swap", "exit")
                    for r in self.book.queue if r.kind == kind]
        if not requests:
            return None
        h = self.chain.height
        expiry = h + 2 * self.params.k + self.params.t_e

        made = [[self._make_leaf(s) for s in r.outputs] for r in requests]
        leaves = [v for vs in made for v in vs]
        forfeited = [v for r in requests if r.kind == "batch-swap" for v in r.inputs]
        exit_outs = [o for r in requests if r.kind == "exit" for o in r.exit_outputs]
        boarded = [(r.boarding_outpoint, r.boarding_output)
                   for r in requests if r.kind == "boarding"]

        batch_value = sum(v.value for v in leaves)
        connector_value = len(forfeited) * self.params.epsilon
        exit_value = sum(v for v, _ in exit_outs)
        boarding_value = sum(o.value for _, o in boarded)
        request_fees = self.fee * len(requests)

        # operator funding: batches + connectors + exits must be covered by
        # liquidity plus boarding inputs (swapped value returns via forfeits)
        need = batch_value + connector_value + exit_value - boarding_value
        funding: List[Tuple[OutPoint, Output]] = []
        have = 0
        for op, out in self._spendable_liquidity():
            if have >= max(need, 0) + 1:
                break
            funding.append((op, out))
            have += out.value
        if have + boarding_value < batch_value + connector_value + exit_value:
            raise Reject("InsufficientLiquidity")
        # each verified request already carries fee headroom, so the fee
        # surplus accrues inside the change output
        change = have + boarding_value - batch_value - connector_value - exit_value
        if change < 0:
            raise Reject("InsufficientLiquidity")

        ins = [op for op, _ in funding] + [op for op, _ in boarded]
        outs: List[Output] = []
        out_index: Dict[str, int] = {}
        if leaves:
            out_index["batch"] = len(outs)
            members = [self.pk] + [v.owner_pk for v in leaves]
            uniq = {m.hex(): m for m in members}
            outs.append(Output(batch_value, batch_lock(
                self.pk, crypto.aggregate(uniq.values()), expiry)))
        if forfeited:
            out_index["connector"] = len(outs)
            outs.append(Output(connector_value, p2pk(self.pk)))
        for v, lock in exit_outs:
            outs.append(Output(v, lock))
        if change > 0:
            out_index["change"] = len(outs)
            outs.append(Output(change, p2pk(self.pk)))
        commitment = Tx(ins=tuple(ins), outs=tuple(outs))

        batch = None
        signer_tree: SignerTree = {}
        if leaves:
            fund_op = commitment.outpoint(out_index["batch"])
            vtxt, signer_tree = build_vtxt(fund_op, leaves, self.pk, expiry,
                                           self.params.arity)
            batch = BatchOutput(batch_value, expiry, outs[out_index["batch"]].lock,
                                vtxt, signer_tree)
        connector = None
        gamma: Dict[Tuple[str, int], OutPoint] = {}
        if forfeited:
            conn_op = commitment.outpoint(out_index["connector"])
            connector = build_connector(conn_op, len(forfeited), self.pk,
                                        self.params.epsilon, self.params.arity)
            for v, anchor in zip(forfeited, connector.anchors):
                gamma[v.key()] = anchor

        account = {
            "L": have, "B": boarding_value, "V": batch_value,
            "U": exit_value, "M": change, "F": request_fees,
            "connector": connector_value,
        }
        check_conservation(account)

        return Bundle(commitment, batch, connector, gamma, requests, made,
                      funding, account=account)

    # --- signing ceremony ------------------------------------------------

    def run_signing(self, bundle: Bundle, wallets: Dict[str, "object"],
                    abort: Optional[Callable[[str, str], bool]] = None,
                    extra_secrets: Optional[Dict[str, SecretKey]] = None) -> Bundle:
        """Gather every signature for a commitment, in the safe order:
        (1) parties verify the bundle, (2) VTXT cosign sessions,
        (3) forfeits collected and checked, (4) boarding cosigns,
        (5) only then the operator signs its funding inputs.
        Any failure aborts with no witnesses released to anyone."""
        def maybe_abort(step: str, party: str) -> None:
            if abort is not None and abort(step, party):
                raise SessionAborted(f"{step}: {party} unresponsive")

        parties = {r.party for r in bundle.requests}
        # step 1: every involved party verifies the bundle
        for party in sorted(parties):
            maybe_abort("verify", party)
            wallet = wallets[party]
            if not wallet.verify_commitment(bundle):
                raise SessionAborted(f"verify: {party} rejected the bundle")

        secrets: Dict[str, SecretKey] = {self.pk.hex(): self.sk}
        for party in parties:
            secrets[wallets[party].pk.hex()] = wallets[party].sk
        if extra_secrets:
            secrets.update(extra_secrets)

        # step 2: VTXT cosigning sessions, root first
        if bundle.batch is not None:
            vtxt = bundle.batch.vtxt
            party_of = {w.pk: name for name, w in wallets.items()}
            for txid in vtxt.order:
                members = bundle.batch.signers[txid]
                for m in members:
                    owner = party_of.get(m)
                    if owner is not None:
                        maybe_abort("vtxt", owner)
                tx = vtxt.txs[txid]
                sig = self._cosign(tx, members, secrets, "vtxt")
                tx.wits = [Witness(BATCH_UNROLL_PATH, (sig,),
                                   vtxt.input_locks[txid].paths)]

        # step 3: forfeit transactions, collected and checked; the spent
        # path is the input lock's own collaborative aggregate, which may
        # name a previous operator (handover)
        swaps = [r for r in bundle.requests if r.kind == "batch-swap"]
        for r in swaps:
            for v in r.inputs:
                maybe_abort("forfeit", r.party)
                anchor = bundle.gamma[v.key()]
                ff = forfeit_tx(v, anchor, self.pk, self.params.epsilon)
                collab_idx, agg = collab_aggregate(v.lock)
                sig = self._cosign(ff, agg.members, secrets, "forfeit")
                anchor_sig = crypto.sign(self.sk, ff.digest())
                ff.wits = [Witness(collab_idx, (sig,), v.lock.paths),
                           Witness(KEY_PATH, (anchor_sig,))]
                if ff.ins != (v.outpoint, anchor):
                    raise SessionAborted("forfeit inputs do not match")
                bundle.forfeits[v.key()] = ff

        # the commitment spends the funding inputs first, then the
        # boarding inputs (see assemble_commitment)
        wits: List[Optional[Witness]] = [None] * len(bundle.commitment.ins)
        n_funding = len(bundle.funding_ins)

        # step 4: boarding cosigns
        to_board = [r for r in bundle.requests if r.kind == "boarding"]
        for i, r in enumerate(to_board, start=n_funding):
            maybe_abort("boarding", r.party)
            members = crypto.aggregate([wallets[r.party].pk, self.pk]).members
            sig = self._cosign(bundle.commitment, members, secrets, "boarding")
            wits[i] = Witness(BOARDING_COOP_PATH, (sig,),
                              r.boarding_output.lock.paths)

        # step 5: the operator funds the commitment only now
        maybe_abort("fund", self.name)
        for i in range(n_funding):
            sig = crypto.sign(self.sk, bundle.commitment.digest())
            wits[i] = Witness(KEY_PATH, (sig,))
            self.chain.note("operator_node", self.name, "fund",
                            bundle.commitment.txid[:8])
        bundle.commitment.wits = wits  # type: ignore[assignment]
        return bundle

    # --- submission and tracking ----------------------------------------

    def submit_and_track(self, bundle: Bundle) -> None:
        self.chain.submit(bundle.commitment, self.name)
        bundle.submit_height = self.chain.height
        self.pending_bundles.append(bundle)
        taken = set(bundle.requests)
        self.book.queue = [r for r in self.book.queue if r not in taken]

    def _apply_confirmed(self, bundle: Bundle) -> None:
        book = self.book
        if bundle.batch is not None:
            book.confirmedBatches.append(bundle.batch)
            for leaf in bundle.batch.vtxt.leaves:
                v = leaf.vtxo
                book.confirmedVTXO[v.key()] = v
                book.preConfirmed.pop(v.key(), None)
        swaps = [r for r in bundle.requests if r.kind == "batch-swap"]
        for r in swaps:
            for v in r.inputs:
                key = v.key()
                book.confirmedVTXO.pop(key, None)
                book.preConfirmed.pop(key, None)
                book.spent.append((v, bundle.forfeits[key]))
        self.collected_fees += bundle.account.get("F", 0)
        # spent funding outputs leave the liquidity list; change re-enters
        spent_ops = set(bundle.commitment.ins)
        self.liquidity = [(op, out) for op, out in self.liquidity
                          if op not in spent_ops]
        for i, out in enumerate(bundle.commitment.outs):
            if out.lock == p2pk(self.pk):
                self.liquidity.append((bundle.commitment.outpoint(i), out))
        self._confirmed_bundles.append(bundle)

    def _rollback(self, bundle: Bundle) -> None:
        # the re-queued requests keep their outpoints in preSpent
        book = self.book
        book.queue.extend(bundle.requests)
        if bundle.batch is not None:
            for leaf in bundle.batch.vtxt.leaves:
                book.preConfirmed.pop(leaf.vtxo.key(), None)

    # --- sweeping --------------------------------------------------------

    def _sweep_outpoint(self, op: OutPoint) -> List[Tx]:
        """Routine-13 recursion: claim the output if still unspent, else
        descend into its unrolled children that carry a sweep path."""
        chain = self.chain
        if chain.unspent(op):
            entry = chain.utxos[op]
            height = sweep_path_height(entry.output.lock)
            if height is None:
                return []
            sweep = Tx(ins=(op,), outs=(Output(entry.output.value, p2pk(self.pk)),))
            idx = next(i for i, p in enumerate(entry.output.lock.paths)
                       if sweep_path_height(taproot(UNSPENDABLE, [p])) == height)
            sig = crypto.sign(self.sk, sweep.digest())
            sweep.wits = [Witness(idx, (sig,), entry.output.lock.paths)]
            try:
                chain.submit(sweep, self.name)
            except SubmitError:
                return []
            return [sweep]
        spender = chain.spent_by.get(op)
        if spender is None or not chain.is_confirmed(spender):
            return []
        submitted: List[Tx] = []
        child = chain.records[spender].tx
        for i, out in enumerate(child.outs):
            if sweep_path_height(out.lock) is not None:
                submitted.extend(self._sweep_outpoint(child.outpoint(i)))
        return submitted

    def sweep(self, batch: BatchOutput) -> List[Tx]:
        return self._sweep_outpoint(batch.vtxt.funding)

    # --- per-round watcher ----------------------------------------------

    def watch_step(self) -> List[Tx]:
        """Routine-19 loop: track pending commitments, sweep expired
        batches and reset outputs, and answer unrolled spent VTXOs with
        their stored reset or forfeit transactions."""
        chain = self.chain
        submitted: List[Tx] = []

        for bundle in list(self.pending_bundles):
            if chain.is_stable(bundle.commitment.txid):
                self._apply_confirmed(bundle)
                self.pending_bundles.remove(bundle)
            elif (bundle.submit_height is not None
                  and chain.height >= bundle.submit_height + self.params.t_r
                  and not chain.is_confirmed(bundle.commitment.txid)):
                self._rollback(bundle)
                self.pending_bundles.remove(bundle)

        # sweep expired batches (timed so the sweep lands at expiry)
        for batch in list(self.book.confirmedBatches):
            if chain.height >= batch.expiry - 1:
                submitted.extend(self.sweep(batch))
                if chain.height >= batch.expiry:
                    self.book.confirmedBatches.remove(batch)
        # sweep reset outputs at their batch's expiry
        for entry in list(self.reset_sweeps):
            op, expiry = entry
            if chain.height >= expiry - 1:
                if op.txid in chain.records and chain.is_confirmed(op.txid):
                    submitted.extend(self._sweep_outpoint(op))
                if chain.height >= expiry:
                    self.reset_sweeps.remove(entry)

        # answer unrolled spent VTXOs
        for v, tx in list(self.book.spent):
            if v.outpoint is None:
                raise InvariantError(f"spent VTXO of {v.owner} in the book has no outpoint")
            if chain.unspent(v.outpoint) and not chain.is_confirmed(tx.txid):
                package = self._prerequisites(tx) + [tx]
                try:
                    chain.submit_package(package, self.name)
                    submitted.extend(package)
                except SubmitError:
                    pass
        return submitted

    def _prerequisites(self, tx: Tx) -> List[Tx]:
        """Connector-tree transactions needed before a forfeit's anchor
        input exists onchain."""
        need: List[Tx] = []
        # a forfeit enters book.spent only when its bundle is confirmed
        for bundle in self._confirmed_bundles:
            if bundle.connector is None or bundle.connector.vtxt is None:
                continue
            vtxt = bundle.connector.vtxt
            for op in tx.ins:
                if op.txid in vtxt.txs:
                    for node in vtxt.path_to(op.txid):
                        if not self.chain.is_confirmed(node.txid):
                            if not node.wits:
                                sig = crypto.sign(self.sk, node.digest())
                                node.wits = [Witness(KEY_PATH, (sig,))]
                            need.append(node)
        return need
