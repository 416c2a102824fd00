"""Operator state machine: request intake and verification, commitment
assembly, signing orchestration, the request queue, sweeping, and the
per-round watch loop.

All effects flow through the book's request queue and VTXO sets; the signing
ceremony releases nothing until every required signature (including all
forfeits) is held.  The operator's funding is derived from the chain, and
one deadline table drives its watcher: sweeps at expiry (Routine 13),
answers to unrolled spent VTXOs (Routine 19) and connector reservations.
Each cosign, funding signature, sweep and release is noted in the trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from . import arkcore, crypto
from .arkcore import (
    BATCH_UNROLL_PATH,
    BOARDING_COOP_PATH,
    BatchOutput,
    ConnectorOutput,
    SignerTree,
    Vtxo,
    Vtxt,
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
    spent: Set[Tuple[str, int]] = field(default_factory=set)  # S: reset or forfeited
    preSpent: Set[Tuple[str, int]] = field(default_factory=set)
    preConfirmed: Dict[Tuple[str, int], Vtxo] = field(default_factory=dict)


class Deadline(NamedTuple):
    """A deadline table entry: due from height `not_before` on, dropped at
    `drop_at`.  The payload is the batch to sweep, the answer's tx and
    connector tree, or the outpoints a reservation keeps out of funding."""
    action: str                    # one of WATCH_ORDER
    not_before: int
    drop_at: int
    payload: object = None


# watch_step's order; the entries of one action run in insertion order
WATCH_ORDER = ("reserve", "sweep-batch", "sweep-reset", "answer")


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
        self.pending_bundles: List[Bundle] = []
        self.cosigned_spends: Dict[Tuple[str, int], str] = {}
        self.deadlines: Dict[OutPoint, Deadline] = {}
        self.use_resets = True
        self.collected_fees = 0
        chain.register(name)

    # --- funding ---------------------------------------------------------

    def fund(self, value: int) -> OutPoint:
        return self.chain.grant(value, p2pk(self.pk))

    def _own_utxos(self) -> List[Tuple[OutPoint, int, Output]]:
        """(outpoint, confirm height, output) of each operator UTXO."""
        lock = p2pk(self.pk)
        return [(op, e.confirm_height, e.output)
                for op, e in self.chain.utxos.items() if e.output.lock == lock]

    def reserved(self) -> Set[OutPoint]:
        """The outpoints of every connector still held out of funding."""
        return {op for d in self.deadlines.values() if d.action == "reserve"
                for op in d.payload}

    def spendable_liquidity(self) -> List[Tuple[OutPoint, Output]]:
        """The operator's funding, derived from the chain: its outputs that
        are k blocks deep or were minted by `Chain.grant`, less the
        reserved connector outputs, largest first and then by outpoint."""
        chain, reserved = self.chain, self.reserved()
        found = [(op, out) for op, height, out in self._own_utxos()
                 if op not in reserved and (chain.height - height >= self.params.k
                                            or not chain.records[op.txid].tx.ins)]
        return sorted(found, key=lambda f: (-f[1].value, f[0].txid, f[0].index))

    def onchain_balance(self) -> int:
        return sum(out.value for _, _, out in self._own_utxos())

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
            if v.outpoint is None:
                raise Reject("input VTXO has no outpoint")
            key = v.key()
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
        for v in r.inputs:
            self.book.confirmedVTXO.pop(v.key(), None)
            self.book.preConfirmed.pop(v.key(), None)
            self.book.preSpent.add(v.key())
        for v, rst in zip(r.inputs, resets):
            self._answer(v, rst)
            self.deadlines[rst.outpoint(0)] = Deadline("sweep-reset", v.expiry - 1, v.expiry)
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
        expiry = self.chain.height + 2 * self.params.k + self.params.t_e

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

        # operator funding, largest first, until it covers the batches,
        # connectors and exits less the boarding inputs (swapped value
        # returns via forfeits); each verified request carries fee headroom,
        # so the fee surplus accrues inside the change output
        need = batch_value + connector_value + exit_value - boarding_value
        funding: List[Tuple[OutPoint, Output]] = []
        have = 0
        for op, out in self.spendable_liquidity():
            if have > max(need, 0):
                break
            funding.append((op, out))
            have += out.value
        change = have - need
        if change < 0:
            raise Reject("InsufficientLiquidity")
        if not self.reserved().isdisjoint(op for op, _ in funding):
            raise InvariantError("funding spends a reserved connector output")

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
            gamma = {v.key(): anchor for v, anchor in zip(forfeited, connector.anchors)}

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
            if not wallets[party].verify_commitment(bundle):
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
        """Book a stable commitment: sweep its batch at expiry, answer each
        VTXO it forfeits with its forfeit, and reserve every output of its
        connector tree until max(v.expiry) + t_u over those VTXOs.  Until
        then an unrolled forfeited VTXO's owner can still claim it, and
        the forfeit that must win that race spends a connector anchor.
        Boarding and swap inputs leave `preSpent`, which intake no longer
        needs for them; an exit's stay, as the book keeps its VTXO in C."""
        book, batch = self.book, bundle.batch
        if batch is not None:
            self.deadlines[batch.vtxt.funding] = Deadline(
                "sweep-batch", batch.expiry - 1, batch.expiry, batch)
            for leaf in batch.vtxt.leaves:
                v = leaf.vtxo
                book.confirmedVTXO[v.key()] = v
                book.preConfirmed.pop(v.key(), None)
        forfeited = [v for r in bundle.requests if r.kind == "batch-swap"
                     for v in r.inputs]
        tree = bundle.connector.vtxt if bundle.connector else None
        for v in forfeited:
            book.confirmedVTXO.pop(v.key(), None)
            book.preConfirmed.pop(v.key(), None)
            self._answer(v, bundle.forfeits[v.key()], tree)
        for r in bundle.requests:
            if r.kind != "exit":
                book.preSpent.difference_update(_held_keys(r))
        self.collected_fees += bundle.account.get("F", 0)
        if bundle.connector is not None:
            op = bundle.connector.funding
            nodes = tree.txs.values() if tree else ()
            held = [op] + [tx.outpoint(i) for tx in nodes for i in range(len(tx.outs))]
            released = max(v.expiry for v in forfeited) + self.params.t_u + 1
            self.deadlines[op] = Deadline("reserve", released, released, frozenset(held))

    def _answer(self, v: Vtxo, tx: Tx, tree: Optional[Vtxt] = None) -> None:
        """Book `v` as spent, and answer any unroll of it with `tx` until
        v.expiry + t_u, the last height its owner's claim can open at."""
        if v.outpoint is None:
            raise InvariantError(f"spent VTXO of {v.owner} in the book has no outpoint")
        self.book.spent.add(v.key())
        self.deadlines[v.outpoint] = Deadline(
            "answer", self.chain.height, v.expiry + self.params.t_u + 1, (tx, tree))

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
                if chain.submit(sweep, self.name):
                    chain.note("operator_node", self.name, "sweep", sweep.txid[:8])
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
        """Routine-19 loop: book stable commitments, roll back lost ones,
        then run the table's due entries: release connectors, sweep expired
        batches and reset outputs, and answer each unrolled spent VTXO
        with its stored reset or forfeit transaction."""
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

        due = [(op, d) for op, d in self.deadlines.items() if chain.height >= d.not_before]
        for action in WATCH_ORDER:
            for op, d in (item for item in due if item[1].action == action):
                if action == "reserve":
                    chain.note("operator_node", self.name, "release", op.txid[:8])
                elif action == "sweep-batch":
                    submitted.extend(self.sweep(d.payload))
                elif action == "sweep-reset":
                    submitted.extend(self._sweep_outpoint(op))
                else:
                    tx, tree = d.payload
                    if chain.unspent(op) and not chain.is_confirmed(tx.txid):
                        package = self._prerequisites(tx, tree) + [tx]
                        try:
                            chain.submit_package(package, self.name)
                            submitted.extend(package)
                        except SubmitError:
                            pass
        for op, d in due:
            if chain.height >= d.drop_at:
                del self.deadlines[op]
        return submitted

    def _prerequisites(self, tx: Tx, tree: Optional[Vtxt]) -> List[Tx]:
        """The connector-tree transactions needed before a forfeit's anchor
        input (its last) exists onchain."""
        if tree is None or tx.ins[-1].txid not in tree.txs:
            return []
        need = [node for node in tree.path_to(tx.ins[-1].txid)
                if not self.chain.is_confirmed(node.txid)]
        for node in need:
            if not node.wits:
                node.wits = [Witness(KEY_PATH, (crypto.sign(self.sk, node.digest()),))]
        return need
