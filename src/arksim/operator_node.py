"""Operator state machine: request intake and verification, commitment
assembly, signing orchestration, the request queue, sweeping, and the
per-round watch loop.

Intake reads every input as booked, and derives each reset and expiry
itself.  The book is the request queue and one VTXO map, each VTXO in one
of the sets C, F or S; what a request holds is read from where it is.
The signing ceremony derives every session of a commitment (tree nodes,
forfeits, boarding inputs and exits), checks consent for all of them, and
signs them in order, so it releases nothing until every required signature
(including all forfeits) is held.  The operator's funding is derived from
the chain, and one deadline table drives its watcher: sweeps at expiry
(Routine 13), answers to unrolled spent VTXOs (Routine 19) and connector
reservations.  Each cosign, funding signature, sweep and release is noted
in the trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from . import arkcore, crypto
from .arkcore import (
    BatchOutput,
    ConnectorOutput,
    Vtxo,
    Vtxt,
    build_connector,
    build_vtxt,
    classify_paths,
    collab_aggregate,
    cosigners,
    forfeit_tx,
    nonce_bound_path,
    p2pk,
    reset_tx,
    sweep_path,
)
from .crypto import AggregateKey, PublicKey, SecretKey, SessionAborted
from .errors import InvariantError
from .ledger import Chain, OutPoint, Output, Params, SubmitError, Tx
from .script import KEY_PATH, LockScript, Witness

if TYPE_CHECKING:
    from .fastfinality import FfOperator


class Reject(Exception):
    pass


def chunked(items: Sequence, size: int) -> List[Sequence]:
    """`items` in consecutive slices of at most `size`."""
    return [items[i:i + size] for i in range(0, len(items), size)]


def sign_ahead(sessions: Sequence[Tuple[Tx, Sequence[PublicKey]]],
               secrets: Dict[str, SecretKey],
               solo: Sequence[Tuple[SecretKey, Tx]] = ()) -> None:
    """Fill the signing memo, in one `crypto.sign_batch` pass, with what
    a ceremony is about to sign: the cosignature of each (tx, members)
    session, under its members' secrets in `secrets` (hex key -> secret),
    and each (secret, tx) of `solo` signed alone.  A session's secrets are
    listed in its members' order, as `Operator._cosign` lists them, so the
    two share one aggregate-secret memo entry.  A caller then signs as
    before, its checks and aborts first, and finds each signature in the
    memo, so it passes at most `crypto.SIGN_BATCH_MAX` signatures.  Below
    `crypto.SIGN_BATCH_MIN` nothing is computed."""
    if len(sessions) + len(solo) < crypto.SIGN_BATCH_MIN:
        return
    crypto.sign_batch([(sk, tx.digest()) for sk, tx in solo]
                      + [([secrets[m.hex()] for m in members], tx.digest())
                         for tx, members in sessions])


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
    queues, bundles, re-queues and retires the request object itself.  The
    operator reads a boarding output from the chain, an input from its book."""
    kind: str                      # boarding | batch-swap | exit | ark
    party: str
    boarding_outpoint: Optional[OutPoint] = None
    inputs: Tuple[Vtxo, ...] = ()
    outputs: Tuple[VtxoSpec, ...] = ()
    exit_outputs: Tuple[Tuple[int, LockScript], ...] = ()


def _require_kind(r: Request, kind: str) -> None:
    """`r` is a `kind` request and asks for no negative output value."""
    if r.kind != kind:
        raise Reject(f"expected a {kind} request, got {r.kind!r}")
    if any(s.value < 0 for s in r.outputs) or any(v < 0 for v, _ in r.exit_outputs):
        raise Reject("NegativeOutput")


def _held_keys(r: Request) -> List[Tuple[str, int]]:
    """The outpoints request `r` holds (`Operator.held`)."""
    if r.kind == "boarding":
        return [(r.boarding_outpoint.txid, r.boarding_outpoint.index)]
    return [v.key() for v in r.inputs]


def forfeited_vtxos(requests: Sequence[Request]) -> List[Vtxo]:
    """The VTXOs a commitment of `requests` forfeits: the swaps' inputs, in
    request order."""
    return [v for r in requests if r.kind == "batch-swap" for v in r.inputs]


# a spent VTXO's entry in `OperatorBook.vtxos`: its set, and no VTXO
SPENT = ("S", None)


@dataclass
class OperatorBook:
    """The operator's book.  `queue` holds the paper's three request lists
    (to board, to batch-swap, to exit) as one list in arrival order, told
    apart by `Request.kind`.  `vtxos` gives each VTXO's key its one set and,
    unless spent, the VTXO: "C" is the paper's confirmedVTXO (a stable
    commitment's leaf), "F" its preConfirmed (an ark output) and "S" its
    spent (reset, forfeited or exited).  A C or F entry leaves the map at
    its expiry or once its own tx confirms (unrolled to a plain UTXO); an
    S entry stays."""
    queue: List[Request] = field(default_factory=list)
    vtxos: Dict[Tuple[str, int], Tuple[str, Optional[Vtxo]]] = field(default_factory=dict)


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
    requests, then batch swaps, then exits), and the batch tree's leaves
    are their outputs in that order.  The commitment spends the funding
    inputs first, then each boarding request's output."""
    commitment: Tx
    batch: Optional[BatchOutput]
    connector: Optional[ConnectorOutput]
    requests: List[Request]
    forfeits: Dict[Tuple[str, int], Tx] = field(default_factory=dict)
    submit_height: Optional[int] = None
    account: Dict[str, int] = field(default_factory=dict)  # Lemma-4 style flows

    def anchors(self) -> Dict[Optional[OutPoint], OutPoint]:
        """Each forfeited VTXO's connector anchor, by the VTXO's outpoint:
        the `forfeited_vtxos` paired with the connector's anchors."""
        return dict(zip((v.outpoint for v in forfeited_vtxos(self.requests)),
                        self.connector.anchors if self.connector else ()))


class Session(NamedTuple):
    """One session of a ceremony: `tx` on path `idx` of `lock`, cosigned
    under `key`, and the request that named it (None for a tree node).  An
    exit signs nothing: its VTXO's `owner` only approves the commitment."""
    label: str                     # vtxt | forfeit | boarding | exit
    request: Optional[Request]
    tx: Tx
    lock: LockScript
    idx: int
    key: Optional[AggregateKey]
    owner: Optional[PublicKey] = None

    def signers(self) -> Tuple[PublicKey, ...]:
        return self.key.members if self.key is not None else (self.owner,)


@dataclass
class ArkPayment:
    """Signed payload handed to a payee: the ark tx, its reset txs, and
    per-input unroll paths; each reset's sweep height is its input's expiry."""
    ark: Tx
    resets: List[Tx]
    paths: List[List[Tx]]
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

    def _cosign(self, tx: Tx, agg: AggregateKey,
                secrets: Dict[str, SecretKey], label: str) -> crypto.Signature:
        # honest single-spend discipline: never co-sign two different
        # transactions spending the same input
        for op in tx.ins:
            key = (op.txid, op.index)
            prior = self.cosigned_spends.get(key)
            if prior is not None and prior != tx.txid and label not in ("forfeit", "boarding"):
                raise Reject(f"operator already co-signed a spend of {key}")
        sks = []
        for m in agg.members:
            sk = secrets.get(m.hex())
            if sk is None:
                raise SessionAborted(f"{label}: signer {m.hex()[:8]} absent")
            sks.append(sk)
        sig = crypto.cosign(tx.digest(), sks, agg)
        self.chain.note("operator_node", self.name, label, tx.txid[:8])
        for op in tx.ins:
            self.cosigned_spends[(op.txid, op.index)] = tx.txid
        return sig

    # --- request intake --------------------------------------------------

    def held(self) -> Set[Tuple[str, int]]:
        """The outpoints held by the queued requests and the pending
        bundles': a key is held from intake until its commitment is stable
        or its request is dropped (a rolled-back request is queued again)."""
        pending = [r for b in self.pending_bundles for r in b.requests]
        return {key for r in self.book.queue + pending for key in _held_keys(r)}

    def _drop(self, r: Request, reason: str) -> None:
        """Take queued request `r` off the queue, releasing what it holds."""
        self.book.queue.remove(r)
        self.chain.note("operator_node", self.name, "drop", reason)

    def verify_boarding(self, r: Request) -> None:
        _require_kind(r, "boarding")
        if r.boarding_outpoint is None:
            raise Reject("boarding request names no outpoint")
        if not self.chain.unspent(r.boarding_outpoint, depth=self.params.k):
            raise Reject("boarding output not confirmed in the stable view")
        if _held_keys(r)[0] in self.held():
            raise Reject("boarding output already pending")
        out = self.chain.utxos[r.boarding_outpoint].output
        try:
            classify_paths(out.lock, self.pk, self.params.t_b)
            collab_aggregate(out.lock)      # the key its boarding cosign is under
        except arkcore.ArkError as e:
            raise Reject(f"boarding lock unsafe: {e}")
        if out.value < sum(s.value for s in r.outputs) + self.fee:
            raise Reject("funds do not cover the requested VTXOs")
        self.book.queue.append(r)

    def _check_inputs(self, r: Request, kind: str, out_value: int,
                      ffop: Optional[FfOperator] = None) -> None:
        """The intake rule for every request that spends VTXOs: each input
        is a distinct, unexpired VTXO in the book's C or F (so not unrolled
        to chain), not held, given exactly as booked, and `out_value`
        (outputs plus fee) does not exceed them.  An entry whose expiry is
        the current height stays in the book until the next watcher step,
        so expiry is checked here too.
        An input that does not exit needs a cosigned path for its forfeit or
        reset, or, paid in an ark request, a nonce-bound path whose nonce
        `ffop` holds."""
        _require_kind(r, kind)
        if not r.inputs:
            raise Reject("NoInput")
        held = self.held()
        for i, v in enumerate(r.inputs):
            if v.outpoint is None:
                raise Reject("input VTXO has no outpoint")
            key = v.key()
            booked = self.book.vtxos.get(key, SPENT)[1]
            if booked is None:
                raise Reject(f"UnknownVtxo {key}")
            if key in held:
                raise Reject(f"AlreadyPending {key}")
            if v != booked:
                raise Reject(f"InputMismatch {key}")
            if self.chain.height >= v.expiry:
                raise Reject(f"Expired {key}")
            if v in r.inputs[:i]:
                raise Reject(f"DuplicateInput {key}")
            bound = nonce_bound_path(v.lock) if kind == "ark" and ffop else None
            if kind != "exit" and not cosigners(v.lock) \
                    and not (bound and crypto.compress(bound[1]) in ffop.nonces):
                raise Reject(f"NotCosignable {key}")
        if out_value > sum(v.value for v in r.inputs):
            raise Reject("ValueExceeded")

    def verify_batch_swap(self, r: Request) -> None:
        self._check_inputs(r, "batch-swap",
                           sum(s.value for s in r.outputs) + self.fee)
        self.book.queue.append(r)

    def verify_exit(self, r: Request) -> None:
        self._check_inputs(r, "exit", sum(v for v, _ in r.exit_outputs) + self.fee)
        self.book.queue.append(r)

    # --- ark transactions ------------------------------------------------

    def verify_ark_request(self, r: Request, secrets: Dict[str, SecretKey],
                           ffop: Optional[FfOperator] = None) -> ArkPayment:
        """Take in an offchain payment: intake (`_check_inputs`), then
        `build_payment`, then the book: each input goes to S, with or
        without a reset, and each output to F.  An input's unroll is
        answered with its reset."""
        self._check_inputs(r, "ark", sum(s.value for s in r.outputs), ffop)
        payment = self.build_payment(r, secrets, ffop)
        self.book.vtxos.update((v.key(), SPENT) for v in r.inputs)
        for v, rst in zip(r.inputs, payment.resets):
            self._answer(v, rst)
            self.deadlines[rst.outpoint(0)] = Deadline("sweep-reset", v.expiry - 1, v.expiry)
        self.book.vtxos.update((out.key(), ("F", out)) for out in payment.outputs)
        return payment

    def build_payment(self, r: Request, secrets: Dict[str, SecretKey],
                      ffop: Optional[FfOperator] = None,
                      allow_conflict: bool = False) -> ArkPayment:
        """Build and sign, booking nothing, the payment `r` asks for: a reset
        per input and the ark tx, signed first, the resets last, so the payer
        never holds a usable reset without the payment being complete.  Each
        spend is signed on the path its lock offers: the cosigned path, or a
        nonce-bound one by the owner's key in `secrets` and by `ffop` with the
        lock's nonce (a second spend of an input only if `allow_conflict`).
        With `ffop`, an output that fixes no nonce gets a fresh one."""
        all_secrets = {**secrets, self.pk.hex(): self.sk}
        resets = [reset_tx(v, self.pk, v.expiry, self.params.t_u)
                  for v in r.inputs] if self.use_resets else []
        specs = [s if ffop is None or s.r_star is not None else replace(
            s, r_star=ffop.fresh_nonce(bytes.fromhex(resets[0].txid) + s.owner_pk.encode())[1])
            for s in r.outputs]
        # each output expires with the earliest input
        outputs = [self._make_leaf(s, min(v.expiry for v in r.inputs)) for s in specs]
        # the ark tx spends each reset's output, or, in the legacy shape
        # without resets (the hostage-attack configuration), each input VTXO
        spent = [(rst.outpoint(0), rst.outs[0]) for rst in resets] \
            or [(v.outpoint, Output(v.value, v.lock)) for v in r.inputs]
        ark = arkcore.ark_tx([(op, out.value) for op, out in spent], outputs)
        # the ark tx first, the reset txs last
        spends = [(ark, out.lock, v) for (_, out), v in zip(spent, r.inputs)] \
            + [(rst, v.lock, v) for v, rst in zip(r.inputs, resets)]
        for tx, lock, v in spends:
            label = "ark" if tx is ark else "reset"
            bound = nonce_bound_path(lock)
            if bound is None:
                idx, key = collab_aggregate(lock)
                sigs = (self._cosign(tx, key, all_secrets, label),)
            else:
                idx, r_star = bound
                owner_sk = all_secrets.get(v.owner_pk.hex())
                if owner_sk is None:
                    raise SessionAborted(f"{label}: signer {v.owner_pk.hex()[:8]} absent")
                sigs = (ffop.sign_nonce_bound(tx, r_star, allow_conflict),
                        crypto.sign(owner_sk, tx.digest()))
            tx.wits.append(Witness(idx, sigs, lock.paths))
        return ArkPayment(ark, resets, [], outputs)

    # --- commitment assembly --------------------------------------------

    def _make_leaf(self, spec: VtxoSpec, expiry: int = 0) -> Vtxo:
        lock = arkcore.vtxo_lock(spec.owner_pk, self.pk, self.params.t_u, spec.r_star)
        return Vtxo(spec.value, lock, spec.owner, spec.owner_pk, expiry)

    def assemble_commitment(self) -> Optional[Bundle]:
        # a boarding output its owner reclaimed after t_b leaves the queue
        for r in [r for r in self.book.queue if r.kind == "boarding"
                  and not self.chain.unspent(r.boarding_outpoint)]:
            self._drop(r, f"boarding output spent {r.boarding_outpoint.txid[:8]}")
        requests = [r for kind in ("boarding", "batch-swap", "exit")
                    for r in self.book.queue if r.kind == kind]
        if not requests:
            return None
        expiry = self.chain.height + 2 * self.params.k + self.params.t_e

        leaves = [self._make_leaf(s) for r in requests for s in r.outputs]
        forfeited = forfeited_vtxos(requests)
        exit_outs = [o for r in requests if r.kind == "exit" for o in r.exit_outputs]
        boarded = [r.boarding_outpoint for r in requests if r.kind == "boarding"]

        batch_value = sum(v.value for v in leaves)
        connector_value = len(forfeited) * self.params.epsilon
        exit_value = sum(v for v, _ in exit_outs)
        boarding_value = sum(self.chain.utxos[op].output.value for op in boarded)
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

        ins = [op for op, _ in funding] + boarded
        outs: List[Output] = []
        out_index: Dict[str, int] = {}
        if leaves:
            arkcore.tree_keys(leaves, self.pk, self.params.arity)
            out_index["batch"] = len(outs)
            outs.append(arkcore.batch_output(leaves, self.pk, expiry))
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
        if leaves:
            fund_op = commitment.outpoint(out_index["batch"])
            vtxt, _ = build_vtxt(fund_op, leaves, self.pk, expiry, self.params.arity)
            batch = BatchOutput(vtxt)
        connector = None
        if forfeited:
            conn_op = commitment.outpoint(out_index["connector"])
            connector = build_connector(conn_op, len(forfeited), self.pk,
                                        self.params.epsilon, self.params.arity)

        account = {
            "L": have, "B": boarding_value, "V": batch_value,
            "U": exit_value, "M": change, "F": request_fees,
            "connector": connector_value,
        }
        return Bundle(commitment, batch, connector, requests, account=account)

    # --- signing ceremony ------------------------------------------------

    def run_signing(self, bundle: Bundle, wallets: Dict[str, "object"],
                    abort: Optional[Callable[[str, str], bool]] = None,
                    extra_secrets: Optional[Dict[str, SecretKey]] = None) -> Bundle:
        """Gather every signature for a commitment, in the safe order:
        (1) parties audit the bundle and approve digests, (2) every session
        is derived: the VTXT nodes (root first), the forfeits, the boarding
        inputs and the exits, (3) consent is checked for all of them, (4)
        they are signed in that order, (5) only then does the operator sign
        its funding inputs.
        Any failure aborts with no witnesses released to anyone."""
        def maybe_abort(step: str, party: str) -> None:
            if abort is not None and abort(step, party):
                raise SessionAborted(f"{step}: {party} unresponsive")

        parties = {r.party for r in bundle.requests}
        party_of = {w.pk: name for name, w in wallets.items()}
        # step 1: each party audits the bundle; other wallets approve nothing
        approved: Dict[str, Optional[Set[bytes]]] = {name: set() for name in wallets}
        for party in sorted(parties):
            maybe_abort("verify", party)
            approved[party] = wallets[party].verify_commitment(bundle)
            if approved[party] is None:
                raise SessionAborted(f"verify: {party} rejected the bundle")

        secrets: Dict[str, SecretKey] = {
            self.pk.hex(): self.sk, **{wallets[p].pk.hex(): wallets[p].sk for p in parties},
            **(extra_secrets or {})}

        # step 2: every session, each read from the lock it spends.  A
        # forfeit's aggregate may name a previous operator (handover); the
        # commitment spends the funding inputs first, then the boarding
        # inputs (see assemble_commitment)
        commitment, sessions = bundle.commitment, []
        if bundle.batch is not None:
            vtxt = bundle.batch.vtxt
            try:
                sessions = [Session("vtxt", None, tx, *vtxt.session(txid))
                            for txid, tx in vtxt.txs.items()]
            except arkcore.ArkError as e:
                raise SessionAborted(f"vtxt: {e}")
        anchors = bundle.anchors()
        sessions += [Session("forfeit", r, forfeit_tx(v, anchors[v.outpoint], self.pk,
                                                      self.params.epsilon),
                             v.lock, *collab_aggregate(v.lock))
                     for r in bundle.requests if r.kind == "batch-swap" for v in r.inputs]
        boarding = [r for r in bundle.requests if r.kind == "boarding"]
        n_funding = len(commitment.ins) - len(boarding)
        locks = [self.chain.utxos[op].output.lock for op in commitment.ins[n_funding:]]
        sessions += [Session("boarding", r, commitment, lock, *collab_aggregate(lock))
                     for r, lock in zip(boarding, locks)]
        sessions += [Session("exit", r, commitment, v.lock, 0, None, v.owner_pk)
                     for r in bundle.requests if r.kind == "exit" for v in r.inputs]

        # step 3: consent, for every session before any is signed.  A
        # session that names a wallet's key over a digest it did not
        # approve, or a key no signer here holds, is refused.  A wallet
        # refuses its own request only when another request spends what its
        # key locks, so the requests refused by another party than their
        # requester are dropped, or else every refused one, each once
        refused = []
        for s in sessions:
            digest = s.tx.digest()
            for m in s.signers():
                who = party_of.get(m)
                if not (digest in approved[who] if who else m.hex() in secrets):
                    refused.append((s, who or m.hex()[:8]))
                    break
        if refused:
            culprits = [(s, who) for s, who in refused
                        if s.request is not None and who != s.request.party] or refused
            for s, who in culprits:
                if s.request in self.book.queue:
                    self._drop(s.request, f"{s.label} refused by {who} {s.tx.txid[:8]}")
            s, who = refused[0]
            raise SessionAborted(f"{s.label}: {who} did not approve {s.tx.txid[:8]}")

        # step 4: each kind's sessions signed ahead in chunks (`sign_ahead`),
        # a forfeit with its anchor signature, then cosigned one by one;
        # each wallet that signs a session may abort it
        boarded: List[Witness] = []
        for label, size in (("vtxt", crypto.SIGN_BATCH_MAX),
                            ("forfeit", crypto.SIGN_BATCH_MAX // 2),
                            ("boarding", crypto.SIGN_BATCH_MAX)):
            for chunk in chunked([s for s in sessions if s.label == label], size):
                sign_ahead([(s.tx, s.key.members) for s in chunk], secrets,
                           [(self.sk, s.tx) for s in chunk if label == "forfeit"])
                for s in chunk:
                    for party in (party_of[m] for m in s.key.members if m in party_of):
                        maybe_abort(label, party)
                    wit = Witness(s.idx, (self._cosign(s.tx, s.key, secrets, label),),
                                  s.lock.paths)
                    if label == "vtxt":
                        s.tx.wits = [wit]
                    elif label == "forfeit":
                        anchor_sig = crypto.sign(self.sk, s.tx.digest())
                        s.tx.wits = [wit, Witness(KEY_PATH, (anchor_sig,))]
                        bundle.forfeits[(s.tx.ins[0].txid, s.tx.ins[0].index)] = s.tx
                    else:
                        boarded.append(wit)

        # step 5: the operator funds the commitment only now
        maybe_abort("fund", self.name)
        wits = []
        for _ in range(n_funding):
            wits.append(Witness(KEY_PATH, (crypto.sign(self.sk, commitment.digest()),)))
            self.chain.note("operator_node", self.name, "fund", commitment.txid[:8])
        commitment.wits = wits + boarded
        return bundle

    # --- submission and tracking ----------------------------------------

    def submit_and_track(self, bundle: Bundle) -> None:
        self.chain.submit(bundle.commitment, self.name)
        bundle.submit_height = self.chain.height
        self.pending_bundles.append(bundle)
        taken = set(bundle.requests)
        self.book.queue = [r for r in self.book.queue if r not in taken]

    def _apply_confirmed(self, bundle: Bundle) -> None:
        """Book a stable commitment: its leaves go to C, with its batch
        swept at expiry; each VTXO it forfeits goes to S, answered with its
        forfeit, and each it exits to S.  Every output of its connector tree
        is reserved until max(v.expiry) + t_u over the forfeited VTXOs.
        Until then an unrolled forfeited VTXO's owner can still claim it,
        and the forfeit that must win that race spends a connector anchor."""
        book, batch = self.book, bundle.batch
        if batch is not None:
            self.deadlines[batch.vtxt.funding] = Deadline(
                "sweep-batch", batch.expiry - 1, batch.expiry, batch)
            for leaf in batch.vtxt.leaves:
                book.vtxos[leaf.vtxo.key()] = ("C", leaf.vtxo)
        forfeited = forfeited_vtxos(bundle.requests)
        tree = bundle.connector.vtxt if bundle.connector else None
        for v in forfeited:
            self._answer(v, bundle.forfeits[v.key()], tree)
        book.vtxos.update((v.key(), SPENT) for r in bundle.requests if r.kind == "exit"
                          for v in r.inputs)
        self.collected_fees += bundle.account.get("F", 0)
        if bundle.connector is not None:
            op = bundle.connector.funding
            held = [op] + [tx.outpoint(i) for tx in tree.txs.values() for i in range(len(tx.outs))]
            released = max(v.expiry for v in forfeited) + self.params.t_u + 1
            self.deadlines[op] = Deadline("reserve", released, released, frozenset(held))

    def _answer(self, v: Vtxo, tx: Tx, tree: Optional[Vtxt] = None) -> None:
        """Book `v` as spent, and answer any unroll of it with `tx` until
        v.expiry + t_u, the last height its owner's claim can open at."""
        if v.outpoint is None:
            raise InvariantError(f"spent VTXO of {v.owner} in the book has no outpoint")
        self.book.vtxos[v.key()] = SPENT
        self.deadlines[v.outpoint] = Deadline(
            "answer", self.chain.height, v.expiry + self.params.t_u + 1, (tx, tree))

    # --- sweeping --------------------------------------------------------

    def _sweep_outpoint(self, op: OutPoint) -> List[Tx]:
        """Routine-13 recursion: claim the output if still unspent, else
        descend into its unrolled children that carry a sweep path."""
        chain = self.chain
        if chain.unspent(op):
            entry = chain.utxos[op]
            found = sweep_path(entry.output.lock)
            if found is None:
                return []
            sweep = Tx(ins=(op,), outs=(Output(entry.output.value, p2pk(self.pk)),))
            sig = crypto.sign(self.sk, sweep.digest())
            sweep.wits = [Witness(found[0], (sig,), entry.output.lock.paths)]
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
            if sweep_path(out.lock) is not None:
                submitted.extend(self._sweep_outpoint(child.outpoint(i)))
        return submitted

    def sweep(self, batch: BatchOutput) -> List[Tx]:
        return self._sweep_outpoint(batch.vtxt.funding)

    # --- per-round watcher ----------------------------------------------

    def watch_step(self) -> List[Tx]:
        """Routine-19 loop: book stable commitments, roll back lost ones,
        drop each C or F entry that has expired or whose own tx has
        confirmed, then run the table's due entries: release connectors,
        sweep expired batches and reset outputs, and answer each unrolled
        spent VTXO with its stored reset or forfeit transaction."""
        chain = self.chain
        submitted: List[Tx] = []

        for bundle in list(self.pending_bundles):
            if chain.is_stable(bundle.commitment.txid):
                self._apply_confirmed(bundle)
                self.pending_bundles.remove(bundle)
            elif (bundle.submit_height is not None
                  and chain.height >= bundle.submit_height + self.params.t_r
                  and not chain.is_confirmed(bundle.commitment.txid)):
                self.book.queue.extend(bundle.requests)     # still held
                self.pending_bundles.remove(bundle)
        gone = [key for key, (s, v) in self.book.vtxos.items() if s != "S"
                and (chain.height >= v.expiry or chain.is_confirmed(v.outpoint.txid))]
        for key in gone:
            del self.book.vtxos[key]

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
