"""Opt-in instant finality: operator collateral, nonce-bound
collaborative spends, broadcast gossip with bounded delay, conflict
detection against the unordered offchain ledger, and collateral burning
through nonce-reuse key extraction.

A fast-finality payment is an ordinary payment: requested by the
sender's wallet, taken in, built, approved by the sender and booked as
any other (`Operator.verify_ark_request`), and signed with the sender's
key alone.  Only the operator's signature differs: it uses the nonce
commitment fixed in the output script, so signing two conflicting spends
of one output reveals the operator's private key; that key completes a
committee-presigned burn of the collateral.  Its payee audits
it as any payment (`Wallet.audit_payment`), then checks that the sender
is opted in and each reset's output is nonce-bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from . import crypto
from .arkcore import Vtxo, nonce_bound_path
from .crypto import Fixed, SecretKey, Signature
from .errors import InvariantError
from .ledger import Chain, OutPoint, Output, SubmitError, Tx
from .operator_node import ArkPayment, Operator, VtxoSpec
from .script import UNSPENDABLE, AbsTimelock, And, CheckAggSig, CheckSig, Witness, taproot


class FfError(Exception):
    pass


@dataclass(frozen=True)
class FfConfig:
    members: Tuple[str, ...]
    delta: int = 1              # gossip delivery bound (rounds)
    v: int = 0                  # total opted-in value
    c: int = 0                  # collateral, must exceed v
    t_p: int = 10_000           # collateral maturity

    def validate(self) -> None:
        if self.c <= self.v:
            raise FfError("collateral must exceed the opted-in value")


COLLATERAL_RECLAIM_PATH = 0
COLLATERAL_BURN_PATH = 1


@dataclass
class Collateral:
    outpoint: OutPoint
    output: Output
    burn_tx: Tx
    committee_sig: Signature    # presigned by the n-of-n committee


def setup_collateral(operator: Operator, committee_seeds: Sequence[bytes],
                     cfg: FfConfig, chain: Chain) -> Collateral:
    """Lock c onchain, reclaimable by the operator after t_p or burnable
    at once by the committee's presigned transaction completed with the
    operator's key.  Committee secrets are discarded on return."""
    cfg.validate()
    committee_keys = [crypto.keygen(s) for s in committee_seeds]
    committee = crypto.aggregate([pk for _, pk in committee_keys])
    lock = taproot(UNSPENDABLE, [
        And(CheckSig(operator.pk), AbsTimelock(cfg.t_p)),
        And(CheckAggSig(committee), CheckSig(operator.pk)),
    ])
    outpoint = chain.grant(cfg.c, lock)
    # burn: all value destroyed (sent to fees, nothing spendable remains)
    burn = Tx(ins=(outpoint,), outs=())
    committee_sig = crypto.cosign(burn.digest(), [sk for sk, _ in committee_keys],
                                  committee)
    del committee_keys  # the honest committee deletes its signing keys
    return Collateral(outpoint, Output(cfg.c, lock), burn, committee_sig)


def burn_collateral(col: Collateral, operator_sk: SecretKey, chain: Chain,
                    by: str) -> Tx:
    """Complete the presigned burn with the (extracted) operator key."""
    op_sig = crypto.sign(operator_sk, col.burn_tx.digest())
    col.burn_tx.wits = [Witness(COLLATERAL_BURN_PATH,
                                (col.committee_sig, op_sig),
                                col.output.lock.paths)]
    chain.submit(col.burn_tx, by)
    return col.burn_tx


@dataclass
class FfPayload:
    payment: ArkPayment
    sender: str
    recipient: str
    payload_id: str


@dataclass
class _PendingAccept:
    payload: FfPayload
    accept_round: int


class FfOperator:
    """The operator's nonce-bound signer, which `Operator.build_payment`
    calls for every spend of a nonce-bound output: it signs with the nonce
    the lock fixes, under the single-spend rule of `cosigned_spends`."""

    def __init__(self, operator: Operator):
        self.operator = operator
        self.nonces: Dict[bytes, int] = {}      # encoded R -> scalar r

    def fresh_nonce(self, seed: bytes) -> Tuple[int, Tuple[int, int]]:
        r = crypto._tagged("arksim/ffnonce", seed) % crypto.Q or 1
        # R = r*G is a public key of r: read it, and its kept encoding,
        # from the public-key memo
        R = SecretKey(r).public()
        self.nonces[R.encode()] = r
        return r, R.point

    def sign_nonce_bound(self, tx: Tx, r_star: Tuple[int, int],
                         allow_conflict: bool = False) -> Signature:
        """Sign `tx` with the nonce `r_star`, refusing a second, different
        spend of any of its inputs unless `allow_conflict`: the byzantine
        operator's double sign, which reveals its key."""
        r = self.nonces.get(crypto.compress(r_star))
        if r is None:
            raise FfError("unknown nonce commitment")
        spends = self.operator.cosigned_spends
        keys = [(op.txid, op.index) for op in tx.ins]
        if not allow_conflict and any(spends.get(k, tx.txid) != tx.txid for k in keys):
            raise FfError("refusing to double-sign a nonce-bound spend")
        spends.update(dict.fromkeys(keys, tx.txid))
        return crypto.sign(self.operator.sk, tx.digest(), Fixed(r))


class FfCoordinator:
    """Gossip network and acceptance state machine for Protocol 1."""

    def __init__(self, cfg: FfConfig, chain: Chain, ff_operator: FfOperator,
                 wallets: Dict[str, object], collateral: Collateral,
                 edge_delay=None):
        cfg.validate()
        self.cfg = cfg
        self.chain = chain
        self.ffop = ff_operator
        self.wallets = wallets
        self.collateral = collateral
        # edge_delay(sender, receiver, payload_id) -> rounds in [1, delta]
        self.edge_delay = edge_delay or (lambda s, r, p: 1)
        self.inboxes: Dict[str, List[Tuple[int, FfPayload]]] = {m: [] for m in cfg.members}
        self.seen: Dict[str, List[FfPayload]] = {m: [] for m in cfg.members}
        self.pending: Dict[str, List[_PendingAccept]] = {m: [] for m in cfg.members}
        self.accepted: Dict[str, List[FfPayload]] = {m: [] for m in cfg.members}
        self.burned = False
        self.burn_txid: Optional[str] = None
        self.round = 0

    # --- sending ---------------------------------------------------------

    def make_ff_payment(self, sender: str, vtxos: Sequence[Vtxo],
                        outputs: Sequence[VtxoSpec], paths: List[List[Tx]],
                        allow_conflict: bool = False) -> ArkPayment:
        """`sender`'s payment of its nonce-bound `vtxos`, requested by its
        wallet and signed with its key alone: through the operator's intake,
        payment ceremony and book, or, with `allow_conflict`, a byzantine
        operator's second spend of them, which only the ceremony sees."""
        op, w = self.ffop.operator, self.wallets[sender]
        r = w.make_ark_request(vtxos, outputs)
        try:
            payment = op.build_payment(r, self.wallets, self.ffop, allow_conflict=True) \
                if allow_conflict else op.verify_ark_request(r, self.wallets, self.ffop)
        except Exception:
            w.withdraw(r)
            raise
        payment.paths = [list(p) for p in paths]
        return payment

    def ff_send(self, sender: str, recipient: str, payment: ArkPayment) -> str:
        if sender not in self.cfg.members or recipient not in self.cfg.members:
            raise FfError("parties must be opted in")
        payload = FfPayload(payment, sender, recipient, payment.ark.txid)
        self._broadcast(sender, payload)
        return payload.payload_id

    def _broadcast(self, origin: str, payload: FfPayload) -> None:
        for member in self.cfg.members:
            if member == origin:
                continue
            d = self.edge_delay(origin, member, payload.payload_id)
            d = max(1, min(d, self.cfg.delta))
            self.inboxes[member].append((self.round + d, payload))

    # --- receiving -------------------------------------------------------

    def _conflicts(self, a: ArkPayment, b: ArkPayment) -> bool:
        if a.ark.txid == b.ark.txid:
            return False
        return bool(set(a.ark.ins) & set(b.ark.ins))

    def _reject(self, member: str, reason: str) -> None:
        self.chain.note("fastfinality", member, "payment_rejected", reason)

    def _handle_arrival(self, member: str, payload: FfPayload) -> None:
        self.seen[member].append(payload)
        if payload.recipient != member:
            return
        payment = payload.payment
        # the wallet notes the precise reason for a refusal
        if self.wallets[member].audit_payment(payment) is None:
            return
        if payload.sender not in self.cfg.members:
            self._reject(member, "sender not opted in")
            return
        for rst in payment.resets:
            # the reset's output must be nonce-bound, or conflicting
            # spends would not force nonce reuse
            if nonce_bound_path(rst.outs[0].lock) is None:
                self._reject(member, "incorrect output script")
                return
        # re-broadcast and wait 2 * delta before accepting
        self._broadcast(member, payload)
        self.pending[member].append(
            _PendingAccept(payload, self.round + 2 * self.cfg.delta))

    def _find_conflict(self, member: str, payload: FfPayload) -> Optional[FfPayload]:
        for other in self.seen[member]:
            if self._conflicts(payload.payment, other.payment):
                return other
        # chain conflict: any ark input spent by a different tx onchain
        for op in payload.payment.ark.ins:
            spender = self.chain.spent_by.get(op)
            if spender is not None and spender != payload.payment.ark.txid:
                other_tx = self.chain.records[spender].tx
                return FfPayload(
                    ArkPayment(other_tx, [], [], []), "chain", member,
                    other_tx.txid)
        return None

    def extract_and_burn(self, member: str, a: ArkPayment, b_tx: Tx) -> Optional[Tx]:
        """Recover the operator key from two nonce-bound signatures
        sharing R and submit the collateral burn."""
        if self.burned:
            return None
        op_pk = self.ffop.operator.pk
        candidates = ((s, s2) for wit in a.ark.wits for s in wit.signatures
                      for wit_b in b_tx.wits for s2 in wit_b.signatures
                      if s.R == s2.R and s.s != s2.s)
        for sig_a, sig_b in candidates:
            # extract_secret verifies both signatures under op_pk; a pair
            # that is not the operator's is skipped
            try:
                sk = crypto.extract_secret(op_pk, a.ark.digest(), sig_a,
                                           b_tx.digest(), sig_b)
            except crypto.CryptoError:
                continue
            if sk.public() != op_pk:
                raise InvariantError("extracted key is not the operator's")
            burn = burn_collateral(self.collateral, sk, self.chain, member)
            self.burned = True
            self.burn_txid = burn.txid
            return burn
        return None

    def step(self) -> None:
        """Deliver due gossip, resolve waits, detect conflicts."""
        self.round += 1
        for member in self.cfg.members:
            due = [p for (r, p) in self.inboxes[member] if r <= self.round]
            self.inboxes[member] = [(r, p) for (r, p) in self.inboxes[member]
                                    if r > self.round]
            for payload in due:
                if all(payload.payload_id != s.payload_id
                       for s in self.seen[member]):
                    self._handle_arrival(member, payload)
        for member in self.cfg.members:
            for pend in list(self.pending[member]):
                conflict = self._find_conflict(member, pend.payload)
                if conflict is not None:
                    self.pending[member].remove(pend)
                    self._reject(member, "conflict")
                    self.extract_and_burn(member, pend.payload.payment,
                                          conflict.payment.ark)
                    continue
                if self.round >= pend.accept_round:
                    self.pending[member].remove(pend)
                    self.accepted[member].append(pend.payload)

    def monitor_step(self, member: str) -> List[Tx]:
        """React to onchain conflicts with accepted payments: extract and
        burn; outrace a previous owner's delayed reclaim by publishing
        the collaborative transcript."""
        reactions: List[Tx] = []
        for payload in self.accepted[member]:
            conflict = self._find_conflict(member, payload)
            if conflict is not None and conflict.sender == "chain":
                burn = self.extract_and_burn(member, payload.payment,
                                             conflict.payment.ark)
                if burn is not None:
                    reactions.append(burn)
            # previous owner unrolled the spent vtxo: publish the
            # collaborative reset + ark txs, which beat the t_u delay
            for rst in payload.payment.resets:
                src = rst.ins[0]
                if self.chain.unspent(src) and not self.chain.is_confirmed(rst.txid):
                    package = [rst, payload.payment.ark]
                    try:
                        self.chain.submit_package(package, member)
                        reactions.extend(package)
                    except SubmitError:
                        pass
        return reactions

