"""Scenario engine and theorem-property checkers.

`Simulation` wires a chain, one operator, and wallets together and
drives whole protocol flows; `derive_state` recomputes the offchain
state (confirmed / unconfirmed-spendable / spent VTXOs) from the ledger
and published transcripts alone, never from the operator's book, so it
serves as the oracle the book is diffed against.  The canned scenarios
reproduce the protocol's attacks and feed the theorem checks.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from . import arkcore, crypto, footprint
from .arkcore import ANCHOR_LOCK, Vtxo, p2pk
from .crypto import SessionAborted
from .errors import InvariantError
from .fastfinality import (
    FfConfig,
    FfCoordinator,
    FfOperator,
    setup_collateral,
)
from .ledger import (
    Adversary,
    Chain,
    MaxDelay,
    Output,
    Params,
    SubmitError,
    Tx,
)
from .operator_node import (
    ArkPayment,
    Bundle,
    Operator,
    Request,
    VtxoSpec,
    consumed_vtxos,
)
from .script import KEY_PATH, LockScript, Witness
from .wallet import Holding, Wallet

# the canned scenarios' parameters: a short and a long batch expiry
PARAMS_TE40 = Params(k=3, t_u=13, t_e=40, t_r=8)
PARAMS_TE60 = Params(k=3, t_u=13, t_e=60, t_r=8)


@dataclass
class ArkState:
    C: Set[Tuple[str, int]] = field(default_factory=set)
    F: Set[Tuple[str, int]] = field(default_factory=set)
    S: Set[Tuple[str, int]] = field(default_factory=set)

    def as_tuple(self):
        return (frozenset(self.C), frozenset(self.F), frozenset(self.S))


def derive_state(chain: Chain, bundles: Sequence[Bundle],
                 payments: Sequence[ArkPayment]) -> ArkState:
    """Recompute (C, F, S) from the ledger plus published transcripts, by
    one rule per fact.  S is what was consumed offchain: each payment's
    inputs and each stable (k-deep) commitment's forfeited and exited
    VTXOs.  Any other VTXO counts until `chain.height >= v.expiry` or
    until its own tx confirms, unrolling it to a plain UTXO: C holds the
    stable commitments' leaves that still count, F the payments' outputs
    that still count."""
    state = ArkState()
    for p in payments:
        if p.resets:
            state.S.update((rst.ins[0].txid, rst.ins[0].index) for rst in p.resets)
        else:
            state.S.update((op.txid, op.index) for op in p.ark.ins)  # legacy: no resets
    stable = [b for b in bundles if chain.is_stable(b.commitment.txid)]
    state.S.update(v.key() for b in stable for v in consumed_vtxos(b.requests))

    def counts(v: Vtxo) -> bool:
        return (v.key() not in state.S and chain.height < v.expiry
                and not chain.is_confirmed(v.outpoint.txid))

    state.C = {leaf.vtxo.key() for b in stable if b.batch is not None
               for leaf in b.batch.vtxt.leaves if counts(leaf.vtxo)}
    state.F = {v.key() for p in payments for v in p.outputs if counts(v)}
    return state


class Simulation:
    def __init__(self, params: Optional[Params] = None, seed: int = 0,
                 adversary: Optional[Adversary] = None, use_resets: bool = True,
                 fee: int = 0):
        self.params = params or Params()
        self.seed = seed
        self.chain = Chain(self.params, adversary)
        op_sk, _ = crypto.keygen(b"operator" + seed.to_bytes(8, "big"))
        self.operator = Operator("operator", op_sk, self.chain, self.params, fee)
        self.operator.use_resets = use_resets
        self.wallets: Dict[str, Wallet] = {}
        self.payments: List[ArkPayment] = []
        self.all_bundles: List[Bundle] = []
        # the bundles not yet distributed to the wallets, in order, and how
        # many of all_bundles have joined them
        self._undistributed: List[Bundle] = []
        self._seen = 0

    # --- setup -----------------------------------------------------------

    def add_wallet(self, name: str, funds: Sequence[int] = ()) -> Wallet:
        sk, _ = crypto.keygen(name.encode() + self.seed.to_bytes(8, "big"))
        w = Wallet(name, sk, self.chain, self.params, self.operator.pk)
        w.fee = self.operator.fee
        w.funds = [(self.chain.grant(v, p2pk(w.pk)), v) for v in funds]
        self.wallets[name] = w
        return w

    def tick(self, rounds: int = 1, watch: bool = True) -> None:
        for _ in range(rounds):
            if watch:
                self.operator.watch_step()
            self.chain.advance_round()
            if watch:
                self._distribute_confirmations()

    def _distribute_confirmations(self) -> None:
        # bundles appended since the last call, by settle_commitment or
        # directly, join the undistributed ones; only those are walked.
        # Each bundle joins once, by its position in all_bundles, and leaves
        # once distributed; no caller appends a bundle twice, so none is
        # distributed twice
        self._undistributed += self.all_bundles[self._seen:]
        self._seen = len(self.all_bundles)
        waiting = []
        for bundle in self._undistributed:
            if self.chain.is_stable(bundle.commitment.txid):
                for w in self.wallets.values():
                    w.on_commitment_confirmed(bundle)
            else:
                waiting.append(bundle)
        self._undistributed = waiting

    # --- flows -----------------------------------------------------------

    def board(self, name: str, values: Sequence[int]) -> Request:
        w = self.wallets[name]
        tx, req = w.make_boarding(w.funds, values)
        tx.wits = [Witness(KEY_PATH, (crypto.sign(w.sk, tx.digest()),))
                   for _ in tx.ins]
        self.chain.submit(tx, name)
        w.boarding_outputs.append((tx.outpoint(0), tx.outs[0]))
        w.funds = []
        self.tick(self.params.k + 1)
        self.operator.verify_boarding(req)
        return req

    def settle_commitment(self, abort=None) -> Optional[Bundle]:
        bundle = self.operator.assemble_commitment()
        if bundle is None:
            return None
        self.operator.run_signing(bundle, self.wallets, abort)
        self.operator.submit_and_track(bundle)
        self.all_bundles.append(bundle)
        self.tick(self.params.k + 2)
        return bundle

    def ark_pay(self, sender: str, recipient: str, vtxos: Sequence[Vtxo],
                amount: int, auto_receive: bool = True) -> ArkPayment:
        ws, wr = self.wallets[sender], self.wallets[recipient]
        total = sum(v.value for v in vtxos)
        specs = [VtxoSpec(amount, recipient, wr.pk)]
        if total > amount:
            specs.append(VtxoSpec(total - amount, sender, ws.pk))
        req = ws.make_ark_request(vtxos, specs)
        try:
            payment = self.operator.verify_ark_request(req, self.wallets)
        except Exception:
            ws.withdraw(req)
            raise
        # `make_ark_request` refuses a VTXO the payer does not hold
        payment.paths = [list(ws.holdings[v.key()].transcript) for v in vtxos]
        ws.on_payment_sent(req, payment)
        self.payments.append(payment)
        if auto_receive:
            swap_req = wr.receive_payment(payment)
            if swap_req is not None:
                self.operator.verify_batch_swap(swap_req)
        return payment

    def vtxos(self, name: str) -> List[Vtxo]:
        return [h.vtxo for h in self.wallets[name].holdings.values()]

    def swap(self, name: str, vtxos: Sequence[Vtxo]) -> Request:
        """Queue `name`'s swap of `vtxos` into the next batch, value for value."""
        req = self.wallets[name].make_swap(vtxos, [v.value for v in vtxos])
        self.operator.verify_batch_swap(req)
        return req

    def exit(self, name: str, vtxos: Sequence[Vtxo]) -> Request:
        """Queue `name`'s cooperative exit of `vtxos` to one onchain output
        of their sum less the operator's fee."""
        req = self.wallets[name].make_exit(
            vtxos, [sum(v.value for v in vtxos) - self.operator.fee])
        self.operator.verify_exit(req)
        return req

    def unroll(self, name: str, vtxo: Vtxo, then: Sequence[Tx] = ()) -> None:
        """Publish as `name` the path from `vtxo`'s batch output to its
        leaf, then `then`, skipping confirmed txs; `ArkError` unless a bundle's tree holds it."""
        path = next((b.batch.vtxt.path_to(vtxo.outpoint.txid) for b in self.all_bundles
                     if b.batch is not None and vtxo.outpoint.txid in b.batch.vtxt.txs), None)
        if path is None:
            raise arkcore.ArkError(f"no bundle's tree holds VTXO {vtxo.outpoint.txid[:8]}")
        self.chain.submit_package([*path, *then], name)

    # --- oracles ---------------------------------------------------------

    def state(self) -> ArkState:
        return derive_state(self.chain, self.all_bundles, self.payments)

    def book_projection(self) -> ArkState:
        vtxos = self.operator.book.vtxos
        return ArkState(*({key for key, (s, _) in vtxos.items() if s == name}
                          for name in "CFS"))

    def fee_accounting(self) -> Dict[str, Dict[str, int]]:
        """Per-party published footprint: tx count, vbytes, burned sats."""
        acct: Dict[str, Dict[str, int]] = {}
        for rec in self.chain.records.values():
            if rec.status != "confirmed" or not rec.tx.ins:
                continue    # grants are minted, not published
            entry = acct.setdefault(rec.party, {"txs": 0, "vbytes": 0, "burned": 0})
            entry["txs"] += 1
            entry["vbytes"] += tx_vbytes(rec.tx)
            entry["burned"] += burned_fee(self.chain, rec.tx)
        return acct

    def balances(self) -> Dict[str, int]:
        out = {name: w.balance() for name, w in self.wallets.items()}
        out["operator"] = self.operator.onchain_balance()
        return out


def burned_fee(chain: Chain, tx: Tx) -> int:
    """Input value minus output value of a confirmed tx."""
    in_value = sum(chain.output(op).value for op in tx.ins)
    return in_value - sum(o.value for o in tx.outs)


def value_conserved(chain: Chain) -> bool:
    """Granted value == UTXO value + the fees burned by confirmed txs."""
    granted = burned = 0
    for rec in chain.records.values():
        if rec.status != "confirmed":
            continue
        if not rec.tx.ins:
            granted += sum(o.value for o in rec.tx.outs)
        else:
            burned += burned_fee(chain, rec.tx)
    return granted == chain.total_value() + burned


class Violation(NamedTuple):
    invariant: str      # partition | oracle-book | conservation | liquidity
    height: int
    detail: str


def audit(sim: Simulation) -> List[Violation]:
    """The invariants `sim`'s state breaks, each defined here once: C, F and
    S are disjoint; oracle == book (after the watcher's step, where the book
    reads the chain); the chain conserves value; and the operator's outputs
    are its funding, reserved connectors and change less than k deep."""
    chain, op = sim.chain, sim.operator
    state, book = sim.state(), sim.book_projection()
    twice = (state.C & state.F) | (state.S & (state.C | state.F))
    diff = {n: sorted(a ^ b) for n, a, b in zip("CFS", state.as_tuple(), book.as_tuple()) if a != b}
    reserved, own, balance = op.reserved(), op._own_utxos(), op.onchain_balance()
    # spendable, reserved, and young: a grant is spendable at any depth
    parts = (sum(out.value for _, out in op.spendable_liquidity()),
             sum(out.value for o, out in own if o in reserved),
             sum(out.value for o, out in own if o not in reserved
                 and not chain.is_stable(o.txid) and chain.records[o.txid].tx.ins))
    checks = [
        ("partition", not twice, f"in two of C, F and S: {sorted(twice)}"),
        ("oracle-book", not diff, f"oracle and book differ on {diff}"),
        ("conservation", value_conserved(chain), "granted != UTXO value + fees burned"),
        ("liquidity", sum(parts) == balance, f"spendable, reserved, young {parts} != {balance}"),
    ]
    return [Violation(name, chain.height, detail) for name, ok, detail in checks if not ok]


def tx_vbytes(tx: Tx) -> int:
    key_ins = sum(1 for w in tx.wits if w is not None and w.path_index == KEY_PATH)
    script_ins = len(tx.ins) - key_ins
    anchors = sum(1 for o in tx.outs if o.lock == ANCHOR_LOCK)
    p2tr = len(tx.outs) - anchors
    shape = footprint.TxShape(key_ins, script_ins, p2tr, anchors)
    if len(tx.ins) == 0:
        return 0
    return footprint.vbytes(shape)


# --- unilateral-exit race harness ---------------------------------------


@dataclass
class RaceResult:
    exit_confirmed_before_expiry: bool
    sweep_confirmed: bool
    leaf_stable: bool


def cosign_vtxt(vtxt: arkcore.Vtxt, secrets: Dict[str, crypto.SecretKey]) -> None:
    """Cosign every node of `vtxt`, root first, in one `crypto.sign_batch`
    call, under the cosigned key of the lock it spends (`secrets` maps each
    member's hex key to its secret), and attach that path's witness."""
    nodes = [(tx, *vtxt.session(txid)) for txid, tx in vtxt.txs.items()]
    sigs = crypto.sign_batch([([secrets[m.hex()] for m in key.members], tx.digest())
                              for tx, _, _, key in nodes])
    for (tx, lock, idx, _), sig in zip(nodes, sigs):
        tx.wits = [Witness(idx, (sig,), lock.paths)]


def signed_batch(leaves: Sequence[Vtxo],
                 keys: Sequence[Tuple[crypto.SecretKey, crypto.PublicKey]],
                 expiry: int) -> Tuple[LockScript, arkcore.Vtxt]:
    """A batch output paying `leaves` and its VTXT with every node
    cosigned, built on no chain: the tree spends output 0 of the grant tx
    `Tx(ins=(), outs=(out,))`, which `grant_batch` puts on a chain.
    `keys` are the (secret, public) pairs of every cosigner, the
    operator's first."""
    op_pk = keys[0][1]
    arkcore.tree_keys(leaves, op_pk)
    out = arkcore.batch_output(leaves, op_pk, expiry)
    funding = Tx(ins=(), outs=(out,)).outpoint(0)
    vtxt, _ = arkcore.build_vtxt(funding, leaves, op_pk, expiry, 2)
    cosign_vtxt(vtxt, {pk.hex(): sk for sk, pk in keys})
    return out.lock, vtxt


def grant_batch(chain: Chain, vtxt: arkcore.Vtxt) -> None:
    """Grant on `chain` the batch output that funds `vtxt`, raising
    `InvariantError` unless the grant is the tree's funding outpoint."""
    out = vtxt.funding_out
    if chain.grant(out.value, out.lock) != vtxt.funding:
        raise InvariantError("the grant is not the tree's funding outpoint")


def leaf_spend(vtxo: Vtxo, path: int, sk: crypto.SecretKey) -> Tx:
    """A tx paying `vtxo`'s whole value to `sk`'s key, signed by `sk` on
    the lock's path `path`."""
    tx = Tx(ins=(vtxo.outpoint,), outs=(Output(vtxo.value, p2pk(sk.public())),))
    tx.wits = [Witness(path, (crypto.sign(sk, tx.digest()),), vtxo.lock.paths)]
    return tx


class _RaceBatch(NamedTuple):
    params: Params
    vtxt: arkcore.Vtxt          # two leaves, alice's first, every node signed
    path: Tuple[Tx, ...]        # root to alice's leaf
    sweep: Tx                   # the operator's signed sweep of the batch


# Bound on `_race_batch`: far above the (k, t_e) shapes one run races
_RACE_CACHE_SIZE = 16


@lru_cache(maxsize=_RACE_CACHE_SIZE)
def _race_batch(k: int, t_e: int) -> _RaceBatch:
    """The part of `exit_race` that (k, t_e) fixes, built once per process:
    its keys, leaves, signed VTXT, alice's leaf path and the signed sweep.
    It makes no `Chain`, so a race still builds exactly one ledger, and
    nothing changes its txs after signing."""
    params = Params(k=k, t_u=4 * k + 1, t_e=t_e)
    op_sk, op_pk = crypto.keygen(b"race-op")
    a_sk, a_pk = crypto.keygen(b"race-alice")
    b_sk, b_pk = crypto.keygen(b"race-bob")
    leaves = [Vtxo(500, arkcore.vtxo_lock(a_pk, op_pk, params.t_u), "alice", a_pk),
              Vtxo(500, arkcore.vtxo_lock(b_pk, op_pk, params.t_u), "bob", b_pk)]
    lock, vtxt = signed_batch(leaves, [(op_sk, op_pk), (a_sk, a_pk), (b_sk, b_pk)],
                              params.batch_expiry(0))
    sweep = Tx(ins=(vtxt.funding,), outs=(Output(1000, p2pk(op_pk)),))
    sweep_index, _ = arkcore.sweep_path(lock)
    sweep.wits = [Witness(sweep_index, (crypto.sign(op_sk, sweep.digest()),), lock.paths)]
    return _RaceBatch(params, vtxt, tuple(vtxt.path_to(vtxt.leaves[0].txid)), sweep)


def exit_race(k: int, delays: Sequence[int], late_by: int = 0,
              t_e: int = 30) -> RaceResult:
    """Minimal sweep-versus-exit race: a two-leaf batch, a user exit
    fired at T_e - 2k - 1 + late_by, an operator sweep timed to land at
    expiry, and adversary-chosen inclusion delays for the exit txs.  The
    signed batch and sweep come from `_race_batch`; only the ledger is
    new."""
    race = _race_batch(k, t_e)
    path_txs, sweep = race.path, race.sweep
    expiry = race.params.batch_expiry(0)
    adversary = MaxDelay(prefer_new=True,
                         per_tx={tx.txid: d for tx, d in zip(path_txs, delays)},
                         exempt=("operator",))
    chain = Chain(race.params, adversary)
    chain.register("alice")
    chain.register("operator")
    # fund the batch directly at height 0
    grant_batch(chain, race.vtxt)

    exit_height = race.params.exit_deadline(expiry) + late_by
    leaf_txid = race.vtxt.leaves[0].txid
    sweep_submitted = False
    while chain.height < expiry + 2 * k:
        if chain.height == exit_height:
            for tx in path_txs:
                chain.submit(tx, "alice")
        if chain.height == expiry - 1 and not sweep_submitted:
            try:
                chain.submit(sweep, "operator")
                sweep_submitted = True
            except SubmitError:
                pass
        chain.advance_round()

    confirmed_h = chain.confirm_height(leaf_txid)
    return RaceResult(
        exit_confirmed_before_expiry=(confirmed_h is not None
                                      and confirmed_h <= expiry
                                      and chain.is_stable(leaf_txid)),
        sweep_confirmed=chain.is_confirmed(sweep.txid),
        leaf_stable=chain.is_stable(leaf_txid),
    )


# --- scenarios -----------------------------------------------------------


def _report(scenario: str, seed: int, verdicts: List[dict], balances: Dict[str, int],
            fp: Dict[str, int], events: List[dict]) -> dict:
    return {"scenario": scenario, "seed": seed, "verdicts": verdicts,
            "balances": balances, "footprint": fp, "events": events}


def _verdict(name: str, ok: bool, detail: str = "") -> dict:
    return {"name": name, "pass": bool(ok), "detail": detail}


def scenario_happy_path(seed: int = 0, params: Optional[Params] = None,
                        **_) -> dict:
    sim = Simulation(params or Params(), seed)
    sim.operator.fund(100_000)
    sim.add_wallet("alice", [10_000])
    sim.add_wallet("bob", [])
    sim.board("alice", [6_000, 4_000])
    sim.settle_commitment()
    alice = sim.wallets["alice"]
    sim.ark_pay("alice", "bob", sim.vtxos("alice")[:1], 2_500)
    sim.settle_commitment()     # bob's follow-up batch swap
    sim.tick(2)
    state, book = sim.state(), sim.book_projection()
    broken = {v.invariant for v in audit(sim)}
    verdicts = [
        _verdict("oracle_agreement", "oracle-book" not in broken,
                 f"oracle C={sorted(state.C)} book C={sorted(book.C)}"),
        _verdict("bob_has_confirmed_vtxo",
                 any(h.kind == "batch" and h.vtxo.value == 2_500
                     for h in sim.wallets["bob"].holdings.values())),
        _verdict("conservation_never_increases",
                 "conservation" not in broken, "chain enforces per-tx conservation"),
        _verdict("balances_positive", alice.balance() > 0),
    ]
    return _report("happy_path", seed, verdicts, sim.balances(),
                   sim.fee_accounting().get("operator", {}), [])


def scenario_censoring_operator(seed: int = 0, params: Optional[Params] = None,
                                late: bool = False, **_) -> dict:
    p = params or PARAMS_TE40
    k = p.k
    if late:
        # a user who fires one round late at the worst delays loses the race
        delays = [2 * k - 1, 2 * k - 1]
    else:
        rng = random.Random(seed)
        delays = [rng.randrange(2 * k) for _ in range(2)]
    res = exit_race(k, delays, late_by=1 if late else 0, t_e=p.t_e)
    verdicts = [
        _verdict("exit_confirmed_before_expiry",
                 res.exit_confirmed_before_expiry != late,
                 f"delays={delays}"),
        _verdict("race_outcome",
                 res.sweep_confirmed == late,
                 f"sweep_confirmed={res.sweep_confirmed}"),
    ]
    return _report("censoring_operator", seed, verdicts, {},
                   {}, [{"delays": delays, "late": late}])


def scenario_hostage_attack(seed: int = 0, params: Optional[Params] = None,
                            resets: bool = True, **_) -> dict:
    p = params or PARAMS_TE40
    sim = Simulation(p, seed, use_resets=resets)
    op_initial = 100_000
    sim.operator.fund(op_initial)
    mallory = sim.add_wallet("mallory", [5_000])
    sim.board("mallory", [5_000])
    sim.settle_commitment()
    vtxo_m = sim.vtxos("mallory")[0]
    hostage_value = vtxo_m.value

    # offchain self-payment, then swap the new vtxo into the next batch
    payment = sim.ark_pay("mallory", "mallory", [vtxo_m], 5_000,
                          auto_receive=False)
    sim.swap("mallory", payment.outputs)
    sim.settle_commitment()

    # mallory unrolls the original leaf, withholding the ark tx
    sim.unroll("mallory", vtxo_m)
    sim.tick(1)

    # mallory also exits her batch-2 vtxo (the legitimately swapped one),
    # so the operator cannot recoup via that batch's expiry sweep
    for v in sim.vtxos("mallory"):
        mallory.unilateral_exit(v)

    # wait out t_u, then mallory tries the unilateral leaf spend
    _, unilateral = arkcore.classify_paths(vtxo_m.lock, sim.operator.pk, p.t_u)
    claim = leaf_spend(vtxo_m, unilateral[0], mallory.sk)
    claimed = False
    horizon = sim.chain.height + p.t_u + p.t_e + 6 * p.k
    while sim.chain.height < horizon:
        if not claimed and not sim.chain.is_confirmed(claim.txid):
            try:
                sim.chain.submit(claim, "mallory")
                claimed = True
            except SubmitError:
                pass
        sim.tick(1)

    op_final = sim.operator.onchain_balance()
    expected = op_initial + 0  # zero fees: conservation
    deficit = expected - op_final
    verdicts = [
        _verdict("operator_conserved" if resets else "operator_deficit",
                 deficit == 0 if resets else deficit == hostage_value,
                 f"deficit={deficit} hostage_value={hostage_value}"),
    ]
    rep = _report("hostage_attack", seed, verdicts,
                  sim.balances(), sim.fee_accounting().get("mallory", {}),
                  [{"resets": resets, "deficit": deficit,
                    "hostage_value": hostage_value}])
    rep["deficit"] = deficit
    rep["hostage_value"] = hostage_value
    rep["operator_final"] = op_final
    rep["operator_initial"] = expected
    return rep


def scenario_spam_attack(seed: int = 0, params: Optional[Params] = None,
                         hops: int = 3, **_) -> dict:
    p = params or PARAMS_TE60
    sim = Simulation(p, seed)
    sim.operator.fund(100_000)
    sim.add_wallet("mallory", [5_000])
    sim.board("mallory", [5_000])
    sim.settle_commitment()
    vtxo = sim.vtxos("mallory")[0]

    chain_payments: List[ArkPayment] = []
    current = vtxo
    for _ in range(hops):
        payment = sim.ark_pay("mallory", "mallory", [current], current.value,
                              auto_receive=False)
        chain_payments.append(payment)
        current = payment.outputs[0]
    # swap the final vtxo, handing the operator its forfeit
    sim.swap("mallory", [current])
    forfeit = sim.settle_commitment().forfeits[current.key()]

    # mallory publishes the whole chain herself
    sim.unroll("mallory", vtxo,
               [tx for pm in chain_payments for tx in (*pm.resets, pm.ark)])
    sim.tick(2 * p.k + 2)

    # the operator's watcher answers with the forfeit for the final vtxo
    sim.tick(2 * p.k + 2)
    acct = sim.fee_accounting()
    ark_txids = {pm.ark.txid for pm in chain_payments}
    onchain_ark = {t for t in ark_txids if sim.chain.is_confirmed(t)}
    attacker_paid_arks = all(
        sim.chain.records[t].party == "mallory" for t in onchain_ark)
    forfeit_value = (forfeit.outs[0].value if sim.chain.is_confirmed(forfeit.txid)
                     else None)
    expected_forfeit = current.value + p.epsilon
    verdicts = [
        _verdict("attacker_publishes_ark_chain",
                 attacker_paid_arks and onchain_ark == ark_txids,
                 f"onchain={len(onchain_ark)}/{len(ark_txids)}"),
        _verdict("operator_claims_forfeit",
                 forfeit_value == expected_forfeit,
                 f"forfeit={forfeit_value} expected={expected_forfeit}"),
    ]
    rep = _report("spam_attack", seed, verdicts, sim.balances(), acct.get("mallory", {}),
                  [{"hops": hops}])
    rep["fee_accounting"] = acct
    rep["forfeit_value"] = forfeit_value
    rep["expected_forfeit"] = expected_forfeit
    rep["ark_publishers"] = sorted(
        sim.chain.records[t].party for t in onchain_ark)
    return rep


def scenario_bank_run(seed: int = 0, params: Optional[Params] = None,
                      n: int = 8, **_) -> dict:
    p = params or PARAMS_TE60
    sim = Simulation(p, seed)
    sim.operator.fund(1_000_000)
    names = [f"user{i}" for i in range(n)]
    for name in names:
        sim.add_wallet(name, [1_000])
        sim.board(name, [1_000])
    sim.settle_commitment()
    submitted = 0
    for name in names:
        for v in sim.vtxos(name):
            submitted += len(sim.wallets[name].unilateral_exit(v))
    sim.tick(2 * p.k + 1)
    bound = n * (footprint.exit_depth(n) + 1)
    all_exited = all(sim.chain.unspent(v.outpoint)
                     for name in names for v in sim.vtxos(name))
    verdicts = [
        _verdict("exit_txs_within_bound", submitted <= bound,
                 f"submitted={submitted} bound={bound} "
                 "(congestion under limited block space is not simulated)"),
        _verdict("all_users_exited", all_exited),
    ]
    rep = _report("bank_run", seed, verdicts, sim.balances(), {}, [
        {"n": n, "submitted": submitted, "bound": bound,
         "caveat": "limited block space would stretch these"
                   " submissions over many blocks"}])
    return rep


def scenario_operator_shutdown(seed: int = 0, params: Optional[Params] = None,
                               fee: int = 0, **_) -> dict:
    p = params or PARAMS_TE40
    sim = Simulation(p, seed, fee=fee)
    op_initial = 200_000
    sim.operator.fund(op_initial)
    sim.add_wallet("alice", [10_000])
    sim.add_wallet("bob", [8_000])
    sim.board("alice", [10_000 - fee])
    sim.board("bob", [8_000 - fee])
    sim.settle_commitment()

    sim.ark_pay("alice", "bob", sim.vtxos("alice")[:1], 4_000)
    sim.settle_commitment()     # bob's swap of the received vtxo
    # everyone exits collaboratively before the shutdown
    for name in ("alice", "bob"):
        if sim.vtxos(name):
            sim.exit(name, sim.vtxos(name))
    sim.settle_commitment()
    # operator stops; run to the conservation horizon and sweep
    commit_height = sim.all_bundles[-1].submit_height
    horizon = commit_height + 4 * p.k + p.t_e
    sim.tick(horizon - sim.chain.height)

    fees = sim.operator.collected_fees
    op_final = sim.operator.onchain_balance()
    identity_ok = op_final == op_initial + fees
    verdicts = [
        _verdict("conservation_identity", identity_ok,
                 f"final={op_final} initial={op_initial} fees={fees}"),
    ]
    rep = _report("operator_shutdown", seed, verdicts, sim.balances(), {},
                  [{"fee": fee, "horizon": horizon}])
    rep["operator_initial"] = op_initial
    rep["operator_final"] = op_final
    rep["collected_fees"] = fees
    rep["accounts"] = [b.account for b in sim.all_bundles]
    return rep


def scenario_handover(seed: int = 0, params: Optional[Params] = None, **_) -> dict:
    p = params or PARAMS_TE40
    sim = Simulation(p, seed)
    sim.operator.fund(100_000)
    alice = sim.add_wallet("alice", [5_000])
    sim.board("alice", [5_000])
    sim.settle_commitment()
    old_vtxo = sim.vtxos("alice")[0]

    # second operator with its own book and liquidity
    o2_sk, _ = crypto.keygen(b"operator2" + seed.to_bytes(8, "big"))
    op2 = Operator("operator2", o2_sk, sim.chain, p)
    op2.fund(50_000)
    w2 = Wallet("alice2", alice.sk, sim.chain, p, op2.pk)
    swap = Request("batch-swap", "alice2", inputs=(old_vtxo,),
                   outputs=(VtxoSpec(old_vtxo.value, "alice2", alice.pk),))
    op2.book.vtxos[old_vtxo.key()] = ("C", old_vtxo)
    op2.verify_batch_swap(swap)
    bundle2 = op2.assemble_commitment()
    # the outgoing operator cooperates in the ceremony: it countersigns
    # the forfeit of its own vtxo in exchange for the reimbursement
    op2.run_signing(bundle2, {"alice2": w2},
                    extra_secrets={sim.operator.pk.hex(): sim.operator.sk})
    op2.submit_and_track(bundle2)
    sim.all_bundles.append(bundle2)
    for _ in range(p.k + 2):
        op2.watch_step()
        sim.chain.advance_round()
    w2.on_commitment_confirmed(bundle2)

    # reimbursement: O1 pays v to O2, anchored in O2's commitment
    anchor = next(a for _, _, forfeits in bundle2.entries() for v, a in forfeits if v is old_vtxo)
    o1_fund, o1_out = sim.operator.spendable_liquidity()[0]
    reimb = Tx(ins=(o1_fund, anchor),
               outs=(Output(old_vtxo.value + p.epsilon, p2pk(op2.pk)),
                     Output(o1_out.value - old_vtxo.value, p2pk(sim.operator.pk))))
    reimb.wits = [Witness(KEY_PATH, (crypto.sign(sim.operator.sk, reimb.digest()),)),
                  Witness(KEY_PATH, (crypto.sign(o2_sk, reimb.digest()),))]
    confirmed_anchor = sim.chain.is_confirmed(bundle2.commitment.txid)
    submitted = False
    if confirmed_anchor:
        try:
            sim.chain.submit(reimb, "operator")
            submitted = True
        except SubmitError:
            pass
    sim.tick(p.k + 2)

    new_holding = [h for h in w2.holdings.values() if h.kind == "batch"]
    forfeit_held = op2.book.vtxos[old_vtxo.key()][0] == "S"
    verdicts = [
        _verdict("user_holds_vtxo_with_new_operator", bool(new_holding)),
        _verdict("old_operator_compensated",
                 submitted and sim.chain.is_confirmed(reimb.txid)),
        _verdict("new_operator_holds_forfeit", forfeit_held),
    ]
    return _report("handover", seed, verdicts, sim.balances(), {},
                   [{"anchor_bound": True}])


def scenario_ff_double_spend(seed: int = 0, params: Optional[Params] = None,
                             delta: int = 1, edge_delays: Optional[dict] = None,
                             send_offset: int = 0, **_) -> dict:
    p = params or PARAMS_TE60
    outcome = ff_double_spend_trace(seed, p, delta, edge_delays, send_offset)
    verdicts = [
        _verdict("no_two_honest_acceptances", not outcome["both_accepted"],
                 f"accepted={outcome['accepted']}"),
        _verdict("collateral_burned", outcome["burned"]),
        _verdict("deterrence", outcome["collateral"] > outcome["coalition_gain"],
                 f"c={outcome['collateral']} gain={outcome['coalition_gain']}"),
    ]
    rep = _report("ff_double_spend", seed, verdicts, {}, {}, [outcome])
    rep.update(outcome)
    return rep


def ff_setup(seed: int, p: Params, delta: int, edge_delays: Optional[dict] = None
             ) -> Tuple[Simulation, FfCoordinator, Vtxo]:
    """Members mallory, alice and bob around a fast-finality operator, and
    mallory's nonce-bound VTXO, funded as a single-leaf batch and booked.
    `edge_delays` maps (sender, receiver) to gossip rounds, 1 by default."""
    sim = Simulation(p, seed)
    sim.operator.fund(100_000)
    for name in ("mallory", "alice", "bob"):
        sim.add_wallet(name, [])
    mallory = sim.wallets["mallory"]

    ffop = FfOperator(sim.operator)
    value = 5_000
    cfg = FfConfig(members=("mallory", "alice", "bob"), delta=delta,
                   v=value, c=value + 1_000, t_p=10_000)
    collateral = setup_collateral(
        ffop.operator, [b"member-%d" % i for i in range(3)], cfg, sim.chain)

    _, r_star = ffop.fresh_nonce(b"mallory-vtxo")
    lock = arkcore.vtxo_lock(mallory.pk, sim.operator.pk, p.t_u, r_star)
    vtxo = Vtxo(value, lock, "mallory", mallory.pk)
    _, vtxt = signed_batch([vtxo],
                           [(sim.operator.sk, sim.operator.pk), (mallory.sk, mallory.pk)],
                           p.batch_expiry(sim.chain.height))
    grant_batch(sim.chain, vtxt)
    mallory.holdings[vtxo.key()] = Holding(vtxo, vtxt.path_to(vtxo.outpoint.txid),
                                           "batch")
    sim.operator.book.vtxos[vtxo.key()] = ("C", vtxo)

    delays = edge_delays or {}
    coord = FfCoordinator(cfg, sim.chain, ffop, dict(sim.wallets), collateral,
                          edge_delay=lambda s, r, pid: delays.get((s, r), 1))
    return sim, coord, vtxo


def ff_double_spend_trace(seed: int, p: Params, delta: int,
                          edge_delays: Optional[dict] = None,
                          send_offset: int = 0) -> dict:
    """One double-sign trace: Mallory pays the same nonce-bound VTXO to
    Alice and Bob; a byzantine operator signs both."""
    sim, coord, vtxo = ff_setup(seed, p, delta, edge_delays)
    alice, bob = sim.wallets["alice"], sim.wallets["bob"]
    path = sim.wallets["mallory"].holdings[vtxo.key()].transcript
    pay_a = coord.make_ff_payment("mallory", [vtxo],
                                  [VtxoSpec(vtxo.value, "alice", alice.pk)], [path])
    sim.payments.append(pay_a)     # booked; the conflicting pay_b is not
    pay_b = coord.make_ff_payment("mallory", [vtxo],
                                  [VtxoSpec(vtxo.value, "bob", bob.pk)], [path],
                                  allow_conflict=True)
    coord.ff_send("mallory", "alice", pay_a)
    for _ in range(send_offset):
        coord.step()
        sim.chain.advance_round()
    coord.ff_send("mallory", "bob", pay_b)
    for _ in range(6 * delta + 4):
        coord.step()
        sim.chain.advance_round()

    accepted = {m: [pl.payload_id for pl in coord.accepted[m]]
                for m in ("alice", "bob")}
    both = bool(accepted["alice"]) and bool(accepted["bob"])
    # coalition gain: conflicting value finalized to coalition control is
    # anything double-collected; with at most one acceptance the coalition
    # merely moved its own value
    gain = vtxo.value if both else 0
    return {"accepted": accepted, "both_accepted": both,
            "burned": coord.burned, "collateral": coord.cfg.c,
            "coalition_gain": gain, "burn_txid": coord.burn_txid,
            "payloads": sorted([pay_a.ark.txid[:8], pay_b.ark.txid[:8]])}


SCENARIOS: Dict[str, Callable[..., dict]] = {
    "happy_path": scenario_happy_path,
    "censoring_operator": scenario_censoring_operator,
    "hostage_attack": scenario_hostage_attack,
    "spam_attack": scenario_spam_attack,
    "ff_double_spend": scenario_ff_double_spend,
    "bank_run": scenario_bank_run,
    "handover": scenario_handover,
    "operator_shutdown": scenario_operator_shutdown,
}


def run_scenario(name: str, **config) -> dict:
    if name not in SCENARIOS:
        raise KeyError(f"unknown scenario {name!r}")
    return SCENARIOS[name](**config)


# --- theorem checks ------------------------------------------------------


def check_theorem(theorem_id: str, **config) -> dict:
    checks = {
        "T1-safety": _check_t1_safety,
        "T2": _check_t2,
        "T3": _check_t3,
    }
    if theorem_id not in checks:
        raise KeyError(f"unknown theorem {theorem_id!r}")
    return checks[theorem_id](**config)


def _check_t1_safety(seed: int = 0, **_) -> dict:
    """No unexpired committed VTXO with honest cosigners is spent onchain
    except by its own path txs or an owner-cosigned witness."""
    sim = Simulation(PARAMS_TE40, seed)
    sim.operator.fund(100_000)
    sim.add_wallet("alice", [5_000])
    sim.board("alice", [5_000])
    sim.settle_commitment()
    vtxo = sim.vtxos("alice")[0]
    sim.tick(5)
    # the operator alone cannot move the leaf before expiry
    theft = leaf_spend(vtxo, 0, sim.operator.sk)
    stolen = False
    try:
        sim.chain.submit(theft, "operator")
        sim.tick(2 * sim.params.k)
        stolen = sim.chain.is_confirmed(theft.txid)
    except SubmitError:
        pass
    return {"theorem": "T1-safety", "pass": not stolen,
            "detail": "operator-only spend of an honest VTXO rejected"}


def _check_t2(seed: int = 0, **_) -> dict:
    """Ark balance is recoverable via unilateral exits under an
    unresponsive operator."""
    p = PARAMS_TE60
    sim = Simulation(p, seed)
    sim.operator.fund(100_000)
    sim.add_wallet("alice", [5_000])
    sim.board("alice", [3_000, 2_000])
    sim.settle_commitment()
    alice = sim.wallets["alice"]
    claimed_balance = alice.balance()
    for v in sim.vtxos("alice"):
        alice.unilateral_exit(v)
    sim.tick(2 * p.k + 1, watch=False)
    recovered = sum(v.value for v in sim.vtxos("alice")
                    if sim.chain.unspent(v.outpoint))
    return {"theorem": "T2", "pass": recovered == claimed_balance,
            "claimed": claimed_balance, "recovered": recovered}


def _check_t3(traces: int = 200, seed: int = 0, **_) -> dict:
    """Abort injection at every ceremony step leaves the Ark state
    either fully unchanged or fully transitioned."""
    rng = random.Random(seed)
    steps = ["verify", "vtxt", "forfeit", "boarding", "fund"]
    violations = []
    for t in range(traces):
        trace_seed = rng.randrange(2 ** 32)
        step = steps[t % len(steps)]
        p = Params(k=2, t_u=9, t_e=30, t_r=8)
        sim = Simulation(p, trace_seed)
        sim.operator.fund(100_000)
        sim.add_wallet("alice", [5_000])
        sim.board("alice", [5_000])
        sim.settle_commitment()
        sim.swap("alice", sim.vtxos("alice"))
        before = sim.state().as_tuple()
        aborted = False
        try:
            sim.settle_commitment(abort=lambda s, party, step=step: s == step)
        except SessionAborted:
            aborted = True
        after = sim.state().as_tuple()
        if aborted:
            if after != before:
                violations.append({"trace": t, "step": step, "why": "partial"})
        else:
            new_c = set(after[0]) - set(before[0])
            if not new_c:
                violations.append({"trace": t, "step": step, "why": "no effect"})
    return {"theorem": "T3", "pass": not violations, "traces": traces,
            "violations": violations}


def report_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2, default=str) + "\n"
