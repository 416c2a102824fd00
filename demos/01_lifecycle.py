"""Walk through the happy path: a user boards, the operator settles a
commitment on the base chain, the user pays off-chain, and everyone can
still leave unilaterally."""

from arksim.harness import Simulation, audit
from arksim.ledger import Params

params = Params(k=3, t_u=13, t_e=40, t_r=8)
sim = Simulation(params, seed=1)
sim.operator.fund(100_000)
sim.add_wallet("alice", [8_000])
sim.add_wallet("bob", [])

print("== boarding ==")
sim.board("alice", [8_000])
print(f"alice locked 8000 sats on-chain; operator height={sim.chain.height}")

print("\n== commitment ceremony ==")
sim.settle_commitment()
print(f"alice off-chain balance: {sim.wallets['alice'].balance()} sats")

print("\n== off-chain payment ==")
vtxo = sim.vtxos("alice")[0]
sim.ark_pay("alice", "bob", [vtxo], 3_000)
print(f"alice: {sim.wallets['alice'].balance()}  bob: {sim.wallets['bob'].balance()}")

print("\n== swap into the next batch ==")
sim.settle_commitment()
print("bob's received payment is now a batch output with its own exit path")

print("\n== unilateral exit ==")
exit_vtxo = next(h.vtxo for h in sim.wallets["bob"].holdings.values()
                 if h.kind == "batch")
txs = sim.wallets["bob"].unilateral_exit(exit_vtxo)
sim.tick(2 * params.k)
print(f"bob published {len(txs)} transactions and left without cooperation")

state = sim.state()
violations = audit(sim)
if violations:
    raise SystemExit(f"audit failed: {violations[0]}")
print(f"\nledger state: |C|={len(state.C)} |F|={len(state.F)} |S|={len(state.S)}")
print("conservation check passed")
