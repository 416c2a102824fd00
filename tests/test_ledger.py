import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arksim import crypto, harness
from arksim.arkcore import Vtxo, p2pk, vtxo_lock
from arksim.harness import signed_batch
from arksim.ledger import (
    Adversary,
    Chain,
    DoubleSpend,
    InvalidWitness,
    MaxDelay,
    MissingInput,
    Output,
    Params,
    SubmitError,
    Tx,
    ValueCreated,
)
from arksim.script import KEY_PATH, Witness

SK, PK = crypto.keygen(b"ledger-user")
SK2, PK2 = crypto.keygen(b"ledger-other")


def make_chain(k=3, adversary=None):
    params = Params(k=k, t_u=4 * k + 1)
    chain = Chain(params, adversary)
    chain.register("user")
    chain.register("other")
    return chain


def spend(source, value, dest_pk, sk=SK):
    tx = Tx(ins=(source,), outs=(Output(value, p2pk(dest_pk)),))
    tx.wits = [Witness(KEY_PATH, (crypto.sign(sk, tx.digest()),))]
    return tx


def test_params_validation():
    with pytest.raises(ValueError):
        Params(k=6, t_u=24).validate()
    Params(k=6, t_u=25).validate()
    Params(k=6, t_u=10).validate(unsafe=True)


def test_grant_and_spend():
    chain = make_chain()
    op = chain.grant(1000, p2pk(PK))
    tx = spend(op, 1000, PK2)
    chain.submit(tx, "user")
    chain.advance_round()
    assert chain.is_confirmed(tx.txid)
    assert not chain.unspent(op)
    assert chain.unspent(tx.outpoint(0))


def test_stability_needs_k_depth():
    chain = make_chain(k=3)
    op = chain.grant(1000, p2pk(PK))
    tx = spend(op, 1000, PK2)
    chain.submit(tx, "user")
    chain.advance_round()
    assert not chain.is_stable(tx.txid)
    for _ in range(3):
        chain.advance_round()
    assert chain.is_stable(tx.txid)


def test_value_creation_rejected():
    chain = make_chain()
    op = chain.grant(1000, p2pk(PK))
    with pytest.raises(ValueCreated):
        chain.submit(spend(op, 1001, PK2), "user")


def test_a_negative_output_value_is_refused():
    # 2,000 and -1,000 sats sum to the 1,000-sat grant, yet would pay out
    # 2,000 (Bitcoin's bad-txns-vout-negative); a 0-sat output stays valid
    chain = make_chain()
    op = chain.grant(1000, p2pk(PK))
    tx = Tx(ins=(op,), outs=(Output(2000, p2pk(PK2)), Output(-1000, p2pk(PK))))
    tx.wits = [Witness(KEY_PATH, (crypto.sign(SK, tx.digest()),))]
    with pytest.raises(ValueCreated, match="negative output value"):
        chain.submit(tx, "user")
    assert chain.mempool == {}
    tx = Tx(ins=(op,), outs=(Output(1000, p2pk(PK2)), Output(0, p2pk(PK))))
    tx.wits = [Witness(KEY_PATH, (crypto.sign(SK, tx.digest()),))]
    assert chain.submit(tx, "user")


def test_an_outpoint_spent_twice_in_one_tx_is_refused():
    # the duplicate-input fault of Bitcoin Core's CVE-2018-17144: a
    # 1,000-sat grant listed twice would fund a 2,000-sat output
    chain = make_chain()
    op = chain.grant(1000, p2pk(PK))
    tx = Tx(ins=(op, op), outs=(Output(2000, p2pk(PK2)),))
    tx.wits = [Witness(KEY_PATH, (crypto.sign(SK, tx.digest()),))] * 2
    with pytest.raises(DoubleSpend, match="spent twice in one tx"):
        chain.submit(tx, "user")
    chain.advance_round()
    assert not chain.is_confirmed(tx.txid)
    assert chain.unspent(op)
    assert chain.total_value() == 1000


@pytest.mark.parametrize("outs", [(), (Output(0, p2pk(PK)),)])
def test_a_tx_without_inputs_is_refused(outs):
    # Bitcoin's bad-txns-vin-empty: only `grant` mints, so an input-less
    # tx is neither queued nor confirmed, and the chain's state is as it was
    chain = make_chain()
    chain.grant(1000, p2pk(PK))
    state = (dict(chain.utxos), dict(chain.records), chain.total_value())
    with pytest.raises(MissingInput, match="^tx without inputs$"):
        chain.submit(Tx((), outs), "user")
    assert chain.mempool == {}
    chain.advance_round()
    assert (dict(chain.utxos), dict(chain.records), chain.total_value()) == state
    assert not chain.is_confirmed(Tx((), outs).txid)


def test_witness_count_checked():
    chain = make_chain()
    op = chain.grant(1000, p2pk(PK))
    tx = Tx(ins=(op,), outs=(Output(1000, p2pk(PK2)),))
    with pytest.raises(InvalidWitness):
        chain.submit(tx, "user")


def test_invalid_witness_never_confirms():
    chain = make_chain()
    op = chain.grant(1000, p2pk(PK))
    tx = spend(op, 1000, PK2, sk=SK2)  # wrong key
    chain.submit(tx, "user")
    for _ in range(5):
        chain.advance_round()
    assert not chain.is_confirmed(tx.txid)


def test_double_spend_of_stable_rejected():
    chain = make_chain(k=2)
    op = chain.grant(1000, p2pk(PK))
    tx1 = spend(op, 1000, PK2)
    chain.submit(tx1, "user")
    for _ in range(4):
        chain.advance_round()
    tx2 = spend(op, 900, PK)
    with pytest.raises(DoubleSpend):
        chain.submit(tx2, "user")


def test_delay_clamp_bounds_inclusion():
    # worst-case delay still lands within k rounds of submission
    k = 3
    adv = MaxDelay(prefer_new=False, max_delay=2 * k - 1)
    chain = make_chain(k=k, adversary=adv)
    op = chain.grant(1000, p2pk(PK))
    tx = spend(op, 1000, PK2)
    h = chain.height
    chain.submit(tx, "user")
    for _ in range(2 * k):
        chain.advance_round()
    assert chain.confirm_height(tx.txid) == h + 1 + (k - 1)
    # submitted at h, stable in every view by h + 2k
    assert chain.confirm_height(tx.txid) + k <= h + 2 * k


def test_zero_delay_includes_next_block():
    chain = make_chain()
    op = chain.grant(1000, p2pk(PK))
    tx = spend(op, 1000, PK2)
    h = chain.height
    chain.submit(tx, "user")
    chain.advance_round()
    assert chain.confirm_height(tx.txid) == h + 1


def test_displacement_of_shallow_conflict():
    k = 3
    adv = MaxDelay(prefer_new=True)
    chain = make_chain(k=k, adversary=adv)
    op = chain.grant(1000, p2pk(PK))
    tx1 = spend(op, 1000, PK2)
    chain.submit(tx1, "user")
    chain.advance_round()
    assert chain.is_confirmed(tx1.txid)
    tx2 = spend(op, 900, PK)
    chain.submit(tx2, "other")
    chain.advance_round()
    assert chain.is_confirmed(tx2.txid)
    assert chain.records[tx1.txid].status == "replaced"


def test_no_displacement_once_stable():
    k = 2
    adv = MaxDelay(prefer_new=True)
    chain = make_chain(k=k, adversary=adv)
    op = chain.grant(1000, p2pk(PK))
    tx1 = spend(op, 1000, PK2)
    chain.submit(tx1, "user")
    for _ in range(k + 1):
        chain.advance_round()
    assert chain.is_stable(tx1.txid)
    with pytest.raises(DoubleSpend):
        chain.submit(spend(op, 900, PK), "other")


def test_eviction_cascades_to_descendants():
    k = 3
    adv = MaxDelay(prefer_new=True)
    chain = make_chain(k=k, adversary=adv)
    op = chain.grant(1000, p2pk(PK))
    tx1 = spend(op, 1000, PK2)
    chain.submit(tx1, "user")
    chain.advance_round()
    child = spend(tx1.outpoint(0), 1000, PK, sk=SK2)
    chain.submit(child, "user")
    chain.advance_round()
    tx2 = spend(op, 900, PK)
    chain.submit(tx2, "other")
    chain.advance_round()
    assert chain.records[tx1.txid].status == "replaced"
    assert chain.records[child.txid].status == "replaced"
    assert chain.is_confirmed(tx2.txid)


def test_package_submission_same_block():
    chain = make_chain()
    op = chain.grant(1000, p2pk(PK))
    parent = spend(op, 1000, PK2)
    child = spend(parent.outpoint(0), 1000, PK, sk=SK2)
    chain.submit_package([parent, child], "user")
    chain.advance_round()
    assert chain.confirm_height(parent.txid) == chain.confirm_height(child.txid)


@pytest.mark.parametrize("adversary", [None, MaxDelay(prefer_new=True)],
                         ids=["default", "prefer_new"])
def test_an_output_made_in_a_block_is_spent_once_in_it(adversary):
    # a spends the grant to o, and b and c each spend o, all in one round:
    # one of b and c confirms, and no sats are made
    chain = make_chain(adversary=adversary)
    op = chain.grant(1000, p2pk(PK))
    a = spend(op, 1000, PK2)
    b = spend(a.outpoint(0), 1000, PK, sk=SK2)
    c = spend(a.outpoint(0), 1000, PK2, sk=SK2)
    chain.submit_package([a, b, c], "user")
    chain.advance_round()
    assert chain.is_confirmed(a.txid)
    assert [chain.is_confirmed(t.txid) for t in (b, c)].count(True) == 1
    assert chain.total_value() == 1000
    assert harness.value_conserved(chain)


def test_conflicting_mempool_entries_first_valid_wins():
    chain = make_chain()
    op = chain.grant(1000, p2pk(PK))
    tx1 = spend(op, 1000, PK2)
    tx2 = spend(op, 900, PK)
    chain.submit(tx1, "user")
    chain.submit(tx2, "other")
    chain.advance_round()
    assert chain.is_confirmed(tx1.txid)
    assert not chain.is_confirmed(tx2.txid)


def test_resubmission_is_idempotent():
    chain = make_chain()
    op = chain.grant(1000, p2pk(PK))
    tx = spend(op, 1000, PK2)
    assert chain.submit(tx, "user") is True
    assert chain.submit(tx, "user") is False
    chain.advance_round()
    assert chain.submit(tx, "user") is False
    assert len(chain.blocks[-1]) == 1


def test_txid_covers_only_ins_and_outs():
    op1 = Tx(ins=(), outs=(Output(5, p2pk(PK)),)).outpoint(0)
    a = Tx(ins=(op1,), outs=(Output(5, p2pk(PK2)),))
    b = Tx(ins=(op1,), outs=(Output(5, p2pk(PK2)),))
    b.wits = [Witness(KEY_PATH, (crypto.sign(SK, b.digest()),))]
    assert a.txid == b.txid


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=6),
       st.integers(min_value=0, max_value=11))
def test_property_total_value_never_increases(splits, delay):
    adv = MaxDelay(prefer_new=False, max_delay=delay)
    chain = make_chain(k=3, adversary=adv)
    total = 100
    op = chain.grant(total, p2pk(PK))
    start = chain.total_value()
    share = total // len(splits)
    outs = tuple(Output(share, p2pk(PK2)) for _ in splits)
    tx = Tx(ins=(op,), outs=outs)
    tx.wits = [Witness(KEY_PATH, (crypto.sign(SK, tx.digest()),))]
    chain.submit(tx, "user")
    for _ in range(delay + 2):
        chain.advance_round()
        assert chain.total_value() <= start


# --- one batch equation per block ----------------------------------------

TREE_PARAMS = Params(k=3, t_u=13, t_e=60)


@pytest.fixture(scope="module")
def tree():
    """A cosigned 64-leaf VTXT and its batch lock: unrolling it confirms
    all 127 txs in one block."""
    op = crypto.keygen(b"tree-op")
    keys = [crypto.keygen(b"tree-user-%d" % i) for i in range(64)]
    leaves = [Vtxo(1_000, vtxo_lock(pk, op[1], TREE_PARAMS.t_u), f"u{i}", pk)
              for i, (_, pk) in enumerate(keys)]
    return signed_batch(leaves, [op] + keys, 100)


def unroll_in_one_block(tree, replace=None):
    """A chain holding the tree's batch output, after the block that
    unrolls the tree; `replace` maps a txid to the tx submitted in its
    place."""
    lock, vtxt = tree
    chain = Chain(TREE_PARAMS)
    chain.grant(64_000, lock)
    for txid, tx in vtxt.txs.items():
        chain.submit((replace or {}).get(txid, tx), "user")
    chain.advance_round()
    return chain


def test_tree_block_is_one_batch_equation(tree, point_mul_calls):
    _, vtxt = tree
    comb = crypto._comb_table.cache_info()
    chain = unroll_in_one_block(tree)
    assert chain.blocks == [list(vtxt.txs)]
    # the batch's one G multiplication; no e*P, and no comb table built
    assert point_mul_calls == [crypto.G]
    assert crypto._comb_table.cache_info().misses == comb.misses
    assert crypto._verified.cache_info().currsize == len(vtxt.txs)


def test_a_tree_block_folds_its_node_keys_onto_their_members(
        tree, point_mul_calls, multi_mul_terms):
    # one term per R, and two GLV halves per key: the 64 users' and the
    # operator's, where the 127 node keys took 127 + 2 * 127 = 381
    _, vtxt = tree
    unroll_in_one_block(tree)
    assert len(vtxt.txs) == 127
    assert multi_mul_terms == [127 + 2 * 65]


def test_a_block_of_three_exits_keeps_its_node_keys(tree, point_mul_calls,
                                                    multi_mul_terms):
    # three leaves' paths share the root and then part: 18 nodes under 18
    # keys.  Folding would add the root key's 65 members, so it is left out
    lock, vtxt = tree
    chain = Chain(TREE_PARAMS)
    chain.grant(64_000, lock)
    nodes = {tx.txid: tx for leaf in vtxt.leaves[::22]
             for tx in vtxt.path_to(leaf.txid)}
    for tx in nodes.values():
        chain.submit(tx, "user")
    chain.advance_round()
    assert chain.blocks == [list(nodes)]
    assert len(nodes) == 18
    assert multi_mul_terms == [18 + 2 * 18]


def test_bad_witness_in_a_batched_block(tree, point_mul_calls, monkeypatch):
    _, vtxt = tree
    bad_txid = vtxt.leaves[-1].txid
    good = vtxt.txs[bad_txid]
    sig = good.wits[0].signatures[0]
    bad = Tx(good.ins, good.outs, [Witness(
        good.wits[0].path_index, (crypto.Signature(sig.R, (sig.s + 1) % crypto.Q),),
        good.wits[0].revealed_paths)])
    assert len(vtxt.txs) >= crypto.BATCH_MIN
    batched = unroll_in_one_block(tree, {bad_txid: bad})
    assert batched.blocks == [[t for t in vtxt.txs if t != bad_txid]]
    assert bad_txid in batched.mempool
    # the failed equation records nothing: each signature is then checked
    # singly, with one G and one e*P multiplication
    assert point_mul_calls.count(crypto.G) == 1 + len(vtxt.txs)
    assert len(point_mul_calls) == 1 + 2 * len(vtxt.txs)
    # the same block with every signature checked singly
    crypto._verified.cache_clear()
    monkeypatch.setattr(crypto, "BATCH_MIN", len(vtxt.txs) + 1)
    single = unroll_in_one_block(tree, {bad_txid: bad})
    assert single.trace == batched.trace and single.blocks == batched.blocks
    assert single.mempool.keys() == batched.mempool.keys()


# --- empty rounds --------------------------------------------------------


class _NeverEmpty(dict):
    """A mempool that never reads as empty, so `advance_round` always runs
    its full body."""

    def __bool__(self):
        return True


def race_chain(monkeypatch, late_by, full):
    """The chain of one `exit_race`, with or without the empty-round path."""
    made = []

    class Recording(Chain):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            if full:
                self.mempool = _NeverEmpty()
            made.append(self)

    monkeypatch.setattr(harness, "Chain", Recording)
    harness.exit_race(3, [2, 1, 0], late_by=late_by)
    return made[0]


@pytest.mark.parametrize("late_by", [0, 4])
def test_empty_rounds_match_the_full_body(monkeypatch, late_by):
    fast = race_chain(monkeypatch, late_by, full=False)
    full = race_chain(monkeypatch, late_by, full=True)
    assert sum(not block for block in fast.blocks) > len(fast.blocks) // 2
    assert fast.height == full.height and fast.blocks == full.blocks
    assert fast.trace == full.trace
    assert ([(t, r.party, r.height, r.status) for t, r in fast.records.items()]
            == [(t, r.party, r.height, r.status) for t, r in full.records.items()])
    assert fast.utxos == full.utxos and fast.spent_by == full.spent_by
    assert not fast.mempool and not dict(full.mempool)
