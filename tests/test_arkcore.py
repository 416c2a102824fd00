import functools
import gc

import pytest

from arksim import arkcore, crypto
from arksim.arkcore import (
    BATCH_SWEEP_PATH,
    BATCH_UNROLL_PATH,
    ArkError,
    Vtxo,
    ark_tx,
    batch_lock,
    boarding_lock,
    boarding_tx,
    build_connector,
    build_vtxt,
    check_vtxt,
    classify_paths,
    collab_aggregate,
    forfeit_tx,
    nonce_bound_path,
    p2pk,
    reset_lock,
    reset_tx,
    sweep_path,
    sweep_path_height,
    vtxo_lock,
)
from arksim.harness import cosign_vtxt
from arksim.ledger import Chain, OutPoint, Output, Params, Tx, witness_checks
from arksim.script import UNSPENDABLE, And, CheckAggSig, CheckSig, RelTimelock, taproot

PARAMS = Params(k=3, t_u=13, t_e=40)
OP_SK, OP_PK = crypto.keygen(b"core-op")
U_SK, U_PK = crypto.keygen(b"core-user")


def make_leaves(n, value=100):
    out = []
    for i in range(n):
        sk, pk = crypto.keygen(b"leaf-%d" % i)
        out.append(Vtxo(value, vtxo_lock(pk, OP_PK, PARAMS.t_u), f"u{i}", pk))
    return out


def funded_chain(value):
    chain = Chain(PARAMS)
    return chain, chain.grant(value, p2pk(OP_PK))


def test_vtxo_lock_classifies():
    lock = vtxo_lock(U_PK, OP_PK, PARAMS.t_u)
    collab, unilateral = classify_paths(lock, OP_PK, PARAMS.t_u)
    assert collab and unilateral
    assert set(collab).isdisjoint(unilateral)


def test_vtxo_lock_rejects_short_delay():
    lock = taproot(UNSPENDABLE, [
        CheckAggSig(crypto.aggregate([U_PK, OP_PK])),
        And(CheckSig(U_PK), RelTimelock(1)),   # delay below t_u
    ])
    with pytest.raises(ArkError):
        classify_paths(lock, OP_PK, PARAMS.t_u)


@pytest.mark.parametrize("build, reason", [
    (lambda: vtxo_lock(U_PK, OP_PK, 0), "unilateral delay must be positive"),
    (lambda: vtxo_lock(U_PK, OP_PK, -1), "unilateral delay must be positive"),
    (lambda: classify_paths(taproot(UNSPENDABLE, [
        And(CheckSig(U_PK), RelTimelock(PARAMS.t_u))]), OP_PK, PARAMS.t_u),
     "no collaborative path"),
    (lambda: classify_paths(taproot(UNSPENDABLE, [
        CheckAggSig(crypto.aggregate([U_PK, OP_PK]))]), OP_PK, PARAMS.t_u),
     "no unilateral path"),
    (lambda: build_vtxt(funded_chain(200)[1], make_leaves(2), OP_PK, 300, arity=1),
     "arity must be at least 2"),
    (lambda: build_vtxt(funded_chain(100)[1], [], OP_PK, 300), "empty leaf set"),
    (lambda: build_connector(funded_chain(330)[1], 0, OP_PK, 330),
     "need at least one anchor"),
], ids=["delay-0", "delay-negative", "no-collab", "no-unilateral", "arity-1",
        "no-leaves", "no-anchors"])
def test_a_malformed_lock_or_tree_is_rejected_with_its_reason(build, reason):
    with pytest.raises(ArkError, match=f"^{reason}$"):
        build()


def users_reset_lock():
    v = Vtxo(100, vtxo_lock(U_PK, OP_PK, PARAMS.t_u), "u", U_PK)
    return reset_lock(v, OP_PK, 77, PARAMS.t_u)


# each lock shape over the user's and the operator's keys, with the index
# of its cosigned path, and the index and height of its sweep path, which
# is a reset lock's last
LOCKS = {
    "vtxo": (lambda: vtxo_lock(U_PK, OP_PK, PARAMS.t_u), 0, None),
    "boarding": (lambda: boarding_lock(U_PK, OP_PK, PARAMS.t_b), 0, None),
    "reset": (users_reset_lock, 0, (1, 77)),
    "batch": (lambda: batch_lock(OP_PK, crypto.aggregate([U_PK, OP_PK]), 99), 1, (0, 99)),
}


def test_collab_aggregate_finds_members():
    for shape, (make, index, _) in LOCKS.items():
        assert collab_aggregate(make()) == (index, crypto.aggregate([U_PK, OP_PK])), shape


@pytest.mark.parametrize("shape", LOCKS)
def test_sweep_path_reads_index_and_height(shape):
    make, _, sweep = LOCKS[shape]
    assert sweep_path(make()) == sweep
    assert sweep_path_height(make()) == (sweep and sweep[1])


def test_nonce_bound_path_reads_index_and_nonce():
    # a fast-finality VTXO's lock and its reset's pin the operator's nonce
    # on their first path; a plain VTXO lock and a batch lock pin none
    r_star = crypto.point_mul(crypto.G, 7)
    v = Vtxo(100, vtxo_lock(U_PK, OP_PK, PARAMS.t_u, r_star), "u", U_PK)
    assert nonce_bound_path(v.lock) == (0, r_star)
    assert nonce_bound_path(reset_lock(v, OP_PK, 77, PARAMS.t_u)) == (0, r_star)
    assert nonce_bound_path(LOCKS["vtxo"][0]()) is None
    assert nonce_bound_path(LOCKS["batch"][0]()) is None


def test_build_vtxt_single_leaf():
    leaves = make_leaves(1)
    _, funding = funded_chain(100)
    vtxt, funding_out = build_vtxt(funding, leaves, OP_PK, 50, 2)
    assert len(vtxt.txs) == 1
    assert funding_out == vtxt.funding_out == vtxt.spent(vtxt.root)
    assert sweep_path_height(funding_out.lock) == 50
    assert vtxt.leaves[0].vtxo.outpoint is not None
    assert vtxt.leaves[0].vtxo.expiry == 50


def test_build_vtxt_structure():
    n = 8
    leaves = make_leaves(n)
    _, funding = funded_chain(100 * n)
    vtxt, _ = build_vtxt(funding, leaves, OP_PK, 50, 2)
    assert len(vtxt.leaves) == n
    # complete binary tree: 2n - 1 transactions
    assert len(vtxt.txs) == 2 * n - 1
    # the root first, then every node after the node it spends
    seen = set()
    for txid, tx in vtxt.txs.items():
        assert (txid == vtxt.root) == (tx.ins[0] == funding)
        assert txid == vtxt.root or tx.ins[0].txid in seen
        seen.add(txid)


def test_vtxt_value_conservation_per_node():
    leaves = make_leaves(8)
    _, funding = funded_chain(800)
    vtxt, _ = build_vtxt(funding, leaves, OP_PK, 50, 2)
    assert vtxt.funding_out.value == 800
    for txid, tx in vtxt.txs.items():
        assert vtxt.spent(txid).value >= sum(o.value for o in tx.outs)


def test_signer_sets_cover_subtrees():
    leaves = make_leaves(4)
    _, funding = funded_chain(400)
    vtxt, _ = build_vtxt(funding, leaves, OP_PK, 50, 2)
    for ref in vtxt.leaves:
        for tx in vtxt.path_to(ref.txid):
            _, _, key = vtxt.session(tx.txid)
            assert ref.vtxo.owner_pk in key.members and OP_PK in key.members


def twin_of_root_output(vtxt):
    root = vtxt.txs[vtxt.root]
    return Tx(ins=(root.outpoint(0),), outs=(Output(1, p2pk(OP_PK)),))


def past_root_outputs(vtxt):
    root = vtxt.txs[vtxt.root]
    return Tx(ins=(root.outpoint(len(root.outs)),), outs=(Output(1, p2pk(OP_PK)),))


def root_anchor_spender(vtxt):
    root = vtxt.txs[vtxt.root]
    return Tx(ins=(root.outpoint(len(root.outs) - 1),), outs=(Output(0, p2pk(OP_PK)),))


@pytest.mark.parametrize("extra, reason", [
    (root_anchor_spender, "spends no cosigned output"),
    (past_root_outputs, "spends no output of the tree"),
])
def test_a_session_names_a_node_outside_every_cosigned_output(extra, reason):
    vtxt, _ = build_vtxt(OutPoint("ab" * 32, 0), make_leaves(4), OP_PK, 50, 2)
    node = extra(vtxt)
    vtxt.txs[node.txid] = node
    with pytest.raises(ArkError, match=f"^{node.txid[:8]} {reason}$"):
        vtxt.session(node.txid)
    lock, idx, key = vtxt.session(vtxt.root)
    assert lock == vtxt.funding_out.lock and idx == 1
    assert set(key.members) == {OP_PK, *(v.vtxo.owner_pk for v in vtxt.leaves)}


@pytest.mark.parametrize("extra, reason", [
    (twin_of_root_output, "two tree nodes spend one output"),
    (past_root_outputs, "input index past its parent's outputs"),
], ids=["double-spent-output", "index-past-outputs"])
def test_check_vtxt_refuses_a_node_without_a_unique_parent_output(extra, reason):
    vtxt, _ = build_vtxt(OutPoint("ab" * 32, 0), make_leaves(4), OP_PK, 50, 2)
    node = extra(vtxt)
    vtxt.txs[node.txid] = node
    with pytest.raises(ArkError, match=reason):
        check_vtxt(vtxt)


def test_check_vtxt_refuses_an_empty_tree():
    vtxt, _ = build_vtxt(OutPoint("ab" * 32, 0), make_leaves(4), OP_PK, 50, 2)
    vtxt.txs.clear()
    with pytest.raises(ArkError, match="no root"):
        check_vtxt(vtxt)


def rekeyed(vtxt, txid, tx):
    """The tree with node `txid` replaced by `tx`, stored under `tx`'s txid
    and named by the leaf that named `txid`."""
    del vtxt.txs[txid]
    vtxt.txs[tx.txid] = tx
    for ref in vtxt.leaves:
        if ref.txid == txid:
            ref.txid, ref.vtxo.outpoint = tx.txid, tx.outpoint(0)
    return tx.txid


def two_inputs(vtxt, leaf, parent):
    return rekeyed(vtxt, leaf.txid, Tx(ins=(leaf.ins[0], OutPoint("ee" * 32, 0)),
                                      outs=leaf.outs))


def index_past_the_parent(vtxt, leaf, parent):
    return rekeyed(vtxt, leaf.txid, Tx(ins=(parent.outpoint(len(parent.outs)),),
                                      outs=leaf.outs))


def unrooted(vtxt, leaf, parent):
    vtxt.funding = OutPoint("cd" * 32, 0)
    return leaf.txid


def stored_under_each_others_keys(vtxt, leaf, parent):
    # the walk up from the parent's key reads the leaf, whose input names
    # the parent's key again
    vtxt.txs[leaf.txid], vtxt.txs[parent.txid] = parent, leaf
    return parent.txid


def cycle_of_stale_txids(vtxt, leaf, parent):
    # the parent's txid is cached before its input is rewritten to spend
    # the leaf, so each node is stored under the txid it reports
    cached = parent.txid
    parent.ins = (leaf.outpoint(0),)
    assert parent.txid == cached
    return leaf.txid


@pytest.mark.parametrize("forge, reason", [
    (two_inputs, "tree nodes are single-input transactions"),
    (index_past_the_parent, "node spends no output of the node before it"),
    (unrooted, "node spends no output of the node before it"),
    (stored_under_each_others_keys, "tree node not keyed by its txid"),
    (cycle_of_stale_txids, "tree node not keyed by its txid"),
])
def test_path_to_refuses_a_forged_path_and_ends(no_hang, forge, reason):
    vtxt, _ = build_vtxt(OutPoint("ab" * 32, 0), make_leaves(4), OP_PK, 50, 2)
    leaf = vtxt.txs[vtxt.leaves[0].txid]
    parent = vtxt.txs[leaf.ins[0].txid]
    start = forge(vtxt, leaf, parent)
    with pytest.raises(ArkError, match=f"^{reason}$"):
        vtxt.path_to(start)


def test_path_to_length():
    leaves = make_leaves(8)
    _, funding = funded_chain(800)
    vtxt, _ = build_vtxt(funding, leaves, OP_PK, 50, 2)
    path = vtxt.path_to(vtxt.leaves[0].txid)
    assert len(path) == 4  # log2(8) + 1
    with pytest.raises(KeyError):
        vtxt.path_to("0" * 64)


def test_batch_lock_paths():
    agg = crypto.aggregate([OP_PK, U_PK])
    lock = batch_lock(OP_PK, agg, 99)
    assert sweep_path_height(lock) == 99
    assert isinstance(lock.paths[BATCH_UNROLL_PATH], CheckAggSig)
    assert lock.paths[BATCH_SWEEP_PATH].children[1].height == 99


def test_connector_single_anchor_is_funding():
    _, funding = funded_chain(330)
    conn = build_connector(funding, 1, OP_PK, 330, 2)
    assert conn.anchors == [funding] and conn.funding == funding
    assert conn.vtxt.txs == {} and conn.vtxt.funding_out == Output(330, p2pk(OP_PK))


def test_connector_tree_anchors():
    _, funding = funded_chain(330 * 4)
    conn = build_connector(funding, 4, OP_PK, 330, 2)
    assert len(conn.anchors) == 4 and conn.funding == funding
    for anchor in conn.anchors:
        tx = conn.vtxt.txs[anchor.txid]
        assert tx.outs[anchor.index].value == 330


def test_boarding_tx_locks_value():
    chain = Chain(PARAMS)
    f1 = chain.grant(600, p2pk(U_PK))
    tx = boarding_tx([(f1, 600)], U_PK, OP_PK, PARAMS.t_b, 500)
    # the full funding amount is locked; vtxo_total only bounds the request
    assert tx.outs[0].value == 600
    with pytest.raises(ArkError):
        boarding_tx([(f1, 600)], U_PK, OP_PK, PARAMS.t_b, 700)


def test_reset_tx_relocks_same_terms():
    v = make_leaves(1)[0]
    v.outpoint = funded_chain(100)[1]
    v.expiry = 77
    rst = reset_tx(v, OP_PK, v.expiry, PARAMS.t_u)
    assert rst.ins == (v.outpoint,)
    assert rst.outs[0].value == v.value
    # the reset output keeps a collaborative path and adds the sweep path
    assert sweep_path_height(rst.outs[0].lock) == 77


@pytest.mark.parametrize("values, reason", [
    ((600, 500), "outputs exceed inputs"),
    ((1_001, -1), "negative output value"),
])
def test_ark_tx_keeps_the_ledger_value_rule(values, reason):
    # 1,000 sats in: the second case's sum balances, but the chain would
    # refuse its negative output
    outputs = [Vtxo(v, p2pk(U_PK), "u", U_PK) for v in values]
    with pytest.raises(ArkError, match=f"^{reason}$"):
        ark_tx([(OutPoint("00" * 32, 0), 1_000)], outputs)


def test_forfeit_pays_value_plus_epsilon():
    v = make_leaves(1)[0]
    chain, funding = funded_chain(100)
    v.outpoint = funding
    anchor = chain.grant(330, p2pk(OP_PK))
    ff = forfeit_tx(v, anchor, OP_PK, 330)
    assert ff.ins == (v.outpoint, anchor)
    assert ff.outs[0].value == v.value + 330
    assert ff.outs[0].lock == p2pk(OP_PK)


def test_arity_three_tree():
    leaves = make_leaves(9)
    _, funding = funded_chain(900)
    vtxt, _ = build_vtxt(funding, leaves, OP_PK, 50, 3)
    path = vtxt.path_to(vtxt.leaves[0].txid)
    assert len(path) == 3  # ceil(log3(9)) + 1


def test_vtxo_key_needs_an_outpoint():
    with pytest.raises(ArkError, match="no outpoint"):
        Vtxo(1_000, p2pk(OP_PK), "op", OP_PK).key()


@pytest.mark.parametrize("make", [
    lambda v: reset_tx(v, OP_PK, 77, PARAMS.t_u),
    lambda v: forfeit_tx(v, OutPoint("00" * 32, 0), OP_PK, 330),
], ids=["reset", "forfeit"])
def test_leaf_templates_need_an_outpoint(make):
    with pytest.raises(ArkError, match="no outpoint"):
        make(make_leaves(1)[0])


def test_building_trees_leaves_no_cyclic_garbage():
    # a tree must be freed by reference counting once it is dropped, not
    # kept alive through a cycle until the cyclic collector runs
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        vtxt, _ = build_vtxt(OutPoint("ab" * 32, 0), make_leaves(8), OP_PK, 50, 2)
        connector = build_connector(OutPoint("cd" * 32, 0), 5, OP_PK, 330, 2)
        assert len(vtxt.txs) == 15 and len(connector.anchors) == 5
        del vtxt, connector
        gc.collect()
        leaked = [o for o in gc.garbage if getattr(o, "__qualname__", "").startswith(
            ("build_vtxt.<locals>", "build_connector.<locals>"))]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    assert leaked == []


def test_build_vtxt_fetches_each_comb_table_once(monkeypatch):
    # criterion 9's widest tree: 256 users and the operator are 257 bases,
    # one more than the comb memo holds.  tree_keys sums every node key in
    # one pass that fetches each base's table once, and build_vtxt then
    # finds each key in the memo; key by key, the memo evicted tables and
    # built them again (518 misses here)
    op_pk = crypto.keygen(b"thrash-op")[1]
    users = [crypto.keygen(b"thrash-%d" % i)[1] for i in range(256)]
    leaves = [Vtxo(100, p2pk(pk), f"u{i}", pk) for i, pk in enumerate(users)]
    monkeypatch.setattr(crypto, "_aggregate_members", crypto._insertable_cache(
        maxsize=crypto._CACHE_SIZE)(crypto._aggregate_members.__wrapped__))
    comb = functools.lru_cache(maxsize=crypto._COMB_CACHE_SIZE)(
        crypto._comb_table.__wrapped__)
    monkeypatch.setattr(crypto, "_comb_table", comb)
    _, funding = funded_chain(100 * 256)
    arkcore.tree_keys(leaves, op_pk, PARAMS.arity)
    vtxt, _ = build_vtxt(funding, leaves, op_pk, 300, PARAMS.arity)
    assert len(vtxt.txs) == 511
    assert comb.cache_info().misses == 257


def test_cosigning_a_tree_signs_it_ahead(point_mul_calls):
    # 72 leaves make 143 nodes, signed in one call, in two chunks (128 and 15):
    # no node's nonce point or aggregate secret key is multiplied alone
    leaves = make_leaves(72)
    _, funding = funded_chain(100 * 72)
    vtxt, _ = build_vtxt(funding, leaves, OP_PK, 300, PARAMS.arity)
    secrets = {pk.hex(): sk for sk, pk in
               [(OP_SK, OP_PK)] + [crypto.keygen(b"leaf-%d" % i) for i in range(72)]}
    for sk in secrets.values():
        sk.public()   # the signers' own keys, into the emptied memo
    del point_mul_calls[:]
    cosign_vtxt(vtxt, secrets)
    assert point_mul_calls == []
    assert len(vtxt.txs) == 143 > crypto._SIGN_CHUNK
    checks = [check for txid, tx in vtxt.txs.items()
              for check in witness_checks(tx, [vtxt.spent(txid)], 0)]
    assert len(checks) == 143
    assert all(crypto.verify(crypto.PublicKey(point), m, sig) for point, m, sig in checks)
