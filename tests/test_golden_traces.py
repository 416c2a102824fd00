"""Every ledger a canned scenario builds, pinned by one hash per seed.

The fixture `golden_traces.json` maps each scenario name and seed (0-4)
to a SHA-256 over the trace, the blocks and the record statuses of every
`Chain` the scenario builds, in the order it builds them.  The chains are
captured by `tools/golden_diff.py`, through a `harness.Chain` subclass.  A
refactor that is meant to keep behaviour must leave every hash unchanged;
the report fixture alone does not see a tx submitted by another party or
in another round.

A change that moves a trace on purpose names each move with
`python3 tools/golden_diff.py HEAD`, then regenerates the fixture and says
why in CHANGES.md:

    PYTHONPATH=src python3 tests/test_golden_traces.py
"""
import hashlib
import importlib.util
import json
import pathlib

from arksim.harness import SCENARIOS

FIXTURE = pathlib.Path(__file__).with_name("golden_traces.json")
SEEDS = range(5)
_spec = importlib.util.spec_from_file_location(
    "golden_diff", pathlib.Path(__file__).resolve().parent.parent / "tools" / "golden_diff.py")
golden_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_diff)


def fingerprint(chains: list) -> str:
    blob = json.dumps([{"trace": [list(e) for e in c.trace],
                        "blocks": c.blocks,
                        "records": [[txid, r.party, r.height, r.status]
                                    for txid, r in c.records.items()]}
                       for c in chains], separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def capture() -> dict:
    return {name: {str(s): fingerprint(golden_diff.run_captured(name, s)[1]) for s in SEEDS}
            for name in sorted(SCENARIOS)}


def test_traces_match_golden_fixture():
    golden = json.loads(FIXTURE.read_text())
    assert set(golden) == set(SCENARIOS)
    differ = [f"{name} seed={seed}"
              for name, hashes in capture().items()
              for seed, digest in hashes.items()
              if golden[name][seed] != digest]
    assert not differ, "traces differ from the fixture: " + ", ".join(differ)


def test_the_diff_names_the_first_moved_event_and_each_moved_report_key():
    # the boarding txs are the same at either fee, which comes out of the
    # VTXOs, so the first move is the first batch tree, built at round 8
    old = {"operator_shutdown seed=0": golden_diff.case("operator_shutdown", 0, fee=0)}
    new = {"operator_shutdown seed=0": golden_diff.case("operator_shutdown", 0, fee=1)}
    assert golden_diff.diff(old, old) == []
    lines = golden_diff.diff(old, new)
    assert lines[0] == "operator_shutdown seed=0"
    first = [line for line in lines if line.startswith("  ledger event ")]
    assert len(first) == 2
    for line, sign in zip(first, "-+"):
        assert line.startswith(f"  ledger event 2: {sign} chain 0 round 8 operator_node"
                               " operator vtxt ")
    assert first[0] != first[1]
    moved = [line.split(":")[0].split()[-1] for line in lines if line.startswith("  report ")]
    assert moved == ["accounts", "balances", "collected_fees", "events", "operator_final",
                     "verdicts"]
    assert '  report events: [{"fee": 0, "horizon": 70}] -> [{"fee": 1, "horizon": 70}]' in lines


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(capture(), sort_keys=True, indent=1) + "\n")
