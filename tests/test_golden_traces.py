"""Every ledger a canned scenario builds, pinned by one hash per seed.

The fixture `golden_traces.json` maps each scenario name and seed (0-4)
to a SHA-256 over the trace, the blocks and the record statuses of every
`Chain` the scenario builds, in the order it builds them.  The chains are
captured through a `harness.Chain` subclass, as the benchmark does.  A
refactor that is meant to keep behaviour must leave every hash unchanged;
the report fixture alone does not see a tx submitted by another party or
in another round.

A change that moves a trace on purpose regenerates the fixture and says
why in CHANGES.md:

    PYTHONPATH=src python3 tests/test_golden_traces.py
"""
import hashlib
import json
import pathlib

from arksim import harness
from arksim.harness import SCENARIOS, run_scenario

FIXTURE = pathlib.Path(__file__).with_name("golden_traces.json")
SEEDS = range(5)


def chains_built(name: str, seed: int) -> list:
    built = []

    class RecordingChain(harness.Chain):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    saved, harness.Chain = harness.Chain, RecordingChain
    try:
        run_scenario(name, seed=seed)
    finally:
        harness.Chain = saved
    return built


def fingerprint(chains: list) -> str:
    blob = json.dumps([{"trace": [list(e) for e in c.trace],
                        "blocks": c.blocks,
                        "records": [[txid, r.party, r.height, r.status]
                                    for txid, r in c.records.items()]}
                       for c in chains], separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def capture() -> dict:
    return {name: {str(s): fingerprint(chains_built(name, s)) for s in SEEDS}
            for name in sorted(SCENARIOS)}


def test_traces_match_golden_fixture():
    golden = json.loads(FIXTURE.read_text())
    assert set(golden) == set(SCENARIOS)
    differ = [f"{name} seed={seed}"
              for name, hashes in capture().items()
              for seed, digest in hashes.items()
              if golden[name][seed] != digest]
    assert not differ, "traces differ from the fixture: " + ", ".join(differ)


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(capture(), sort_keys=True, indent=1) + "\n")
