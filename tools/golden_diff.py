"""Name what a change moves in the golden files, case by case.

    python3 tools/golden_diff.py REV

checks REV out into a temporary detached git worktree (no fetch, so it
works offline) and captures every canned scenario at seeds 0-4 on both
sides, REV and this checkout as it stands, in one subprocess per side
with that side's `src` on `PYTHONPATH`.  For each case that moved, it
prints the first ledger event that differs, with its round, layer,
actor, event and reason, and each report key whose value moved, with
both values.  When nothing moved it prints `no moves` and exits 0;
otherwise it exits 1.  The worktree is always removed.  Standard library
only; `python3 tools/golden_diff.py HEAD` names what the uncommitted
changes move.

A case's ledger is every `Chain` its scenario builds, in the order it
builds them, captured through a `harness.Chain` subclass; the golden
trace fixture (`tests/test_golden_traces.py`) hashes the same capture.
Its events, in order, are each chain's trace records (`Chain.trace`),
then its block entries (event `block`, the txid as reason), then its
tx records (event `record <status>`, grants included).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from typing import Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = range(5)


def run_captured(name: str, seed: int, **config) -> Tuple[dict, list]:
    """`harness.run_scenario(name, seed=seed, **config)`'s report and every
    `Chain` the scenario built, in the order it built them."""
    from arksim import harness

    built = []

    class RecordingChain(harness.Chain):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    saved, harness.Chain = harness.Chain, RecordingChain
    try:
        report = harness.run_scenario(name, seed=seed, **config)
    finally:
        harness.Chain = saved
    return report, built


def ledger_events(chains: list) -> List[list]:
    """Each chain's events as [chain, round, layer, actor, event, reason]."""
    events = []
    for i, c in enumerate(chains):
        events += [[i, *e] for e in c.trace]
        events += [[i, height, "ledger", c.records[txid].party, "block", txid]
                   for height, block in enumerate(c.blocks, 1) for txid in block]
        events += [[i, r.height, "ledger", r.party, f"record {r.status}", txid]
                   for txid, r in c.records.items()]
    return events


def case(name: str, seed: int, **config) -> dict:
    """One case as plain JSON: its report and its ledger's events."""
    from arksim.harness import report_json

    report, chains = run_captured(name, seed, **config)
    return {"report": json.loads(report_json(report)), "ledger": ledger_events(chains)}


def capture() -> Dict[str, dict]:
    """Every canned scenario at seeds 0-4, keyed "<scenario> seed=<seed>"."""
    from arksim.harness import SCENARIOS

    return {f"{name} seed={s}": case(name, s) for name in sorted(SCENARIOS) for s in SEEDS}


def _event(e: Optional[list]) -> str:
    if e is None:
        return "(no event)"
    chain, rnd, layer, actor, event, reason = e
    return f"chain {chain} round {rnd} {layer} {actor} {event} {reason}".rstrip()


def diff(old: Dict[str, dict], new: Dict[str, dict]) -> List[str]:
    """The moves from `old` to `new`, two captures keyed by case: for each
    case that moved, its name, then its first differing ledger event on
    each side and each report key whose value moved, with both values."""
    lines = []
    for key in sorted(old.keys() | new.keys()):
        a, b = old.get(key), new.get(key)
        if a == b:
            continue
        lines.append(key)
        if a is None or b is None:
            lines.append(f"  only in {'new' if a is None else 'old'}")
            continue
        ea, eb = a["ledger"], b["ledger"]
        at = next((i for i, (x, y) in enumerate(zip(ea, eb)) if x != y), min(len(ea), len(eb)))
        if ea != eb:
            lines.append(f"  ledger event {at}: - {_event(ea[at] if at < len(ea) else None)}")
            lines.append(f"  ledger event {at}: + {_event(eb[at] if at < len(eb) else None)}")
        ra, rb = a["report"], b["report"]
        for k in sorted(ra.keys() | rb.keys()):
            if ra.get(k) != rb.get(k):
                lines.append(f"  report {k}: {json.dumps(ra.get(k), sort_keys=True)}"
                             f" -> {json.dumps(rb.get(k), sort_keys=True)}")
    return lines


def _git(*args: str) -> None:
    done = subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"golden_diff: git {' '.join(args)} failed: {done.stderr.strip()}")


def _capture_sides(trees: List[str], tmp: str) -> List[Dict[str, dict]]:
    """`capture()` under each tree's `src`, one subprocess per tree, run
    side by side."""
    outs = [os.path.join(tmp, f"side{i}.json") for i in range(len(trees))]
    procs = [subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--capture", out],
        env=dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), PYTHONDONTWRITEBYTECODE="1"))
        for tree, out in zip(trees, outs)]
    codes = [p.wait() for p in procs]
    if any(codes):
        raise SystemExit(f"golden_diff: a capture failed (exit codes {codes})")
    sides = []
    for out in outs:
        with open(out) as f:
            sides.append(json.load(f))
    return sides


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("rev", nargs="?", help="the git revision to diff this checkout against")
    ap.add_argument("--capture", metavar="OUT",
                    help="write this interpreter's capture to OUT and exit (one side's run)")
    args = ap.parse_args(argv)
    if args.capture:
        with open(args.capture, "w") as f:
            json.dump(capture(), f)
        return 0
    if args.rev is None:
        ap.error("a revision is required")
    with tempfile.TemporaryDirectory(prefix="golden_diff-") as tmp:
        tree = os.path.join(tmp, "rev")
        _git("worktree", "add", "--quiet", "--detach", tree, args.rev)
        try:
            old, new = _capture_sides([tree, ROOT], tmp)
        finally:
            _git("worktree", "remove", "--force", tree)
    lines = diff(old, new)
    print("\n".join(lines) if lines else "no moves")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
