"""The committed benchmark records (`BENCH_*.json` at the repo root, written
by `tools/bench_record.py`): each holds every key, and every run it
summarizes was correct, failed nothing and confirmed the paper's vbytes."""

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "bench_record", ROOT / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_records_are_committed():
    assert len(RECORDS) >= 2


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_a_committed_record_is_complete_and_correct(path):
    record = json.loads(path.read_text())
    assert bench_record.check(record) == []
    assert path.name == f"BENCH_{record['label']}.json"
    assert record["runs"] >= 5 and record["seeds"] == list(range(1, record["runs"] + 1))
    for workload, vb in {"wide_batch": 16495, "payment_stream": 197,
                         "adversarial_traces": 3417}.items():
        entry = record["workloads"][workload]
        assert entry["correct"] is True and entry["failed"] == 0
        assert entry["onchain_vb"] == vb
        for name in bench_record.METRICS:
            m = entry["metrics"][name]
            assert m["q1"] <= m["median"] <= m["q3"]


def test_check_names_what_is_wrong():
    runs = [{"correct": True, "failed": 0, "reference_ms": 40.0,
             "metrics": {name: {"value": float(i), "unit": "u"}
                         for name in bench_record.METRICS}}
            for i in (3, 1, 2, 5, 4)]
    workloads = bench_record.summarize({w: runs for w in bench_record.WORKLOADS})
    assert workloads["wide_batch"]["metrics"]["op_ms"] == \
        {"median": 3.0, "q1": 2.0, "q3": 4.0, "unit": "u"}
    record = dict.fromkeys(bench_record.KEYS, None)
    record["workloads"] = workloads
    problems = bench_record.check(record)
    # every run above confirmed 3 vB, so every workload is off its figure
    assert problems == [f"{w}: onchain_vb 3.0, not {vb}"
                        for w, vb in bench_record.ONCHAIN_VB.items()]
    workloads["payment_stream"]["onchain_vb"] = 197
    workloads["payment_stream"]["failed"] = 2
    del workloads["adversarial_traces"]
    del record["commit"]
    assert bench_record.check(record) == [
        "missing key commit",
        "wide_batch: onchain_vb 3.0, not 16495",
        "payment_stream: 2 operations failed",
        "missing workload adversarial_traces"]
