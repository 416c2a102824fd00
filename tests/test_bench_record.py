"""The committed benchmark records (`BENCH_*.json` at the repo root, written
by `tools/bench_record.py`): each holds every key, and every run it
summarizes was correct, failed nothing and confirmed the paper's vbytes."""

import importlib.util
import json
import pathlib
import shutil
import subprocess

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


def test_payment_lines_are_read_and_checked_where_a_record_carries_them():
    stdout = ("payment_stream seed=1 passes=7\n"
              "  pay_ms                                    2.14505 ms\n"
              "  pay_p90_ms                                4.56353 ms\n"
              "  check balances_match_tally: ok\n")
    assert bench_record.printed_ms(stdout, "pay_ms") == 2.14505
    assert bench_record.printed_ms(stdout, "pay_p90_ms") == 4.56353
    assert bench_record.printed_ms(stdout, "reference_ms") is None
    runs = [{"correct": True, "failed": 0, "reference_ms": 40.0,
             "metrics": {name: {"value": float(vb), "unit": "u"}
                         for name in bench_record.METRICS},
             "extra": {"pay_ms": float(i), "pay_p90_ms": 2.0 * i}}
            for i, vb in zip((3, 1, 2), (197, 197, 197))]
    workloads = bench_record.summarize({"payment_stream": runs})
    assert workloads["payment_stream"]["extra"] == {
        "pay_ms": {"median": 2.0, "q1": 1.5, "q3": 2.5, "unit": "ms"},
        "pay_p90_ms": {"median": 4.0, "q1": 3.0, "q3": 5.0, "unit": "ms"}}
    record = json.loads(RECORDS[-1].read_text())
    record["workloads"]["payment_stream"]["extra"] = workloads["payment_stream"]["extra"]
    assert bench_record.check(record) == []
    extra = record["workloads"]["payment_stream"]["extra"]
    extra["pay_ms"]["q1"] = 9.0
    del extra["pay_p90_ms"]
    assert bench_record.check(record) == [
        "payment_stream: pay_ms quartiles out of order",
        "payment_stream: missing extra pay_p90_ms"]
    # a record made before the lines were kept carries no `extra`
    del record["workloads"]["payment_stream"]["extra"]
    assert bench_record.check(record) == []


def test_check_refuses_a_malformed_tree_digest():
    record = json.loads(RECORDS[0].read_text())
    record["tree_sha256"] = "ab" * 32
    assert bench_record.check(record) == []
    for bad in ("ab" * 31, "AB" * 32, 7):
        record["tree_sha256"] = bad
        assert bench_record.check(record) == [f"malformed tree_sha256 {bad!r}"]


def test_the_tree_digest_is_stable_and_moves_with_one_byte(tmp_path):
    # a copy of the tracked files under src/ and perfbench/, tracked in a
    # repository of its own: the same paths and bytes give the same digest,
    # and one byte changed under src/ gives another
    tracked = subprocess.run(["git", "ls-files", "--", "src", "perfbench"], cwd=ROOT,
                             stdout=subprocess.PIPE, text=True, check=True).stdout.split()
    if not tracked:
        pytest.skip("the checkout is not a git repository")
    for path in tracked:
        (tmp_path / path).parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(ROOT / path, tmp_path / path)
    subprocess.run(["git", "init", "-q"], cwd=tmp_path, check=True)
    subprocess.run(["git", "add", "--", "src", "perfbench"], cwd=tmp_path, check=True)
    digest = bench_record.tree_sha256(str(tmp_path))
    assert bench_record._SHA256.fullmatch(digest)
    assert bench_record.tree_sha256(str(tmp_path)) == digest == bench_record.tree_sha256()
    target = tmp_path / "src" / "arksim" / "errors.py"
    data = bytearray(target.read_bytes())
    data[0] ^= 1
    target.write_bytes(bytes(data))
    assert bench_record.tree_sha256(str(tmp_path)) != digest
