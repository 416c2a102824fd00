import json
import pathlib

import pytest

from arksim.cli import main
from arksim.harness import SCENARIOS

GOLDEN = json.loads(
    pathlib.Path(__file__).with_name("golden_reports.json").read_text())


def test_no_command_exits_2(capsys):
    assert main([]) == 2


def test_unknown_scenario_exits_2(capsys):
    assert main(["run", "nope"]) == 2


def test_footprint_csv(capsys, tmp_path):
    out = tmp_path / "table.csv"
    assert main(["footprint", "--fee-rate", "6", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,depth,vbytes,sats"
    assert "128,7,1157,6942" in lines


def test_run_scenario_writes_report(tmp_path):
    out = tmp_path / "report.json"
    code = main(["run", "censoring_operator", "--seed", "3", "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["scenario"] == "censoring_operator"
    assert all(v["pass"] for v in rep["verdicts"])


def test_run_hostage_attack_without_resets(tmp_path):
    # without resets the operator bears the hostage VTXO's value as a
    # deficit, and the report's one verdict checks exactly that
    out = tmp_path / "report.json"
    assert main(["run", "hostage_attack", "--no-resets", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["scenario"] == "hostage_attack"
    assert [(v["name"], v["pass"]) for v in rep["verdicts"]] == [("operator_deficit", True)]
    assert rep["deficit"] == rep["hostage_value"] == 5_000


def test_seed_determinism_via_cli(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["run", "censoring_operator", "--seed", "8", "--out", str(a)])
    main(["run", "censoring_operator", "--seed", "8", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_unsafe_gate(tmp_path, capsys):
    cfg = tmp_path / "p.json"
    cfg.write_text(json.dumps({"k": 6, "t_u": 10}))
    assert main(["run", "censoring_operator", "--config", str(cfg)]) == 2
    assert main(["run", "censoring_operator", "--config", str(cfg),
                 "--unsafe", "--out", str(tmp_path / "r.json")]) == 0



@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_run_uses_the_scenarios_own_params(scenario, capsys):
    main(["run", scenario, "--seed", "0"])
    assert capsys.readouterr().out == GOLDEN[scenario]["0"]


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "p.json"
    cfg.write_text(json.dumps({"k": 6, "fee_rate": 3}))
    assert main(["run", "happy_path", "--config", str(cfg)]) == 2
    assert "'fee_rate'" in capsys.readouterr().err


@pytest.mark.parametrize("unsafe", [[], ["--unsafe"]], ids=["safe", "unsafe"])
@pytest.mark.parametrize("content, named", [
    ('{"k": "x"}', "'k'"),
    ('{"k": true}', "'k'"),
    ("[1]", "JSON object"),
    ('{"k": -1}', "'k'"),
    ('{"arity": 1}', "'arity'"),
    (None, "cannot read"),
], ids=["string", "bool", "list", "negative-k", "arity-1", "missing-file"])
def test_bad_config_exits_2(tmp_path, capsys, content, named, unsafe):
    # --unsafe waives only the t_u > 4k gate, never the type and range rules
    cfg = tmp_path / "p.json"
    if content is not None:
        cfg.write_text(content)
    assert main(["run", "happy_path", "--config", str(cfg)] + unsafe) == 2
    assert named in capsys.readouterr().err
