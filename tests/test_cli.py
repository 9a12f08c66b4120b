"""End-to-end command-line behavior in temporary directories."""

import csv
import dataclasses
import json
import math
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import teamlqg
from teamlqg import load_model, make_model, save_model, to_json_dict, validate
from teamlqg.cli import main
from teamlqg.riccati import RiccatiPass, solve_riccati
from teamlqg.sim import _mean_se, rollout, run_rollouts
from teamlqg.strategy import Optimal

from conftest import near_singular_model, scalar_pair_model


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "model.json"
    save_model(scalar_pair_model(A_bar=1.0, Q_bar=1.0), path)
    return str(path)


def test_validate_accepts_good_model(model_file, capsys):
    assert main(["validate", "--model", model_file]) == 0
    assert "0 violations" in capsys.readouterr().out


def test_validate_reports_violations(tmp_path, capsys):
    path = tmp_path / "bad.json"
    save_model(scalar_pair_model(R=0.0), path)
    assert main(["validate", "--model", str(path)]) == 1
    out = capsys.readouterr().out
    assert "R not positive definite" in out


def test_missing_model_file_is_usage_error(tmp_path):
    assert main(["validate", "--model", str(tmp_path / "nope.json")]) == 64


def test_readme_model_file_validates(tmp_path, capsys):
    # the JSON block under "Model files" in README.md is a loadable model
    readme = Path(__file__).parents[1] / "README.md"
    section = readme.read_text().split("## Model files", 1)[1]
    block = section.split("```json\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "readme_model.json"
    path.write_text(block)
    assert main(["validate", "--model", str(path)]) == 0
    assert capsys.readouterr().out == "0 violations\n"


def test_malformed_model_file_is_validation_failure(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    assert main(["validate", "--model", str(path)]) == 1


def test_precompute_writes_bit_exact_schedules(model_file, tmp_path):
    out = tmp_path / "pre"
    assert main(["precompute", "--model", model_file, "--out", str(out)]) == 0
    for name in ("riccati.json", "local_filter.json", "global_filter.json",
                 "manifest.json"):
        assert (out / name).exists()
    with open(out / "riccati.json") as fh:
        doc = json.load(fh)
    stored = RiccatiPass(**{
        key: np.array([doc[key][str(t + 1)] for t in range(len(doc[key]))])
        for key in ("P", "P_agg", "gain", "gain_agg")})
    fresh = solve_riccati(scalar_pair_model(A_bar=1.0, Q_bar=1.0))
    np.testing.assert_array_equal(stored.P_agg, fresh.P_agg)
    np.testing.assert_array_equal(stored.gain_agg, fresh.gain_agg)


def test_simulate_costs_match_library_run(model_file, tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["simulate", "--model", model_file, "--strategy", "optimal",
                 "--seed", "5", "--rollouts", "50", "--workers", "1",
                 "--out", str(out)])
    assert code == 0
    lines = (out / "costs.csv").read_text().strip().splitlines()
    assert lines[0] == "rollout,strategy,cost"
    parsed = np.array([float(line.split(",")[2]) for line in lines[1:]])
    expected = run_rollouts(scalar_pair_model(A_bar=1.0, Q_bar=1.0), Optimal(),
                            seed=5, n_rollouts=50).costs
    np.testing.assert_array_equal(parsed, expected)
    mean, stderr = _mean_se(expected)
    assert capsys.readouterr().out.splitlines()[0] == (
        f"mean cost {mean:.17g} (stderr {stderr:.17g}, 50 rollouts)")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["seed"] == 5
    assert manifest["rollouts"] == 50
    assert "costs.csv" in manifest["outputs"]


def test_simulate_full_record_writes_trace(model_file, tmp_path):
    out = tmp_path / "run"
    code = main(["simulate", "--model", model_file, "--seed", "9",
                 "--rollouts", "4", "--workers", "1", "--record", "full",
                 "--trace-rollouts", "2", "--out", str(out)])
    assert code == 0
    lines = (out / "trace.csv").read_text().strip().splitlines()
    assert lines[0] == "rollout,t,agent,variable,component,value"
    rows = [line.split(",") for line in lines[1:]]
    assert {row[0] for row in rows} == {"0", "1"}
    reference = rollout(scalar_pair_model(A_bar=1.0, Q_bar=1.0), Optimal(),
                        seed=9, index=0)
    first_state = next(float(r[5]) for r in rows
                       if r[:5] == ["0", "1", "1", "x", "1"])
    assert first_state == reference.x[0, 0, 0]
    agg_rows = [r for r in rows if r[3] == "agg_xhat"]
    assert all(r[2] == "-1" for r in agg_rows)


def _trace_rows(trace_file) -> list[tuple]:
    with open(trace_file, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["rollout", "t", "agent", "variable", "component", "value"]
    return [(int(r), int(t), int(agent), name, int(comp), float(value).hex())
            for r, t, agent, name, comp, value in rows[1:]]


def _expected_trace_rows(index, trace) -> list[tuple]:
    """Every field of a ``Trace`` that is not None, in field order, a field
    with no agent axis at agent -1, each value as its exact hex form."""
    rows = []
    for field in dataclasses.fields(trace):
        value = getattr(trace, field.name)
        if value is None:
            continue
        for cell, entry in np.ndenumerate(value):
            if value.ndim == 3:
                t, agent, comp = cell[0], cell[1] + 1, cell[2]
            else:
                t, agent, comp = cell[0], -1, cell[1] if value.ndim == 2 else 0
            rows.append((index, t + 1, agent, field.name, comp + 1,
                         float(entry).hex()))
    return rows


@pytest.mark.parametrize("T", [3, 1])
@pytest.mark.parametrize("strategy", ["optimal", "meanfield", "zero", "custom"])
def test_trace_csv_holds_every_trace_field_bit_for_bit(tmp_path, strategy, T):
    path = tmp_path / "model.json"
    save_model(make_model(
        T=T, alpha=teamlqg.normalize_influence([1.0, 2.0, 3.0]),
        A=[[1.0, 0.1], [0.0, 0.9]], A_bar=0.2 * np.eye(2), B=[[1.0], [0.5]],
        C=[[1.0, 0.5]], C_bar=[[0.3, 0.0]], Q=np.eye(2), Q_bar=0.5 * np.eye(2),
        R=1.0, R_bar=0.25, mu_x=[0.5, -0.5], Sigma_x=np.eye(2),
        Sigma_w=np.eye(2), Sigma_v=1.0), path)
    model = load_model(path)
    rule = tmp_path / "rule.json"
    rule.write_text(json.dumps({"theta": [[-0.3, 0.1]], "phi": [[0.2, -0.1]],
                                "psi": [[0.1]], "omega": [[-0.2]]}))
    text = f"custom:{rule}" if strategy == "custom" else strategy
    out = tmp_path / "run"
    assert main(["simulate", "--model", str(path), "--strategy", text,
                 "--seed", "4", "--rollouts", "3", "--workers", "1",
                 "--record", "full", "--trace-rollouts", "2",
                 "--out", str(out)]) == 0
    kind = teamlqg.parse_strategy(text, model)
    expected = [row for index in range(2) for row in _expected_trace_rows(
        index, rollout(model, kind, seed=4, index=index))]
    assert _trace_rows(out / "trace.csv") == expected


def test_simulate_unknown_strategy_is_usage_error(model_file, tmp_path):
    assert main(["simulate", "--model", model_file, "--strategy", "wat",
                 "--out", str(tmp_path)]) == 64


def test_simulate_missing_custom_file_is_usage_error(model_file, tmp_path):
    assert main(["simulate", "--model", model_file,
                 "--strategy", f"custom:{tmp_path}/none.json",
                 "--out", str(tmp_path)]) == 64


def test_simulate_custom_strategy_file(model_file, tmp_path):
    rule = tmp_path / "rule.json"
    rule.write_text(json.dumps({"theta": -0.4, "phi": -0.1}))
    out = tmp_path / "run"
    code = main(["simulate", "--model", model_file,
                 "--strategy", f"custom:{rule}", "--seed", "1",
                 "--rollouts", "20", "--workers", "1", "--out", str(out)])
    assert code == 0
    assert (out / "costs.csv").exists()


def test_costs_csv_reads_back_a_strategy_holding_a_comma_or_quote(model_file,
                                                                 tmp_path):
    rule_dir = tmp_path / 'a,"b"\nc'
    rule_dir.mkdir()
    rule = rule_dir / "rule.json"
    rule.write_text(json.dumps({"theta": -0.4, "phi": -0.1}))
    strategy = f"custom:{rule}"
    out = tmp_path / "run"
    assert main(["simulate", "--model", model_file, "--strategy", strategy,
                 "--rollouts", "5", "--workers", "1", "--out", str(out)]) == 0
    with open(out / "costs.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["rollout"] for row in rows] == ["0", "1", "2", "3", "4"]
    for row in rows:
        assert row["strategy"] == strategy
        assert math.isfinite(float(row["cost"]))


def test_a_strategy_holding_a_carriage_return_is_a_usage_error(model_file,
                                                               tmp_path):
    """csv quotes a newline but not a lone carriage return, which would
    split a costs.csv row in two, so such a strategy is refused before
    --out is made."""
    rule_dir = tmp_path / "a\rb"
    rule_dir.mkdir()
    rule = rule_dir / "rule.json"
    rule.write_text(json.dumps({"theta": -0.4}))
    out = tmp_path / "run"
    assert main(["simulate", "--model", model_file, "--strategy",
                 f"custom:{rule}", "--workers", "1", "--out", str(out)]) == 64
    assert not out.exists()


def test_unobservable_model_is_numerical_failure(tmp_path, capsys):
    # a dead channel, and one whose noise variance lies below the relative
    # singularity threshold though it is not zero
    for name, model in (("blind", scalar_pair_model(C=0.0, S=0.0)),
                        ("near", near_singular_model())):
        path = tmp_path / f"{name}.json"
        save_model(model, path)
        out = tmp_path / name
        assert main(["precompute", "--model", str(path),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == ("numerical failure: deviation "
                                           "innovation covariance is "
                                           "singular at t=1\n")
        assert list(out.iterdir()) == []


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_precompute_prints_only_its_failure(tmp_path, capsys):
    # nothing controls the state, so the deviation Riccati pass overflows
    path = tmp_path / "exploding.json"
    save_model(scalar_pair_model(T=40, A=1e10, B=0.0), path)
    assert main(["precompute", "--model", str(path),
                 "--out", str(tmp_path / "pre")]) == 2
    err = capsys.readouterr().err
    assert err == ("numerical failure: deviation Riccati pass is not finite "
                   "at t=23\n")


_RUN_FLAGS = {"precompute": [],
              "simulate": ["--rollouts", "8", "--workers", "1"]}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", sorted(_RUN_FLAGS))
def test_overflowing_filter_schedule_is_numerical_failure(tmp_path, capsys,
                                                          command):
    # C = 0 leaves the state unobserved, so the filter covariances grow like
    # A^(2t) and overflow; nothing may be written from them
    path = tmp_path / "blind.json"
    save_model(scalar_pair_model(T=60, A=1e10, C=0.0), path)
    out = tmp_path / "out"
    assert main([command, "--model", str(path), "--out", str(out),
                 *_RUN_FLAGS[command]]) == 2
    assert capsys.readouterr().err == (
        "numerical failure: deviation innovation covariance is not finite "
        "at t=17\n")
    assert list(out.iterdir()) == []


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", sorted(_RUN_FLAGS))
def test_growing_unobserved_state_still_runs(tmp_path, command):
    path = tmp_path / "blind.json"
    save_model(scalar_pair_model(T=60, A=1.5, C=0.0), path)
    assert main([command, "--model", str(path), "--out", str(tmp_path / "out"),
                 *_RUN_FLAGS[command]]) == 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_diverging_cost_is_numerical_failure(tmp_path, capsys):
    # the uncontrolled state overflows, so costs are inf or nan, never printed
    path = tmp_path / "exploding.json"
    save_model(make_model(T=40, n=2, A=1e10, B=1, C=1, Q=1, R=1, Sigma_x=1,
                          Sigma_w=1, Sigma_v=1, mu_x=1), path)
    assert main(["simulate", "--model", str(path), "--strategy", "zero",
                 "--rollouts", "20", "--workers", "1",
                 "--out", str(tmp_path / "run")]) == 2
    assert "non-finite cost" in capsys.readouterr().err


def test_verify_subcommand_with_roundtrip(model_file, tmp_path, capsys):
    pre = tmp_path / "pre"
    assert main(["precompute", "--model", model_file, "--out", str(pre)]) == 0
    out = tmp_path / "ver"
    code = main(["verify", "--models", "6", "--rollouts", "4000",
                 "--seed", "2", "--workers", "1", "--out", str(out),
                 "--model", model_file, "--precomputed", str(pre)])
    assert code == 0
    doc = json.loads((out / "verification.json").read_text())
    assert doc["ok"] is True
    assert doc["precomputed_roundtrip_ok"] is True
    assert doc["max_estimate_deviation"] <= 1e-9


def _roundtrip_ok(model_path, pre, out) -> bool:
    main(["verify", "--models", "0", "--rollouts", "200", "--workers", "1",
          "--out", str(out), "--model", model_path, "--precomputed", str(pre)])
    return json.loads((out / "verification.json").read_text())[
        "precomputed_roundtrip_ok"]


def test_precomputed_roundtrip_at_one_stage(tmp_path):
    # one stage has no action, so both gain stacks are empty
    path = tmp_path / "one.json"
    save_model(scalar_pair_model(T=1, A_bar=1.0, Q_bar=1.0), path)
    pre = tmp_path / "pre"
    assert main(["precompute", "--model", str(path), "--out", str(pre)]) == 0
    doc = json.loads((pre / "riccati.json").read_text())
    assert (doc["T"], list(doc["P"]), doc["gain"], doc["gain_agg"]) == (1, ["1"], {}, {})
    assert _roundtrip_ok(str(path), pre, tmp_path / "ver") is True


@pytest.mark.parametrize("missing", ["directory", "riccati.json"])
def test_missing_precomputed_file_is_usage_error(model_file, tmp_path, capsys,
                                                 missing):
    pre = tmp_path / "pre"
    if missing != "directory":
        assert main(["precompute", "--model", model_file, "--out", str(pre)]) == 0
        (pre / missing).unlink()
    capsys.readouterr()
    assert main(["verify", "--models", "0", "--rollouts", "200", "--workers", "1",
                 "--model", model_file, "--precomputed", str(pre)]) == 64
    assert "riccati.json" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["--precomputed", "PRE"],
    ["--model", "MODEL", "--precomputed", "PRE"],
    ["--model", "MODEL"],
])
def test_verify_usage_errors_come_before_the_suite(model_file, tmp_path,
                                                   monkeypatch, capsys, flags):
    def suite(**kwargs):
        raise AssertionError("the suite ran before the usage error")

    monkeypatch.setattr("teamlqg.cli.run_verification_suite", suite)
    pre = tmp_path / "pre"      # never written: its schedules are missing
    args = [{"PRE": str(pre), "MODEL": model_file}.get(a, a) for a in flags]
    assert main(["verify", "--models", "100", *args]) == 64
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize("command, flags", [
    ("simulate", ["--model", "MODEL", "--rollouts", "0"]),
    ("simulate", ["--model", "MODEL", "--record", "full",
                  "--trace-rollouts", "-1"]),
    ("verify", ["--rollouts", "0"]),
    ("verify", ["--models", "-3"]),
    ("convergence", ["--rollouts", "0"]),
    ("simulate", ["--model", "MODEL", "--workers", "0"]),
    ("verify", ["--workers", "0"]),
    ("convergence", ["--workers", "-2"]),
    ("verify", ["--rollouts", "1"]),
    ("simulate", ["--model", "MODEL", "--seed", "-1"]),
    ("verify", ["--seed", "-1"]),
    ("convergence", ["--seed", "-1"]),
])
def test_bad_counts_are_usage_errors_before_any_work(model_file, tmp_path,
                                                     monkeypatch, capsys,
                                                     command, flags):
    def work(*args, **kwargs):
        raise AssertionError("work started before the usage error")

    for name in ("run_rollouts", "run_verification_suite",
                 "convergence_experiment", "_load_validated_model"):
        monkeypatch.setattr(f"teamlqg.cli.{name}", work)
    out = tmp_path / "out"
    args = [model_file if a == "MODEL" else a for a in flags]
    # the case's flags come last, so a case's --workers overrides the default
    assert main([command, "--workers", "1", "--out", str(out), *args]) == 64
    assert "usage error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["precompute", "simulate", "convergence",
                                     "verify"])
@pytest.mark.parametrize("problem", ["file", "empty"])
def test_an_out_that_cannot_be_a_directory_is_a_usage_error(
        model_file, tmp_path, monkeypatch, capsys, command, problem):
    def work(*args, **kwargs):
        raise AssertionError("work started before the usage error")

    for name in ("_schedules", "run_rollouts", "run_verification_suite",
                 "convergence_experiment"):
        monkeypatch.setattr(f"teamlqg.cli.{name}", work)
    out = tmp_path / "taken"
    out.write_text("a file, not a directory")
    out = str(out) if problem == "file" else ""
    model = [] if command in ("convergence", "verify") else ["--model",
                                                            model_file]
    assert main([command, *model, "--out", out]) == 64
    assert capsys.readouterr().err.startswith(
        f"usage error: --out cannot be a directory: {out!r} (")
    assert (tmp_path / "taken").read_text() == "a file, not a directory"


# every command that loads a model, with flags that keep it small
_MODEL_COMMANDS = {
    "precompute": ["precompute"],
    "simulate": ["simulate", "--rollouts", "2", "--workers", "1"],
    "convergence": ["convergence", "--n-list", "2,4", "--rollouts", "2",
                    "--workers", "1"],
    "verify": ["verify", "--models", "0", "--workers", "1",
               "--precomputed", "PRE"],
}


# the entry of a valid model document that each problem makes non-finite
_NON_FINITE = {
    "nan-Q": (("stages", 0, "Q", 0), 0, float("nan")),
    "inf-C": (("stages", 1, "C", 0), 0, float("inf")),
    "nan-alpha": (("alpha",), 1, float("nan")),
    "nan-mu_x": (("noise", "mu_x"), 0, float("nan")),
}
# a violation each invalid model file must report
_VIOLATION = {
    "invalid": "R not positive definite at t=1",
    "nan-Q": "Q not finite at t=1",
    "inf-C": "C not finite at t=2",
    "nan-alpha": "alpha not finite",
    "nan-mu_x": "mu_x not finite",
}


def _write_bad_model(path, problem):
    if problem == "malformed":
        path.write_text("{not json")
    elif problem == "invalid":
        save_model(scalar_pair_model(R=0.0), path)
    elif problem in _NON_FINITE:
        doc = to_json_dict(scalar_pair_model())
        route, index, value = _NON_FINITE[problem]
        entry = doc
        for step in route:
            entry = entry[step]
        entry[index] = value
        path.write_text(json.dumps(doc))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("problem, code, first_line", [
    ("missing", 64, "usage error: model file not found: MODEL"),
    ("malformed", 1, "validation failure: model file rejected: MODEL: not valid JSON"),
    ("invalid", 1, "validation failure: model failed validation:"),
    *[(problem, 1, "validation failure: model failed validation:")
      for problem in _NON_FINITE],
])
@pytest.mark.parametrize("command", sorted(_MODEL_COMMANDS))
def test_every_command_reports_a_bad_model_file(tmp_path, capsys, command,
                                                problem, code, first_line):
    model = tmp_path / "model.json"
    _write_bad_model(model, problem)
    args = [{"PRE": str(tmp_path / "pre")}.get(a, a)
            for a in _MODEL_COMMANDS[command]]
    assert main([*args, "--model", str(model),
                 "--out", str(tmp_path / "out")]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert lines[0].startswith(first_line.replace("MODEL", str(model)))
    if problem in _VIOLATION:
        assert lines[1:] == [f"  - {v}" for v in validate(load_model(model)).violations]
        assert f"  - {_VIOLATION[problem]}" in lines


def test_malformed_custom_strategy_file_is_validation_failure(model_file,
                                                              tmp_path, capsys):
    rule = tmp_path / "rule.json"
    rule.write_text("{not json")
    assert main(["simulate", "--model", model_file, "--strategy", f"custom:{rule}",
                 "--workers", "1", "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(
        f"validation failure: strategy file rejected: {rule}: not valid JSON")
    rule.write_text(json.dumps({"theta": float("nan")}))
    assert main(["simulate", "--model", model_file, "--strategy", f"custom:{rule}",
                 "--workers", "1", "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "validation failure: strategy file rejected: theta: not finite\n")


@pytest.mark.parametrize("case, message", [
    ("stage", "model file rejected: stages[0]: unknown key 'Abar'"),
    ("noise", "model file rejected: noise: unknown key 'mu_X'"),
    ("rule", "strategy file rejected: unknown key 'thetaa'"),
    ("model-as-rule", "strategy file rejected: "
                      "unknown key 'dims', 'stages', 'noise', 'alpha'"),
], ids=["stage", "noise", "rule", "model-as-rule"])
def test_an_unknown_key_fails_at_load(tmp_path, capsys, case, message):
    """A misspelled key would load as the default of the key it was meant
    to be: zero coupling, a zero mean, a zero rule."""
    doc = to_json_dict(scalar_pair_model(A_bar=1.0))
    rule = {"theta": -0.4}
    if case == "stage":
        doc["stages"][0]["Abar"] = doc["stages"][0].pop("A_bar")
    elif case == "noise":
        doc["noise"]["mu_X"] = doc["noise"].pop("mu_x")
    elif case == "rule":
        rule["thetaa"] = rule.pop("theta")
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    rule_file = tmp_path / "rule.json"
    rule_file.write_text(json.dumps(doc if case == "model-as-rule" else rule))
    out = tmp_path / "out"
    assert main(["simulate", "--model", str(model), "--strategy",
                 f"custom:{rule_file}", "--rollouts", "2", "--workers", "1",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"validation failure: {message}\n"
    assert not out.exists()


def test_argument_parse_error_is_usage_error(model_file, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["simulate", "--model", model_file, "--rollouts", "abc"])
    assert exit_info.value.code == 64
    assert capsys.readouterr().err.splitlines()[-1] == (
        "teamlqg simulate: error: argument --rollouts: invalid int value: 'abc'")


@pytest.mark.parametrize("name", ["riccati.json", "local_filter.json",
                                  "global_filter.json"])
def test_corrupt_precomputed_file_fails_the_roundtrip(model_file, tmp_path,
                                                       name):
    pre = tmp_path / "pre"
    assert main(["precompute", "--model", model_file, "--out", str(pre)]) == 0
    (pre / name).write_text("{broken")
    out = tmp_path / "ver"
    assert main(["verify", "--models", "0", "--rollouts", "200",
                 "--workers", "1", "--out", str(out), "--model", model_file,
                 "--precomputed", str(pre)]) == 1
    doc = json.loads((out / "verification.json").read_text())
    assert doc["precomputed_roundtrip_ok"] is False
    assert doc["ok"] is False


def _nudge_one_value(doc):
    value = doc["Sigma_post"]["1"][0][0]
    doc["Sigma_post"]["1"][0][0] = float(np.nextafter(value, np.inf))


def _add_key(doc):
    doc["extra"] = 1


@pytest.mark.parametrize("name, change", [
    ("local_filter.json", _nudge_one_value),
    ("global_filter.json", _nudge_one_value),
    ("riccati.json", _add_key),
])
def test_precomputed_roundtrip_catches_changed_file(model_file, tmp_path, name,
                                                    change):
    pre = tmp_path / "pre"
    assert main(["precompute", "--model", model_file, "--out", str(pre)]) == 0
    assert _roundtrip_ok(model_file, pre, tmp_path / "ver") is True
    doc = json.loads((pre / name).read_text())
    change(doc)
    (pre / name).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    assert _roundtrip_ok(model_file, pre, tmp_path / "ver") is False


def test_command_line_imports_no_scipy():
    # scipy is for the unstructured optimizer only; every CLI run would pay its import
    src = str(Path(teamlqg.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    probe = ("import sys, teamlqg.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_convergence_subcommand(tmp_path):
    out = tmp_path / "conv"
    code = main(["convergence", "--n-list", "4,8", "--rollouts", "400",
                 "--seed", "1", "--workers", "1", "--out", str(out)])
    assert code == 0
    lines = (out / "convergence.csv").read_text().strip().splitlines()
    assert lines[0] == "n,max_sigma_bar,ms_correction,cost_gap,gap_se,exact_gap"
    assert len(lines) == 3
    summary = json.loads((out / "convergence_summary.json").read_text())
    assert summary["slope_sigma"] == pytest.approx(-1.0, abs=1e-6)


def test_convergence_summary_holds_the_exact_scaling(tmp_path):
    """The summary adds n * exact_gap and the own-innovation weight per row,
    and both their slopes; the CSV keeps its columns.  Under uniform
    influence the exact gap falls exactly as 1/n: measured
    |slope_exact_gap + 1| on the built-in model from n = 4 to 1024 is
    2.8e-13.  The aggregate filter gains are the same at every
    power-of-two n, so n * own_gain_weight is too."""
    out = tmp_path / "conv"
    assert main(["convergence", "--n-list", "4,128,1024", "--rollouts", "2",
                 "--seed", "1", "--workers", "1", "--out", str(out)]) == 0
    lines = (out / "convergence.csv").read_text().strip().splitlines()
    assert lines[0] == "n,max_sigma_bar,ms_correction,cost_gap,gap_se,exact_gap"
    summary = json.loads((out / "convergence_summary.json").read_text())
    assert abs(summary["slope_exact_gap"] + 1.0) <= 1e-11
    scaled = [row["n_exact_gap"] for row in summary["rows"]]
    assert scaled == [row["n"] * row["exact_gap"] for row in summary["rows"]]
    np.testing.assert_allclose(scaled, scaled[0], rtol=1e-11)
    weights = [row["n"] * row["own_gain_weight"] for row in summary["rows"]]
    assert weights == [weights[0]] * 3 and weights[0] > 0.0
    assert abs(summary["slope_own_gain_weight"] + 1.0) <= 1e-12


def test_convergence_writes_a_slope_it_cannot_fit_as_null(tmp_path, capsys):
    """With no coupling and a zero mean the mean-field rule is optimal, so
    every gap is 0 and has no log-log slope: the summary holds null, strict
    JSON, and the printout says undefined."""
    path = tmp_path / "model.json"
    save_model(make_model(T=3, n=2, A=1, B=1, C=1, Q=1, R=1, Sigma_x=1,
                          Sigma_w=1, Sigma_v=1), path)
    out = tmp_path / "conv"
    assert main(["convergence", "--model", str(path), "--n-list", "2,8",
                 "--rollouts", "50", "--seed", "1", "--workers", "1",
                 "--out", str(out)]) == 0

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    text = (out / "convergence_summary.json").read_text()
    summary = json.loads(text, parse_constant=reject)
    assert summary["slope_exact_gap"] is None
    assert summary["slope_gap"] is None
    assert summary["slope_sigma"] == pytest.approx(-1.0, abs=1e-6)
    assert "gap undefined" in capsys.readouterr().out


@pytest.mark.filterwarnings("error::numpy.exceptions.RankWarning")
def test_convergence_fits_no_slope_through_one_size(tmp_path, capsys):
    """A repeated size gives one point on the log-log axes: every slope is
    undefined, not the fit of a rank-deficient system."""
    out = tmp_path / "conv"
    assert main(["convergence", "--n-list", "4,4", "--rollouts", "20",
                 "--workers", "1", "--out", str(out)]) == 0
    summary = json.loads((out / "convergence_summary.json").read_text())
    assert all(summary[key] is None for key in summary if key.startswith("slope_"))
    assert capsys.readouterr().out == (
        "slopes: sigma undefined, correction undefined, gap undefined\n")


def test_verify_reports_a_nan_deviation_as_failure(tmp_path, monkeypatch):
    from teamlqg import verify

    def nan_estimates(job):
        return (float("nan"), 0.0, 0.0)

    monkeypatch.setattr(verify, "_check_job", nan_estimates)
    out = tmp_path / "ver"
    assert main(["verify", "--models", "2", "--rollouts", "200",
                 "--workers", "1", "--out", str(out)]) == 1
    doc = json.loads((out / "verification.json").read_text())
    assert doc["ok"] is False
    assert np.isnan(doc["max_estimate_deviation"])


def test_convergence_rejects_bad_n_list(tmp_path):
    assert main(["convergence", "--n-list", "4", "--out", str(tmp_path)]) == 64
    assert main(["convergence", "--n-list", "4,x", "--out", str(tmp_path)]) == 64


def test_convergence_rejects_nonuniform_model(tmp_path):
    from teamlqg import make_model, normalize_influence

    def convergence(raw_alpha) -> int:
        path = tmp_path / "skew.json"
        save_model(make_model(
            T=2, n=2, alpha=normalize_influence(np.array(raw_alpha)),
            A=1.0, B=1.0, C=1.0, Q=1.0, R=1.0,
            Sigma_x=1.0, Sigma_w=1.0, Sigma_v=1.0), path)
        return main(["convergence", "--model", str(path), "--n-list", "2,4",
                     "--rollouts", "2", "--workers", "1",
                     "--out", str(tmp_path / "conv")])

    assert convergence([0.5, 1.5]) == 1
    # uniform is what the oracle takes for uniform: up to rounding, 1e-13 |alpha|
    assert convergence([1.0 + 1e-9, 1.0 - 2e-9]) == 1
    assert convergence([1.0, 1.0]) == 0
    assert convergence([1.0 + 1e-16, 1.0 - 2e-16]) == 0


def _child_env() -> dict:
    """The environment of a child Python that finds the package where this
    process found it, installed or not."""
    src = str(Path(teamlqg.__file__).parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))


def test_module_entry_point_reports_version():
    proc = subprocess.run([sys.executable, "-m", "teamlqg.cli", "--version"],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0
    assert proc.stdout.strip()


def test_importing_the_package_loads_no_pool_or_random_module():
    """A run at one worker never pays for the pool machinery or for
    ``numpy.random`` at import; the pool loads them when it is built."""
    code = ("import sys, teamlqg; print([m for m in ('concurrent.futures."
            "process', 'numpy.random') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_pool_workers_start_with_numpy_random_loaded():
    """The workers fork after the pool loads ``numpy.random``, so they share
    the parent's copy instead of importing it for their first noise bank."""
    code = ("import sys\n"
            "from teamlqg import sim\n"
            "def loaded(name):\n"
            "    return name in sys.modules\n"
            "print(list(sim._pool_map(loaded, ['numpy.random', 'secrets'], 2)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=_child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[True, True]"


def test_every_manifest_records_the_peak_rss(model_file, tmp_path):
    """The manifest holds the coordinating process's peak resident set in
    MiB, read after the run, so it is at least the same reading before the
    run and at most the same reading after it.  Its outputs list every other
    file the command wrote, sorted."""
    from teamlqg.cli import _peak_rss_mb as peak_mb

    pre = tmp_path / "pre"
    runs = {
        "precompute": ["--model", model_file, "--out", pre],
        "simulate": ["--model", model_file, "--rollouts", "8",
                     "--workers", "1", "--record", "full",
                     "--trace-rollouts", "2", "--out", tmp_path / "s"],
        "convergence": ["--n-list", "2,4", "--rollouts", "8",
                        "--workers", "1", "--out", tmp_path / "c"],
        "verify": ["--models", "1", "--rollouts", "8", "--workers", "1",
                   "--model", model_file, "--precomputed", pre,
                   "--out", tmp_path / "v"],
    }
    for command, flags in runs.items():
        low = peak_mb()
        assert main([command, *map(str, flags)]) == 0
        out = Path(flags[flags.index("--out") + 1])
        manifest = json.loads((out / "manifest.json").read_text())
        assert low <= manifest["peak_rss_mb"] <= peak_mb(), command
        written = sorted(p.name for p in out.iterdir())
        written.remove("manifest.json")
        assert manifest["outputs"] == written, command


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="VmHWM is read from Linux's /proc")
def test_a_manifest_peak_is_not_the_launchers(model_file, tmp_path):
    """A command started by a process with a larger peak records its own:
    a child that subprocess starts by vfork inherits its parent's
    ``ru_maxrss``, but not its ``VmHWM``."""
    from teamlqg.cli import _peak_rss_mb

    ballast = np.ones(2**23)        # 64 MiB, touched
    out = tmp_path / "pre"
    proc = subprocess.run([sys.executable, "-m", "teamlqg.cli", "precompute",
                           "--model", model_file, "--out", str(out)],
                          capture_output=True, text=True, env=_child_env(),
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["peak_rss_mb"] < _peak_rss_mb() - ballast.nbytes / 2**21


def test_workers_default_to_the_cpus_this_process_may_use(monkeypatch):
    """A process limited to one CPU of a larger machine starts one worker
    by default, not one per CPU of the machine."""
    from teamlqg.cli import build_parser

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    parser = build_parser()
    for argv in (["simulate", "--model", "m.json"], ["verify"],
                 ["convergence"]):
        assert parser.parse_args(argv).workers == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    assert build_parser().parse_args(["verify"]).workers == 8
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert build_parser().parse_args(["verify"]).workers == 1


def test_commands_load_no_module_once_the_pool_is_built(tmp_path):
    """Every module a command needs is loaded by importing the CLI and
    building the pool: running precompute, simulate, convergence and verify
    adds none to the coordinating process or to a worker.  A convergence
    slope fitted with ``np.unique`` would load ``numpy.ma`` at the end of
    the run."""
    model = tmp_path / "model.json"
    save_model(scalar_pair_model(A_bar=1.0, Q_bar=1.0), model)
    pre, out = tmp_path / "pre", tmp_path / "out"
    runs = [
        ["precompute", "--model", model, "--out", pre],
        ["simulate", "--model", model, "--rollouts", "8", "--workers", "2",
         "--out", out / "s"],
        ["convergence", "--n-list", "2,4", "--rollouts", "8",
         "--workers", "2", "--out", out / "c"],
        ["verify", "--models", "2", "--rollouts", "8", "--workers", "2",
         "--model", model, "--precomputed", pre, "--out", out / "v"],
    ]
    code = (
        "import contextlib, io, os, sys, time\n"
        "from teamlqg import cli, sim\n"
        "def loaded(_):\n"
        "    time.sleep(0.1)\n"
        "    return os.getpid(), sorted(sys.modules)\n"
        "def in_workers():\n"
        "    seen = {}\n"
        "    for _ in range(50):\n"
        "        seen.update(sim._pool_map(loaded, [0, 1], 2))\n"
        "        if len(seen) == 2:\n"
        "            return seen\n"
        "    raise RuntimeError('a worker took no job')\n"
        "workers = in_workers()\n"
        "before = set(sys.modules)\n"
        f"for argv in {[[str(a) for a in run] for run in runs]!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0, argv\n"
        "    print(argv[0], sorted(set(sys.modules) - before))\n"
        "for pid, names in in_workers().items():\n"
        "    print('worker', pid in workers,"
        " sorted(set(names) - set(workers.get(pid, ()))))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=_child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "precompute []", "simulate []", "convergence []", "verify []",
        "worker True []", "worker True []"]


@pytest.mark.parametrize("args", [
    ["verify", "--models", "3", "--rollouts", "50"],
    ["convergence", "--n-list", "4,16", "--rollouts", "64"],
])
def test_pooled_runs_leave_no_process_behind(tmp_path, args):
    """Work queued ahead of its gather still ends with the run: once the
    command exits 0, no process of its session is alive."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "teamlqg.cli", *args, "--workers", "2",
         "--out", str(tmp_path / "out")],
        env=_child_env(), start_new_session=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    try:
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
