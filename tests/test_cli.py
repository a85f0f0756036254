import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import build_product_model, count_labels, layout_labels
from weakch.cli import _dump_json, main
from weakch.common_cause import (
    model_from_dict,
    pairwise_model_to_dict,
    random_eprb_model,
    random_screened_model,
)

PI = math.pi
LOWER = f"0,{-PI / 2},{PI / 4},{-PI / 4}"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


def test_predict_angles(capsys):
    code, env, _ = run_json(capsys, "predict", "--angles", LOWER)
    assert code == 0
    assert env["command"] == "predict"
    assert env["result"]["ch_value"] == pytest.approx(-(math.sqrt(2) + 1) / 2, abs=1e-12)
    assert set(env["result"]["terms"]) == {"p13", "p14", "p24", "p23", "p1_plus", "p4_plus"}


def test_predict_phi_outcomes(capsys):
    code, env, _ = run_json(capsys, "predict", "--phi", str(PI / 2), "--outcomes", "++")
    assert code == 0
    assert env["result"]["joint_prob"] == pytest.approx(0.25, abs=1e-12)


def test_predict_degrees(capsys):
    code, env, _ = run_json(capsys, "predict", "--degrees", "--phi", "90", "--outcomes", "++")
    assert code == 0
    assert env["result"]["joint_prob"] == pytest.approx(0.25, abs=1e-12)


def test_predict_requires_arguments(capsys):
    code, out, err = run(capsys, "predict")
    assert code == 1
    assert out == ""


@pytest.mark.parametrize("argv, message", [
    (["predict", "--angles", "0,1,2,3", "--phi", "1", "--outcomes", "++"], "not allowed with argument"),
    (["oracle", "--atoms", ",".join(["0.0625"] * 16), "--file", "missing.json"], "not allowed with argument"),
    (["predict", "--angles", "0,1,2,3", "--outcomes", "++"], "--outcomes applies to --phi only"),
    (["simulate", "--seed", "1", "--n", "10", "--model", "eprb_model.json", "--angles", "0,1,2,3"],
     "--angles and --degrees apply to the singlet, not to --model"),
    (["simulate", "--seed", "1", "--n", "10", "--model", "eprb_model.json", "--degrees"],
     "--angles and --degrees apply to the singlet, not to --model"),
], ids=["predict", "oracle", "predict outcomes without phi", "simulate model with angles", "simulate model with degrees"])
def test_conflicting_inputs_are_a_usage_error(capsys, argv, message):
    # one input is used, so the other would be silently ignored
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert message in err


def test_oracle_requires_arguments(capsys):
    code, out, err = run(capsys, "oracle")
    assert code == 1
    assert out == ""
    assert "one of the arguments --atoms --file is required" in err


def test_thresholds_full_precision(capsys):
    code, out, _ = run(capsys, "thresholds")
    assert code == 0
    assert "2.6891869170905429e-05" in out
    env = json.loads(out)
    assert f"{env['result']['eps_lower_max']:.3e}" == "2.689e-05"
    assert f"{env['result']['eps_upper_max']:.3e}" == "9.869e-06"


def test_bounds_symmetric(capsys):
    code, env, _ = run_json(capsys, "bounds", "--epsilon", "1e-4")
    assert code == 0
    ct = env["result"]["correction_terms"]
    assert ct["d_minus_ab"] == pytest.approx(0.04, abs=1e-15)
    assert ct["d_plus_ab"] == pytest.approx(0.1992, abs=1e-15)
    assert env["result"]["lower"] == pytest.approx(-1.3988, abs=1e-12)


def test_check_exit_codes(capsys):
    code, env, _ = run_json(capsys, "check", "--value", "-1.2", "--epsilon", "0")
    assert code == 3
    assert env["result"]["violated_lower"] is True
    code, env, _ = run_json(capsys, "check", "--value", "-0.4", "--epsilon", "0")
    assert code == 0
    assert env["result"]["violated_lower"] is False


def test_check_rejects_bad_epsilon(capsys):
    code, out, err = run(capsys, "check", "--value", "0", "--epsilon", "2")
    assert code == 2
    assert "epsilon" in err
    # stdout stays machine-readable even on validation failures
    env = json.loads(out)
    assert env["command"] == "check"
    assert "epsilon" in env["error"]


def test_oracle_atoms(capsys):
    atoms = ",".join(["0.0625"] * 16)
    code, env, _ = run_json(capsys, "oracle", "--atoms", atoms)
    assert code == 0
    assert env["result"]["value"] == pytest.approx(-0.5, abs=1e-12)
    assert env["result"]["in_bounds"] is True


def test_oracle_flags_out_of_range_within_normalization_slack(capsys):
    # sums to 1 within the normalization tolerance yet exceeds the range check
    atoms = ["0"] * 16
    atoms[12] = "1.0000000005"
    code, env, _ = run_json(capsys, "oracle", "--atoms", ",".join(atoms))
    assert code == 3
    assert env["result"]["in_bounds"] is False


def test_unknown_flag_is_usage_error(capsys):
    code, out, err = run(capsys, "thresholds", "--nope")
    assert code == 1
    assert out == ""
    assert "usage" in err.lower()


def test_check_model_eprb_ok(capsys, tmp_path):
    model = random_eprb_model(3, (2, 2, 2, 2), 1e-3)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model.to_dict()))
    code, env, _ = run_json(capsys, "check-model", "--file", str(path))
    assert code == 0
    assert env["result"]["status"] == "ok"
    assert env["result"]["joint_cause_bounds"]["epsilon"] <= 1e-3 * (1 + 1e-9)


def test_check_model_runs_each_validator_once(capsys, monkeypatch):
    # The envelope's reports and the joint-cause check's gate both call each
    # validator; this counts the computations behind the calls, which the
    # model keeps.
    import weakch.common_cause as cc

    calls = dict.fromkeys(("validate_loc", "validate_no_conspiracy", "validate_screening"), 0)
    for name in calls:
        derive = getattr(cc, name).__wrapped__

        def counted(model, _name=name, _derive=derive):
            calls[_name] += 1
            return _derive(model)

        monkeypatch.setattr(cc, name, cc._kept(counted))
    fixture = Path(__file__).resolve().parent / "golden" / "eprb_model.json"
    code, env, _ = run_json(capsys, "check-model", "--file", str(fixture))
    assert code == 0
    assert env["result"]["status"] == "ok"
    assert calls == {"validate_loc": 1, "validate_no_conspiracy": 1, "validate_screening": 1}


def test_pairwise_check_model_reads_its_largest_residual_once(capsys, monkeypatch):
    # the screening summary and the cause-mass gate read the max_abs the
    # model's kept cell statistics keep
    from weakch import spaces

    calls = []
    max_abs = spaces._max_abs
    monkeypatch.setattr(spaces, "_max_abs", lambda residuals: calls.append(1) or max_abs(residuals))
    fixture = Path(__file__).resolve().parent / "golden" / "pairwise_model.json"
    code, env, _ = run_json(capsys, "check-model", "--file", str(fixture))
    assert code == 0
    assert env["result"]["status"] == "ok"
    assert len(calls) == 1


def test_pairwise_check_model_runs_the_cell_kernel_once(capsys, monkeypatch):
    # the screening summary and the cause-mass check read the cell
    # statistics the model keeps
    import weakch.common_cause as cc

    calls = []
    kernel = cc._cell_sums
    monkeypatch.setattr(cc, "_cell_sums", lambda *args: calls.append(1) or kernel(*args))
    fixture = Path(__file__).resolve().parent / "golden" / "pairwise_model.json"
    code, env, _ = run_json(capsys, "check-model", "--file", str(fixture))
    assert code == 0
    assert env["result"]["status"] == "ok"
    assert len(calls) == 1


def test_check_model_formats_labels_once_per_cause_cardinalities(capsys, monkeypatch):
    formatted = count_labels(monkeypatch)
    fixture = Path(__file__).resolve().parent / "golden" / "eprb_model.json"
    code, env, _ = run_json(capsys, "check-model", "--file", str(fixture))
    assert code == 0
    reports = env["result"]["validators"].values()
    assert all(r["skipped"] == [] for r in reports)
    # the layout of the model's cards formatted each of its labels once
    assert sorted(formatted) == layout_labels(env["result"]["cause_cards"])
    formatted.clear()
    # a second run reads the kept layout
    assert run_json(capsys, "check-model", "--file", str(fixture))[:2] == (code, env)
    assert formatted == []


def test_check_model_eprb_precondition_failure(capsys, tmp_path):
    model = random_eprb_model(3, (2, 2, 2, 2), 1e-3)
    w = model.weights.copy()
    w[0, :, :, :, 0] *= 1.4  # couple a cause value to a setting
    data = {"type": "eprb", "cause_cards": [2, 2, 2, 2], "weights": list((w / w.sum()).ravel())}
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(data))
    code, env, _ = run_json(capsys, "check-model", "--file", str(path))
    assert code == 2
    assert env["result"]["status"] == "precondition_failed"
    # the reason names the validator that refused, by its key in validators
    name, rest = env["result"]["reason"].split(" ", 1)
    assert rest.startswith("residual ")
    assert env["result"]["validators"][name]["max_abs"] > 1e-9


def test_check_model_pairwise_ok(capsys, tmp_path):
    model = random_screened_model(7, 6, 0.02)
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(pairwise_model_to_dict(model)))
    code, env, _ = run_json(capsys, "check-model", "--file", str(path))
    assert code == 0
    assert env["result"]["status"] == "ok"
    assert env["result"]["cause_mass"]["lower_ok"] is True


def test_check_model_pairwise_precondition_failure(capsys, tmp_path):
    model = random_screened_model(7, 6, 0.02)
    data = pairwise_model_to_dict(model)
    data["space"]["weights"][0] += 0.2
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(data))
    code, env, _ = run_json(capsys, "check-model", "--file", str(path))
    assert code == 2
    assert env["result"]["status"] == "precondition_failed"


def test_check_model_missing_file(capsys, tmp_path):
    code, out, err = run(capsys, "check-model", "--file", str(tmp_path / "none.json"))
    assert code == 2
    assert "cannot read" in json.loads(out)["error"]
    assert "cannot read" in err


# Label fields that replace those of a screened pairwise model with even
# marginals, atoms [1, 0, 2, 3], A [1, 0], B [1, 2], cells [1, 0] and [2, 3]
_TYPED_LABELS = {
    "boolean_event_labels": {"A": [True, 0]},
    "float_event_labels": {"B": [1.0, 2]},
    "boolean_cell_labels": {"partition": [[True, False], [2, 3]]},
    "float_atom_labels": {"atoms": [1.0, 0, 2, 3]},
    "null_labels": {"atoms": [1, 0, 2, None], "partition": [[1, 0], [2, None]]},
}


def _malformed_model(case):
    if case in ("string_labels", "object_labels"):  # read by characters or keys, these would pass
        atoms, a, b, cells = "wxyz", "wx", "wy", ["wx", "yz"]
        if case == "object_labels":
            atoms, a, b = (dict.fromkeys(x) for x in (atoms, a, b))
            cells = [dict.fromkeys(c) for c in cells]
        space = {"atoms": atoms, "weights": [0.25] * 4}
        return {"type": "pairwise", "space": space, "A": a, "B": b, "partition": cells}
    if case in _TYPED_LABELS:  # matched by Python equality, true, 1.0 and 1 name one atom
        fields = {"atoms": [1, 0, 2, 3], "A": [1, 0], "B": [1, 2], "partition": [[1, 0], [2, 3]]}
        fields.update(_TYPED_LABELS[case])
        space = {"atoms": fields.pop("atoms"), "weights": [0.25] * 4}
        return {"type": "pairwise", "space": space, **fields}
    pairwise = json.loads((Path(__file__).resolve().parent / "golden" / "pairwise_model.json").read_text())
    if case == "pairwise_without_A":
        del pairwise["A"]
        return pairwise
    if case == "list_atom_labels":
        pairwise["space"]["atoms"] = [[a] for a in pairwise["space"]["atoms"]]
        return pairwise
    if case == "string_space_weights":
        pairwise["space"]["weights"] = [repr(w) for w in pairwise["space"]["weights"]]
        return pairwise
    joint = json.loads((Path(__file__).resolve().parent / "golden" / "eprb_model.json").read_text())
    if case == "fractional_cause_cards":
        joint["cause_cards"] = [2.7, 2, 2, 2]  # int() would read 2 and accept the file
        return joint
    if case == "integral_float_cause_cards":  # a cardinality is a JSON integer, not 2.0
        joint["cause_cards"] = [2.0, 2, 2, 2]
        return joint
    if case == "string_weights":
        joint["weights"] = [repr(w) for w in joint["weights"]]
        return joint
    if case == "boolean_weights":  # float() would read a uniform model
        joint["weights"] = [True] * len(joint["weights"])
        return joint
    if case == "boolean_cause_cards":  # int() would read cards 1, 2, 2, 2
        return {"type": "eprb", "cause_cards": [True, 2, 2, 2], "weights": [1.0] * 128}
    return {"eprb_without_fields": {"type": "eprb"}, "json_list": [1, 2], "json_string": "eprb"}[case]


@pytest.mark.parametrize("command", ["check-model", "simulate"])
@pytest.mark.parametrize(
    "case",
    [
        "eprb_without_fields",
        "json_list",
        "json_string",
        "pairwise_without_A",
        "list_atom_labels",
        "fractional_cause_cards",
        "integral_float_cause_cards",
        "string_space_weights",
        "string_weights",
        "boolean_weights",
        "boolean_cause_cards",
        "string_labels",
        "object_labels",
        *_TYPED_LABELS,
    ],
)
def test_malformed_model_file_is_a_validation_error(capsys, tmp_path, command, case):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(_malformed_model(case)))
    if command == "check-model":
        argv = ["check-model", "--file", str(path)]
    else:
        argv = ["simulate", "--seed", "1", "--n", "10", "--model", str(path)]
    code, out, err = run(capsys, *argv)
    assert code == 2
    env = json.loads(out)
    assert env["command"] == command and env["error"]
    assert "does not hold a full joint model" not in env["error"]  # rejected as malformed, not as pairwise
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "kind,field,value,message",
    [
        ("pairwise", "space", "abc", "space must be a JSON object, got str"),
        ("pairwise", "space", None, "space must be a JSON object, got NoneType"),
        ("pairwise", "space", [0.25] * 4, "space must be a JSON object, got list"),
        ("pairwise", "space.weights", 5, "weights must be a JSON array, got int"),
        ("pairwise", "space.weights", "wxyz", "weights must be a JSON array, got str"),
        ("eprb", "weights", None, "weights must be a JSON array, got NoneType"),
        ("eprb", "weights", "a" * 128, "weights must be a JSON array, got str"),
        ("eprb", "weights", {str(i): 0 for i in range(128)}, "weights must be a JSON array, got dict"),
    ],
    ids=["space_string", "space_null", "space_list", "space_weights_number", "space_weights_string",
         "weights_null", "weights_string", "weights_object"],
)
def test_model_field_of_the_wrong_json_type_is_named(capsys, tmp_path, kind, field, value, message):
    # not an error text from Python internals, which varies with its version
    data = json.loads((GOLDEN / f"{kind}_model.json").read_text())
    if field == "space.weights":
        data["space"]["weights"] = value
    else:
        data[field] = value
    path = tmp_path / "model.json"
    path.write_text(json.dumps(data))
    code, env, _ = run_json(capsys, "check-model", "--file", str(path))
    assert code == 2
    assert env["error"] == f"malformed {kind} model: {message}"


def test_optimize_angles_cli(capsys):
    code, env, _ = run_json(capsys, "optimize-angles", "--mode", "min", "--grid", "16")
    assert code == 0
    assert env["result"]["ch_value"] == pytest.approx(-(math.sqrt(2) + 1) / 2, abs=1e-9)
    assert env["inputs"] == {"mode": "min", "grid": 16}


@pytest.mark.parametrize("flag", ["--refine", "--seed"])
def test_optimize_angles_has_no_refine_or_seed(capsys, flag):
    # it returns the exact extremum nearest its one best grid point, with no random start
    code, out, err = run(capsys, "optimize-angles", "--grid", "8", flag, "1")
    assert code == 1
    assert out == ""
    assert f"unrecognized arguments: {flag} 1" in err


def test_search_cli_roundtrip(capsys, tmp_path):
    code, env, _ = run_json(capsys, "search", "--seed", "4", "--restarts", "1")
    assert code == 0
    assert env["result"]["feasible"] is False
    assert env["inputs"] == {"seed": 4, "restarts": 1, "cause_cards": [2, 2, 2, 2], "eps_band": [1e-6, 1e-3]}
    assert "trace" not in env["result"]
    # the embedded model round-trips and its penalty recomputes identically
    from weakch.common_cause import model_from_dict
    from weakch.search import constraint_penalty

    model = model_from_dict(env["result"]["model"])
    assert constraint_penalty(model) == env["result"]["penalty"]
    # check-model on the reported model reads the search's weak report; the
    # winner here moved when a model read back divided its weights again
    code, env, _ = run_json(
        capsys, "search", "--seed", "1610819869", "--restarts", "2", "--cards", "4,4,4,4", "--eps-band", "1e-5,3e-5",
    )
    assert code == 0
    path = tmp_path / "model.json"
    path.write_text(json.dumps(env["result"]["model"]))
    code, checked, _ = run_json(capsys, "check-model", "--file", str(path))
    assert code == 0
    assert checked["result"]["weak_report"] == env["result"]["weak_report"]


def test_search_inputs_replay_the_search(capsys):
    # the echoed inputs are the whole configuration: fed back, they give
    # the same search
    from weakch.search import SearchConfig, search_counterexample

    code, env, _ = run_json(capsys, "search", "--seed", "9", "--restarts", "2", "--cards", "3,2,2,2")
    assert code == 0
    res = search_counterexample(SearchConfig(**env["inputs"]))
    assert res.model.to_dict() == env["result"]["model"]
    assert (res.restart_index, res.objective, res.epsilon) == (
        env["result"]["restart_index"], env["result"]["objective"], env["result"]["epsilon"],
    )


@pytest.mark.parametrize(
    "flag, value", [("--iters", "5"), ("--step", "0.1"), ("--decay", "0.9"), ("--penalty-weight", "1")]
)
def test_search_has_no_walk_settings(capsys, flag, value):
    # the search takes no steps, and the penalty weight is fixed in weakch.search
    code, out, err = run(capsys, "search", "--restarts", "1", flag, value)
    assert code == 1
    assert out == ""
    assert f"unrecognized arguments: {flag} {value}" in err


def test_search_cli_exits_3_on_a_confirmed_feasible_model(capsys, monkeypatch):
    # no seeded search reaches a feasible model in test time, so feasibility is forced
    import weakch.search

    monkeypatch.setattr(weakch.search, "_feasible", lambda ev, cfg: True)
    code, env, _ = run_json(capsys, "search", "--seed", "4", "--restarts", "1")
    assert code == 3
    assert env["result"]["feasible"] is True


def test_simulate_cli_json(capsys):
    code, env, _ = run_json(
        capsys,
        "simulate", "--seed", "2", "--n", "50000", "--angles", LOWER,
        "--epsilon", "0", "--k-sigma", "3",
    )
    assert code == 3
    assert env["inputs"]["seed"] == 2
    assert env["result"]["test"]["violated_lower"] is True
    counts = np.asarray(env["result"]["counts"])
    assert counts.sum() == 50000



def test_simulate_samples_a_model_file_named_singlet(capsys, tmp_path, monkeypatch):
    # "singlet" is also the name of the formula source; a file of that name
    # must still be read as the model
    from weakch import simulate

    (tmp_path / "singlet").write_text((GOLDEN / "eprb_model.json").read_text())
    monkeypatch.chdir(tmp_path)
    argv = ["simulate", "--seed", "2", "--n", "20000", "--epsilon", "0", "--model", "singlet"]
    code, env, _ = run_json(capsys, *argv)
    model = model_from_dict(json.loads(Path("singlet").read_text()))
    assert env["inputs"]["angles"] is None  # a model is sampled at no angles
    cfg = simulate.SimConfig(seed=2, n=20000, source=model)
    assert env["result"]["counts"] == simulate.sample_runs(cfg).counts.tolist()
    assert code == 0


def test_simulate_defaults_to_directions_zero(capsys):
    # --angles has no parser default, so that --model can refuse it; left
    # out, the singlet is measured at 0,0,0,0
    argv = ["simulate", "--seed", "3", "--n", "500"]
    code, out, _ = run(capsys, *argv)
    assert (code, out) == run(capsys, *argv, "--angles", "0,0,0,0")[:2]
    assert json.loads(out)["inputs"]["angles"] == [0.0, 0.0, 0.0, 0.0]


@pytest.mark.parametrize("content", [None, '{"type": "eprb"}'], ids=["missing", "eprb_without_fields"])
def test_model_file_errors_read_the_same_under_check_model_and_simulate(capsys, tmp_path, content):
    # one reader: a file check-model cannot load is refused by simulate
    # --model with the same error text
    path = tmp_path / "model.json"
    if content is not None:
        path.write_text(content)
    errors = []
    for argv in (
        ["check-model", "--file", str(path)],
        ["simulate", "--seed", "1", "--n", "10", "--model", str(path)],
    ):
        code, env, _ = run_json(capsys, *argv)
        assert code == 2 and env["command"] == argv[0]
        errors.append(env["error"])
    assert errors[0] == errors[1]
    assert errors[0].startswith(f"cannot read {path}:") == (content is None)


def test_simulate_tests_against_the_sampled_setting_law(capsys):
    # uneven settings widen the interval: pairs 14 and 23 carry p(ab) = 0.1
    code, env, _ = run_json(
        capsys,
        "simulate", "--seed", "1", "--n", "100000", "--angles", LOWER,
        "--setting-probs", "0.4,0.1,0.1,0.4", "--epsilon", "1e-4",
    )
    assert code == 0
    assert env["result"]["test"]["lower"] == pytest.approx(-1.7276, abs=1e-12)
    assert env["result"]["test"]["upper"] == pytest.approx(0.867, abs=1e-12)


def _two_strategy_model(tmp_path) -> str:
    # A local model: one shared λ on {0, 1}, mass 1/2 each and equal to all
    # four causes, picks one of two deterministic strategies at even
    # settings. λ = 0 plays A1+, A2-, B3-, B4+ and λ = 1 plays A1+, A2+,
    # B3-, B4-, so CH = p14 - p1 - p4 = 1/2 - 1 - 1/2 = -1, on the edge of
    # the strict interval.
    lam = np.zeros((2, 2, 2, 2))
    lam[0, 0, 0, 0] = lam[1, 1, 1, 1] = 0.5
    plus = [(1.0, 1.0), (0.0, 1.0), (0.0, 0.0), (1.0, 0.0)]  # p(+ | λ) per direction
    path = tmp_path / "two_strategies.json"
    path.write_text(json.dumps(build_product_model(np.full((2, 2), 0.25), lam, plus).to_dict()))
    return str(path)


def test_two_strategy_local_model_is_valid_with_ch_minus_one(capsys, tmp_path):
    code, env, _ = run_json(capsys, "check-model", "--file", _two_strategy_model(tmp_path))
    assert code == 0 and env["result"]["status"] == "ok"
    assert [v["max_abs"] for v in env["result"]["validators"].values()] == [0, 0, 0]
    assert env["result"]["weak_report"]["value"] == -1


@pytest.mark.xfail(
    strict=True,
    reason="two pair-14 runs with no ++ give p14 a Wald error of 0, so the test declares a false violation",
)
def test_simulate_declares_no_violation_for_a_local_model_at_small_n(capsys, tmp_path):
    # its true CH is -1, so at epsilon 0 every violation verdict is a false alarm
    code, env, _ = run_json(capsys, "simulate", "--seed", "92", "--n", "16", "--model", _two_strategy_model(tmp_path))
    assert code == 0, env["result"]["test"]


@pytest.mark.xfail(
    strict=True,
    reason="at eps = 0 a screening residual within PRECONDITION_TOL puts CH below -1 by as much, a weak violation",
)
def test_check_model_reports_no_violation_the_tolerance_alone_produces(capsys):
    # pair 14's joint-cause lower_ok also reads false on this model; that
    # is not what is asserted here
    code, env, _ = run_json(capsys, "check-model", "--file", str(GOLDEN / "eprb_within_tolerance.json"))
    assert code in (0, 3)
    weak = env["result"]["weak_report"]
    assert not (weak["violated_lower"] or weak["violated_upper"]), weak


def test_simulate_takes_up_to_two_to_the_63_runs(capsys):
    # the largest count numpy's multinomial takes, drawn in one pass
    code, env, _ = run_json(capsys, "simulate", "--seed", "1", "--n", str(2**63 - 1), "--angles", LOWER)
    assert code == 3
    assert sum(np.ravel(env["result"]["counts"]).tolist()) == env["inputs"]["n"] == 2**63 - 1
    # one run more is an input error, not a traceback
    code, env, err = run_json(capsys, "simulate", "--seed", "1", "--n", str(2**63), "--angles", LOWER)
    assert code == 2 and "Traceback" not in err
    assert env["error"] == "n must be at most 2^63 - 1, got 9223372036854775808"


def test_simulate_cli_no_violation_exit_zero(capsys):
    code, env, _ = run_json(
        capsys,
        "simulate", "--seed", "2", "--n", "1000", "--angles", "0,0,0,0", "--epsilon", "0",
    )
    assert code == 0


def test_simulate_csv_counts(capsys):
    code, out, _ = run(
        capsys,
        "--format", "csv",
        "simulate", "--seed", "2", "--n", "2000", "--angles", LOWER, "--epsilon", "0",
    )
    assert code == 3
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["alice_setting", "bob_setting", "alice_outcome", "bob_outcome", "count", "frequency"]
    assert len(rows) == 17
    assert sum(int(r[4]) for r in rows[1:]) == 2000


def test_csv_flatten_for_scalar_commands(capsys):
    code, out, _ = run(capsys, "--format", "csv", "thresholds")
    assert code == 0
    rows = dict()
    for key, value in csv.reader(io.StringIO(out)):
        rows[key] = value
    assert rows["key"] == "value"
    assert float(rows["result.eps_lower_max"]) == pytest.approx(2.689e-5, rel=1e-3)


def test_format_env_default(capsys, monkeypatch):
    monkeypatch.setenv("WEAKCH_FORMAT", "csv")
    code, out, _ = run(capsys, "thresholds")
    assert code == 0
    assert out.startswith("key,value")


@pytest.mark.parametrize("value", ["xml", "", "JSON"])
def test_format_env_must_name_a_format(capsys, monkeypatch, value):
    # argparse checks no default against choices; the env's value is checked as --format's would be
    monkeypatch.setenv("WEAKCH_FORMAT", value)
    code, out, err = run(capsys, "thresholds")
    assert code == 1
    assert out == ""
    assert f"must be json or csv, got {value!r}" in err and "WEAKCH_FORMAT" in err
    # an explicit --format is used instead of the default
    code, out, _ = run(capsys, "--format", "json", "thresholds")
    assert code == 0
    assert json.loads(out)["command"] == "thresholds"


def test_seeded_commands_emit_byte_identical_output(capsys):
    for argv in (
        ["search", "--seed", "6", "--restarts", "1"],
        ["simulate", "--seed", "5", "--n", "4000", "--angles", LOWER, "--epsilon", "0"],
    ):
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "weakch.cli", "thresholds"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    env = json.loads(proc.stdout)
    assert env["command"] == "thresholds"


def test_closed_stdout_is_not_a_traceback():
    # a reader that has already gone, as with `weakch ... | head -c 20`
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "weakch.cli", "thresholds"],
            stdout=write_end,
            stderr=subprocess.PIPE,
        )
    finally:
        os.close(write_end)
    assert proc.stderr == b""
    assert proc.returncode == 0


def test_stdout_is_single_json_document(capsys):
    for argv in (
        ["predict", "--angles", LOWER],
        ["bounds", "--epsilon", "0.01"],
        ["thresholds"],
        ["check", "--value", "-0.5", "--epsilon", "0"],
    ):
        code, out, _ = run(capsys, *argv)
        json.loads(out)  # parses as exactly one document
        assert out.count('"command"') == 1


_SIMULATE_HEADER = ["alice_setting", "bob_setting", "alice_outcome", "bob_outcome", "count", "frequency"]
_OUT_OF_RANGE_ATOMS = ",".join(["0"] * 12 + ["1.0000000005"] + ["0"] * 3)

# Every exit path of every command that writes to stdout: (argv, exit code,
# kind), kind "ok" for a result, "precondition_failed" for a result with
# that status, and "error" for an error envelope.
_EMITTING_PATHS = [
    (["predict", "--angles", LOWER], 0, "ok"),
    (["bounds", "--epsilon", "1e-4"], 0, "ok"),
    (["bounds", "--epsilon", "2"], 2, "error"),
    (["thresholds"], 0, "ok"),
    (["check", "--value", "-0.5", "--epsilon", "0"], 0, "ok"),
    (["check", "--value", "-1.2", "--epsilon", "0"], 3, "ok"),
    (["check", "--value", "0", "--epsilon", "2"], 2, "error"),
    (["check-model", "--file", "eprb_model.json"], 0, "ok"),
    (["check-model", "--file", "pairwise_model.json"], 0, "ok"),
    (["check-model", "--file", "eprb_precondition_failed.json"], 2, "precondition_failed"),
    (["check-model", "--file", "missing.json"], 2, "error"),
    (["oracle", "--file", "atoms.json"], 0, "ok"),
    (["oracle", "--atoms", _OUT_OF_RANGE_ATOMS], 3, "ok"),
    (["oracle", "--file", "eprb_model.json"], 2, "error"),
    (["optimize-angles", "--grid", "8"], 0, "ok"),
    (["optimize-angles", "--grid", "7"], 2, "error"),
    (["search", "--restarts", "1"], 0, "ok"),
    (["search", "--restarts", "1", "--eps-band", "1e-3,1e-6"], 2, "error"),
    (["search", "--restarts", "1", "--cards", "16,16,16,16"], 2, "error"),  # above MAX_SEARCH_WEIGHTS
    (["simulate", "--seed", "1", "--n", "100"], 0, "ok"),
    (["simulate", "--seed", "2", "--n", "2000", "--angles", LOWER, "--epsilon", "0"], 3, "ok"),
    (["simulate", "--seed", "1", "--n", "3", "--angles", "0,1,2,3"], 2, "error"),
]


def test_emitting_paths_cover_every_command():
    from weakch.cli import _HANDLERS

    assert {argv[0] for argv, _, _ in _EMITTING_PATHS} == set(_HANDLERS)


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize(
    "argv,expected_code,kind", _EMITTING_PATHS, ids=lambda v: "-".join(v) if isinstance(v, list) else str(v)
)
def test_every_exit_path_writes_exactly_one_envelope(capsys, monkeypatch, fmt, argv, expected_code, kind):
    monkeypatch.chdir(GOLDEN)
    code, out, _ = run(capsys, "--format", fmt, *argv)
    assert code == expected_code
    if fmt == "json":
        lines = out.splitlines()
        assert len(lines) == 1 and out == lines[0] + "\n"
        env = json.loads(lines[0])
        assert env["command"] == argv[0]
        fields = ["command", "error", "version"] if kind == "error" else ["command", "inputs", "result", "version"]
        assert sorted(env) == fields
        status = None if kind == "error" else env["result"].get("status")
    else:
        rows = list(csv.reader(io.StringIO(out)))
        if argv[0] == "simulate" and kind != "error":  # the counts table
            assert rows[0] == _SIMULATE_HEADER and len(rows) == 17
            assert _SIMULATE_HEADER not in rows[1:]
            return
        assert rows[0] == ["key", "value"] and all(len(r) == 2 for r in rows)
        keys = [k for k, _ in rows[1:]]
        assert len(keys) == len(set(keys))
        fields = dict(rows[1:])
        assert fields["command"] == argv[0] and "version" in fields
        assert ("error" in fields) == (kind == "error")
        status = fields.get("result.status")
    if kind == "precondition_failed":
        assert status == "precondition_failed"
    elif argv[0] == "check-model" and kind == "ok":
        assert status == ("violation" if expected_code == 3 else "ok")


# Commands whose echoed inputs must replay: run from tests/golden, the
# inputs turned back into argv give the same exit code and result.
_REPLAY_CASES = {
    "predict-angles": ["predict", "--angles", LOWER],
    "predict-angles-degrees": ["predict", "--angles", "0,90,45,-45", "--degrees"],
    "predict-phi-degrees": ["predict", "--phi", "90", "--outcomes", "+-", "--degrees"],
    "bounds": ["bounds", "--epsilon", "1e-4", "--pa", "0.4", "--pb", "0.6", "--pab", "0.2"],
    "thresholds": ["thresholds"],
    "check": ["check", "--value", "-1.2", "--epsilon", "1e-4", "--pab", "0.3"],
    "check-model-eprb": ["check-model", "--file", "eprb_model.json"],
    "check-model-pairwise": ["check-model", "--file", "pairwise_model.json"],
    "oracle-file": ["oracle", "--file", "atoms.json"],
    "optimize-angles": ["optimize-angles", "--mode", "max", "--grid", "8"],
    "search": ["search", "--seed", "3", "--restarts", "2", "--eps-band", "1e-5,1e-3", "--cards", "3,2,2,2"],
    "simulate": ["simulate", "--seed", "1", "--n", "2000", "--angles", LOWER, "--k-sigma", "2"],
    "simulate-model": ["simulate", "--seed", "2", "--n", "2000", "--model", "eprb_model.json", "--epsilon", "0"],
    "simulate-uneven": [
        "simulate", "--seed", "3", "--n", "2000", "--angles", LOWER,
        "--setting-probs", "0.3,0.3,0.3,0.1", "--epsilon", "1e-4",
    ],
}


def _replay_argv(command: str, inputs: dict) -> list:
    argv = [command]
    for key, value in inputs.items():
        if value is None or value is False or (command == "check-model" and key == "type"):
            continue  # left out; check-model reads the type from the file
        flag = "--cards" if key == "cause_cards" else "--" + key.replace("_", "-")
        if value is True:
            argv.append(flag)
            continue
        if key == "setting_probs":
            value = [p for row in value for p in row]  # p13,p14,p23,p24
        if isinstance(value, list):
            value = ",".join(map(repr, value))
        elif not isinstance(value, str):
            value = repr(value)
        argv.append(f"{flag}={value}")  # a value may start with "-"
    return argv


def test_replay_cases_cover_every_command():
    from weakch.cli import _HANDLERS

    assert {argv[0] for argv in _REPLAY_CASES.values()} == set(_HANDLERS)


@pytest.mark.parametrize("name", list(_REPLAY_CASES))
def test_echoed_inputs_replay_the_command(capsys, monkeypatch, name):
    monkeypatch.chdir(GOLDEN)
    argv = _REPLAY_CASES[name]
    code, env, _ = run_json(capsys, *argv)
    replay = _replay_argv(argv[0], env["inputs"])
    again, env_again, err = run_json(capsys, *replay)
    assert (again, env_again["result"]) == (code, env["result"]), (replay, err)


@pytest.mark.parametrize(
    "argv",
    [["optimize-angles", "--grid", "129"], ["search", "--cards", "9,8,8,8", "--restarts", "1"]],
    ids=["grid", "cards"],
)
def test_oversized_request_ends_in_an_error_envelope(capsys, argv):
    # just above each cap; the cap stops the request before any allocation
    code, out, err = run(capsys, *argv)
    assert code == 2
    env = json.loads(out)
    assert env["command"] == argv[0] and ("grid_size" in env["error"] or "weights" in env["error"])
    assert "Traceback" not in err


def test_import_does_not_load_scipy():
    code = "import sys, weakch.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


GOLDEN = Path(__file__).resolve().parent / "golden"

# Commands that compute closed forms with math alone.
_CLOSED_FORM_COMMANDS = [
    ["thresholds"],
    ["bounds", "--epsilon", "1e-4"],
    ["check", "--value", "-0.5", "--epsilon", "1e-3"],
    ["predict", "--angles", LOWER],
    ["oracle", "--file", str(GOLDEN / "atoms.json")],
]


def _fresh_cli(argv, env=None):
    """Run main(argv) in a fresh interpreter; the last stdout line is
    'exit code, loaded numpy/scipy roots, OPENBLAS_NUM_THREADS, thread count'."""
    code = (
        "import json, os, sys, weakch.cli\n"
        "code = weakch.cli.main(json.loads(sys.argv[1]))\n"
        "heavy = sorted({m.split('.')[0] for m in sys.modules} & {'numpy', 'scipy'})\n"
        "tasks = len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else -1\n"
        "print(json.dumps([code, heavy, os.environ.get('OPENBLAS_NUM_THREADS'), tasks]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(argv)], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("argv", _CLOSED_FORM_COMMANDS, ids=lambda argv: argv[0])
def test_closed_form_commands_load_no_numpy(argv):
    code, heavy, _, _ = _fresh_cli(argv)
    assert code == 0
    assert heavy == []


def test_array_commands_still_load_numpy():
    # the check above can fail: a command that builds arrays loads numpy
    code, heavy, _, _ = _fresh_cli(["check-model", "--file", str(GOLDEN / "eprb_model.json")])
    assert code == 0
    assert heavy == ["numpy"]


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads through /proc")
def test_cli_process_starts_no_blas_threads():
    # OpenBLAS threads spin as numpy loads; a one-shot process must not start
    # them, also when numpy loads only inside a handler.
    argv = ["check-model", "--file", str(GOLDEN / "eprb_model.json")]
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    code, heavy, blas, tasks = _fresh_cli(argv, env)
    assert (code, heavy, blas, tasks) == (0, ["numpy"], "1", 1)
    env["OPENBLAS_NUM_THREADS"] = "2"  # a caller's own setting is kept
    code, heavy, blas, _ = _fresh_cli(argv, env)
    assert (code, heavy, blas) == (0, ["numpy"], "2")


def test_optimize_angles_rejects_a_grid_below_eight(capsys):
    code, env, err = run_json(capsys, "optimize-angles", "--grid", "7")
    assert code == 2
    assert env["command"] == "optimize-angles"
    assert env["error"] == "grid_size must be between 8 and 128, got 7"
    assert "Traceback" not in err


def test_check_rejects_nonfinite_value(capsys):
    for bad in ("nan", "inf", "-inf"):
        code, out, err = run(capsys, "check", f"--value={bad}", "--epsilon", "1e-3")
        assert code == 1
        assert out == ""
        assert "finite" in err


def test_oracle_rejects_nonfinite_atoms(capsys, tmp_path):
    code, out, err = run(capsys, "oracle", "--atoms", "nan" + ",0" * 14 + ",1")
    assert code == 1
    assert out == ""
    assert "finite" in err
    atoms_file = tmp_path / "atoms.json"
    atoms_file.write_text("[NaN" + ", 0" * 14 + ", 1]")  # json.loads accepts NaN
    code, env, err = run_json(capsys, "oracle", "--file", str(atoms_file))
    assert code == 2
    assert "non-finite" in env["error"]



@pytest.mark.parametrize(
    "document",
    [
        "3",
        "null",
        json.dumps([[0.0625]] * 16),
        '"1000000000000000"',
        json.dumps(["0.0625"] * 16),
        json.dumps([True] + [False] * 15),
        json.dumps([10**400] + [0] * 15),
    ],
    ids=["number", "null", "nested_lists", "digit_string", "numeric_strings", "booleans", "huge_integer"],
)
def test_oracle_rejects_a_file_that_is_not_a_list_of_numbers(capsys, tmp_path, document):
    # a bare string would be read character by character as sixteen digits
    atoms_file = tmp_path / "atoms.json"
    atoms_file.write_text(document)
    code, out, err = run(capsys, "oracle", "--file", str(atoms_file))
    assert code == 2
    env = json.loads(out)
    assert env["command"] == "oracle" and "16 real numbers" in env["error"]
    assert "Traceback" not in err

def test_check_model_rejects_nan_weight(capsys, tmp_path):
    joint = random_eprb_model(2, (2, 2, 2, 2), 1e-3).to_dict()
    joint["weights"][5] = math.nan
    pairwise = pairwise_model_to_dict(random_screened_model(2, 4, 0.01))
    pairwise["space"]["weights"][0] = math.nan
    for data in (joint, pairwise):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(data))  # written as the NaN literal
        code, env, _ = run_json(capsys, "check-model", "--file", str(path))
        assert code == 2
        assert "NaN" in env["error"]


def test_search_rejects_non_integral_cards(capsys):
    code, out, err = run(capsys, "search", "--restarts", "1", "--cards", "2,2,2,2.7")
    assert code == 1
    assert out == ""
    assert "--cards" in err


def test_simulate_rejects_nonpositive_k_sigma(capsys):
    for bad in ("-3", "0"):
        code, out, err = run(capsys, "simulate", "--seed", "1", "--n", "1000", "--k-sigma", bad)
        assert code == 1
        assert out == ""
        assert "--k-sigma" in err


# Every numeric argument of every command, with a valid value for the others.
_NUMERIC_ARGS = [
    (["predict", "--outcomes", "++"], "--phi", "0.5"),
    (["predict"], "--angles", LOWER),
    (["bounds"], "--epsilon", "1e-4"),
    (["bounds", "--epsilon", "1e-4"], "--pa", "0.5"),
    (["bounds", "--epsilon", "1e-4"], "--pb", "0.5"),
    (["bounds", "--epsilon", "1e-4"], "--pab", "0.25"),
    (["check", "--epsilon", "1e-3"], "--value", "-0.5"),
    (["check", "--value", "-0.5"], "--epsilon", "1e-3"),
    (["check", "--value", "-0.5", "--epsilon", "1e-3"], "--pa", "0.5"),
    (["check", "--value", "-0.5", "--epsilon", "1e-3"], "--pb", "0.5"),
    (["check", "--value", "-0.5", "--epsilon", "1e-3"], "--pab", "0.25"),
    (["oracle"], "--atoms", ",".join(["0.0625"] * 16)),
    (["optimize-angles"], "--grid", "8"),
    (["search", "--restarts", "1"], "--seed", "0"),
    (["search"], "--restarts", "1"),
    (["search", "--restarts", "1"], "--eps-band", "1e-6,1e-3"),
    (["search", "--restarts", "1"], "--cards", "2,2,2,2"),
    (["simulate", "--n", "100"], "--seed", "1"),
    (["simulate", "--seed", "1"], "--n", "100"),
    (["simulate", "--seed", "1", "--n", "100"], "--angles", "0,0,0,0"),
    (["simulate", "--seed", "1", "--n", "100"], "--epsilon", "0"),
    (["simulate", "--seed", "1", "--n", "100"], "--k-sigma", "3"),
    (["simulate", "--seed", "1", "--n", "100"], "--setting-probs", "0.25,0.25,0.25,0.25"),
]
_INT_FLAGS = {"--seed", "--n", "--grid", "--restarts", "--cards"}
_NON_FINITE = ["nan", "NaN", "inf", "-inf", "Infinity", "1e999"]
_MALFORMED = ["", "one", "1/2", "0x10"]
_NON_INTEGRAL = ["2.7", "0.5", "1e-3"]


def test_numeric_argument_table_is_valid(capsys):
    # the property below is only meaningful if each unbroken call succeeds
    for base, flag, good in _NUMERIC_ARGS:
        assert main([*base, f"{flag}={good}"]) == 0, (base, flag)
    capsys.readouterr()


@settings(deadline=None, max_examples=200)
@given(st.sampled_from(_NUMERIC_ARGS), st.data())
def test_malformed_numeric_argument_never_succeeds(spec, data):
    # One list element (or the whole scalar) becomes non-finite, malformed
    # or, for an integer argument, non-integral: usage or validation error.
    base, flag, good = spec
    bad = _NON_FINITE + _MALFORMED + (_NON_INTEGRAL if flag in _INT_FLAGS else [])
    parts = good.split(",")
    parts[data.draw(st.integers(0, len(parts) - 1))] = data.draw(st.sampled_from(bad))
    value = ",".join(parts)
    assert main([*base, f"{flag}={value}"]) in (1, 2), (base, flag, value)


def test_dump_json_prints_floats_at_17_digits_and_the_rest_as_json_dumps():
    assert _dump_json([math.nan, math.inf, -math.inf]) == "[null, null, null]"
    assert _dump_json(-0.0) == "-0"
    assert _dump_json(0.1) == "0.10000000000000001"
    for value in (2**70, True, None, 'a "quoted" Å'):
        assert _dump_json(value) == json.dumps(value)


def _json_trees(leaves):
    # str-keyed dicts, lists and tuples of leaves, nested
    return st.recursive(
        leaves,
        lambda kids: st.lists(kids, max_size=4)
        | st.lists(kids, max_size=4).map(tuple)
        | st.dictionaries(st.text(max_size=4), kids, max_size=4),
        max_leaves=12,
    )


_FLOAT_FREE = st.none() | st.booleans() | st.integers() | st.text(max_size=6)


def _number_texts(tree):
    # the text each number of tree should print as, in document order
    if isinstance(tree, bool):
        return []
    if isinstance(tree, float):
        return [format(tree, ".17g")]
    if isinstance(tree, int):
        return [str(tree)]
    if isinstance(tree, dict):
        tree = tree.values()
    if isinstance(tree, str) or tree is None:
        return []
    return [text for item in tree for text in _number_texts(item)]


def _lists_for_tuples(tree):
    if isinstance(tree, dict):
        return {k: _lists_for_tuples(v) for k, v in tree.items()}
    if isinstance(tree, (list, tuple)):
        return [_lists_for_tuples(v) for v in tree]
    return tree


@settings(deadline=None, max_examples=200)
@given(
    _json_trees(_FLOAT_FREE | st.floats(allow_nan=False, allow_infinity=False)),
    _json_trees(_FLOAT_FREE),
)
def test_dump_json_reads_back_and_prints_each_float_at_17_digits(tree, float_free):
    text = _dump_json(tree)
    assert json.loads(text) == _lists_for_tuples(tree)
    numbers = []
    json.loads(text, parse_int=numbers.append, parse_float=numbers.append)
    assert numbers == _number_texts(tree)
    assert _dump_json(float_free) == json.dumps(float_free)


@pytest.mark.parametrize(
    "name", sorted(p.name for p in GOLDEN.glob("*.out") if not p.name.startswith("csv_"))
)
def test_json_golden_rerenders_to_its_own_bytes(name):
    text = (GOLDEN / name).read_bytes().decode()
    assert _dump_json(json.loads(text)) + "\n" == text
