"""Model construction, validation, influence normalization, and the JSON readers."""

import dataclasses
import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teamlqg import (
    InfluenceError,
    from_json_dict,
    load_model,
    make_model,
    normalize_influence,
    resize_team,
    save_model,
    to_json_dict,
    validate,
)
from teamlqg import sim
from teamlqg.filters import schedule_to_json_dict
from teamlqg.model import NORMALIZATION_TOL, PD_TOL, PSD_TOL, SYM_TOL
from teamlqg.random_models import random_team
from teamlqg.strategy import CustomLinear
from conftest import scalar_pair_model
import reference


def test_reference_model_is_clean(model_s1):
    report = validate(model_s1)
    assert report.ok
    assert report.violations == ()


def test_coupled_reference_model_is_clean(model_s2):
    assert validate(model_s2).ok


def test_zero_action_weight_is_flagged():
    model = scalar_pair_model(R=0.0)
    report = validate(model)
    assert not report.ok
    assert any("R not positive definite at t=1" in msg for msg in report.violations)
    assert any("R not positive definite at t=2" in msg for msg in report.violations)


def test_unnormalized_influence_is_flagged():
    model = scalar_pair_model(alpha=(1.0, 2.0))
    report = validate(model)
    assert any("normalization" in msg for msg in report.violations)


def test_zero_influence_entry_is_flagged():
    model = scalar_pair_model(alpha=(0.0, np.sqrt(2.0)))
    report = validate(model)
    assert any("alpha[0] is zero" in msg for msg in report.violations)


def test_asymmetric_cost_matrix_is_flagged():
    q = np.array([[1.0, 0.3], [0.0, 1.0]])
    model = make_model(
        T=2, n=2, A=np.eye(2), B=np.eye(2), C=np.eye(2), Q=q, R=np.eye(2),
        Sigma_x=np.eye(2), Sigma_w=np.eye(2), Sigma_v=np.eye(2),
    )
    report = validate(model)
    assert any("Q not symmetric at t=1" in msg for msg in report.violations)


def test_tiny_asymmetry_is_symmetrized():
    q = np.array([[1.0, 1e-13], [0.0, 1.0]])
    model = make_model(
        T=1, n=2, A=np.eye(2), B=np.eye(2), C=np.eye(2), Q=q, R=np.eye(2),
        Sigma_x=np.eye(2), Sigma_w=np.eye(2), Sigma_v=np.eye(2),
    )
    assert np.array_equal(model.Q[0], model.Q[0].T)
    assert validate(model).ok


def test_indefinite_coupled_cost_is_flagged():
    # Q is fine on its own but Q + Q_bar dips negative.
    model = scalar_pair_model(Q=1.0, Q_bar=-2.0)
    report = validate(model)
    assert any("Q+Q_bar not positive semidefinite at t=1" in msg for msg in report.violations)


def test_validate_reports_every_wrong_shape_in_field_order(model_s1):
    """Shapes make_model cannot produce, each reported once; no spectral
    check runs on them."""
    bad = dataclasses.replace(
        model_s1, A=np.zeros((2, 2, 2)), S_bar=np.zeros((2, 1)),
        mu_x=np.zeros(2), Sigma_x=np.zeros((1, 2)),
        Sigma_w=np.zeros((3, 1, 1)), Sigma_v=np.zeros((2, 1, 2)))
    assert validate(bad).violations == (
        "A: expected shape (2, 1, 1), got (2, 2, 2)",
        "S_bar: expected shape (2, 1, 1), got (2, 1)",
        "mu_x: expected shape (1,), got (2,)",
        "Sigma_x: expected shape (1, 1), got (1, 2)",
        "Sigma_w: expected shape (2, 1, 1), got (3, 1, 1)",
        "Sigma_v: expected shape (2, 1, 1), got (2, 1, 2)",
    )


_SYMMETRIC_FIELDS = ("Sigma_x", "Q", "Q_bar", "R", "R_bar", "Sigma_w", "Sigma_v")


def _least_eig(m: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(0.5 * (m + m.T))[0])


def _perturbed_team(rng, T: int):
    """A random_team draw with up to four finite defects, many of them at a
    tolerance's edge: an off-diagonal asymmetry near SYM_TOL, or a stage
    matrix, or its sum with the coupling matrix, shifted so that its least
    eigenvalue sits at PSD_TOL, PD_TOL, 0 or well below."""
    model = random_team(rng, T=T, time_varying=bool(rng.integers(2)))
    fields = {key: np.array(getattr(model, key)) for key in _SYMMETRIC_FIELDS}
    stacks = {key: arr.reshape(-1, *arr.shape[-2:]) for key, arr in fields.items()}
    for _ in range(int(rng.integers(0, 5))):
        key = _SYMMETRIC_FIELDS[rng.integers(len(_SYMMETRIC_FIELDS))]
        m = stacks[key]
        t = int(rng.integers(m.shape[0]))
        if rng.integers(2):
            if m.shape[1] > 1:
                i, j = rng.choice(m.shape[1], 2, replace=False)
                m[t, i, j] += rng.choice([-1.0, 1.0]) * rng.choice([0.5, 1.0, 2.0, 1e6]) * SYM_TOL
            continue
        target = rng.choice([PSD_TOL, PD_TOL, 0.0, -0.5]) + rng.choice([-1e-14, 0.0, 1e-14])
        if key in ("Q", "R") and rng.integers(2):
            coupling = stacks[key + "_bar"][t]
            coupling += (target - _least_eig(m[t] + coupling)) * np.eye(m.shape[1])
        else:
            m[t] += (target - _least_eig(m[t])) * np.eye(m.shape[1])
    alpha = np.array(model.alpha)
    if rng.integers(8) == 0:
        alpha[rng.integers(alpha.size)] = 0.0
    return dataclasses.replace(model, alpha=alpha, **fields)


def test_validate_matches_the_per_stage_reference():
    """Every violation, worded and ordered as the stage-by-stage checks put
    them, on 500 perturbed finite draws; the draws violate every symmetry
    and definiteness row."""
    kinds = {f"{key} not symmetric" for key in _SYMMETRIC_FIELDS} | {
        f"{label} not positive {word}"
        for label, word in [("Sigma_x", "semidefinite"), ("Q", "semidefinite"),
                            ("Q+Q_bar", "semidefinite"), ("R", "definite"),
                            ("R+R_bar", "definite"), ("Sigma_w", "semidefinite"),
                            ("Sigma_v", "semidefinite")]}
    seen = set()
    flagged = 0
    for seed in range(500):
        rng = np.random.default_rng([17, seed])
        model = _perturbed_team(rng, T=(1, 2, 10, 60, 200)[seed % 5])
        violations = validate(model).violations
        assert violations == reference.validate(model).violations, seed
        seen.update(v.split(" at t=")[0] for v in violations)
        flagged += bool(violations)
    assert kinds <= seen
    assert flagged > 250


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_entries_are_violations_that_skip_the_spectral_checks():
    nan, inf = float("nan"), float("inf")
    model = scalar_pair_model(T=3, Q=np.array([[[1.0]], [[1.0]], [[inf]]]),
                              A=np.array([[[1.0]], [[nan]], [[1.0]]]),
                              mu_x=nan, R=0.0)
    assert validate(model).violations == (
        "mu_x not finite", "A not finite at t=2", "Q not finite at t=3")
    model = scalar_pair_model(alpha=(1.0, nan), Sigma_x=-inf)
    assert validate(model).violations == ("Sigma_x not finite", "alpha not finite")


def test_normalize_influence_reference_values():
    alpha = normalize_influence((1.0, 2.0))
    np.testing.assert_allclose(alpha, [0.6324555320336759, 1.2649110640673518], rtol=1e-12)
    assert abs(np.sum(alpha**2) / 2 - 1.0) < 1e-15


def test_normalize_influence_rejects_degenerate_input():
    with pytest.raises(InfluenceError):
        normalize_influence((3.0,))
    with pytest.raises(InfluenceError):
        normalize_influence((0.0, 0.0))
    with pytest.raises(InfluenceError):
        normalize_influence((1.0, 0.0, 2.0))
    with pytest.raises(InfluenceError):
        normalize_influence((1.0, np.inf))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("raw", [(1e-160, 2e-160), (1e200, 1e200),
                                 (1e155, 1e155, 1.0), (1e-200, 1e-200)])
def test_normalize_influence_survives_squares_that_under_or_overflow(raw):
    alpha = normalize_influence(raw)
    assert np.all(np.isfinite(alpha))
    assert abs(np.mean(alpha**2) - 1.0) <= NORMALIZATION_TOL


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 8), d=st.integers(1, 3))
def test_quadratic_cost_splits_across_gauge(seed, n, d):
    # (1/n) sum_i v_i' M v_i = bar' M bar + (1/n) sum_i delta_i' M delta_i
    # for any symmetric M, using a normalized influence vector.
    rng = np.random.default_rng(seed)
    alpha = normalize_influence(rng.uniform(0.3, 2.0, n))
    m = rng.normal(size=(d, d))
    m = m + m.T
    values = rng.normal(size=(n, d)) * 2.0
    bar = alpha @ values / n
    deltas = values - np.outer(alpha, bar)
    lhs = np.einsum("nd,de,ne->", values, m, values) / n
    rhs = bar @ m @ bar + np.einsum("nd,de,ne->", deltas, m, deltas) / n
    np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-10)


def test_json_round_trip(model_s2, tmp_path):
    doc = to_json_dict(model_s2)
    clone = from_json_dict(doc)
    assert np.array_equal(clone.A_bar, model_s2.A_bar)
    assert np.array_equal(clone.alpha, model_s2.alpha)
    assert clone.dims == model_s2.dims

    path = tmp_path / "model.json"
    save_model(model_s2, path)
    loaded = load_model(path)
    for key in ("A", "A_bar", "Q", "Q_bar", "Sigma_w", "mu_x"):
        assert np.array_equal(getattr(loaded, key), getattr(model_s2, key))


def test_json_accepts_compact_document():
    doc = {
        "dims": {"n": 2, "T": 3, "d_x": 1, "d_u": 1, "d_y": 1, "d_w": 1, "d_v": 1},
        "stages": {"A": 1.0, "B": 0.5, "C": 1.0, "Q": 1.0, "R": 2.0},
        "noise": {"Sigma_x": 1.0, "Sigma_w": 0.25, "Sigma_v": 1.0},
        "alpha": [1.0, 1.0],
    }
    model = from_json_dict(doc)
    assert model.dims.T == 3
    assert model.B[1, 0, 0] == 0.5
    # omitted pieces default sensibly
    assert np.all(model.A_bar == 0.0)
    assert np.all(model.S[0] == np.eye(1))
    assert np.all(model.mu_x == 0.0)
    assert validate(model).ok


def test_json_rejects_malformed_documents(tmp_path):
    with pytest.raises(ValueError):
        from_json_dict({"dims": {"n": 2}})
    doc = {
        "dims": {"n": 2, "T": 1, "d_x": 2, "d_u": 1, "d_y": 1, "d_w": 2, "d_v": 1},
        "stages": {"A": 1.0, "B": 1.0, "C": 1.0, "Q": 1.0, "R": 1.0},
        "noise": {"Sigma_x": 1.0, "Sigma_w": 1.0, "Sigma_v": 1.0},
        "alpha": [1.0, 1.0],
    }
    # scalar A cannot fill a 2x2 slot
    with pytest.raises(ValueError):
        from_json_dict(doc)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ValueError):
        load_model(bad)


def _rect_document():
    """T=2, d_x=2, d_w=1: every reader default and shape check has work to do."""
    stage = {"A": [[1.0, 0.1], [0.0, 0.9]], "B": [[1.0], [0.5]], "C": [[1.0, 0.5]],
             "E": [[1.0], [0.0]], "Q": [[1.0, 0.0], [0.0, 1.0]], "R": [[2.0]]}
    return {
        "dims": {"n": 2, "T": 2, "d_x": 2, "d_u": 1, "d_y": 1, "d_w": 1, "d_v": 1},
        "stages": [dict(stage), dict(stage)],
        "noise": {"mu_x": [0.5, -0.5], "Sigma_x": [[1.0, 0.1], [0.1, 1.0]],
                  "Sigma_w": [[[0.5]], [[0.25]]], "Sigma_v": [[1.0]]},
        "alpha": [1.0, 1.0],
    }


def test_rectangular_document_loads():
    report = validate(from_json_dict(_rect_document()))
    assert report.ok, report.violations


@pytest.mark.parametrize("change, field", [
    pytest.param(lambda d: d.update(alpha=[1.0, 1.0, 1.0]), "alpha", id="alpha-length"),
    pytest.param(lambda d: d["dims"].update(d_w=2), r"stages\[0\]\.E", id="d_w-vs-E"),
    pytest.param(lambda d: d["dims"].update(d_x=3), r"stages\[0\]\.A", id="d_x-vs-A"),
    pytest.param(lambda d: d["noise"].update(mu_x=[0.5]), "mu_x", id="mu_x-length"),
    pytest.param(lambda d: d["noise"]["Sigma_w"].append([[1.0]]), "Sigma_w",
                 id="Sigma_w-count"),
    pytest.param(lambda d: d["stages"].pop(), "stages", id="stages-count"),
    pytest.param(lambda d: d["stages"][1].pop("R"), r"stages\[1\]: missing required matrix R",
                 id="R-missing-in-stage-2"),
    pytest.param(lambda d: d["noise"].pop("Sigma_v"), "Sigma_v", id="Sigma_v-missing"),
    pytest.param(lambda d: d["stages"][0].update(A=[[1.0, 0.1, 0.0], [0.0, 0.9, 0.0]]),
                 r"stages\[0\]\.A", id="A-shape"),
    pytest.param(lambda d: d["stages"][0].update(A=1.0), r"stages\[0\]\.A",
                 id="scalar-A-in-2x2"),
    pytest.param(lambda d: d["stages"][1].update(C=[[1.0], [0.5, 1.0]]), r"stages\[1\]\.C",
                 id="ragged-C"),
])
def test_malformed_document_names_the_field(change, field):
    doc = _rect_document()
    change(doc)
    with pytest.raises(ValueError, match=field):
        from_json_dict(doc)


def test_omitted_and_single_stage_entries_take_defaults():
    # E omitted with d_w != d_x is the rectangular identity; E_bar given in
    # stage 2 only is zero in stage 1; a scalar 0 fills any slot with zeros
    doc = _rect_document()
    for stage in doc["stages"]:
        del stage["E"]
    doc["stages"][1]["E_bar"] = [[0.3], [0.1]]
    doc["stages"][0]["Q_bar"] = 0
    model = from_json_dict(doc)
    np.testing.assert_array_equal(model.E, np.stack([np.eye(2, 1)] * 2))
    np.testing.assert_array_equal(model.E_bar, [[[0.0], [0.0]], [[0.3], [0.1]]])
    np.testing.assert_array_equal(model.Q_bar, np.zeros((2, 2, 2)))
    np.testing.assert_array_equal(model.S, np.ones((2, 1, 1)))
    np.testing.assert_array_equal(model.Sigma_v, np.ones((2, 1, 1)))


def _random_rule(model, rng):
    d = model.dims
    return CustomLinear(*(rng.normal(size=(d.T - 1, d.d_u, cols))
                          for cols in (d.d_x, d.d_x, d.d_y, d.d_y)))


def _assert_rule_equal(rule, expected):
    for key in ("theta", "phi", "psi", "omega"):
        got, want = getattr(rule, key), getattr(expected, key)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), key


@pytest.mark.parametrize("seed", range(6))
def test_custom_rule_reads_every_stack_form(seed):
    rng = np.random.default_rng(seed)
    model = random_team(rng, T=(1, 2, 5)[seed % 3])
    rule = _random_rule(model, rng)
    read = CustomLinear.from_json_dict
    # keyed "1".."T-1", exactly as the schedule writer emits it
    keyed = json.loads(json.dumps(schedule_to_json_dict(rule)))
    _assert_rule_equal(read(keyed, model), rule)
    # plain (T-1, rows, cols) stacks
    plain = {k: getattr(rule, k).tolist() for k in ("theta", "phi", "psi", "omega")}
    _assert_rule_equal(read(plain, model), rule)
    # one matrix reused at every stage, and 0 or an omitted key for zeros
    stages = model.T - 1
    theta0 = rule.theta[0] if stages else rng.normal(size=(model.dims.d_u, model.dims.d_x))
    single = read({"theta": theta0.tolist(), "phi": 0}, model)
    zeros = {k: np.zeros_like(getattr(rule, k)) for k in ("phi", "psi", "omega")}
    _assert_rule_equal(single, CustomLinear(
        theta=np.broadcast_to(theta0, rule.theta.shape).copy(), **zeros))


def test_custom_rule_scalar_fills_one_by_one_slots():
    model = scalar_pair_model(T=4)
    rule = CustomLinear.from_json_dict({"theta": -0.4, "omega": 0.25}, model)
    _assert_rule_equal(rule, CustomLinear(
        theta=np.full((3, 1, 1), -0.4), phi=np.zeros((3, 1, 1)),
        psi=np.zeros((3, 1, 1)), omega=np.full((3, 1, 1), 0.25)))


@pytest.mark.parametrize("doc, field", [
    pytest.param({"theta": {"1": [[0.5]], "3": [[0.5]]}}, "theta", id="keyed-missing-stage"),
    pytest.param({"phi": [[[0.5]], [[0.5]]]}, "phi", id="stack-count"),
    pytest.param({"psi": [[0.5, 0.5]]}, "psi", id="matrix-shape"),
    pytest.param({"omega": "high"}, "omega", id="not-numeric"),
    pytest.param({"phi": [[float("nan")]]}, "phi: not finite", id="not-finite"),
])
def test_malformed_custom_rule_names_the_field(doc, field):
    with pytest.raises(ValueError, match=field):
        CustomLinear.from_json_dict(doc, scalar_pair_model(T=4))


def test_model_arrays_are_read_only(model_s1):
    with pytest.raises(ValueError):
        model_s1.A[0, 0, 0] = 2.0


_CHAIN_KEYS = ("A", "B", "C", "E", "Q", "R", "S")


def _chain_models():
    rng = np.random.default_rng(2323)
    draws = [random_team(rng) for _ in range(6)]
    return draws + [resize_team(draws[0], 1024)]


@pytest.mark.parametrize("model", _chain_models())
def test_chains_are_each_stack_and_its_coupled_sum(model):
    assert set(model.chains) == set(_CHAIN_KEYS)
    for key in _CHAIN_KEYS:
        own, coupling = getattr(model, key), getattr(model, key + "_bar")
        stack = model.chains[key]
        assert stack.shape == (2, *own.shape)
        assert np.array_equal(stack, np.stack([own, own + coupling]))
        with pytest.raises(ValueError):
            stack[1, 0, 0, 0] = 2.0
    # formed once: every read returns the same arrays
    assert model.chains is model.chains


def _array_fields(model):
    return [getattr(model, f.name) for f in dataclasses.fields(model)
            if f.name != "dims"]


def _write_refused(model) -> bool:
    """Whether writing to the model's A fails in the process that runs
    this.  Module level, so the pool's workers can run it."""
    try:
        model.A[0, 0, 0] = 99.0
    except ValueError:
        return True
    return False


def test_chains_survive_pickling_and_follow_a_replaced_stack():
    """A pickle carries the defining fields only: the clone is read-only,
    in a pool worker too, and forms its cached values afresh."""
    model = random_team(np.random.default_rng(77))
    uncached = len(pickle.dumps(random_team(np.random.default_rng(77))))
    before = model.chains
    assert model.alpha_bcast is not None
    dump = pickle.dumps(model)
    assert len(dump) <= uncached
    clone = pickle.loads(dump)
    assert "chains" not in vars(clone) and "alpha_bcast" not in vars(clone)
    for key in _CHAIN_KEYS:
        assert np.array_equal(clone.chains[key], before[key])
        assert not clone.chains[key].flags.writeable
    assert not any(arr.flags.writeable for arr in _array_fields(clone))
    assert list(sim._pool_map(_write_refused, [model, model], 2)) == [True, True]
    Q = model.Q + 1.0
    changed = dataclasses.replace(model, Q=Q)
    assert not any(arr.flags.writeable for arr in _array_fields(changed))
    assert changed.chains is not before
    assert np.array_equal(changed.chains["Q"], np.stack([Q, Q + model.Q_bar]))
    assert np.array_equal(changed.chains["A"], before["A"])


def test_resize_team(model_s2):
    big = resize_team(model_s2, 6)
    assert big.dims.n == 6
    assert np.array_equal(big.alpha, np.ones(6))
    assert np.array_equal(big.A_bar, model_s2.A_bar)
    assert validate(big).ok
