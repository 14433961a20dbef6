"""Shot-noise spread estimates, matrix metrics, and sampled campaigns."""

import numpy as np
import pytest

from qlrlab.noise_metrics import (
    CV_EXCLUDE_TOL,
    MATRIX_KEYS,
    matrix_metrics,
    metric_token,
    operator_std,
    pauli_std,
    run_campaign,
    state_specific_std,
)
from qlrlab.pauli_core import PauliSum
from qlrlab.qlr_engine import QLRProblem, ResponseBuilder, solve
from qlrlab.sim_engine import Statevector


def _problem(mean, std=None, std_nc=None):
    mean = np.atleast_2d(np.asarray(mean, dtype=float))
    std = np.zeros_like(mean) if std is None else np.atleast_2d(np.asarray(std))
    std_nc = std if std_nc is None else np.atleast_2d(np.asarray(std_nc))
    return QLRProblem(
        parametrization="naive",
        labels=[f"op{i}" for i in range(mean.shape[0])],
        a=mean,
        b=mean * 0.0,
        sigma=np.eye(mean.shape[0]),
        a_std=std,
        b_std=std * 0.0,
        sigma_std=std * 0.0,
        a_std_nc=std_nc,
        b_std_nc=std_nc * 0.0,
        sigma_std_nc=std_nc * 0.0,
        delta=None,
        mode="exact",
        shots=None,
        pauli_saving=None,
        n_qubits=2,
    )


# -- per-string and per-operator spreads ----------------------------------------


def test_pauli_std_extremes():
    assert pauli_std(1.0, 0.5) == pytest.approx(1.0)
    assert pauli_std(2.0, 0.0) == 0.0
    assert pauli_std(2.0, 1.0) == 0.0
    assert pauli_std(1j, 0.5) == 0.0


def test_pauli_std_rejects_bad_probability():
    with pytest.raises(ValueError, match="p1"):
        pauli_std(1.0, 1.5)
    with pytest.raises(ValueError, match="p1"):
        pauli_std(1.0, -0.1)


@pytest.mark.parametrize("p1", [0.1, 0.3, 0.5, 0.7, 0.9])
def test_pauli_std_matches_bernoulli_sampling(p1):
    """The predicted spread tracks empirical Bernoulli spreads within 15%."""
    rng = np.random.default_rng(int(p1 * 1000))
    outcomes = 1.0 - 2.0 * (rng.random((1000, 100)) < p1)
    empirical = outcomes.mean(axis=1).std() * np.sqrt(100)
    assert pauli_std(1.0, p1) == pytest.approx(empirical, rel=0.15)


def test_operator_std_single_string():
    plus = Statevector(1, np.array([1.0, 1.0]) / np.sqrt(2))
    op = PauliSum(1, {"Z": 2.0})
    assert operator_std(op, plus) == pytest.approx(pauli_std(2.0, 0.5))


def test_operator_std_identity_only():
    state = Statevector.from_bits(1, 0)
    assert operator_std(PauliSum(1, {"I": 7.0}), state) == 0.0


def test_operator_std_adds_in_quadrature():
    plus_plus = Statevector(2, np.full(4, 0.5))
    op = PauliSum(2, {"ZI": 3.0, "IZ": 4.0})
    assert operator_std(op, plus_plus) == pytest.approx(5.0)


def test_metric_token_ranges():
    assert metric_token(float("inf")) == "inf"
    assert metric_token(float("nan")) == "inf"
    assert metric_token(2e6) == "large"
    assert metric_token(57.971) == "57.971"


# -- matrix metrics --------------------------------------------------------------


def test_matrix_metrics_single_element():
    report = matrix_metrics(_problem([[2.0]], [[1.0]]))
    a = report.matrices["A"]
    assert a.std == pytest.approx(1.0)
    assert a.cv == pytest.approx(0.5)
    assert a.cv_excluded == 0
    assert report.matrices["S"].cond == pytest.approx(1.0)


def test_matrix_metrics_zero_matrix_tokens():
    report = matrix_metrics(_problem([[0.0]], [[1.0]]))
    a = report.matrices["A"]
    assert not np.isfinite(a.cv) and a.cv_excluded == 1
    assert a.tokens()["cv"] == "inf"
    assert report.matrices["B"].tokens()["cond"] == "inf"


def test_matrix_metrics_cv_exclusion_threshold():
    mean = [[2.0, CV_EXCLUDE_TOL / 10.0], [1.0, 1.0]]
    std = [[0.2, 5.0], [0.1, 0.1]]
    report = matrix_metrics(_problem(mean, std))
    a = report.matrices["A"]
    assert a.cv_excluded == 1
    assert a.cv == pytest.approx(np.mean([0.1, 0.1, 0.1]))


def test_matrix_metrics_nc_ignores_rescaling(h2_ground):
    """Coefficient-free spreads do not change when coefficients rescale."""
    builder = ResponseBuilder(h2_ground, "naive")
    base = builder.evaluate_sampled(4000, master_seed=2)
    std_nc = matrix_metrics(base).matrices["A"].std_nc
    assert std_nc > 0.0
    scaled = matrix_metrics(
        _problem(base.a * 7.0, base.a_std * 7.0, base.a_std_nc)
    )
    assert scaled.matrices["A"].std_nc == pytest.approx(std_nc)
    assert scaled.matrices["A"].std == pytest.approx(
        7.0 * matrix_metrics(base).matrices["A"].std
    )


def test_row_std_shape_and_mean():
    std = [[1.0, 3.0], [2.0, 2.0]]
    report = matrix_metrics(_problem(np.eye(2), std))
    assert report.matrices["A"].row_std == pytest.approx([2.0, 2.0])
    assert report.matrices["A"].std == pytest.approx(2.0)


# -- state-resolved spreads --------------------------------------------------------


def test_state_specific_std_unit_vector():
    problem = _problem(np.diag([1.0, 2.0]), [[0.3, 0.3], [0.5, 0.5]])
    report = matrix_metrics(problem)
    solution = solve(problem)
    per_state = state_specific_std(report, solution)
    assert set(per_state) == set(MATRIX_KEYS)
    assert per_state["A"] == pytest.approx([0.3, 0.5])


def test_state_specific_std_zero_spread():
    problem = _problem(np.diag([1.0, 2.0]))
    per_state = state_specific_std(matrix_metrics(problem), solve(problem))
    assert per_state["A"] == pytest.approx([0.0, 0.0])


def test_state_specific_std_dimension_mismatch():
    report = matrix_metrics(_problem(np.eye(2)))
    other = solve(_problem(np.eye(3)))
    with pytest.raises(ValueError, match="dimensions"):
        state_specific_std(report, other)


# -- campaigns ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def h2_builder(h2_ground):
    return ResponseBuilder(h2_ground, "naive")


def test_campaign_exact_surrogate(h2_builder):
    result = run_campaign(h2_builder, runs=5, shots=None)
    assert result.failure_fraction == 0.0
    assert result.sigma_k == pytest.approx([0.0, 0.0], abs=1e-14)
    assert result.n_valid == 5


def test_campaign_is_deterministic(h2_builder):
    first = run_campaign(h2_builder, runs=6, shots=500, master_seed=3)
    second = run_campaign(h2_builder, runs=6, shots=500, master_seed=3)
    assert np.array_equal(first.omegas, second.omegas)
    assert first.sigma_k == pytest.approx(second.sigma_k, abs=0.0)


def test_campaign_spread_shrinks_with_shots(h2_builder):
    few = run_campaign(h2_builder, runs=12, shots=200, master_seed=7)
    many = run_campaign(h2_builder, runs=12, shots=20_000, master_seed=7)
    assert many.sigma_k[0] < few.sigma_k[0]
    assert many.failure_fraction <= few.failure_fraction


def test_campaign_rejects_nonpositive_runs(h2_builder):
    with pytest.raises(ValueError, match="runs"):
        run_campaign(h2_builder, runs=0)


def test_campaign_json_dict(h2_builder):
    result = run_campaign(h2_builder, runs=4, shots=300, master_seed=1)
    payload = result.to_json_dict()
    assert payload["runs"] == 4 and payload["shots"] == 300
    assert payload["pauli_saving"] is True
    assert 0.0 <= payload["failure_fraction"] <= 1.0
    assert len(payload["sigma_k"]) == len(payload["omega_mean"])
