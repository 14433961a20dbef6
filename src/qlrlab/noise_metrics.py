"""Shot-noise metrics and sampled-std campaigns over response problems.

Per-string standard deviations follow the Bernoulli law of a measured
Pauli expectation value; element, matrix, and state-resolved aggregates
are simple means over the per-element spread estimates carried by a
QLRProblem.  Campaigns repeat independently seeded sampled runs over one
compiled builder and collect the spread of the excitation energies.
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass

import numpy as np

from .pauli_core import PauliSum
from . import jsonable
from .qlr_engine import QLRProblem, QLRSolution, ResponseBuilder, response_blocks, solve
from .sim_engine import Statevector, bernoulli_variance, exact_expectation

logger = logging.getLogger(__name__)

MATRIX_KEYS = ("A", "B", "S")

CV_EXCLUDE_TOL = 1e-12
LARGE_THRESHOLD = 1e6


def pauli_std(coeff: complex, p1: float) -> float:
    """Per-shot standard deviation of one measured Pauli string.

    The variance is 4 Re{c^2} p1(1-p1); a negative real part of c^2
    (purely imaginary coefficients) contributes nothing and is clamped
    with a diagnostic.

    Raises:
        ValueError: If p1 lies outside [0, 1].
    """
    if not 0.0 <= p1 <= 1.0:
        raise ValueError(f"p1 must lie in [0, 1], got {p1}")
    re_c2 = (complex(coeff) ** 2).real
    if re_c2 < 0.0:
        logger.debug("clamping negative Re{c^2}=%g to zero variance", re_c2)
        return 0.0
    return math.sqrt(4.0 * re_c2 * bernoulli_variance(p1))


def operator_std(op: PauliSum, state: Statevector) -> float:
    """Per-shot standard deviation of a Pauli-sum expectation value.

    Exact outcome probabilities are taken from the statevector; the
    identity part is deterministic and contributes nothing.
    """
    identity = "I" * op.n_qubits
    var = 0.0
    for string, coeff in op.terms():
        if string == identity:
            continue
        mean = exact_expectation(state, PauliSum(op.n_qubits, {string: 1.0}))
        p1 = 0.5 * (1.0 - mean)
        p1 = min(max(p1, 0.0), 1.0)
        var += pauli_std(coeff, p1) ** 2
    return math.sqrt(var)


def metric_token(value: float) -> str:
    """Human-readable token for a metric: "inf", "large", or the number."""
    if not np.isfinite(value):
        return "inf"
    if value > LARGE_THRESHOLD:
        return "large"
    return f"{value:.6g}"


def _condition_number(mat: np.ndarray) -> float:
    if not np.any(np.abs(mat) > CV_EXCLUDE_TOL):
        return float("inf")
    singular = np.linalg.svd(mat, compute_uv=False)
    if singular[-1] <= singular[0] * np.finfo(float).eps:
        return float("inf")
    return float(singular[0] / singular[-1])


@dataclass
class MatrixMetrics:
    """Aggregated spread metrics for one response matrix.

    Attributes:
        std: Mean over elements of the element standard deviation.
        std_nc: Same with every Pauli coefficient set to one.
        cv: Mean over elements of std/|mean|, excluding near-zero means;
            infinite when every element was excluded.
        cv_excluded: How many elements the CV average excluded.
        cond: Singular-value condition number, infinite when singular.
        row_std: Mean element std per operator row.
    """

    std: float
    std_nc: float
    cv: float
    cv_excluded: int
    cond: float
    row_std: np.ndarray

    def tokens(self) -> dict[str, str]:
        return {
            "cond": metric_token(self.cond),
            "std": metric_token(self.std),
            "std_nc": metric_token(self.std_nc),
            "cv": metric_token(self.cv),
        }


@dataclass
class MetricsReport:
    """All matrix metrics of one problem plus Hessian condition numbers."""

    matrices: dict[str, MatrixMetrics]
    cond_e2: float
    cond_response: float

    def tokens(self) -> dict[str, dict[str, str]]:
        out = {key: mm.tokens() for key, mm in self.matrices.items()}
        out["E2"] = {"cond": metric_token(self.cond_e2)}
        out["S2invE2"] = {"cond": metric_token(self.cond_response)}
        return out

    def to_json_dict(self) -> dict:
        matrices = {
            key: {
                **asdict(mm),
                "cv_token": metric_token(mm.cv),
                "cond_token": metric_token(mm.cond),
            }
            for key, mm in self.matrices.items()
        }
        return jsonable({
            "matrices": matrices,
            "cond_E2": self.cond_e2,
            "cond_E2_token": metric_token(self.cond_e2),
            "cond_S2invE2": self.cond_response,
            "cond_S2invE2_token": metric_token(self.cond_response),
        })


def _cv(mean: np.ndarray, std: np.ndarray) -> tuple[float, int]:
    mask = np.abs(mean) >= CV_EXCLUDE_TOL
    excluded = int(mask.size - mask.sum())
    if not mask.any():
        return float("inf"), excluded
    return float(np.mean(std[mask] / np.abs(mean[mask]))), excluded


def matrix_metrics(problem: QLRProblem) -> MetricsReport:
    """Aggregate the per-element spread estimates of one problem."""
    blocks = {
        "A": (problem.a, problem.a_std, problem.a_std_nc),
        "B": (problem.b, problem.b_std, problem.b_std_nc),
        "S": (problem.sigma, problem.sigma_std, problem.sigma_std_nc),
    }
    matrices = {}
    for key, (mean, std, std_nc) in blocks.items():
        cv, excluded = _cv(mean, std)
        matrices[key] = MatrixMetrics(
            std=float(np.mean(std)),
            std_nc=float(np.mean(std_nc)),
            cv=cv,
            cv_excluded=excluded,
            cond=_condition_number(mean),
            row_std=np.mean(std, axis=1),
        )
    e2, s2 = response_blocks(problem)
    cond_e2 = _condition_number(e2)
    try:
        response = np.linalg.solve(s2, e2)
        cond_response = _condition_number(response)
    except np.linalg.LinAlgError:
        cond_response = float("inf")
    return MetricsReport(
        matrices=matrices, cond_e2=cond_e2, cond_response=cond_response
    )


def state_specific_std(
    report: MetricsReport, solution: QLRSolution
) -> dict[str, np.ndarray]:
    """Weight each matrix's row stds by the response-vector composition.

    For state k the weight of operator l is the squared magnitude of its
    excitation plus de-excitation amplitude, so the result is the
    row-std average seen through the state's composition.

    Raises:
        ValueError: If the solution does not match the report dimensions.
    """
    n = report.matrices["A"].row_std.size
    if solution.vectors.shape[0] != 2 * n:
        raise ValueError("solution and report dimensions do not match")
    weights = (
        np.abs(solution.vectors[:n, :]) ** 2 + np.abs(solution.vectors[n:, :]) ** 2
    )
    return {
        key: report.matrices[key].row_std @ weights for key in MATRIX_KEYS
    }


@dataclass
class CampaignResult:
    """Aggregated outcome of repeated independently sampled runs.

    sigma_k is the standard deviation over valid runs of the k-th
    ascending excitation energy; it is None when no run was valid and
    NaN-filled when only one was.
    """

    runs: int
    shots: int | None
    pauli_saving: bool
    master_seed: int
    solutions: list[QLRSolution]
    valid: np.ndarray
    omegas: np.ndarray | None
    sigma_k: np.ndarray | None
    failure_fraction: float

    @property
    def n_valid(self) -> int:
        return int(self.valid.sum())

    def to_json_dict(self) -> dict:
        omega_mean = None
        if self.omegas is not None and self.omegas.size:
            omega_mean = self.omegas.mean(axis=0)
        return jsonable({
            "runs": self.runs,
            "shots": self.shots,
            "pauli_saving": self.pauli_saving,
            "master_seed": self.master_seed,
            "n_valid": self.n_valid,
            "failure_fraction": self.failure_fraction,
            "sigma_k": self.sigma_k,
            "omega_mean": omega_mean,
        })


def run_campaign(
    builder: ResponseBuilder,
    runs: int = 250,
    shots: int | None = 10_000,
    pauli_saving: bool = True,
    noise=None,
    mitigator=None,
    master_seed: int = 0,
) -> CampaignResult:
    """Run independently seeded sampled problems and collect the spread.

    The builder is shared; every run gets a private cache seeded by
    (master_seed, run_id), so results are deterministic.  Runs whose
    electronic Hessian has a negative eigenvalue are discarded from the
    spread statistics and counted in failure_fraction.  shots=None runs
    the exact evaluator once and replicates it, which is the
    infinite-shot surrogate.
    """
    if runs <= 0:
        raise ValueError("runs must be positive")
    if shots is None:
        solution = solve(builder.evaluate_exact(with_delta=False))
        solutions = [solution] * runs
    else:
        solutions = []
        for run_id in range(runs):
            problem = builder.evaluate_sampled(
                shots,
                master_seed=master_seed,
                run_id=run_id,
                noise=noise,
                mitigator=mitigator,
                pauli_saving=pauli_saving,
            )
            solutions.append(solve(problem))
    valid = np.array([sol.valid for sol in solutions], dtype=bool)
    failure_fraction = float(1.0 - valid.sum() / runs)
    omegas = None
    sigma_k = None
    if valid.any():
        kept = [solutions[i] for i in np.flatnonzero(valid)]
        n_states = max(sol.n_states for sol in kept)
        omegas = np.full((len(kept), n_states), np.nan)
        for row, sol in enumerate(kept):
            omegas[row, : sol.n_states] = sol.omega
        sigma_k = np.full(n_states, np.nan)
        for k in range(n_states):
            column = omegas[:, k]
            column = column[np.isfinite(column)]
            if column.size >= 2:
                sigma_k[k] = column.std(ddof=1)
    else:
        logger.warning("campaign produced zero valid runs; sigma_k undefined")
    return CampaignResult(
        runs=runs,
        shots=shots,
        pauli_saving=pauli_saving,
        master_seed=master_seed,
        solutions=solutions,
        valid=valid,
        omegas=omegas,
        sigma_k=sigma_k,
        failure_fraction=failure_fraction,
    )
