"""Confusion-matrix readout error mitigation.

A confusion matrix records, column by column, the measured bitstring
distribution obtained after preparing each computational basis state under
a noise channel. Applying its inverse to a sampled histogram undoes the
classical part of the channel, yielding quasi-probabilities (entries may
go negative; they are never clipped so that expectation values stay
unbiased).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg

from .sim_engine import NoiseModel, TUCCSDAnsatz

KINDS = ("readout", "ansatz_based")

# Above this condition number the inverse amplifies sampling noise past any
# useful precision, so mitigation is reported as failed instead.
CONDITION_LIMIT = 1e8

_COLUMN_SUM_TOL = 1e-9


class MitigationError(RuntimeError):
    """Confusion matrix is singular or too ill-conditioned to invert."""


@dataclass(frozen=True)
class ConfusionMatrix:
    """Column-stochastic map from prepared to measured bitstring distributions.

    ``matrix[j, i]`` is the probability of reading bitstring ``j`` after
    preparing basis state ``i``. ``kind`` records which preparation circuits
    the columns stand for: plain bit flips (``readout``) or bit flips
    followed by the zero-parameter ansatz circuit (``ansatz_based``).
    Under ``NoiseModel``, which has no gate noise, the two kinds coincide.
    """

    n_qubits: int
    kind: str
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown confusion kind {self.kind!r}")
        dim = 1 << self.n_qubits
        matrix = np.asarray(self.matrix, dtype=float)
        if matrix.shape != (dim, dim):
            raise ValueError("confusion matrix shape does not match qubit count")
        if np.any(matrix < 0.0):
            raise ValueError("confusion matrix entries must be non-negative")
        if np.max(np.abs(matrix.sum(axis=0) - 1.0)) > _COLUMN_SUM_TOL:
            raise ValueError("confusion matrix columns must sum to one")
        matrix.flags.writeable = False
        object.__setattr__(self, "matrix", matrix)

    @property
    def dim(self) -> int:
        return 1 << self.n_qubits

    @cached_property
    def condition(self) -> float:
        return float(np.linalg.cond(self.matrix))

    @cached_property
    def _lu(self):
        if not np.isfinite(self.condition) or self.condition >= CONDITION_LIMIT:
            raise MitigationError(
                f"confusion matrix condition {self.condition:.3g} exceeds "
                f"the invertibility limit {CONDITION_LIMIT:.0e}"
            )
        try:
            return scipy.linalg.lu_factor(self.matrix)
        except scipy.linalg.LinAlgError as exc:
            raise MitigationError("confusion matrix is singular") from exc

    def apply(self, p_raw: np.ndarray) -> np.ndarray:
        """Mitigate one histogram; the hook ``MeasurementCache`` calls."""
        return mitigate(self, p_raw)


def build_confusion(
    n_qubits: int,
    kind: str = "readout",
    ansatz: TUCCSDAnsatz | None = None,
    noise: NoiseModel | None = None,
    shots: int | None = None,
    rng: np.random.Generator | None = None,
) -> ConfusionMatrix:
    """Characterize the classical noise channel column by column.

    Each basis state is prepared by bit flips on the all-zeros register,
    pushed through ``noise``, and recorded as one column. With
    ``shots=None`` the columns are the analytic channel; otherwise each
    column is a multinomial sample of ``shots`` outcomes.

    ``ansatz_based`` adds the zero-parameter ansatz circuit, which is the
    identity; ``NoiseModel`` has no gate noise, so both kinds build the
    same columns, and ``ansatz_based`` only checks the ansatz it is given.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown confusion kind {kind!r}")
    if kind == "ansatz_based":
        if ansatz is None:
            raise ValueError("ansatz_based confusion requires an ansatz")
        if ansatz.n_qubits != n_qubits:
            raise ValueError("ansatz register size does not match qubit count")
    if shots is not None and shots <= 0:
        raise ValueError("shots must be positive when sampling columns")
    if shots is not None and rng is None:
        rng = np.random.default_rng(0)
    dim = 1 << n_qubits
    matrix = np.empty((dim, dim))
    for prepared in range(dim):
        probs = np.zeros(dim)
        probs[prepared] = 1.0
        if noise is not None:
            probs = noise.apply(probs)
        if shots is not None:
            probs = np.clip(probs, 0.0, None)
            counts = rng.multinomial(shots, probs / probs.sum())
            probs = counts / shots
        matrix[:, prepared] = probs
    return ConfusionMatrix(n_qubits=n_qubits, kind=kind, matrix=matrix)


def mitigate(matrix: ConfusionMatrix, p_raw: np.ndarray) -> np.ndarray:
    """Solve ``M x = p_raw`` for the quasi-probability vector ``x``.

    The result is not clipped: negative entries are legitimate
    quasi-probabilities and removing them would bias downstream Pauli
    means. Because the columns of ``M`` sum to one, the entry sum of
    ``p_raw`` is preserved.
    """
    p_raw = np.asarray(p_raw, dtype=float)
    if p_raw.shape != (matrix.dim,):
        raise ValueError("histogram length does not match the confusion matrix")
    return scipy.linalg.lu_solve(matrix._lu, p_raw)


def write_confusion_csv(matrix: ConfusionMatrix, path) -> None:
    """Persist a confusion matrix with enough precision to round-trip."""
    np.savetxt(
        path,
        matrix.matrix,
        delimiter=",",
        fmt="%.17g",
        header=f"kind={matrix.kind} n_qubits={matrix.n_qubits}",
    )


def read_confusion_csv(path) -> ConfusionMatrix:
    """Load a confusion matrix written by :func:`write_confusion_csv`."""
    with open(path) as handle:
        header = handle.readline().strip()
    fields = dict(
        item.split("=", 1) for item in header.lstrip("# ").split() if "=" in item
    )
    if "kind" not in fields or "n_qubits" not in fields:
        raise ValueError("confusion CSV is missing its kind/n_qubits header")
    values = np.loadtxt(path, delimiter=",", ndmin=2)
    return ConfusionMatrix(
        n_qubits=int(fields["n_qubits"]), kind=fields["kind"], matrix=values
    )
