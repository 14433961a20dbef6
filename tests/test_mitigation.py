"""Confusion-matrix construction, inversion-based readout mitigation, CSV I/O."""

import numpy as np
import pytest

from qlrlab.mitigation import (
    CONDITION_LIMIT,
    KINDS,
    ConfusionMatrix,
    MitigationError,
    build_confusion,
    mitigate,
    read_confusion_csv,
    write_confusion_csv,
)
from qlrlab.sim_engine import MeasurementCache, NoiseModel, TUCCSDAnsatz


def _random_stochastic(n_qubits, seed):
    rng = np.random.default_rng(seed)
    dim = 1 << n_qubits
    mat = rng.random((dim, dim)) + 0.1
    return ConfusionMatrix(n_qubits, "readout", mat / mat.sum(axis=0))


# -- construction and validation -------------------------------------------------


def test_kinds_catalog():
    assert KINDS == ("readout", "ansatz_based")


def test_noiseless_build_is_identity():
    cm = build_confusion(2)
    assert cm.kind == "readout" and cm.dim == 4
    assert np.array_equal(cm.matrix, np.eye(4))
    assert cm.condition == pytest.approx(1.0)


def test_single_qubit_readout_channel():
    cm = build_confusion(1, noise=NoiseModel.uniform(1, readout=0.1))
    assert np.allclose(cm.matrix, [[0.9, 0.1], [0.1, 0.9]])


def test_columns_are_stochastic_for_any_channel():
    noise = NoiseModel(((0.02, 0.08), (0.1, 0.05)), depolarizing=0.15)
    cm = build_confusion(2, noise=noise)
    assert np.all(cm.matrix >= 0.0)
    assert cm.matrix.sum(axis=0) == pytest.approx(np.ones(4))


def test_ansatz_based_at_zero_angles_matches_readout():
    ansatz = TUCCSDAnsatz(1, 2)
    noise = NoiseModel.uniform(2, readout=0.07)
    plain = build_confusion(2, noise=noise)
    dressed = build_confusion(2, kind="ansatz_based", ansatz=ansatz, noise=noise)
    assert dressed.kind == "ansatz_based"
    assert np.array_equal(dressed.matrix, plain.matrix)
    plain = build_confusion(2, noise=noise, shots=500, rng=np.random.default_rng(9))
    dressed = build_confusion(
        2, "ansatz_based", ansatz, noise, shots=500, rng=np.random.default_rng(9)
    )
    assert np.array_equal(dressed.matrix, plain.matrix)


def test_sampled_build_is_stochastic_and_close():
    noise = NoiseModel.uniform(1, readout=0.1)
    exact = build_confusion(1, noise=noise)
    sampled = build_confusion(
        1, noise=noise, shots=40_000, rng=np.random.default_rng(5)
    )
    assert sampled.matrix.sum(axis=0) == pytest.approx(np.ones(2))
    sigma = np.sqrt(0.1 * 0.9 / 40_000)
    assert np.abs(sampled.matrix - exact.matrix).max() <= 4.0 * sigma


def test_sampled_build_default_rng_is_deterministic():
    noise = NoiseModel.uniform(1, readout=0.2)
    first = build_confusion(1, noise=noise, shots=1000)
    second = build_confusion(1, noise=noise, shots=1000)
    assert np.array_equal(first.matrix, second.matrix)


def test_build_validation_errors():
    with pytest.raises(ValueError, match="shots"):
        build_confusion(1, shots=0)
    with pytest.raises(ValueError, match="ansatz"):
        build_confusion(2, kind="ansatz_based")
    with pytest.raises(ValueError, match="ansatz"):
        build_confusion(4, kind="ansatz_based", ansatz=TUCCSDAnsatz(1, 2))


def test_matrix_validation_errors():
    with pytest.raises(ValueError, match="kind"):
        ConfusionMatrix(1, "diagonal", np.eye(2))
    with pytest.raises(ValueError, match="shape"):
        ConfusionMatrix(2, "readout", np.eye(2))
    with pytest.raises(ValueError):
        ConfusionMatrix(1, "readout", np.array([[1.1, 0.0], [-0.1, 1.0]]))
    with pytest.raises(ValueError, match="column"):
        ConfusionMatrix(1, "readout", np.array([[0.8, 0.0], [0.1, 1.0]]))


def test_matrix_is_immutable():
    cm = build_confusion(1)
    with pytest.raises(ValueError):
        cm.matrix[0, 0] = 0.0


# -- mitigation -------------------------------------------------------------------


def test_identity_matrix_passes_through():
    cm = build_confusion(2)
    p = np.array([0.4, 0.3, 0.2, 0.1])
    assert np.allclose(cm.apply(p), p)


def test_known_channel_round_trip():
    cm = build_confusion(1, noise=NoiseModel.uniform(1, readout=0.1))
    assert np.allclose(cm.apply(np.array([0.9, 0.1])), [1.0, 0.0], atol=1e-12)


def test_random_channel_round_trip_and_sum(seed=6):
    rng = np.random.default_rng(seed)
    cm = _random_stochastic(2, seed)
    p = rng.random(4)
    p /= p.sum()
    recovered = mitigate(cm, cm.matrix @ p)
    assert np.allclose(recovered, p, atol=1e-10)
    assert recovered.sum() == pytest.approx(1.0, abs=1e-12)


def test_mitigation_does_not_clip():
    cm = build_confusion(1, noise=NoiseModel.uniform(1, readout=0.1))
    out = cm.apply(np.array([1.0, 0.0]))
    assert out[1] < 0.0
    assert out.sum() == pytest.approx(1.0, abs=1e-12)


def test_mitigate_shape_check():
    cm = build_confusion(1)
    with pytest.raises(ValueError):
        mitigate(cm, np.array([0.5, 0.25, 0.25]))


def test_singular_matrix_raises():
    mat = np.full((2, 2), 0.5)
    cm = ConfusionMatrix(1, "readout", mat)
    assert cm.condition >= CONDITION_LIMIT
    with pytest.raises(MitigationError):
        cm.apply(np.array([0.5, 0.5]))


def test_cache_applies_mitigator():
    """A cache with the exact inverse channel cancels the injected noise."""
    from qlrlab.pauli_core import PauliSum
    from qlrlab.sim_engine import Statevector, sampled_expectation

    state = Statevector(1, np.array([np.sqrt(0.8), np.sqrt(0.2)]))
    noise = NoiseModel.uniform(1, readout=0.1)
    cm = build_confusion(1, noise=noise)
    kwargs = dict(shots=50_000, master_seed=8, noise=noise)
    op = PauliSum(1, {"Z": 1.0})
    raw, _ = sampled_expectation(state, op, MeasurementCache(state, **kwargs))
    fixed, _ = sampled_expectation(state, op, MeasurementCache(state, mitigator=cm, **kwargs))
    assert abs(raw - 0.6 * 0.8) < 0.02
    assert abs(fixed - 0.6) < 0.02


# -- CSV persistence -----------------------------------------------------------------


def test_csv_round_trip_is_exact(tmp_path, seed=9):
    cm = _random_stochastic(2, seed)
    path = tmp_path / "confusion.csv"
    write_confusion_csv(cm, path)
    back = read_confusion_csv(path)
    assert back.kind == cm.kind and back.n_qubits == cm.n_qubits
    assert np.array_equal(back.matrix, cm.matrix)


def test_csv_single_qubit_round_trip(tmp_path):
    cm = build_confusion(1, noise=NoiseModel.uniform(1, readout=0.05))
    path = tmp_path / "tiny.csv"
    write_confusion_csv(cm, path)
    assert np.array_equal(read_confusion_csv(path).matrix, cm.matrix)


def test_csv_rejects_garbage(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0.5,0.5\n0.5,0.5\n")
    with pytest.raises(ValueError):
        read_confusion_csv(path)
