"""Statevector engine, tUCCSD ansatz, sampling, noise, orbital-optimized VQE."""

import numpy as np
import pytest

from qlrlab.chem_io import ActiveSpace
from qlrlab.pauli_core import PauliSum
from qlrlab.sim_engine import (
    ConvergenceError,
    MeasurementCache,
    NoiseModel,
    Statevector,
    TUCCSDAnsatz,
    apply_exp_pauli,
    exact_expectation,
    oo_vqe,
    pauli_action,
    sample_clique,
    sampled_expectation,
)
from oracles import dense_pauli_string, dense_pauli_sum, fci


def _random_state(n_qubits, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << n_qubits) + 1j * rng.normal(size=1 << n_qubits)
    amps /= np.linalg.norm(amps)
    return Statevector(n_qubits, amps)


# -- Pauli action and exponentials -------------------------------------------


def test_pauli_action_basis_states():
    zero = np.array([1.0, 0.0], dtype=complex)
    assert np.allclose(pauli_action(zero, "Z"), zero)
    assert np.allclose(pauli_action(zero, "X"), [0.0, 1.0])
    assert np.allclose(pauli_action(zero, "Y"), [0.0, 1.0j])


def test_pauli_action_matches_dense(seed=21):
    rng = np.random.default_rng(seed)
    for _ in range(40):
        n = int(rng.integers(1, 6))
        string = "".join(rng.choice(list("IXYZ"), size=n))
        state = _random_state(n, int(rng.integers(1 << 30)))
        got = pauli_action(state.amplitudes, string)
        want = dense_pauli_string(string) @ state.amplitudes
        assert np.allclose(got, want, atol=1e-12)


def test_exp_pauli_preserves_norm(seed=22):
    rng = np.random.default_rng(seed)
    state = _random_state(4, seed)
    amps = state.amplitudes
    for _ in range(200):
        string = "".join(rng.choice(list("IXYZ"), size=4))
        amps = apply_exp_pauli(amps, string, float(rng.normal()))
    assert np.linalg.norm(amps) == pytest.approx(1.0, abs=1e-10)


def test_exp_pauli_matches_dense(seed=23):
    rng = np.random.default_rng(seed)
    state = _random_state(3, seed)
    angle = 0.37
    string = "XYZ"
    got = apply_exp_pauli(state.amplitudes, string, angle)
    mat = dense_pauli_string(string)
    want = (
        np.cos(angle) * np.eye(8) + 1j * np.sin(angle) * mat
    ) @ state.amplitudes
    assert np.allclose(got, want, atol=1e-12)


# -- exact expectation values -------------------------------------------------


def test_expectation_computational_basis():
    state = Statevector.from_bits(2, 0b00)
    assert exact_expectation(state, PauliSum(2, {"ZI": 1.0})) == pytest.approx(1.0)
    assert exact_expectation(state, PauliSum(2, {"IZ": 1.0})) == pytest.approx(1.0)


def test_expectation_plus_state():
    plus = Statevector(1, np.array([1.0, 1.0]) / np.sqrt(2))
    assert exact_expectation(plus, PauliSum(1, {"Z": 1.0})) == pytest.approx(0.0)
    assert exact_expectation(plus, PauliSum(1, {"X": 1.0})) == pytest.approx(1.0)


def test_expectation_matches_dense(seed=24):
    rng = np.random.default_rng(seed)
    for _ in range(10):
        n = int(rng.integers(1, 5))
        op = PauliSum(n)
        for _ in range(5):
            string = "".join(rng.choice(list("IXYZ"), size=n))
            op.add_term(string, complex(rng.normal(), rng.normal()))
        herm = op + op.dagger()
        state = _random_state(n, int(rng.integers(1 << 30)))
        want = np.vdot(state.amplitudes, dense_pauli_sum(herm) @ state.amplitudes)
        assert exact_expectation(state, herm) == pytest.approx(want.real, abs=1e-11)


def test_rotated_probabilities_axes():
    plus = Statevector(1, np.array([1.0, 1.0]) / np.sqrt(2))
    assert np.allclose(plus.rotated_probabilities("X"), [1.0, 0.0])
    assert np.allclose(plus.rotated_probabilities("Z"), [0.5, 0.5])
    assert plus.rotated_probabilities("I") is plus.rotated_probabilities("Z")


# -- ansatz -------------------------------------------------------------------


def test_ansatz_parameter_count():
    ansatz = TUCCSDAnsatz(2, 2)
    kinds = [exc.kind for exc in ansatz.excitations]
    assert kinds == ["single", "single", "double"]
    assert ansatz.n_parameters == 3


def test_ansatz_reference_state():
    for mapping in ("jw", "parity"):
        ansatz = TUCCSDAnsatz(2, 2, mapping)
        state = ansatz.prepare(np.zeros(ansatz.n_parameters))
        amps = np.zeros(16, dtype=complex)
        amps[ansatz.reference_bits] = 1.0
        assert np.allclose(state.amplitudes, amps)
    assert TUCCSDAnsatz(2, 2, "jw").reference_bits == 0b0011
    assert TUCCSDAnsatz(2, 2, "parity").reference_bits == 0b0001


def test_ansatz_preserves_norm(seed=25):
    rng = np.random.default_rng(seed)
    ansatz = TUCCSDAnsatz(2, 2)
    for _ in range(5):
        state = ansatz.prepare(rng.normal(size=ansatz.n_parameters))
        assert state.norm() == pytest.approx(1.0, abs=1e-12)


def test_ansatz_rejects_bad_electron_count():
    with pytest.raises(ValueError):
        TUCCSDAnsatz(2, 3)
    with pytest.raises(ValueError):
        TUCCSDAnsatz(2, 6)


def test_ground_state_overlap_with_exact_vector(h2_system, h2_space):
    """The optimized two-electron state coincides with the exact eigenvector."""
    result = oo_vqe(h2_system, h2_space, mapping="jw")
    energies, vectors, dets = fci(
        h2_system.h, h2_system.g, h2_system.e_core, h2_system.n_elec
    )
    exact = np.zeros(16, dtype=complex)
    for amp, det in zip(vectors[:, 0], dets):
        exact[det] = amp
    overlap = abs(np.vdot(exact, result.state.amplitudes))
    assert overlap >= 1.0 - 1e-9
    assert result.energy == pytest.approx(energies[0], abs=1e-9)


# -- noise model ---------------------------------------------------------------


def test_noise_validation():
    with pytest.raises(ValueError):
        NoiseModel(((0.0, 1.5),))
    with pytest.raises(ValueError):
        NoiseModel((), depolarizing=-0.1)


def test_noise_readout_flip():
    noise = NoiseModel(((0.1, 0.1),))
    assert np.allclose(noise.apply(np.array([1.0, 0.0])), [0.9, 0.1])
    assert np.allclose(noise.apply(np.array([0.0, 1.0])), [0.1, 0.9])


def test_noise_depolarizing_mix():
    noise = NoiseModel.uniform(1, depolarizing=0.2)
    assert np.allclose(noise.apply(np.array([1.0, 0.0])), [0.9, 0.1])


def test_noise_apply_copies_input():
    """The channel never writes into the caller's buffer."""
    noise = NoiseModel.uniform(2, readout=0.1, depolarizing=0.1)
    probs = np.array([1.0, 0.0, 0.0, 0.0])
    noise.apply(probs)
    assert np.array_equal(probs, [1.0, 0.0, 0.0, 0.0])


def test_noise_leaves_probability_cache_clean():
    """Repeated noisy sampling never contaminates the cached distributions."""
    state = Statevector(1, np.array([np.sqrt(0.7), np.sqrt(0.3)]))
    noise = NoiseModel.uniform(1, readout=0.2)
    rng = np.random.default_rng(0)
    before = state.rotated_probabilities("Z").copy()
    sample_clique(state, "Z", 100, noise, rng)
    sample_clique(state, "Z", 100, noise, rng)
    assert np.array_equal(state.rotated_probabilities("Z"), before)


# -- sampling ------------------------------------------------------------------


def test_sample_clique_deterministic_outcome():
    state = Statevector.from_bits(1, 0)
    counts = sample_clique(state, "Z", 500, None, np.random.default_rng(1))
    assert counts[0] == 500 and counts[1] == 0


def test_sample_clique_balanced_superposition():
    plus = Statevector(1, np.array([1.0, 1.0]) / np.sqrt(2))
    counts = sample_clique(plus, "Z", 100_000, None, np.random.default_rng(2))
    assert counts[1] / 100_000 == pytest.approx(0.5, abs=0.01)


def test_sample_clique_readout_bias():
    state = Statevector.from_bits(1, 0)
    noise = NoiseModel.uniform(1, readout=0.1)
    counts = sample_clique(state, "Z", 100_000, noise, np.random.default_rng(3))
    mean = (counts[0] - counts[1]) / 100_000
    assert mean == pytest.approx(0.8, abs=0.01)


def test_cache_reuses_samples():
    """Strings of one clique read a single draw."""
    state = _random_state(2, 31)
    cache = MeasurementCache(state, shots=1000, master_seed=7)
    op = PauliSum(2, {"ZI": 1.0, "IZ": 2.0, "ZZ": 4.0, "XX": 8.0})
    value, _ = sampled_expectation(state, op, cache)
    assert cache.cliques_sampled == 2
    zz, xx = cache.histograms
    signs = 1.0 - 2.0 * (np.bitwise_count(np.arange(4)[None, :] & [[1], [2], [3]]) % 2)
    want = np.array([1.0, 2.0, 4.0]) @ signs @ zz + 8.0 * (signs[2] @ xx)
    assert value == pytest.approx(want, abs=1e-12)


def test_cache_without_saving_samples_per_occurrence():
    state = _random_state(2, 32)
    unsaved = MeasurementCache(state, shots=2000, master_seed=7, pauli_saving=False)
    assert not np.array_equal(unsaved.draw(0, 0, "ZI"), unsaved.draw(1, 0, "ZI"))
    saved = MeasurementCache(state, shots=2000, master_seed=7)
    assert np.array_equal(saved.draw(0, 0, "ZI"), saved.draw(1, 0, "ZI"))


def test_cache_seeding_is_reproducible():
    state = _random_state(2, 33)
    kwargs = dict(shots=500, master_seed=11, run_id=4)
    first = MeasurementCache(state, **kwargs).draw(0, 0, "XY")
    second = MeasurementCache(state, **kwargs).draw(0, 0, "XY")
    other_run = MeasurementCache(state, shots=500, master_seed=11, run_id=5)
    assert np.array_equal(first, second)
    assert not np.array_equal(first, other_run.draw(0, 0, "XY"))


def test_cache_rejects_foreign_state():
    cache = MeasurementCache(_random_state(2, 34), shots=100)
    other = _random_state(2, 35)
    with pytest.raises(ValueError, match="different state"):
        sampled_expectation(other, PauliSum(2, {"ZI": 1.0}), cache)


def test_sampled_expectation_rejects_used_cache():
    state = _random_state(2, 38)
    cache = MeasurementCache(state, shots=100)
    op = PauliSum(2, {"ZI": 1.0})
    sampled_expectation(state, op, cache)
    with pytest.raises(ValueError, match="holds draws"):
        sampled_expectation(state, op, cache)


def test_cache_requires_positive_shots():
    with pytest.raises(ValueError, match="shots"):
        MeasurementCache(_random_state(1, 36), shots=0)


def test_sampled_expectation_identity_is_exact():
    state = _random_state(2, 37)
    cache = MeasurementCache(state, shots=10)
    op = PauliSum(2, {"II": 3.5})
    value, std = sampled_expectation(state, op, cache)
    assert value == 3.5 and std == 0.0
    assert cache.cliques_sampled == 0


def test_sampled_expectation_converges(h2_ground):
    """A large-shot estimate lands within five predicted deviations."""
    from qlrlab.chem_io import active_hamiltonian
    from qlrlab.pauli_core import map_to_paulis

    scalar, poly = active_hamiltonian(h2_ground.system, h2_ground.space)
    op = map_to_paulis(poly, 4, "parity")
    exact = exact_expectation(h2_ground.state, op) + scalar.real
    cache = MeasurementCache(h2_ground.state, shots=1_000_000, master_seed=3)
    value, std = sampled_expectation(h2_ground.state, op, cache)
    assert std > 0.0
    assert abs(value + scalar.real - exact) <= 5.0 * std


# -- orbital-optimized VQE -----------------------------------------------------


def test_oo_vqe_full_space_has_no_kappa(h2_ground):
    assert h2_ground.kappa.size == 0
    assert h2_ground.grad_norm <= 1e-7


def test_oo_vqe_cas_brackets_variational_limits(h6_system, h6_space, h6_ground):
    """CAS energy sits between the reference determinant and full CI."""
    from qlrlab.chem_io import active_hamiltonian
    from qlrlab.pauli_core import map_to_paulis

    ansatz = TUCCSDAnsatz(h6_space.n_active_orb, h6_space.n_active_elec)
    reference_state = ansatz.prepare(np.zeros(ansatz.n_parameters))
    scalar, poly = active_hamiltonian(h6_system, h6_space)
    op = map_to_paulis(poly, ansatz.n_qubits, "parity")
    reference_energy = scalar.real + exact_expectation(reference_state, op)
    energies, _, _ = fci(h6_system.h, h6_system.g, h6_system.e_core, 6)
    assert h6_ground.energy <= reference_energy + 1e-12
    assert h6_ground.energy >= energies[0] - 1e-12


def test_oo_vqe_rejects_bad_initial_shapes(h2_system, h2_space):
    with pytest.raises(ValueError, match="shapes"):
        oo_vqe(h2_system, h2_space, theta0=np.zeros(99))
