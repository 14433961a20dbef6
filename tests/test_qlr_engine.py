"""Response matrices, eigenproblem, oscillator strengths, measurement counting."""

import dataclasses
import hashlib
import logging

import numpy as np
import pytest

from qlrlab.chem_io import build_hamiltonian_poly, rotate_integrals
from qlrlab.qlr_engine import (
    EV_PER_HARTREE,
    PARAMETRIZATIONS,
    MeasurementCache,
    QLRProblem,
    QLRSolution,
    ResponseBuilder,
    build_operator_basis,
    solve,
    spectrum,
)
from qlrlab.mitigation import build_confusion
from qlrlab.sim_engine import NoiseModel, Statevector, oo_vqe
from oracles import (
    ReferenceCache,
    dense_fermion,
    fci,
    reference_exact,
    reference_moments,
    reference_sampled,
    reference_strengths,
    singlet_energies,
)


@pytest.fixture(scope="module")
def h2_builders(h2_ground):
    return {
        par: ResponseBuilder(h2_ground, par) for par in PARAMETRIZATIONS
    }


@pytest.fixture(scope="module")
def h2_problems(h2_builders):
    return {par: b.evaluate_exact() for par, b in h2_builders.items()}


@pytest.fixture(scope="module")
def h6_builders(h6_ground):
    return {
        par: ResponseBuilder(h6_ground, par) for par in PARAMETRIZATIONS
    }


@pytest.fixture(scope="module")
def h6_builder(h6_builders):
    return h6_builders["naive"]


@pytest.fixture(scope="module")
def h6_problem(h6_builder):
    return h6_builder.evaluate_exact(with_delta=False)


def _toy_problem(a, b, sigma):
    a = np.atleast_2d(np.asarray(a, dtype=float))
    zeros = np.zeros_like(a)
    return QLRProblem(
        parametrization="naive",
        labels=[f"op{i}" for i in range(a.shape[0])],
        a=a,
        b=np.atleast_2d(np.asarray(b, dtype=float)),
        sigma=np.atleast_2d(np.asarray(sigma, dtype=float)),
        a_std=zeros,
        b_std=zeros,
        sigma_std=zeros,
        a_std_nc=zeros,
        b_std_nc=zeros,
        sigma_std_nc=zeros,
        delta=None,
        mode="exact",
        shots=None,
        pauli_saving=None,
        n_qubits=2,
    )


# -- operator basis ------------------------------------------------------------


def test_basis_full_space_has_no_rotations(h2_space):
    basis = build_operator_basis(h2_space, "naive")
    assert [op.label for op in basis] == ["s(1<-0)", "d+(11<-00)"]
    assert all(op.kind == "excitation" for op in basis)
    assert not any(op.projected or op.subtract_mean for op in basis)


def test_basis_projection_flags(h6_space):
    naive = build_operator_basis(h6_space, "naive")
    proj = build_operator_basis(h6_space, "proj")
    allproj = build_operator_basis(h6_space, "allproj")
    assert len(naive) == 14
    assert sum(op.kind == "rotation" for op in naive) == 12
    assert [op.label for op in naive] == [op.label for op in proj]
    for ops, rot_projected in ((proj, False), (allproj, True)):
        for op in ops:
            if op.kind == "rotation":
                assert op.projected is rot_projected
                assert op.subtract_mean is False
            else:
                assert op.projected and op.subtract_mean


def test_basis_rejects_unknown_parametrization(h2_space):
    with pytest.raises(ValueError, match="parametrization"):
        build_operator_basis(h2_space, "bare")


# -- generalized eigenproblem ----------------------------------------------------


def test_solve_single_mode():
    solution = solve(_toy_problem([[2.0]], [[0.0]], [[1.0]]))
    assert solution.omega == pytest.approx([2.0])
    assert solution.valid and solution.norms_ok.all()


def test_solve_two_modes():
    solution = solve(
        _toy_problem([[2.0, 1.0], [1.0, 2.0]], np.zeros((2, 2)), np.eye(2))
    )
    assert solution.omega == pytest.approx([1.0, 3.0])
    assert solution.omega_ev == pytest.approx(solution.omega * EV_PER_HARTREE)


def test_solve_flags_negative_hessian(h2_problems):
    flipped = dataclasses.replace(h2_problems["naive"], a=-h2_problems["naive"].a)
    assert solve(flipped).valid is False
    assert solve(h2_problems["naive"]).valid is True


def test_metric_normalization(h2_problems):
    problem = h2_problems["naive"]
    solution = solve(problem)
    n = problem.size
    s2 = np.block(
        [
            [problem.sigma, np.zeros((n, n))],
            [np.zeros((n, n)), -problem.sigma],
        ]
    )
    for k in range(solution.n_states):
        beta = solution.vectors[:, k]
        assert beta @ s2 @ beta == pytest.approx(1.0, abs=1e-8)


# -- exact matrices ---------------------------------------------------------------


def test_exact_symmetries_h2(h2_problems):
    for problem in h2_problems.values():
        assert np.abs(problem.a - problem.a.T).max() <= 1e-10
        assert np.abs(problem.b - problem.b.T).max() <= 1e-10
        assert np.abs(problem.delta).max() <= 1e-10


def test_exact_symmetries_h6(h6_problem):
    assert np.abs(h6_problem.a - h6_problem.a.T).max() <= 1e-10
    assert np.abs(h6_problem.b - h6_problem.b.T).max() <= 1e-10


def test_proj_equals_allproj_in_full_space(h2_problems):
    proj, allproj = h2_problems["proj"], h2_problems["allproj"]
    assert np.abs(proj.a - allproj.a).max() <= 1e-10
    assert np.abs(proj.b - allproj.b).max() <= 1e-10
    assert np.abs(proj.sigma - allproj.sigma).max() <= 1e-10


def test_projected_b_vanishes_in_full_space(h2_problems):
    assert np.abs(h2_problems["proj"].b).max() <= 1e-12
    assert np.abs(h2_problems["allproj"].b).max() <= 1e-12


def test_naive_frequencies_match_exact_gaps(h2_system, h2_problems):
    omega = solve(h2_problems["naive"]).omega
    singlets = singlet_energies(
        h2_system.h, h2_system.g, h2_system.e_core, h2_system.n_elec
    )
    assert omega == pytest.approx(singlets[1:] - singlets[0], abs=1e-8)
    assert omega == pytest.approx([0.9679842, 1.61841402], abs=1e-7)


def test_h6_naive_low_frequencies(h6_problem):
    omega = solve(h6_problem).omega
    expected = [0.42569107, 0.52406986, 0.61878135, 0.70660302, 0.8456404, 0.98401323]
    assert omega[:6] == pytest.approx(expected, abs=1e-7)


def test_matrices_match_dense_commutator_algebra(h2_system, h2_ground, h2_builders):
    """Every exact matrix element equals its dense-matrix definition."""
    energies, vectors, dets = fci(
        h2_system.h, h2_system.g, h2_system.e_core, h2_system.n_elec
    )
    ground = np.zeros(16, dtype=complex)
    for amp, det in zip(vectors[:, 0], dets):
        ground[det] = amp
    ham = dense_fermion(build_hamiltonian_poly(h2_system), 4)
    ham += h2_system.e_core * np.eye(16)
    projector = np.outer(ground, ground.conj())
    for par in PARAMETRIZATIONS:
        problem = h2_builders[par].evaluate_exact()
        ops = []
        for op in h2_builders[par].basis:
            dense = dense_fermion(op.poly, 4)
            mean = (ground.conj() @ dense @ ground) if op.subtract_mean else 0.0
            if op.projected:
                dense = dense @ projector
            ops.append(dense - mean * np.eye(16))
        for i, x_i in enumerate(ops):
            for j, x_j in enumerate(ops):
                xid = x_i.conj().T

                def expval(mat):
                    return (ground.conj() @ mat @ ground).real

                a_ij = expval(xid @ (ham @ x_j - x_j @ ham))
                a_ij -= expval((ham @ x_j - x_j @ ham) @ xid)
                b_ij = expval(xid @ (ham @ x_j.conj().T - x_j.conj().T @ ham))
                b_ij -= expval((ham @ x_j.conj().T - x_j.conj().T @ ham) @ xid)
                s_ij = expval(xid @ x_j - x_j @ xid)
                d_ij = expval(xid @ x_j.conj().T - x_j.conj().T @ xid)
                assert problem.a[i, j] == pytest.approx(a_ij, abs=1e-7)
                assert problem.b[i, j] == pytest.approx(b_ij, abs=1e-7)
                assert problem.sigma[i, j] == pytest.approx(s_ij, abs=1e-7)
                assert problem.delta[i, j] == pytest.approx(d_ij, abs=1e-7)


def test_frequencies_invariant_under_orbital_rotation(h2_system, h2_space, h2_problems):
    rng = np.random.default_rng(41)
    raw = 0.2 * rng.normal(size=(2, 2))
    rotated = rotate_integrals(h2_system, raw - raw.T)
    ground = oo_vqe(rotated, h2_space)
    omega = solve(ResponseBuilder(ground, "naive").evaluate_exact()).omega
    assert omega == pytest.approx(solve(h2_problems["naive"]).omega, abs=1e-8)


# -- oscillator strengths and spectra ----------------------------------------------


def test_oscillator_strengths_match_exact_moments(h2_system, h2_builders):
    builder = h2_builders["naive"]
    solution = solve(builder.evaluate_exact())
    f = builder.oscillator_strengths(solution)
    assert f == pytest.approx([0.86813904, 0.0], abs=1e-6)
    energies, vectors, dets = fci(
        h2_system.h, h2_system.g, h2_system.e_core, h2_system.n_elec
    )
    from qlrlab.chem_io import dipole_poly
    from oracles import s_squared_matrix

    s2 = s_squared_matrix(2, dets)
    singlets = [
        k
        for k in range(len(energies))
        if abs(vectors[:, k] @ s2 @ vectors[:, k]) < 1e-6
    ]
    expected = np.zeros(2)
    for out_idx, k in enumerate(singlets[1:]):
        strength = 0.0
        for axis in "xyz":
            mu = dense_fermion(dipole_poly(h2_system, axis), 4)
            mu_sector = np.zeros((len(dets), len(dets)), dtype=complex)
            for col, det_c in enumerate(dets):
                for row, det_r in enumerate(dets):
                    mu_sector[row, col] = mu[det_r, det_c]
            moment = vectors[:, k].conj() @ mu_sector @ vectors[:, singlets[0]]
            strength += abs(moment) ** 2
        expected[out_idx] = (
            (2.0 / 3.0) * (energies[k] - energies[singlets[0]]) * strength
        )
    assert f == pytest.approx(expected, abs=1e-8)
    assert solution.f is f


def test_zero_dipole_gives_zero_strengths(h2_ground):
    silent = dataclasses.replace(
        h2_ground,
        system=dataclasses.replace(
            h2_ground.system, dipole={a: np.zeros((2, 2)) for a in "xyz"}
        ),
    )
    builder = ResponseBuilder(silent, "naive")
    solution = solve(builder.evaluate_exact())
    assert builder.oscillator_strengths(solution) == pytest.approx([0.0, 0.0])


def test_missing_dipole_is_an_error(h2_ground):
    bare = dataclasses.replace(
        h2_ground, system=dataclasses.replace(h2_ground.system, dipole={})
    )
    builder = ResponseBuilder(bare, "naive")
    solution = solve(builder.evaluate_exact())
    with pytest.raises(ValueError, match="dipole"):
        builder.oscillator_strengths(solution)


def _fake_solution(omega, f):
    omega = np.asarray(omega, dtype=float)
    return QLRSolution(
        problem=None,
        omega=omega,
        vectors=np.zeros((2 * omega.size, omega.size)),
        norms_ok=np.ones(omega.size, dtype=bool),
        hessian_eigs=np.ones(omega.size),
        valid=True,
        f=None if f is None else np.asarray(f, dtype=float),
    )


def test_spectrum_peak_height_and_location():
    solution = _fake_solution([0.3], [0.7])
    peak_ev = 0.3 * EV_PER_HARTREE
    grid = np.linspace(peak_ev - 3.0, peak_ev + 3.0, 7)
    _, intensity = spectrum(solution, fwhm_ev=0.5, grid_ev=grid)
    assert intensity[3] == pytest.approx(0.7)
    assert intensity[3] == intensity.max()


def test_spectrum_resolves_separated_states():
    solution = _fake_solution([0.2, 0.5], [1.0, 1.0])
    grid, intensity = spectrum(solution, fwhm_ev=0.5, points=4000)
    assert np.all(np.diff(grid) > 0)
    interior = (intensity[1:-1] > intensity[:-2]) & (intensity[1:-1] > intensity[2:])
    peaks = grid[1:-1][interior]
    assert len(peaks) == 2
    assert peaks == pytest.approx(np.array([0.2, 0.5]) * EV_PER_HARTREE, abs=0.02)


def test_spectrum_zero_strength_is_flat():
    _, intensity = spectrum(_fake_solution([0.3], [0.0]))
    assert intensity.max() == 0.0


def test_spectrum_error_paths():
    with pytest.raises(ValueError, match="not been computed"):
        spectrum(_fake_solution([0.3], None))
    with pytest.raises(ValueError, match="no valid states"):
        spectrum(_fake_solution([0.3], [np.nan]))


# -- measurement counting -----------------------------------------------------------


def test_count_measurements_h2(h2_builders):
    for par in PARAMETRIZATIONS:
        counts = h2_builders[par].count_measurements()
        assert counts["ps_qwc"] <= counts["qwc"] <= counts["none"]
        assert counts["ps_qwc"] <= 0.25 * counts["none"]
    assert h2_builders["naive"].count_measurements()["ps_qwc"] == 9


# Frozen plan digests: (sha256 of every measurement unit's key and measured
# string sequence in plan order, number of coefficients, projections of the
# coefficient vector).  They pin the first-fit clique order and the sampled
# streams against a reordered or re-valued compile.
_PLAN_DIGESTS = {
    ("h2", "naive"): (
        "ddc528c39c7e2ae8d5d9aa4bc3879305e34f02c020705e362ec4eb5c8dd09cfb",
        105,
        (-0.022480724281225162, -1.7273816422231771, 0.6216176736003525),
    ),
    ("h2", "proj"): (
        "aa342d96282e4032d3fe7e54eb1af80d8ea272322d0ad2a5e3869312e68745fe",
        278,
        (-0.42805747237489333, -1.0374594543246367, 0.979892756432639),
    ),
    ("h2", "allproj"): (
        "aa342d96282e4032d3fe7e54eb1af80d8ea272322d0ad2a5e3869312e68745fe",
        278,
        (-0.42805747237489333, -1.0374594543246367, 0.979892756432639),
    ),
    ("h6", "naive"): (
        "8b8701172ea6e3c5a6406e21c6eaed627cc0ca570b130ae4704c156ae12496b4",
        2089,
        (11.558806139080883, -2.0291921755107976, 5.990403752110914),
    ),
    ("h6", "proj"): (
        "0f4438cc9d6a6d541e065ded60853f5099fc64a11435f6fed643d9c244745b06",
        2194,
        (10.07583172900064, -9.276334285584138, 3.9039184995654903),
    ),
    ("h6", "allproj"): (
        "db6056b5446c644362a812228a35767a2a877f8150d57d80dad11ceafaf203da",
        1792,
        (-32.39573247250243, -22.454790824145974, -29.506988007022642),
    ),
}


def _plan_digest(builder):
    """Digest the compiled units in plan order.

    Coefficients (identity part first, then the measured strings) enter
    through a plain sum and two fixed random projections, compared with a
    tolerance, so last-bit rounding differences cannot flip the digest.
    """
    registry = builder._registry
    seen = set()
    lines = []
    coeffs = []
    for plan in builder._plans.values():
        for key in plan.unit_keys():
            if key in seen:
                continue
            seen.add(key)
            measured = registry.measured(key)
            lines.append(repr(key) + ":" + ",".join(s for s, _ in measured))
            coeffs.append(registry.identity_real(key))
            coeffs.extend(c for _, c in measured)
    c = np.array(coeffs)
    weights = np.random.default_rng(0).standard_normal((2, c.size))
    sha = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return sha, c.size, (c.sum(), *(weights @ c))


@pytest.mark.parametrize("par", PARAMETRIZATIONS)
def test_compiled_plans_match_frozen_digest(par, h2_ground, h6_ground):
    # Fresh builders: shared ones gain lazily compiled plans in other tests.
    for name, ground in (("h2", h2_ground), ("h6", h6_ground)):
        sha, size, projections = _plan_digest(ResponseBuilder(ground, par))
        want_sha, want_size, want_projections = _PLAN_DIGESTS[(name, par)]
        assert (sha, size) == (want_sha, want_size), name
        assert np.allclose(projections, want_projections, rtol=0.0, atol=1e-9), name


def test_compile_stats(h2_ground, caplog):
    builder = ResponseBuilder(h2_ground, "naive")
    stats = builder.compile_stats
    n = len(builder.basis)
    assert stats["plans"] == 3 * n * (n + 1) // 2
    assert stats["atoms"] >= 1
    assert stats["reduced_words"] >= stats["atoms"]
    assert stats["fermion_terms"] > 0
    registry = builder._registry
    strings = {s for key in registry._measured for s, _ in registry.measured(key)}
    assert stats["measured_strings"] == len(strings)
    assert all(type(v) is int for v in stats.values())
    with caplog.at_level(logging.DEBUG, logger="qlrlab.qlr_engine"):
        again = ResponseBuilder(h2_ground, "naive")
    assert again.compile_stats == stats
    record = [r.getMessage() for r in caplog.records if "compiled" in r.getMessage()]
    assert record and all(f"{k}={v}" in record[-1] for k, v in stats.items())


# -- sampled evaluation ----------------------------------------------------------------


def test_sampled_matrices_are_deterministic(h2_builders):
    builder = h2_builders["naive"]
    first = builder.evaluate_sampled(2000, master_seed=5, run_id=1)
    second = builder.evaluate_sampled(2000, master_seed=5, run_id=1)
    other = builder.evaluate_sampled(2000, master_seed=5, run_id=2)
    assert np.array_equal(first.a, second.a)
    assert np.array_equal(first.sigma, second.sigma)
    assert not np.array_equal(first.a, other.a)


def test_sampled_saving_gives_symmetric_matrices(h6_builder):
    problem = h6_builder.evaluate_sampled(500, master_seed=9)
    assert np.array_equal(problem.a, problem.a.T)
    assert np.array_equal(problem.sigma, problem.sigma.T)
    assert problem.pauli_saving is True
    assert problem.cliques_sampled == 9


def test_sampled_without_saving_resamples(h6_builder):
    problem = h6_builder.evaluate_sampled(500, master_seed=9, pauli_saving=False)
    assert np.array_equal(problem.a, problem.a.T)
    assert not np.array_equal(problem.sigma, problem.sigma.T)
    assert problem.cliques_sampled > 9


def test_sampled_accepts_external_cache(h2_ground, h2_builders):
    builder = h2_builders["naive"]
    cache = MeasurementCache(h2_ground.state, shots=3000, master_seed=12)
    problem = builder.evaluate_sampled(0, cache=cache)
    assert problem.shots == 3000
    direct = builder.evaluate_sampled(3000, master_seed=12)
    assert np.array_equal(problem.a, direct.a)


def test_sampled_converges_to_exact(h2_builders):
    builder = h2_builders["naive"]
    exact = builder.evaluate_exact()
    sampled = builder.evaluate_sampled(200_000, master_seed=3)
    scale = np.maximum(sampled.a_std, 1e-12)
    assert np.all(np.abs(sampled.a - exact.a) <= 6.0 * scale + 1e-9)


def test_sampled_rejects_cache_of_another_state(h2_ground, h2_builders):
    other = Statevector(h2_ground.state.n_qubits, h2_ground.state.amplitudes[::-1])
    cache = MeasurementCache(other, shots=100)
    with pytest.raises(ValueError, match="different state"):
        h2_builders["naive"].evaluate_sampled(0, cache=cache)


def test_sampled_rejects_used_cache(h2_ground, h2_builders):
    cache = MeasurementCache(h2_ground.state, shots=100)
    h2_builders["naive"].evaluate_sampled(0, cache=cache)
    with pytest.raises(ValueError, match="holds draws"):
        h2_builders["naive"].evaluate_sampled(0, cache=cache)


def test_moments_need_a_cache_this_builder_filled(h2_ground, h2_builders):
    naive, proj = h2_builders["naive"], h2_builders["proj"]
    fresh = MeasurementCache(h2_ground.state, shots=100)
    with pytest.raises(ValueError, match="not filled by this builder"):
        naive.transition_moments(fresh)
    other = MeasurementCache(h2_ground.state, shots=100)
    proj.evaluate_sampled(0, cache=other)
    with pytest.raises(ValueError, match="not filled by this builder"):
        naive.transition_moments(other)
    unsaved = MeasurementCache(h2_ground.state, shots=100, pauli_saving=False)
    with pytest.raises(ValueError, match="not filled by this builder"):
        naive.transition_moments(unsaved)


def test_replay_layout_is_logged_once(h2_ground, caplog):
    builder = ResponseBuilder(h2_ground, "proj")
    with caplog.at_level(logging.DEBUG, logger="qlrlab.qlr_engine"):
        problem = builder.evaluate_sampled(100, run_id=0)
        builder.evaluate_sampled(100, run_id=1)
    records = [r.getMessage() for r in caplog.records]
    records = [message for message in records if "replay layout" in message]
    assert len(records) == 1
    assert "pauli_saving=True" in records[0]
    assert f"{problem.cliques_sampled} draws" in records[0]
    assert f"{3 * 3} elements" in records[0]  # three tags, upper triangle of 2 x 2
    assert "readings" in records[0] and "units" in records[0]


# -- replay layout against the string-by-string reference ---------------------------
#
# tests/oracles.py keeps the evaluator that walked every plan string by
# string over a cache that drew each clique at its first lookup.  The
# replay layouts must reproduce it: the same draws (equal cliques_sampled,
# matrices within 1e-12), and transition moments that continue the same
# covers and numbering and draw only the cliques the moments add.

REPLAY_TOL = 1e-12


def _assert_mats_close(mats, problem):
    for tag, (value, std, std_nc) in mats.items():
        got = {
            "A": (problem.a, problem.a_std, problem.a_std_nc),
            "B": (problem.b, problem.b_std, problem.b_std_nc),
            "S": (problem.sigma, problem.sigma_std, problem.sigma_std_nc),
        }[tag]
        for want, have in zip((value, std, std_nc), got):
            np.testing.assert_allclose(have, want, rtol=0.0, atol=REPLAY_TOL)


@pytest.mark.parametrize("system", ["h2", "h6"])
@pytest.mark.parametrize("par", PARAMETRIZATIONS)
def test_replay_matches_string_by_string_reference(
    system, par, h2_builders, h6_builders
):
    builder = (h2_builders if system == "h2" else h6_builders)[par]
    state = builder.ground.state
    noise = NoiseModel.uniform(state.n_qubits, readout=0.02)
    readout = build_confusion(state.n_qubits, "readout", noise=noise)
    for saving in (True, False):
        for noisy in (False, True):
            for run_id in (0, 1, 7):
                kwargs = dict(
                    shots=1000,
                    master_seed=3,
                    run_id=run_id,
                    pauli_saving=saving,
                    noise=noise if noisy else None,
                    mitigator=readout if noisy else None,
                )
                cache = MeasurementCache(state, **kwargs)
                problem = builder.evaluate_sampled(0, cache=cache)
                reference = ReferenceCache(MeasurementCache(state, **kwargs))
                _assert_mats_close(reference_sampled(builder, reference), problem)
                assert problem.cliques_sampled == reference.cliques_sampled
                v, w = builder.transition_moments(cache)
                v_ref, w_ref = reference_moments(builder, reference)
                np.testing.assert_allclose(v, v_ref, rtol=0.0, atol=REPLAY_TOL)
                np.testing.assert_allclose(w, w_ref, rtol=0.0, atol=REPLAY_TOL)
                assert cache.cliques_sampled == reference.cliques_sampled
                solution = solve(problem)
                f = builder.oscillator_strengths(solution, cache)
                f_reference = reference_strengths(solution, v_ref, w_ref)
                np.testing.assert_allclose(f, f_reference, rtol=0.0, atol=REPLAY_TOL)
                assert cache.cliques_sampled == reference.cliques_sampled


@pytest.mark.parametrize("system", ["h2", "h6"])
@pytest.mark.parametrize("par", PARAMETRIZATIONS)
def test_exact_replay_matches_reference(system, par, h2_builders, h6_builders):
    builder = (h2_builders if system == "h2" else h6_builders)[par]
    mats, delta = reference_exact(builder)
    problem = builder.evaluate_exact()
    _assert_mats_close(mats, problem)
    np.testing.assert_allclose(problem.delta, delta, rtol=0.0, atol=REPLAY_TOL)
