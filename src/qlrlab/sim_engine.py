"""Statevector simulation, shot sampling with Pauli saving, and oo-VQE.

Conventions follow pauli_core: character ``i`` of a Pauli string acts on
qubit ``i``, and qubit 0 is the least significant bit of a basis-state
index. All sampling is driven by ``numpy.random.SeedSequence`` spawn keys
(see ``MeasurementCache``), so campaigns are reproducible and
embarrassingly parallel.

Measured values only ever use the real part of Pauli coefficients; strings
whose coefficient has no real part carry no signal for real-valued targets
and are neither measured nor counted.
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.optimize

from .chem_io import (
    ActiveSpace,
    MolecularSystem,
    kappa_matrix,
    kappa_pairs,
    reduce_to_active,
    rotate_integrals,
)
from .pauli_core import (
    Clique,
    FermionPolynomial,
    PauliSum,
    cover_first_fit,
    map_to_paulis,
    parity_transform_bits,
)

logger = logging.getLogger(__name__)

REAL_COEFF_TOL = 1e-12


class ConvergenceError(RuntimeError):
    """Raised when an iterative optimization fails to reach its tolerance."""


# ---------------------------------------------------------------------------
# Statevector primitives
# ---------------------------------------------------------------------------


def _parity(values: np.ndarray) -> np.ndarray:
    """Bit parity of each entry of an integer array."""
    v = values.copy()
    for shift in (32, 16, 8, 4, 2, 1):
        v ^= v >> shift
    return v & 1


def pauli_action(amplitudes: np.ndarray, string: str) -> np.ndarray:
    """Apply a Pauli string (unit coefficient) to an amplitude vector."""
    n = len(string)
    if len(amplitudes) != 1 << n:
        raise ValueError("state and Pauli string sizes differ")
    xmask = 0
    signmask = 0
    n_y = 0
    for qubit, char in enumerate(string):
        if char in "XY":
            xmask |= 1 << qubit
        if char in "YZ":
            signmask |= 1 << qubit
        if char == "Y":
            n_y += 1
    idx = np.arange(len(amplitudes))
    phases = (1j**n_y) * (1 - 2 * _parity(idx & signmask))
    out = np.empty_like(amplitudes)
    out[idx ^ xmask] = phases * amplitudes
    return out


def apply_exp_pauli(amplitudes: np.ndarray, string: str, angle: float) -> np.ndarray:
    """Apply exp(i * angle * P) for a Pauli string P."""
    return np.cos(angle) * amplitudes + 1j * np.sin(angle) * pauli_action(
        amplitudes, string
    )


_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
# Rotates Y eigenstates onto the computational basis: H then S-dagger.
_Y_BASIS = _HADAMARD @ np.diag([1.0, -1.0j])


def _apply_gate(amplitudes: np.ndarray, qubit: int, matrix: np.ndarray) -> np.ndarray:
    view = amplitudes.reshape(-1, 2, 1 << qubit)
    return np.einsum("ab,ibj->iaj", matrix, view).reshape(-1)


class Statevector:
    """Dense state over ``n_qubits`` qubits; amplitudes indexed by bitstring."""

    __slots__ = ("n_qubits", "amplitudes", "_fingerprint", "_probs_cache")

    def __init__(self, n_qubits: int, amplitudes: np.ndarray):
        if len(amplitudes) != 1 << n_qubits:
            raise ValueError("amplitude count does not match qubit count")
        self.n_qubits = n_qubits
        self.amplitudes = np.asarray(amplitudes, dtype=complex)
        self._fingerprint: str | None = None
        self._probs_cache: dict[str, np.ndarray] = {}

    @classmethod
    def from_bits(cls, n_qubits: int, bits: int) -> "Statevector":
        amps = np.zeros(1 << n_qubits, dtype=complex)
        amps[bits] = 1.0
        return cls(n_qubits, amps)

    def copy(self) -> "Statevector":
        return Statevector(self.n_qubits, self.amplitudes.copy())

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def fingerprint(self) -> str:
        """Digest of the amplitudes, used to bind measurement caches."""
        if self._fingerprint is None:
            self._fingerprint = hashlib.sha256(
                np.ascontiguousarray(self.amplitudes).tobytes()
            ).hexdigest()
        return self._fingerprint

    def expectation(self, op: PauliSum) -> complex:
        """Exact ⟨ψ|op|ψ⟩ including any identity contribution."""
        if op.n_qubits != self.n_qubits:
            raise ValueError("operator and state sizes differ")
        total = 0.0 + 0.0j
        for string, coeff in op:
            if set(string) == {"I"}:
                total += coeff
            else:
                total += coeff * np.vdot(
                    self.amplitudes, pauli_action(self.amplitudes, string)
                )
        return complex(total)

    def rotated_probabilities(self, axes: str) -> np.ndarray:
        """Born probabilities after rotating each qubit to its measurement axis.

        ``axes`` assigns one of IXYZ per qubit; I and Z both mean a plain
        computational-basis measurement, so results are cached under the
        Z-normalized key.
        """
        if len(axes) != self.n_qubits:
            raise ValueError("axes length does not match qubit count")
        key = axes.replace("I", "Z")
        cached = self._probs_cache.get(key)
        if cached is not None:
            return cached
        amps = self.amplitudes
        for qubit, axis in enumerate(key):
            if axis == "X":
                amps = _apply_gate(amps, qubit, _HADAMARD)
            elif axis == "Y":
                amps = _apply_gate(amps, qubit, _Y_BASIS)
        probs = np.abs(amps) ** 2
        self._probs_cache[key] = probs
        return probs


def exact_expectation(state: Statevector, op: PauliSum) -> float:
    """Real part of ⟨ψ|op|ψ⟩; logs if an imaginary residue exceeds 1e-8."""
    value = state.expectation(op)
    if abs(value.imag) > 1e-8:
        logger.warning("expectation has imaginary residue %.3e", value.imag)
    return value.real


# ---------------------------------------------------------------------------
# tUCCSD ansatz
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Excitation:
    """One fermionic excitation and its mapped Pauli exponential factors."""

    kind: str
    modes: tuple[int, ...]
    generator: FermionPolynomial
    factors: tuple[tuple[str, float], ...]


def _spin(mode: int) -> int:
    return mode & 1


class TUCCSDAnsatz:
    """Trotterized unitary coupled cluster, one parameter per excitation.

    Singles and doubles run over spin orbitals of the active register with
    the doubles constrained to mode pairs i<j and a<b; only Sz-conserving
    excitations are kept. Each generator maps to pairwise-commuting Pauli
    strings applied as exponentials in lexicographic string order.
    """

    def __init__(self, n_orb: int, n_elec: int, mapping: str = "parity"):
        if n_elec % 2 or not 0 < n_elec <= 2 * n_orb:
            raise ValueError("invalid electron count for the register")
        self.n_orb = n_orb
        self.n_elec = n_elec
        self.mapping = mapping
        self.n_qubits = 2 * n_orb
        occupied = range(n_elec)
        virtual = range(n_elec, self.n_qubits)
        self.excitations: list[Excitation] = []
        for i in occupied:
            for a in virtual:
                if _spin(i) == _spin(a):
                    gen = FermionPolynomial()
                    gen.add_term(((a, True), (i, False)), 1.0)
                    gen.add_term(((i, True), (a, False)), -1.0)
                    self._add("single", (i, a), gen)
        for i in occupied:
            for j in occupied:
                if j <= i:
                    continue
                for a in virtual:
                    for b in virtual:
                        if b <= a:
                            continue
                        if _spin(i) + _spin(j) != _spin(a) + _spin(b):
                            continue
                        gen = FermionPolynomial()
                        gen.add_term(
                            ((a, True), (b, True), (j, False), (i, False)), 1.0
                        )
                        gen.add_term(
                            ((i, True), (j, True), (b, False), (a, False)), -1.0
                        )
                        self._add("double", (i, j, a, b), gen)
        occupations = [1 if m < n_elec else 0 for m in range(self.n_qubits)]
        if mapping == "parity":
            occupations = parity_transform_bits(occupations)
        self.reference_bits = sum(1 << m for m, b in enumerate(occupations) if b)

    def _add(self, kind: str, modes: tuple[int, ...], gen: FermionPolynomial) -> None:
        mapped = map_to_paulis(gen, self.n_qubits, self.mapping)
        factors = []
        for string, coeff in mapped.terms():
            if abs(coeff.real) > 1e-12:
                raise ValueError("generator image is not anti-Hermitian")
            factors.append((string, coeff.imag))
        self.excitations.append(Excitation(kind, modes, gen, tuple(factors)))

    @property
    def n_parameters(self) -> int:
        return len(self.excitations)

    def _apply_unitary(
        self, amplitudes: np.ndarray, k: int, theta_k: float, dagger: bool = False
    ) -> np.ndarray:
        factors = self.excitations[k].factors
        if dagger:
            for string, gamma in reversed(factors):
                amplitudes = apply_exp_pauli(amplitudes, string, -theta_k * gamma)
        else:
            for string, gamma in factors:
                amplitudes = apply_exp_pauli(amplitudes, string, theta_k * gamma)
        return amplitudes

    def prepare(self, theta) -> Statevector:
        theta = np.asarray(theta, dtype=float)
        if len(theta) != self.n_parameters:
            raise ValueError("parameter count mismatch")
        amps = np.zeros(1 << self.n_qubits, dtype=complex)
        amps[self.reference_bits] = 1.0
        for k, theta_k in enumerate(theta):
            amps = self._apply_unitary(amps, k, theta_k)
        return Statevector(self.n_qubits, amps)


# ---------------------------------------------------------------------------
# Noise and sampling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NoiseModel:
    """Synthetic device noise: per-qubit readout flips plus depolarizing mix.

    ``readout[q] = (p01, p10)`` gives the probability of reading 1 when
    qubit q holds 0 and vice versa. The depolarizing probability mixes the
    Born distribution with the uniform one before readout, standing in for
    accumulated gate error as one effective channel.
    """

    readout: tuple[tuple[float, float], ...] = ()
    depolarizing: float = 0.0

    def __post_init__(self):
        for pair in self.readout:
            for p in pair:
                if not 0.0 <= p <= 1.0:
                    raise ValueError("readout probability outside [0, 1]")
        if not 0.0 <= self.depolarizing <= 1.0:
            raise ValueError("depolarizing probability outside [0, 1]")

    @classmethod
    def uniform(
        cls, n_qubits: int, readout: float = 0.0, depolarizing: float = 0.0
    ) -> "NoiseModel":
        return cls(((readout, readout),) * n_qubits, depolarizing)

    def apply(self, probs: np.ndarray) -> np.ndarray:
        """Push a probability vector through the noise channel.

        The input is copied: callers may hand over cached buffers.
        """
        out = np.array(probs, dtype=float)
        if self.depolarizing:
            out = (1.0 - self.depolarizing) * out + self.depolarizing / len(out)
        n_qubits = len(out).bit_length() - 1
        if self.readout and len(self.readout) != n_qubits:
            raise ValueError("readout noise sized for a different register")
        for qubit, (p01, p10) in enumerate(self.readout):
            if p01 == 0.0 and p10 == 0.0:
                continue
            view = out.reshape(-1, 2, 1 << qubit)
            p0, p1 = view[:, 0, :].copy(), view[:, 1, :].copy()
            view[:, 0, :] = (1.0 - p01) * p0 + p10 * p1
            view[:, 1, :] = p01 * p0 + (1.0 - p10) * p1
            out = view.reshape(-1)
        return out


def _outcome_probabilities(
    state: Statevector, axes: str, noise: NoiseModel | None
) -> np.ndarray:
    """Normalized distribution of the (noisy) readout in the given axes."""
    probs = state.rotated_probabilities(axes)
    if noise is not None:
        probs = noise.apply(probs)
    probs = np.clip(probs, 0.0, None)
    return probs / probs.sum()


def sample_clique(
    state: Statevector,
    clique: Clique | str,
    shots: int,
    noise: NoiseModel | None,
    rng: np.random.Generator,
) -> np.ndarray:
    """Sample one clique measurement; returns outcome counts over bitstrings."""
    axes = clique.axes if isinstance(clique, Clique) else clique
    return rng.multinomial(shots, _outcome_probabilities(state, axes, noise))


def parity_means(hists: np.ndarray) -> np.ndarray:
    """Parity means of every z-mask: out[d, m] = Σ_x (-1)^|x & m| hists[d, x].

    One fast Walsh–Hadamard transform per histogram row.
    """
    out = hists
    rows, dim = hists.shape
    half = 1
    while half < dim:
        pairs = out.reshape(rows, dim // (2 * half), 2, half)
        low, high = pairs[:, :, 0], pairs[:, :, 1]
        out = np.stack((low + high, low - high), axis=2).reshape(rows, dim)
        half *= 2
    return out


def bernoulli_variance(p1):
    """Bernoulli variance p₁ − p₁² of a 0/1 outcome with P(1) = p₁, clamped at zero.

    Elementwise; a Pauli string with coefficient c has single-shot variance
    4·c²·bernoulli_variance(p₁).
    """
    return np.maximum(p1 - p1 * p1, 0.0)


class MeasurementCache:
    """One sampled run: its settings and its clique histograms, in draw order.

    ``draw`` samples one clique histogram with a generator seeded by
    ``SeedSequence(master_seed, spawn_key=(run_id, clique))`` with Pauli
    saving and ``(run_id, occurrence, clique)`` without, where clique and
    occurrence are the numbers the caller's clique covers give them; so
    every run is reproducible and independent of every other.  The caller
    decides which cliques to draw, in which axes, and which histogram each
    string reads; it appends the draws to ``histograms`` (one row each) and
    records in ``filled_by`` the replay layout that filled the cache.
    """

    def __init__(
        self,
        state: Statevector,
        shots: int,
        master_seed: int = 0,
        run_id: int = 0,
        noise: NoiseModel | None = None,
        mitigator=None,
        pauli_saving: bool = True,
    ):
        if shots <= 0:
            raise ValueError("shots must be positive")
        self.state = state
        self.shots = int(shots)
        self.master_seed = int(master_seed)
        self.run_id = int(run_id)
        self.noise = noise
        self.mitigator = mitigator
        self.pauli_saving = bool(pauli_saving)
        self.fingerprint = state.fingerprint()
        self.histograms = np.empty((0, 1 << state.n_qubits))
        self.filled_by = None
        self._probs: dict[str, np.ndarray] = {}

    @property
    def cliques_sampled(self) -> int:
        return len(self.histograms)

    def draw(self, occ_id: int, clique_idx: int, axes: str) -> np.ndarray:
        """Mitigated quasi-probabilities of one clique histogram.

        Readout noise acts before the draw and the mitigator after it;
        ``occ_id`` enters the spawn key only without Pauli saving.
        """
        spawn = (clique_idx,) if self.pauli_saving else (occ_id, clique_idx)
        seed = np.random.SeedSequence(self.master_seed, spawn_key=(self.run_id, *spawn))
        rng = np.random.Generator(np.random.PCG64(seed))
        probs = self._probs.get(axes)
        if probs is None:
            probs = _outcome_probabilities(self.state, axes, self.noise)
            self._probs[axes] = probs
        vec = rng.multinomial(self.shots, probs) / self.shots
        if self.mitigator is not None:
            vec = self.mitigator.apply(vec)
        return vec


def sampled_expectation(
    state: Statevector, op: PauliSum, cache: MeasurementCache
) -> tuple[float, float]:
    """Shot-based estimate of a real expectation value with its predicted std.

    The contributing strings are covered first-fit and each clique is
    drawn once, in its final axes, as occurrence 0 of a cache that must
    hold no draws yet.  The value is Σ_l Re{c_l}·mean_l plus the exact
    identity contribution; the predicted standard deviation applies the
    single-shot variance 4·Re{c²}·(p₁−p₁²) per string (negative
    contributions clamped to zero) and scales by 1/√shots. Strings with no
    real coefficient part are skipped entirely: they carry no signal for a
    real-valued target.
    """
    if state.fingerprint() != cache.fingerprint:
        raise ValueError("cache is bound to a different state")
    if op.n_qubits != state.n_qubits:
        raise ValueError("operator and state sizes differ")
    if cache.cliques_sampled:
        raise ValueError("cache already holds draws; pass a fresh one")
    contributing = [
        (string, coeff)
        for string, coeff in op.non_identity_terms()
        if abs(coeff.real) > REAL_COEFF_TOL
    ]
    cover = cover_first_fit(state.n_qubits, (string for string, _ in contributing))
    draws = [cache.draw(0, idx, clique.axes) for idx, clique in enumerate(cover.cliques)]
    cache.histograms = np.array(draws).reshape(len(draws), 1 << state.n_qubits)
    means = parity_means(cache.histograms)
    value = op.identity_coefficient().real
    variance = 0.0
    for string, coeff in contributing:
        mask = sum(1 << q for q, axis in enumerate(string) if axis != "I")
        mean = means[cover.member_index[string], mask]
        p1 = 0.5 * (1.0 - mean)
        value += coeff.real * mean
        variance += max(4.0 * (coeff * coeff).real, 0.0) * bernoulli_variance(p1)
    return value, float(np.sqrt(variance / cache.shots))


# ---------------------------------------------------------------------------
# Orbital-optimized VQE
# ---------------------------------------------------------------------------


class CompiledActiveMap:
    """Linear map from integral tensors to active-register Pauli coefficients.

    The frozen-space reduction and the qubit mapping are both linear in the
    integrals, so they are compiled once per active space: ``values``
    then turns any same-shape integral set into (scalar shift, coefficient
    vector over ``strings``) with two matrix products. This keeps repeated
    orbital-rotation energy and gradient evaluations cheap.
    """

    def __init__(self, space: ActiveSpace, mapping: str = "parity"):
        self.space = space
        self.mapping = mapping
        self.n_qubits = space.n_active_modes
        n = space.n_orb
        term_index: dict = {}
        entries: list[tuple[int, int, float]] = []
        shift_entries = np.zeros(n * n + n**4)
        slot = 0
        for p in range(n):
            for q in range(n):
                gen = FermionPolynomial()
                for s in (0, 1):
                    gen.add_term(((2 * p + s, True), (2 * q + s, False)), 1.0)
                self._reduce_slot(gen, slot, term_index, entries, shift_entries)
                slot += 1
        for p in range(n):
            for q in range(n):
                for r in range(n):
                    for s in range(n):
                        gen = FermionPolynomial()
                        for sigma in (0, 1):
                            for tau in (0, 1):
                                gen.add_term(
                                    (
                                        (2 * p + sigma, True),
                                        (2 * r + tau, True),
                                        (2 * s + tau, False),
                                        (2 * q + sigma, False),
                                    ),
                                    0.5,
                                )
                        self._reduce_slot(gen, slot, term_index, entries, shift_entries)
                        slot += 1
        self._shift_weights = shift_entries
        n_terms = len(term_index)
        reduction = np.zeros((n_terms, slot))
        for term_id, slot_id, factor in entries:
            reduction[term_id, slot_id] += factor
        string_index: dict[str, int] = {}
        rows: list[tuple[int, int, complex]] = []
        for term, term_id in term_index.items():
            poly = FermionPolynomial.from_term(term, 1.0)
            mapped = map_to_paulis(poly, self.n_qubits, mapping)
            for string, coeff in mapped.terms():
                if string not in string_index:
                    string_index[string] = len(string_index)
                rows.append((string_index[string], term_id, coeff))
        pauli = np.zeros((len(string_index), n_terms), dtype=complex)
        for string_id, term_id, coeff in rows:
            pauli[string_id, term_id] += coeff
        self.strings = list(string_index)
        self._coeff_map = pauli @ reduction

    def _reduce_slot(self, gen, slot, term_index, entries, shift_entries) -> None:
        scalar, poly = reduce_to_active(gen, self.space)
        shift_entries[slot] = scalar.real
        for term, coeff in poly.items():
            if term not in term_index:
                term_index[term] = len(term_index)
            entries.append((term_index[term], slot, coeff.real))

    def _inputs(self, system: MolecularSystem) -> np.ndarray:
        return np.concatenate([system.h.ravel(), system.g.ravel()])

    def values(self, system: MolecularSystem) -> tuple[float, np.ndarray]:
        """Scalar shift (including e_core) and Pauli coefficients."""
        inputs = self._inputs(system)
        shift = system.e_core + float(self._shift_weights @ inputs)
        return shift, self._coeff_map @ inputs

    def expectations(self, state: Statevector) -> np.ndarray:
        """⟨P_s⟩ for every compiled string (identity included)."""
        out = np.empty(len(self.strings))
        for idx, string in enumerate(self.strings):
            if set(string) == {"I"}:
                out[idx] = 1.0
            else:
                out[idx] = np.vdot(
                    state.amplitudes, pauli_action(state.amplitudes, string)
                ).real
        return out

@dataclass
class OOVQEResult:
    """Converged oo-VQE solution with the rotated integrals at the optimum."""

    theta: np.ndarray
    kappa: np.ndarray
    energy: float
    system: MolecularSystem
    space: ActiveSpace
    ansatz: TUCCSDAnsatz
    state: Statevector
    grad_norm: float
    n_iterations: int


def oo_vqe(
    system: MolecularSystem,
    space: ActiveSpace,
    mapping: str = "parity",
    theta0=None,
    kappa0=None,
    gtol: float = 1e-8,
    maxiter: int = 500,
) -> OOVQEResult:
    """Minimize the exact energy over ansatz and orbital-rotation parameters.

    Gradients are analytic: a reverse sweep over the ansatz factors for θ
    and Fréchet derivatives of the orbital-rotation exponential for κ.
    Raises ConvergenceError when the gradient ∞-norm stays above 1e-7.
    """
    ansatz = TUCCSDAnsatz(space.n_active_orb, space.n_active_elec, mapping)
    amap = CompiledActiveMap(space, mapping)
    pairs = kappa_pairs(space)
    n_theta = ansatz.n_parameters
    theta0 = np.zeros(n_theta) if theta0 is None else np.asarray(theta0, float)
    kappa0 = np.zeros(len(pairs)) if kappa0 is None else np.asarray(kappa0, float)
    if len(theta0) != n_theta or len(kappa0) != len(pairs):
        raise ValueError("initial parameter shapes do not match the problem")
    x0 = np.concatenate([theta0, kappa0])
    n = system.n_orb

    def objective(x):
        theta, kv = x[:n_theta], x[n_theta:]
        kmat = kappa_matrix(space, kv)
        rotated = rotate_integrals(system, kmat)
        shift, coeffs = amap.values(rotated)
        state = ansatz.prepare(theta)
        expect = amap.expectations(state)
        energy = shift + float(coeffs.real @ expect)
        # Reverse sweep for the ansatz gradient.
        h_amps = np.zeros_like(state.amplitudes)
        for string, coeff in zip(amap.strings, coeffs):
            if set(string) == {"I"}:
                h_amps += coeff * state.amplitudes
            else:
                h_amps += coeff * pauli_action(state.amplitudes, string)
        grad_theta = np.zeros(n_theta)
        forward = state.amplitudes
        backward = h_amps
        for k in range(n_theta - 1, -1, -1):
            g_forward = np.zeros_like(forward)
            for string, gamma in ansatz.excitations[k].factors:
                g_forward += 1j * gamma * pauli_action(forward, string)
            grad_theta[k] = 2.0 * np.vdot(backward, g_forward).real
            forward = ansatz._apply_unitary(forward, k, theta[k], dagger=True)
            backward = ansatz._apply_unitary(backward, k, theta[k], dagger=True)
        # Orbital-rotation gradient via the adjoint of the matrix exponential:
        # build dE/dO once, then pull it back through one Fréchet derivative.
        grad_kappa = np.zeros(len(pairs))
        if pairs:
            weights = amap._shift_weights + expect @ amap._coeff_map.real
            w_h = weights[: n * n].reshape(n, n)
            w_g = weights[n * n :].reshape(n, n, n, n)
            rot = scipy.linalg.expm(kmat)
            grad_rot = system.h @ rot @ w_h.T + system.h.T @ rot @ w_h
            for spec in (
                "qb,rc,sd,pqrs,abcd->pa",
                "pa,rc,sd,pqrs,abcd->qb",
                "pa,qb,sd,pqrs,abcd->rc",
                "pa,qb,rc,pqrs,abcd->sd",
            ):
                grad_rot += np.einsum(
                    spec, rot, rot, rot, system.g, w_g, optimize=True
                )
            pulled = scipy.linalg.expm_frechet(kmat.T, grad_rot, compute_expm=False)
            for idx, (p, q) in enumerate(pairs):
                grad_kappa[idx] = pulled[p, q] - pulled[q, p]
        return energy, np.concatenate([grad_theta, grad_kappa])

    result = scipy.optimize.minimize(
        objective,
        x0,
        jac=True,
        method="BFGS",
        options={"gtol": gtol, "maxiter": maxiter},
    )
    best = result.x
    grad_norm = float(np.max(np.abs(result.jac)))
    # Line searches stall once energy differences reach machine precision,
    # so refine the stationary point by solving grad(x) = 0 directly.
    if best.size:
        polished = scipy.optimize.root(
            lambda x: objective(x)[1], best, method="hybr", tol=1e-14
        )
        polished_norm = float(np.max(np.abs(objective(polished.x)[1])))
        if polished_norm < grad_norm:
            best = polished.x
            grad_norm = polished_norm
    if grad_norm > 1e-7:
        raise ConvergenceError(
            f"oo-VQE gradient norm {grad_norm:.2e} above tolerance after "
            f"{result.nit} iterations"
        )
    theta = best[:n_theta]
    kappa = best[n_theta:]
    rotated = rotate_integrals(system, kappa_matrix(space, kappa))
    state = ansatz.prepare(theta)
    shift, coeffs = amap.values(rotated)
    energy = shift + float(coeffs.real @ amap.expectations(state))
    return OOVQEResult(
        theta=theta,
        kappa=kappa,
        energy=energy,
        system=rotated,
        space=space,
        ansatz=ansatz,
        state=state,
        grad_norm=grad_norm,
        n_iterations=int(result.nit),
    )
