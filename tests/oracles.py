"""Independent dense/determinant-space reference implementations for tests.

Everything in this module is deliberately written against raw occupation
bitstrings and dense matrices, not against the package's operator
algebra, so the two routes can disagree when one of them is wrong.

Conventions (shared with the package, by definition not by code):
  * mode = 2 * orbital + spin, spin 0 = alpha, 1 = beta (interleaved),
  * basis index bit m (value 2**m) is the occupation of mode m,
  * a_m |n> picks up (-1)**(number of occupied modes below m).
"""

from __future__ import annotations

import itertools
from collections import Counter

import numpy as np

from qlrlab.pauli_core import CliqueCover, FermionPolynomial, PauliTerm

_PAULI_MATS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def dense_pauli_string(string: str) -> np.ndarray:
    """Dense matrix of a Pauli string (character i acts on qubit i, qubit 0 = LSB)."""
    out = np.array([[1.0 + 0j]])
    for axis in string:
        # qubit 0 is the least significant bit, so it is the rightmost kron factor
        out = np.kron(_PAULI_MATS[axis], out)
    return out


def dense_pauli_sum(psum) -> np.ndarray:
    dim = 2**psum.n_qubits
    out = np.zeros((dim, dim), dtype=complex)
    for string, coeff in psum.terms():
        out += coeff * dense_pauli_string(string)
    return out


def dense_creation_ops(n_modes: int) -> list[np.ndarray]:
    """Dense creation matrices with the standard fermionic sign convention."""
    dim = 2**n_modes
    ops = []
    for m in range(n_modes):
        mat = np.zeros((dim, dim))
        for idx in range(dim):
            if not (idx >> m) & 1:
                sign = (-1) ** bin(idx & ((1 << m) - 1)).count("1")
                mat[idx | (1 << m), idx] = sign
        ops.append(mat)
    return ops


def dense_fermion(poly, n_modes: int) -> np.ndarray:
    """Dense matrix of a FermionPolynomial, built from creation matrices only."""
    cre = dense_creation_ops(n_modes)
    ann = [c.T for c in cre]
    dim = 2**n_modes
    out = np.zeros((dim, dim), dtype=complex)
    for ops, coeff in poly.items():
        acc = np.eye(dim, dtype=complex)
        for mode, create in ops:
            acc = acc @ (cre[mode] if create else ann[mode])
        out += coeff * acc
    return out


def reference_pauli_action(amplitudes: np.ndarray, string: str) -> np.ndarray:
    """A Pauli string applied string by string, as the package did before its
    Pauli tables: parse the masks, then scatter the phased amplitudes."""
    xmask = sum(1 << q for q, c in enumerate(string) if c in "XY")
    signmask = sum(1 << q for q, c in enumerate(string) if c in "YZ")
    idx = np.arange(len(amplitudes))
    parity = idx & signmask
    for shift in (32, 16, 8, 4, 2, 1):
        parity ^= parity >> shift
    phases = (1j ** string.count("Y")) * (1 - 2 * (parity & 1))
    out = np.empty_like(amplitudes)
    out[idx ^ xmask] = phases * amplitudes
    return out


def parity_permutation(n_modes: int) -> np.ndarray:
    """Permutation matrix sending occupation basis states to parity-encoded ones."""
    dim = 2**n_modes
    mat = np.zeros((dim, dim))
    for idx in range(dim):
        acc = 0
        out = 0
        for m in range(n_modes):
            acc ^= (idx >> m) & 1
            out |= acc << m
        mat[out, idx] = 1.0
    return mat


# ---------------------------------------------------------------------------
# Operator products that only the tests need
# ---------------------------------------------------------------------------

# Single qubit products (a, b) -> (phase, axis) for a * b.
_SINGLE_PRODUCT = {
    ("I", "I"): (1.0, "I"),
    ("I", "X"): (1.0, "X"),
    ("I", "Y"): (1.0, "Y"),
    ("I", "Z"): (1.0, "Z"),
    ("X", "I"): (1.0, "X"),
    ("Y", "I"): (1.0, "Y"),
    ("Z", "I"): (1.0, "Z"),
    ("X", "X"): (1.0, "I"),
    ("Y", "Y"): (1.0, "I"),
    ("Z", "Z"): (1.0, "I"),
    ("X", "Y"): (1.0j, "Z"),
    ("Y", "X"): (-1.0j, "Z"),
    ("Y", "Z"): (1.0j, "X"),
    ("Z", "Y"): (-1.0j, "X"),
    ("Z", "X"): (1.0j, "Y"),
    ("X", "Z"): (-1.0j, "Y"),
}


def multiply(a: PauliTerm, b: PauliTerm) -> PauliTerm:
    """Multiply two Pauli terms, folding the algebraic phase into the coefficient.

    Args:
        a: Left factor.
        b: Right factor acting first on kets (standard operator product a*b).

    Returns:
        The product term with phase-correct coefficient.

    Raises:
        ValueError: If the two strings act on different register sizes.
    """
    if len(a.string) != len(b.string):
        raise ValueError(
            f"Pauli string lengths differ: {len(a.string)} != {len(b.string)}"
        )
    phase = a.coeff * b.coeff
    out = []
    for ca, cb in zip(a.string, b.string):
        p, axis = _SINGLE_PRODUCT[(ca, cb)]
        phase *= p
        out.append(axis)
    return PauliTerm("".join(out), phase)


def commutator(a: FermionPolynomial, b: FermionPolynomial) -> FermionPolynomial:
    return a * b - b * a


# ---------------------------------------------------------------------------
# Determinant-space second quantization
# ---------------------------------------------------------------------------


def apply_ops_to_det(ops, det: int):
    """Apply a right-to-left sequence of (mode, create) to a determinant.

    Returns (sign, new_det) or None when the sequence annihilates it.
    """
    sign = 1
    for mode, create in reversed(ops):
        occupied = (det >> mode) & 1
        if create == bool(occupied):
            return None
        if bin(det & ((1 << mode) - 1)).count("1") % 2:
            sign = -sign
        det ^= 1 << mode
    return sign, det


def enumerate_dets(n_orb: int, n_elec: int, sz2: int | None = None) -> list[int]:
    """All determinants with n_elec electrons in n_orb spatial orbitals.

    Args:
        n_orb: Number of spatial orbitals (2 * n_orb interleaved modes).
        n_elec: Total electron count.
        sz2: Optional restriction on 2*Sz (n_alpha - n_beta).

    Returns:
        Sorted occupation bitstrings (integers).
    """
    n_modes = 2 * n_orb
    dets = []
    for modes in itertools.combinations(range(n_modes), n_elec):
        det = sum(1 << m for m in modes)
        if sz2 is not None:
            n_alpha = sum(1 for m in modes if m % 2 == 0)
            if n_alpha - (n_elec - n_alpha) != sz2:
                continue
        dets.append(det)
    return sorted(dets)


def _hamiltonian_action_terms(h: np.ndarray, g: np.ndarray):
    """Yield (coeff, ops) terms of the chemists' normal form Hamiltonian."""
    n = h.shape[0]
    for p in range(n):
        for q in range(n):
            if abs(h[p, q]) > 1e-14:
                for s in (0, 1):
                    yield h[p, q], ((2 * p + s, True), (2 * q + s, False))
    for p in range(n):
        for q in range(n):
            for r in range(n):
                for s_ in range(n):
                    val = g[p, q, r, s_]
                    if abs(val) <= 1e-14:
                        continue
                    for sig in (0, 1):
                        for tau in (0, 1):
                            ops = (
                                (2 * p + sig, True),
                                (2 * r + tau, True),
                                (2 * s_ + tau, False),
                                (2 * q + sig, False),
                            )
                            yield 0.5 * val, ops


def sector_hamiltonian(
    h: np.ndarray, g: np.ndarray, e_core: float, dets: list[int]
) -> np.ndarray:
    """Hamiltonian matrix in an explicit determinant basis."""
    index = {d: i for i, d in enumerate(dets)}
    dim = len(dets)
    mat = np.zeros((dim, dim))
    terms = list(_hamiltonian_action_terms(h, g))
    for j, det in enumerate(dets):
        for coeff, ops in terms:
            res = apply_ops_to_det(ops, det)
            if res is None:
                continue
            sign, new_det = res
            i = index.get(new_det)
            if i is not None:
                mat[i, j] += coeff * sign
    mat += e_core * np.eye(dim)
    return mat


def sector_operator(action_terms, dets: list[int]) -> np.ndarray:
    """Matrix of a list of (coeff, ops) terms in a determinant basis."""
    index = {d: i for i, d in enumerate(dets)}
    dim = len(dets)
    mat = np.zeros((dim, dim), dtype=complex)
    for j, det in enumerate(dets):
        for coeff, ops in action_terms:
            res = apply_ops_to_det(ops, det)
            if res is None:
                continue
            sign, new_det = res
            i = index.get(new_det)
            if i is not None:
                mat[i, j] += coeff * sign
    return mat


def s_squared_matrix(n_orb: int, dets: list[int]) -> np.ndarray:
    """Total spin S^2 in a determinant basis via S-S+ + Sz(Sz + 1)."""
    terms = []
    # S- S+ = sum_pq a_pb+ a_pa a_qa+ a_qb
    for p in range(n_orb):
        for q in range(n_orb):
            terms.append(
                (
                    1.0,
                    (
                        (2 * p + 1, True),
                        (2 * p, False),
                        (2 * q, True),
                        (2 * q + 1, False),
                    ),
                )
            )
    mat = sector_operator(terms, dets).real
    # Sz and Sz^2 are diagonal in the determinant basis.
    sz = np.array(
        [
            0.5
            * (
                bin(d & _alpha_mask(n_orb)).count("1")
                - bin(d & _beta_mask(n_orb)).count("1")
            )
            for d in dets
        ]
    )
    return mat + np.diag(sz * (sz + 1.0))


def _alpha_mask(n_orb: int) -> int:
    return sum(1 << (2 * p) for p in range(n_orb))


def _beta_mask(n_orb: int) -> int:
    return sum(1 << (2 * p + 1) for p in range(n_orb))


def fci(
    h: np.ndarray,
    g: np.ndarray,
    e_core: float,
    n_elec: int,
    sz2: int = 0,
    dets: list[int] | None = None,
):
    """Full CI in a particle/Sz sector.

    Returns:
        (energies, vectors, dets): ascending eigenvalues, eigenvector
        columns and the determinant basis used.
    """
    n_orb = h.shape[0]
    if dets is None:
        dets = enumerate_dets(n_orb, n_elec, sz2)
    mat = sector_hamiltonian(h, g, e_core, dets)
    energies, vectors = np.linalg.eigh(mat)
    return energies, vectors, dets


def singlet_energies(
    h: np.ndarray, g: np.ndarray, e_core: float, n_elec: int, tol: float = 1e-6
) -> np.ndarray:
    """Ascending FCI energies of S = 0 eigenstates in the Sz = 0 sector."""
    n_orb = h.shape[0]
    dets = enumerate_dets(n_orb, n_elec, 0)
    mat = sector_hamiltonian(h, g, e_core, dets)
    s2 = s_squared_matrix(n_orb, dets)
    energies, vectors = np.linalg.eigh(mat)
    out = []
    for k in range(len(energies)):
        v = vectors[:, k]
        if abs(v @ s2 @ v) < tol:
            out.append(energies[k])
    return np.asarray(out)


def cas_dets(n_orb: int, inactive: list[int], active: list[int], n_active_elec: int):
    """Determinants with frozen doubly occupied inactive orbitals and CAS electrons."""
    frozen = 0
    for p in inactive:
        frozen |= (1 << (2 * p)) | (1 << (2 * p + 1))
    active_modes = []
    for p in active:
        active_modes.extend((2 * p, 2 * p + 1))
    dets = []
    for occ in itertools.combinations(active_modes, n_active_elec):
        det = frozen + sum(1 << m for m in occ)
        n_alpha = sum(1 for m in occ if m % 2 == 0)
        if 2 * n_alpha == n_active_elec:
            dets.append(det)
    return sorted(dets)


def casci_energies(
    h: np.ndarray,
    g: np.ndarray,
    e_core: float,
    inactive: list[int],
    active: list[int],
    n_active_elec: int,
) -> np.ndarray:
    """Full-space Hamiltonian diagonalized in the CAS determinant subspace."""
    dets = cas_dets(h.shape[0], inactive, active, n_active_elec)
    mat = sector_hamiltonian(h, g, e_core, dets)
    return np.linalg.eigvalsh(mat)


# ---------------------------------------------------------------------------
# String-by-string response evaluator
#
# The evaluator that ResponseBuilder used before it replayed an array
# layout, kept as the reference for the differential tests.  It walks every
# plan element by element and asks the evaluator for one Pauli string at a
# time, so a sampled run draws each clique at the lookup that creates it.
# Exact means come from dense Pauli matrices here; everything else is the
# old code with the builder passed in.


class ExactMeans:
    """Expectation evaluator backed by the exact statevector."""

    def __init__(self, state):
        self._amps = state.amplitudes
        self._cache: dict[str, tuple[float, float]] = {}

    def mean_p1(self, string: str, occurrence=None) -> tuple[float, float]:
        hit = self._cache.get(string)
        if hit is None:
            dense = dense_pauli_string(string)
            mean = float(np.vdot(self._amps, dense @ self._amps).real)
            hit = (mean, 0.5 * (1.0 - mean))
            self._cache[string] = hit
        return hit


class ReferenceCache:
    """String-by-string lookups over a fresh MeasurementCache's draws.

    This is the lookup rule MeasurementCache.mean_p1 applied before the
    replay layout: with Pauli saving every string joins one first-fit
    cover (id -1); without it every occurrence key owns a cover, numbered
    at its first lookup; a clique is drawn, in the axes it has then, at
    the first lookup that reads it.
    """

    def __init__(self, cache):
        self.cache = cache
        self.pauli_saving = cache.pauli_saving
        self.shots = cache.shots
        self._covers: dict = {}
        self._occurrence_ids: dict = {}
        self._samples: dict = {}
        self._stats: dict = {}

    @property
    def cliques_sampled(self) -> int:
        return len(self._samples)

    def _occurrence(self, occurrence) -> int:
        if self.pauli_saving:
            return -1
        if occurrence not in self._occurrence_ids:
            self._occurrence_ids[occurrence] = len(self._occurrence_ids)
        return self._occurrence_ids[occurrence]

    def _cover(self, occ_id: int) -> CliqueCover:
        cover = self._covers.get(occ_id)
        if cover is None:
            cover = CliqueCover(self.cache.state.n_qubits)
            self._covers[occ_id] = cover
        return cover

    def _quasi_probabilities(self, occ_id: int, clique_idx: int) -> np.ndarray:
        key = (occ_id, clique_idx)
        vec = self._samples.get(key)
        if vec is None:
            axes = self._covers[occ_id].cliques[clique_idx].axes
            vec = self.cache.draw(occ_id, clique_idx, axes)
            self._samples[key] = vec
        return vec

    def mean_p1(self, string: str, occurrence=None) -> tuple[float, float]:
        """Sampled mean and p(eigenvalue −1) for one Pauli string."""
        occ_id = self._occurrence(occurrence)
        cover = self._cover(occ_id)
        clique_idx = cover.member_index.get(string)
        if clique_idx is None:
            clique_idx = cover.register(string)
        stat_key = (occ_id, clique_idx, string)
        cached = self._stats.get(stat_key)
        if cached is not None:
            return cached
        vec = self._quasi_probabilities(occ_id, clique_idx)
        mask = sum(1 << q for q, axis in enumerate(string) if axis != "I")
        signs = 1.0 - 2.0 * (np.bitwise_count(np.arange(len(vec)) & mask) % 2)
        mean = float(np.dot(signs, vec))
        p1 = 0.5 * (1.0 - mean)
        self._stats[stat_key] = (mean, p1)
        return mean, p1


def chain_factors(products, values) -> dict:
    """First-order sensitivities of the product terms to each atom value."""
    weights: dict = {}
    for coeff, atoms in products:
        for atom, mult in Counter(atoms).items():
            part = coeff * mult * values[atom] ** (mult - 1)
            for other, m in Counter(atoms).items():
                if other != atom:
                    part *= values[other] ** m
            weights[atom] = weights.get(atom, 0.0) + part
    return weights


def reference_element(builder, plan, evaluator, occ_base, dedup: bool):
    """Evaluate one element: value, variance, coefficient-free variance."""
    registry = builder._registry
    values: dict[tuple, float] = {}
    for key in plan.unit_keys():
        occurrence = occ_base + (key,)
        value = registry.identity_real(key)
        for string, coeff in registry.measured(key):
            mean, _ = evaluator.mean_p1(string, occurrence)
            value += coeff * mean
        values[key] = value
    total = plan.constant
    if plan.direct is not None:
        total += values[plan.direct]
    for coeff, atoms in plan.products:
        term = coeff
        for atom in atoms:
            term *= values[atom]
        total += term
    weights = chain_factors(plan.products, values)
    if plan.direct is not None:
        weights[plan.direct] = 1.0
    effective: dict = {}
    spreads: dict = {}
    for key in plan.unit_keys():
        weight = weights.get(key, 0.0)
        occurrence = occ_base + (key,)
        for string, coeff in registry.measured(key):
            _, p1 = evaluator.mean_p1(string, occurrence)
            sample = string if dedup else (key, string)
            effective[sample] = effective.get(sample, 0.0) + weight * coeff
            spreads[sample] = max(p1 - p1 * p1, 0.0)
    var = sum(4.0 * c * c * spreads[k] for k, c in effective.items())
    var_nc = sum(4.0 * s for s in spreads.values())
    return total, var, var_nc


def reference_matrices(builder, evaluator, triangle: bool, dedup: bool, shots: float):
    """Per tag A, B, S: (value, std, coefficient-free std)."""
    n = len(builder.basis)
    out = {}
    for tag in ("A", "B", "S"):
        value = np.zeros((n, n))
        var = np.zeros((n, n))
        var_nc = np.zeros((n, n))
        for i in range(n):
            columns = range(i, n) if triangle else range(n)
            for j in columns:
                v, s, s_nc = reference_element(
                    builder, builder._plan(tag, i, j), evaluator, (tag, i, j), dedup
                )
                value[i, j], var[i, j], var_nc[i, j] = v, s, s_nc
                if triangle and j > i:
                    value[j, i], var[j, i], var_nc[j, i] = v, s, s_nc
        if not triangle and tag in ("A", "B"):
            value = 0.5 * (value + value.T)
            var = 0.25 * (var + var.T)
            var_nc = 0.25 * (var_nc + var_nc.T)
        out[tag] = (value, np.sqrt(var / shots), np.sqrt(var_nc / shots))
    return out


def reference_delta(builder, evaluator) -> np.ndarray:
    n = len(builder.basis)
    delta = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            key = ("D", i, j)
            plan = builder._plan("D", i, j)
            value, _, _ = reference_element(builder, plan, evaluator, key, True)
            delta[i, j] = value
            delta[j, i] = -value
    return delta


def reference_sampled(builder, cache: ReferenceCache) -> dict:
    """Sampled A, B, S through string-by-string lookups on a fresh cache."""
    saving = cache.pauli_saving
    return reference_matrices(builder, cache, saving, saving, float(cache.shots))


def reference_moments(builder, evaluator) -> tuple[np.ndarray, np.ndarray]:
    """Transition moment rows (V, W), axis by axis, l by l, V before W."""
    axes = builder._dipole_plans()
    n = len(builder.basis)
    v = np.zeros((3, n))
    w = np.zeros((3, n))
    for axis in axes:
        for l in range(n):
            for tag, moments in (("V", v), ("W", w)):
                key = (tag, axis, l)
                plan = builder._plans[key]
                value, _, _ = reference_element(builder, plan, evaluator, key, True)
                moments["xyz".index(axis), l] = value
    return v, w


def reference_strengths(solution, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Oscillator strengths (2/3)·ω·|V·Z + W·Y|², NaN where the norm failed."""
    n = v.shape[1]
    f = np.full(solution.n_states, np.nan)
    for k in np.flatnonzero(solution.norms_ok):
        moments = v @ solution.vectors[:n, k] + w @ solution.vectors[n:, k]
        f[k] = (2.0 / 3.0) * solution.omega[k] * float(np.sum(moments**2))
    return f


def reference_exact(builder) -> tuple[dict, np.ndarray]:
    """Exact A, B, S (per-shot spreads) and Δ."""
    evaluator = ExactMeans(builder.ground.state)
    mats = reference_matrices(builder, evaluator, True, True, 1.0)
    return mats, reference_delta(builder, evaluator)
