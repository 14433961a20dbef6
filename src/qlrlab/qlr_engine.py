"""Response-matrix assembly, excitation spectra, and measurement counting.

Matrix elements of the generalized response eigenproblem are derived
symbolically.  Commutators of the basis operators distribute into operator
words, reference-state projectors split each word into a product of plain
expectation values, and every surviving operator product is contracted
over the frozen orbitals onto the active register.  Each distinct
expectation value (an "atom") compiles once into a Pauli-string sum, so
the same compiled plans serve exact matrices, shot-sampled matrices with
per-element variance estimates, and measurement-cost counting.
"""

from __future__ import annotations

import itertools
import logging
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import EV_PER_HARTREE
from .chem_io import (
    ActiveSpace,
    build_hamiltonian_poly,
    dipole_poly,
    kappa_pairs,
    reduce_term,
)
from .pauli_core import (
    CliqueCover,
    FermionPolynomial,
    PauliSum,
    build_spin_adapted_ops,
    cover_first_fit,
    e_pq,
    map_to_paulis,
)
from .sim_engine import (
    REAL_COEFF_TOL,
    MeasurementCache,
    OOVQEResult,
    pauli_action,
)

logger = logging.getLogger(__name__)

PARAMETRIZATIONS = ("naive", "proj", "allproj")

_AXES = ("x", "y", "z")
_MATRIX_TAGS = ("A", "B", "S")

# Symbolic word tokens.  Every token is a (kind, index, dagger) triple so
# that token tuples sort deterministically; the projector sentinel only
# ever appears inside operator words, never as an expectation atom.
_HAM = ("h", -1, 0)
_PROJ = ("p0", -1, 0)


@dataclass(frozen=True)
class ResponseOperator:
    """One response basis operator in the full-register fermion algebra.

    Attributes:
        label: Human-readable name used in reports.
        kind: "rotation" for orbital-rotation operators, "excitation"
            for spin-adapted active-space excitations.
        poly: The bare fermionic polynomial before any projection.
        projected: Whether the operator is right-multiplied by the
            reference projector.
        subtract_mean: Whether the reference expectation value of the
            bare polynomial is subtracted.
    """

    label: str
    kind: str
    poly: FermionPolynomial
    projected: bool
    subtract_mean: bool


def build_operator_basis(
    space: ActiveSpace, parametrization: str
) -> list[ResponseOperator]:
    """Return the response operator basis for one parametrization.

    Orbital-rotation operators come first, one per rotation pair and in
    the same order, followed by the spin-adapted excitation operators.
    In the "proj" form the excitation operators are projected and
    mean-shifted; "allproj" additionally projects the rotation operators
    (whose reference means vanish, so no shift is introduced).
    """
    if parametrization not in PARAMETRIZATIONS:
        raise ValueError(f"unknown parametrization: {parametrization!r}")
    project_g = parametrization in ("proj", "allproj")
    project_q = parametrization == "allproj"
    basis = []
    scale = 1.0 / math.sqrt(2.0)
    for p, q in kappa_pairs(space):
        basis.append(
            ResponseOperator(
                label=f"q({p}<-{q})",
                kind="rotation",
                poly=e_pq(p, q) * scale,
                projected=project_q,
                subtract_mean=False,
            )
        )
    for label, poly in build_spin_adapted_ops(
        space.occupied_active, space.virtual_active
    ):
        basis.append(
            ResponseOperator(
                label=label,
                kind="excitation",
                poly=poly,
                projected=project_g,
                subtract_mean=project_g,
            )
        )
    return basis


# ---------------------------------------------------------------------------
# Symbolic expressions
#
# An expression maps (scalars, word) -> coefficient, where "scalars" is a
# sorted tuple of operator tokens standing for reference expectation
# values and "word" is a tuple of operator tokens and projector
# sentinels.  Products concatenate words and merge scalar multisets.


def _expr_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for (s1, w1), c1 in a.items():
        for (s2, w2), c2 in b.items():
            key = (tuple(sorted(s1 + s2)), w1 + w2)
            out[key] = out.get(key, 0.0) + c1 * c2
    return out


def _commutator(a: dict, b: dict) -> dict:
    out = _expr_mul(a, b)
    for key, coeff in _expr_mul(b, a).items():
        out[key] = out.get(key, 0.0) - coeff
    return out


def _normal_form(expr: dict) -> dict[tuple, float]:
    """Split every word at projectors into a multiset of expectation atoms.

    Returns a map from a sorted tuple of atoms (each atom a tuple of
    operator tokens) to its real coefficient; empty segments between
    projectors contribute a factor of one and vanish.
    """
    out: dict[tuple, float] = {}
    for (scalars, word), coeff in expr.items():
        atoms = [(tok,) for tok in scalars]
        segment: list = []
        for tok in word:
            if tok == _PROJ:
                if segment:
                    atoms.append(tuple(segment))
                    segment = []
            else:
                segment.append(tok)
        if segment:
            atoms.append(tuple(segment))
        key = tuple(sorted(atoms))
        out[key] = out.get(key, 0.0) + coeff
    return {key: c for key, c in out.items() if abs(c) > 1e-14}


@dataclass(frozen=True)
class ElementPlan:
    """Compiled evaluation recipe for one matrix element.

    Attributes:
        constant: Additive constant from fully collapsed words.
        direct: Registry key of the merged single-atom polynomial, or
            None when every contribution is a product of atoms.
        products: Product contributions as (coefficient, atom keys);
            every referenced atom has at least one measurable term.
    """

    constant: float
    direct: tuple | None
    products: tuple[tuple[float, tuple[tuple, ...]], ...]

    def atom_keys(self) -> list[tuple]:
        return sorted({atom for _, atoms in self.products for atom in atoms})

    def unit_keys(self) -> list[tuple]:
        units = [self.direct] if self.direct is not None else []
        return units + self.atom_keys()


class _AtomRegistry:
    """Compiles operator words into active-register Pauli sums.

    Words are reduced factor by factor: the largest factor acts as the
    pivot and its terms are pre-bucketed by their net frozen-orbital
    occupation change, so only combinations that can conserve the frozen
    occupation are assembled and contracted.
    """

    def __init__(self, polys: dict, space: ActiveSpace, mapping: str):
        self._polys = polys
        self._space = space
        self._mapping = mapping
        self._n_qubits = space.n_active_modes
        self._frozen_modes = {
            mode for mode, (_, local) in enumerate(space.mode_table) if local < 0
        }
        self._buckets: dict[tuple, dict] = {}
        self._words: dict[tuple, tuple] = {}
        self._paulis: dict[tuple, PauliSum] = {}
        self._measured: dict[tuple, tuple] = {}
        self._identity: dict[tuple, float] = {}
        self._terms_mapped = 0

    def add_poly(self, token: tuple, poly: FermionPolynomial) -> None:
        self._polys[token] = poly

    def _bucket(self, token: tuple) -> dict:
        buckets = self._buckets.get(token)
        if buckets is None:
            buckets = {}
            for ops, coeff in self._polys[token].items():
                net: dict[int, int] = {}
                for mode, create in ops:
                    if mode in self._frozen_modes:
                        net[mode] = net.get(mode, 0) + (1 if create else -1)
                sig = tuple(sorted((m, n) for m, n in net.items() if n))
                buckets.setdefault(sig, []).append((ops, coeff))
            self._buckets[token] = buckets
        return buckets

    def reduced_word(self, word: tuple) -> tuple[complex, FermionPolynomial]:
        """Contract a product of operator polynomials onto the active space."""
        cached = self._words.get(word)
        if cached is not None:
            return cached
        items = [self._polys[tok].items() for tok in word]
        pivot = max(range(len(word)), key=lambda i: len(items[i]))
        others = [i for i in range(len(word)) if i != pivot]
        buckets = self._bucket(word[pivot])
        scalar = 0.0 + 0.0j
        out = FermionPolynomial()
        parts: list = [None] * len(word)
        for combo in itertools.product(*(items[i] for i in others)):
            coeff0 = 1.0 + 0.0j
            net: dict[int, int] = {}
            for ops, coeff in combo:
                coeff0 *= coeff
                for mode, create in ops:
                    if mode in self._frozen_modes:
                        net[mode] = net.get(mode, 0) + (1 if create else -1)
            bucket = buckets.get(tuple(sorted((m, -n) for m, n in net.items() if n)))
            if not bucket:
                continue
            for pos, (ops, _) in zip(others, combo):
                parts[pos] = ops
            for pivot_ops, pivot_coeff in bucket:
                parts[pivot] = pivot_ops
                seq = tuple(itertools.chain.from_iterable(parts))
                reduced = reduce_term(seq, self._space)
                if reduced is None:
                    continue
                factor, active_ops = reduced
                value = coeff0 * pivot_coeff * factor
                if active_ops:
                    out.add_term(active_ops, value)
                else:
                    scalar += value
        result = (scalar, out)
        self._words[word] = result
        return result

    def _finish(self, key: tuple, scalar: complex, poly: FermionPolynomial) -> None:
        self._terms_mapped += len(poly)
        pauli = map_to_paulis(poly, self._n_qubits, self._mapping)
        if abs(scalar) > 1e-14:
            pauli.add_term("I" * self._n_qubits, scalar)
        self._paulis[key] = pauli
        identity = "I" * self._n_qubits
        measured = tuple(
            (term.string, term.coeff.real)
            for term in pauli.terms()
            if term.string != identity and abs(term.coeff.real) > REAL_COEFF_TOL
        )
        self._measured[key] = measured
        self._identity[key] = float(pauli.coefficient(identity).real)

    def atom(self, key: tuple) -> None:
        """Ensure the Pauli sum for a single operator word is compiled."""
        if key not in self._paulis:
            scalar, poly = self.reduced_word(key)
            self._finish(key, scalar, poly)

    def merged(self, key: tuple, words: list[tuple[tuple, float]]) -> bool:
        """Compile a weighted sum of words under one key.

        Returns False when the merged polynomial has no terms at all, in
        which case nothing is stored.
        """
        scalar = 0.0 + 0.0j
        total = FermionPolynomial()
        for word, coeff in words:
            part_scalar, part = self.reduced_word(word)
            scalar += coeff * part_scalar
            for ops, value in part.items():
                total.add_term(ops, coeff * value)
        if abs(scalar) <= 1e-14 and not total.items():
            return False
        self._finish(key, scalar, total)
        return True

    def measured(self, key: tuple) -> tuple:
        return self._measured[key]

    def stats(self) -> dict[str, int]:
        return {
            "atoms": len(self._paulis),
            "reduced_words": len(self._words),
            "fermion_terms": self._terms_mapped,
            "measured_strings": len(
                {string for measured in self._measured.values() for string, _ in measured}
            ),
        }

    def identity_real(self, key: tuple) -> float:
        return self._identity[key]

    def always_zero(self, key: tuple) -> bool:
        """Whether the atom's measured value is identically zero.

        True when the compiled Pauli sum has no identity part and no
        string with a real coefficient; on the real states produced by
        the ansatz such atoms have exactly zero expectation value.
        """
        self.atom(key)
        return not self._measured[key] and self._identity[key] == 0.0


class _ExactMeans:
    """Expectation evaluator backed by the exact statevector."""

    def __init__(self, state):
        self._amps = state.amplitudes
        self._cache: dict[str, tuple[float, float]] = {}

    def mean_p1(self, string: str, occurrence=None) -> tuple[float, float]:
        hit = self._cache.get(string)
        if hit is None:
            mean = float(np.vdot(self._amps, pauli_action(self._amps, string)).real)
            hit = (mean, 0.5 * (1.0 - mean))
            self._cache[string] = hit
        return hit


class _SampledMeans:
    """Expectation evaluator backed by a shot-based measurement cache."""

    def __init__(self, cache: MeasurementCache):
        self._cache = cache

    def mean_p1(self, string: str, occurrence=None) -> tuple[float, float]:
        return self._cache.mean_p1(string, occurrence)


@dataclass
class QLRProblem:
    """Assembled response matrices with per-element spread estimates.

    The std matrices follow the per-shot convention: in sampled mode they
    are already divided by the shot count, in exact mode they give the
    predicted spread of a single shot.  The "nc" variants drop the Pauli
    coefficients and chain weights from the propagation.
    """

    parametrization: str
    labels: list[str]
    a: np.ndarray
    b: np.ndarray
    sigma: np.ndarray
    a_std: np.ndarray
    b_std: np.ndarray
    sigma_std: np.ndarray
    a_std_nc: np.ndarray
    b_std_nc: np.ndarray
    sigma_std_nc: np.ndarray
    delta: np.ndarray | None
    mode: str
    shots: int | None
    pauli_saving: bool | None
    n_qubits: int
    cliques_sampled: int | None = None

    @property
    def size(self) -> int:
        return len(self.labels)


@dataclass
class QLRSolution:
    """Eigensolution of one response problem.

    Attributes:
        omega: Excitation energies in Hartree, ascending.
        vectors: Eigenvector columns, metric-normalized where possible.
        norms_ok: Per-state flag marking a positive metric norm.
        hessian_eigs: Eigenvalues of the symmetrized electronic Hessian.
        valid: False when the Hessian has a negative eigenvalue.
        f: Oscillator strengths, filled by oscillator_strengths().
    """

    problem: QLRProblem
    omega: np.ndarray
    vectors: np.ndarray
    norms_ok: np.ndarray
    hessian_eigs: np.ndarray
    valid: bool
    f: np.ndarray | None = None

    @property
    def omega_ev(self) -> np.ndarray:
        return self.omega * EV_PER_HARTREE

    @property
    def n_states(self) -> int:
        return int(self.omega.size)


def _chain_factors(products, values) -> dict:
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


class ResponseBuilder:
    """Compiles and evaluates the response problem for one ground state.

    Compilation happens once per parametrization; evaluation walks the
    compiled plans with either the exact statevector or a shot-based
    measurement cache, so repeated sampled runs reuse all symbolic work.
    """

    def __init__(self, ground: OOVQEResult, parametrization: str):
        if parametrization not in PARAMETRIZATIONS:
            raise ValueError(f"unknown parametrization: {parametrization!r}")
        self.ground = ground
        self.parametrization = parametrization
        self.space = ground.space
        self.mapping = ground.ansatz.mapping
        self.n_qubits = self.space.n_active_modes
        self.basis = build_operator_basis(self.space, parametrization)
        self.labels = [op.label for op in self.basis]
        polys = {_HAM: build_hamiltonian_poly(ground.system)}
        for idx, op in enumerate(self.basis):
            polys[("x", idx, 0)] = op.poly
            polys[("x", idx, 1)] = op.poly.dagger()
        self._registry = _AtomRegistry(polys, self.space, self.mapping)
        self._plans: dict[tuple, ElementPlan] = {}
        self._dipole_axes: list[str] | None = None
        n = len(self.basis)
        for tag in _MATRIX_TAGS:
            for i in range(n):
                for j in range(i, n):
                    key = (tag, i, j)
                    self._plans[key] = self._compile_element(tag, i, j)
        logger.debug(
            "compiled %d plans for %s (%d operators): %s",
            len(self._plans),
            parametrization,
            n,
            ", ".join(f"{k}={v}" for k, v in self.compile_stats.items()),
        )

    @property
    def compile_stats(self) -> dict[str, int]:
        """Deterministic counters: plans, compiled units (atoms and merged
        direct sums), reduced words, mapped fermion terms and distinct
        measured strings, including lazily compiled plans built so far."""
        return {"plans": len(self._plans), **self._registry.stats()}

    # -- symbolic compilation ------------------------------------------------

    def _x_expr(self, idx: int, dagger: bool) -> dict:
        op = self.basis[idx]
        token = ("x", idx, 1 if dagger else 0)
        if not op.projected:
            return {((), (token,)): 1.0}
        word = (_PROJ, token) if dagger else (token, _PROJ)
        expr = {((), word): 1.0}
        if op.subtract_mean:
            expr[((token,), ())] = -1.0
        return expr

    def _element_expr(self, tag: str, i: int, j: int) -> dict:
        ham = {((), (_HAM,)): 1.0}
        left = self._x_expr(i, dagger=True)
        if tag == "A":
            return _commutator(left, _commutator(ham, self._x_expr(j, False)))
        if tag == "B":
            return _commutator(left, _commutator(ham, self._x_expr(j, True)))
        if tag == "S":
            return _commutator(left, self._x_expr(j, False))
        return _commutator(left, self._x_expr(j, True))

    def _compile_element(self, tag: str, i: int, j: int) -> ElementPlan:
        normal = _normal_form(self._element_expr(tag, i, j))
        constant = normal.pop((), 0.0)
        direct_words: list[tuple[tuple, float]] = []
        products: list[tuple[float, tuple]] = []
        for atoms, coeff in normal.items():
            if len(atoms) == 1:
                direct_words.append((atoms[0], coeff))
            else:
                if any(self._registry.always_zero(atom) for atom in atoms):
                    continue
                products.append((coeff, atoms))
        direct_key = None
        if direct_words:
            key = ("direct", tag, i, j)
            if self._registry.merged(key, direct_words):
                direct_key = key
        for _, atoms in products:
            for atom in atoms:
                self._registry.atom(atom)
        products.sort(key=lambda item: item[1])
        return ElementPlan(
            constant=float(constant),
            direct=direct_key,
            products=tuple(products),
        )

    def _plan(self, tag: str, i: int, j: int) -> ElementPlan:
        if j >= i:
            return self._plans[(tag, i, j)]
        return self._plans[(tag, j, i)]

    # -- evaluation ----------------------------------------------------------

    def _element(self, plan, evaluator, occ_base, dedup: bool):
        """Evaluate one element: value, variance, coefficient-free variance.

        Variances are delta-method estimates in per-shot units: every
        measured string contributes through its total effective
        coefficient, strings shared between measurement units are
        accumulated together when dedup is set (shot reuse), separately
        otherwise (independent sampling).
        """
        registry = self._registry
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
        weights = _chain_factors(plan.products, values)
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

    def _matrices(self, evaluator, triangle: bool, dedup: bool, shots: float):
        n = len(self.basis)
        out = {}
        for tag in _MATRIX_TAGS:
            value = np.zeros((n, n))
            var = np.zeros((n, n))
            var_nc = np.zeros((n, n))
            for i in range(n):
                columns = range(i, n) if triangle else range(n)
                for j in columns:
                    v, s, s_nc = self._element(
                        self._plan(tag, i, j), evaluator, (tag, i, j), dedup
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

    def _delta_matrix(self, evaluator) -> np.ndarray:
        n = len(self.basis)
        delta = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                key = ("D", i, j)
                plan = self._plans.get(key)
                if plan is None:
                    plan = self._compile_element("D", i, j)
                    self._plans[key] = plan
                value, _, _ = self._element(plan, evaluator, key, True)
                delta[i, j] = value
                delta[j, i] = -value
        return delta

    def evaluate_exact(self, with_delta: bool = True) -> QLRProblem:
        """Assemble all matrices from exact expectation values."""
        evaluator = _ExactMeans(self.ground.state)
        mats = self._matrices(evaluator, triangle=True, dedup=True, shots=1.0)
        delta = self._delta_matrix(evaluator) if with_delta else None
        (a, a_std, a_nc), (b, b_std, b_nc), (s, s_std, s_nc) = (
            mats["A"],
            mats["B"],
            mats["S"],
        )
        return QLRProblem(
            parametrization=self.parametrization,
            labels=list(self.labels),
            a=a,
            b=b,
            sigma=s,
            a_std=a_std,
            b_std=b_std,
            sigma_std=s_std,
            a_std_nc=a_nc,
            b_std_nc=b_nc,
            sigma_std_nc=s_nc,
            delta=delta,
            mode="exact",
            shots=None,
            pauli_saving=None,
            n_qubits=self.n_qubits,
        )

    def evaluate_sampled(
        self,
        shots: int,
        master_seed: int = 0,
        run_id: int = 0,
        noise=None,
        mitigator=None,
        pauli_saving: bool = True,
        cache: MeasurementCache | None = None,
    ) -> QLRProblem:
        """Assemble all matrices from shot-sampled expectation values.

        With Pauli saving every matrix element reuses the shared clique
        histograms, which makes the sampled matrices exactly symmetric;
        without it every element occurrence is sampled independently and
        the quadratic blocks are symmetrized afterwards.  Passing a cache
        lets later property evaluations reuse the same histograms; it
        overrides the shot and seed arguments.
        """
        if cache is None:
            if shots <= 0:
                raise ValueError("shots must be positive")
            cache = MeasurementCache(
                self.ground.state,
                shots,
                master_seed=master_seed,
                run_id=run_id,
                noise=noise,
                mitigator=mitigator,
                pauli_saving=pauli_saving,
            )
        shots = cache.shots
        pauli_saving = cache.pauli_saving
        evaluator = _SampledMeans(cache)
        mats = self._matrices(
            evaluator,
            triangle=pauli_saving,
            dedup=pauli_saving,
            shots=float(shots),
        )
        (a, a_std, a_nc), (b, b_std, b_nc), (s, s_std, s_nc) = (
            mats["A"],
            mats["B"],
            mats["S"],
        )
        return QLRProblem(
            parametrization=self.parametrization,
            labels=list(self.labels),
            a=a,
            b=b,
            sigma=s,
            a_std=a_std,
            b_std=b_std,
            sigma_std=s_std,
            a_std_nc=a_nc,
            b_std_nc=b_nc,
            sigma_std_nc=s_nc,
            delta=None,
            mode="sampled",
            shots=shots,
            pauli_saving=pauli_saving,
            n_qubits=self.n_qubits,
            cliques_sampled=cache.cliques_sampled,
        )

    # -- measurement counting --------------------------------------------------

    def count_measurements(self) -> dict[str, int]:
        """Count measured groups under three grouping strategies.

        "none" counts every Pauli string of every measurement unit of
        every element occurrence, "qwc" greedily groups qubit-wise
        commuting strings within one unit, and "ps_qwc" additionally
        shares the groups across the whole problem.
        """
        n = len(self.basis)
        none = 0
        qwc = 0
        shared = CliqueCover(self.n_qubits)
        for tag in _MATRIX_TAGS:
            for i in range(n):
                for j in range(n):
                    plan = self._plan(tag, i, j)
                    for key in plan.unit_keys():
                        strings = [s for s, _ in self._registry.measured(key)]
                        if not strings:
                            continue
                        none += len(strings)
                        qwc += len(cover_first_fit(self.n_qubits, strings))
                        for string in strings:
                            shared.register(string)
        return {"none": none, "qwc": qwc, "ps_qwc": len(shared)}

    # -- transition moments ------------------------------------------------------

    def _dipole_plans(self) -> list[str]:
        if self._dipole_axes is None:
            system = self.ground.system
            if not system.dipole:
                raise ValueError(
                    "dipole integrals are required for oscillator strengths"
                )
            axes = sorted(system.dipole)
            for axis in axes:
                token = ("d", _AXES.index(axis), 0)
                self._registry.add_poly(token, dipole_poly(system, axis))
                mu = {((), (token,)): 1.0}
                for l in range(len(self.basis)):
                    for tag, dagger in (("V", True), ("W", False)):
                        expr = _commutator(mu, self._x_expr(l, dagger))
                        normal = _normal_form(expr)
                        constant = normal.pop((), 0.0)
                        words = []
                        products = []
                        for atoms, coeff in normal.items():
                            if len(atoms) == 1:
                                words.append((atoms[0], coeff))
                            elif not any(
                                self._registry.always_zero(a) for a in atoms
                            ):
                                products.append((coeff, atoms))
                                for atom in atoms:
                                    self._registry.atom(atom)
                        direct_key = None
                        if words:
                            key = ("direct", tag, axis, l)
                            if self._registry.merged(key, words):
                                direct_key = key
                        products.sort(key=lambda item: item[1])
                        self._plans[(tag, axis, l)] = ElementPlan(
                            float(constant), direct_key, tuple(products)
                        )
            self._dipole_axes = axes
        return self._dipole_axes

    def transition_moments(self, cache: MeasurementCache | None = None):
        """Return per-axis moment rows (V, W) over the operator basis."""
        axes = self._dipole_plans()
        if cache is None:
            evaluator = _ExactMeans(self.ground.state)
            dedup = True
        else:
            evaluator = _SampledMeans(cache)
            dedup = cache.pauli_saving
        n = len(self.basis)
        v = np.zeros((3, n))
        w = np.zeros((3, n))
        for axis in axes:
            row = _AXES.index(axis)
            for l in range(n):
                v[row, l] = self._element(
                    self._plans[("V", axis, l)], evaluator, ("V", axis, l), dedup
                )[0]
                w[row, l] = self._element(
                    self._plans[("W", axis, l)], evaluator, ("W", axis, l), dedup
                )[0]
        return v, w

    def oscillator_strengths(
        self, solution: QLRSolution, cache: MeasurementCache | None = None
    ) -> np.ndarray:
        """Fill and return the oscillator strengths of a solved problem."""
        v, w = self.transition_moments(cache)
        n = len(self.basis)
        f = np.zeros(solution.n_states)
        for k in range(solution.n_states):
            if not solution.norms_ok[k]:
                f[k] = np.nan
                continue
            z = solution.vectors[:n, k]
            y = solution.vectors[n:, k]
            moments = v @ z + w @ y
            f[k] = (2.0 / 3.0) * solution.omega[k] * float(np.sum(moments**2))
        solution.f = f
        return f


def build_matrices(
    ground: OOVQEResult,
    parametrization: str,
    mode: str = "exact",
    shots: int | None = None,
    master_seed: int = 0,
    run_id: int = 0,
    noise=None,
    mitigator=None,
    pauli_saving: bool = True,
    builder: ResponseBuilder | None = None,
) -> QLRProblem:
    """Compile and evaluate the response matrices in one call.

    Passing an existing builder skips recompilation, which is how
    repeated sampled runs over the same ground state should be driven.
    """
    if builder is None:
        builder = ResponseBuilder(ground, parametrization)
    if mode == "exact":
        return builder.evaluate_exact()
    if mode == "sampled":
        if shots is None:
            raise ValueError("sampled mode requires a shot count")
        return builder.evaluate_sampled(
            shots,
            master_seed=master_seed,
            run_id=run_id,
            noise=noise,
            mitigator=mitigator,
            pauli_saving=pauli_saving,
        )
    raise ValueError(f"unknown mode: {mode!r}")


def solve(problem: QLRProblem, zero_tol: float = 1e-10) -> QLRSolution:
    """Solve the generalized response eigenproblem.

    Eigenvalues with a nonvanishing imaginary part or a real part at or
    below zero_tol are discarded; the rest are sorted ascending and the
    eigenvectors metric-normalized where the metric norm is positive.
    The solution is flagged invalid when the symmetrized electronic
    Hessian has a negative eigenvalue.
    """
    n = problem.size
    a, b, sigma = problem.a, problem.b, problem.sigma
    delta = problem.delta if problem.delta is not None else np.zeros((n, n))
    e2 = np.block([[a, b], [b.conj(), a.conj()]])
    s2 = np.block([[sigma, delta], [-delta.conj(), -sigma.conj()]])
    hessian_eigs = np.linalg.eigvalsh(0.5 * (e2 + e2.conj().T))
    valid = bool(hessian_eigs.min() >= 0.0)
    eigvals, eigvecs = scipy.linalg.eig(e2, s2)
    keep = (
        np.isfinite(eigvals.real)
        & np.isfinite(eigvals.imag)
        & (eigvals.real > zero_tol)
        & (np.abs(eigvals.imag) <= 1e-8 * np.maximum(1.0, np.abs(eigvals.real)))
    )
    if not keep.any() and not np.isfinite(eigvals).any():
        raise RuntimeError("response metric is singular")
    omega = eigvals.real[keep]
    vectors = eigvecs[:, keep]
    order = np.argsort(omega, kind="stable")
    omega = omega[order]
    vectors = vectors[:, order]
    norms_ok = np.zeros(omega.size, dtype=bool)
    normalized = np.zeros_like(vectors)
    for k in range(omega.size):
        beta = vectors[:, k]
        norm = float(np.real(beta.conj() @ s2 @ beta))
        if norm > 1e-12:
            normalized[:, k] = beta / math.sqrt(norm)
            norms_ok[k] = True
        else:
            normalized[:, k] = beta
    if np.abs(normalized.imag).max(initial=0.0) < 1e-10:
        normalized = normalized.real.astype(float)
    return QLRSolution(
        problem=problem,
        omega=omega,
        vectors=normalized,
        norms_ok=norms_ok,
        hessian_eigs=hessian_eigs,
        valid=valid,
    )


def spectrum(
    solution: QLRSolution,
    fwhm_ev: float = 0.5,
    grid_ev: np.ndarray | None = None,
    points: int = 2000,
    margin_ev: float = 2.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Broaden the stick spectrum with unit-height Lorentzian profiles.

    Returns (energies in eV, intensity).  Raises ValueError when the
    solution carries no oscillator strengths or no usable states.
    """
    if solution.f is None:
        raise ValueError("oscillator strengths have not been computed")
    energies = solution.omega_ev
    usable = np.isfinite(solution.f)
    if not usable.any():
        raise ValueError("no valid states to broaden")
    energies = energies[usable]
    strengths = solution.f[usable]
    if grid_ev is None:
        lo = max(0.0, float(energies.min()) - margin_ev)
        hi = float(energies.max()) + margin_ev
        grid_ev = np.linspace(lo, hi, points)
    half = 0.5 * fwhm_ev
    intensity = np.zeros_like(grid_ev, dtype=float)
    for e_k, f_k in zip(energies, strengths):
        intensity += f_k * half**2 / ((grid_ev - e_k) ** 2 + half**2)
    return grid_ev, intensity
