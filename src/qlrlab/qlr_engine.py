"""Response-matrix assembly, excitation spectra, and measurement counting.

Matrix elements of the generalized response eigenproblem are derived
symbolically.  Commutators of the basis operators distribute into operator
words, reference-state projectors split each word into a product of plain
expectation values, and every surviving operator product is contracted
over the frozen orbitals onto the active register.  Each distinct
expectation value (an "atom") compiles once into a Pauli-string sum, so
the same compiled plans serve exact matrices, shot-sampled matrices with
per-element variance estimates, and measurement-cost counting.

Every evaluation reads its expectation values through a replay layout:
an ordered list of plans lowered once per builder into arrays, so each
exact or sampled evaluation is a handful of array operations.  A layout
takes its histograms from a walk, the one place that decides which clique
histogram each measured string reads (see _Walk).  The A, B and Σ layout
of a saving mode is followed on the same walk by the transition moments,
so one set of clique histograms serves the matrices and the spectrum.
"""

from __future__ import annotations

import itertools
import logging
import math
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
    e_pq,
    map_to_paulis,
)
from .sim_engine import (
    REAL_COEFF_TOL,
    MeasurementCache,
    OOVQEResult,
    bernoulli_variance,
    parity_means,
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


class _Walk:
    """Which clique histogram each measured string reads, in lookup order.

    Lookups are (occurrence key, string) pairs.  With Pauli saving every
    string joins one shared first-fit clique cover (id -1); without it
    every occurrence key owns a cover, numbered at the occurrence's first
    string.  Draw d is clique ``draw_keys[d] = (cover id, clique)`` measured
    in ``draw_axes[d]``; reading r is ``strings[r]``, read from draw
    ``reading_draw[r]`` on the qubits ``reading_mask[r]``.  Lookups only
    ever append, so a later layout can continue an earlier one's walk.
    """

    def __init__(self, n_qubits: int, saving: bool):
        self.n_qubits = n_qubits
        self.saving = saving
        self.covers: dict[int, CliqueCover] = {}
        self.occurrence_ids: dict = {}
        self.draws: dict[tuple[int, int], int] = {}
        self.draw_axes: list[str] = []
        self.readings: dict[tuple[int, str], int] = {}
        self.reading_draw: list[int] = []
        self.reading_mask: list[int] = []

    def read(self, occurrence: tuple, string: str) -> int:
        """The reading of one string looked up under an occurrence key."""
        if self.saving:
            occ_id = -1
        else:
            occ_id = self.occurrence_ids.setdefault(occurrence, len(self.occurrence_ids))
        reading = self.readings.get((occ_id, string))
        if reading is None:
            cover = self.covers.setdefault(occ_id, CliqueCover(self.n_qubits))
            clique = cover.register(string)
            if (occ_id, clique) not in self.draws:
                # Stale-basis rule: a clique is drawn in the axes it has at
                # its first lookup, and strings it absorbs later read that
                # histogram, even where they widen an I qubit to X or Y.
                # This is a known bias, kept so that seeded references hold.
                self.draws[occ_id, clique] = len(self.draw_axes)
                self.draw_axes.append(cover.cliques[clique].axes)
            reading = self.readings[occ_id, string] = len(self.reading_draw)
            self.reading_draw.append(self.draws[occ_id, clique])
            self.reading_mask.append(
                sum(1 << q for q, axis in enumerate(string) if axis != "I")
            )
        return reading


class _ReplayLayout:
    """An ordered list of (occurrence base, plan) elements, lowered to arrays.

    Every measured string of unit ``key`` of an element is looked up on
    the walk under the occurrence key ``base + (key,)``.  The layout keeps
    the walk's draws and readings as they stand after its last lookup, so
    its ``draw_keys`` start with those of the layouts lowered earlier on
    the same walk.  A slot is one unit key of one element: its identity
    part plus entries (slot, reading, coefficient, pair), a pair being an
    (element, reading) that carries variance.  Products are padded with
    slot ``len(slot_identity)``, which reads as one; the direct unit is a
    product with coefficient one.  ``square[i, j]``, given for A, B and Σ
    layouts only, is the element of (i, j) within a tag.
    """

    def __init__(
        self,
        registry: _AtomRegistry,
        walk: _Walk,
        elements: list[tuple[tuple, ElementPlan]],
        square: np.ndarray | None = None,
    ):
        self.walk = walk
        self.saving = walk.saving
        self.square = square
        pairs: dict[tuple[int, int], int] = {}
        entries, slot_identity, constant, products = [], [], [], []
        for element, (base, plan) in enumerate(elements):
            constant.append(plan.constant)
            slots = {}
            for key in plan.unit_keys():
                slots[key] = len(slot_identity)
                slot_identity.append(registry.identity_real(key))
                for string, coeff in registry.measured(key):
                    reading = walk.read(base + (key,), string)
                    pair = pairs.setdefault((element, reading), len(pairs))
                    entries.append((slots[key], reading, coeff, pair))
            if plan.direct is not None:
                products.append((element, 1.0, (slots[plan.direct],)))
            for coeff, atoms in plan.products:
                products.append((element, coeff, tuple(slots[atom] for atom in atoms)))
        self.draw_keys = list(walk.draws)
        self.draw_axes = list(walk.draw_axes)
        self.strings = [string for _, string in walk.readings]
        self.reading_draw = np.array(walk.reading_draw, dtype=int)
        self.reading_mask = np.array(walk.reading_mask, dtype=int)
        self.slot_identity = np.array(slot_identity)
        self.constant = np.array(constant)
        table = np.array(entries, dtype=float).reshape(-1, 4)
        self.entry_slot, self.entry_reading, self.entry_pair = (
            table[:, [0, 1, 3]].T.astype(int)
        )
        self.entry_coeff = table[:, 2]
        pair_table = np.array(list(pairs), dtype=int).reshape(-1, 2)
        self.pair_element, self.pair_reading = pair_table.T
        width = max((len(atoms) for _, _, atoms in products), default=1)
        pad = (len(slot_identity),)
        self.product_element = np.array([e for e, _, _ in products], dtype=int)
        self.product_coeff = np.array([c for _, c, _ in products])
        self.product_slots = np.array(
            [atoms + pad * (width - len(atoms)) for _, _, atoms in products], dtype=int
        ).reshape(-1, width)

    def exact_means(self, state) -> np.ndarray:
        """Exact ⟨ψ|P|ψ⟩ of every reading this layout's entries use, else zero."""
        amps = state.amplitudes
        means = np.zeros(len(self.strings))
        for reading in np.unique(self.entry_reading):
            means[reading] = np.vdot(amps, pauli_action(amps, self.strings[reading])).real
        return means

    def sampled_means(self, cache: MeasurementCache) -> np.ndarray:
        """Reading means from the cache's histograms, after appending the
        draws of this layout that the cache does not hold yet."""
        start = len(cache.histograms)
        new = [
            cache.draw(occ_id, clique, axes)
            for (occ_id, clique), axes in zip(
                self.draw_keys[start:], self.draw_axes[start:]
            )
        ]
        if new:
            cache.histograms = np.vstack([cache.histograms, new])
        return parity_means(cache.histograms)[self.reading_draw, self.reading_mask]

    def _factors(self, means: np.ndarray) -> np.ndarray:
        n_slots = len(self.slot_identity)
        slot_terms = self.entry_coeff * means[self.entry_reading]
        slots = self.slot_identity + np.bincount(self.entry_slot, slot_terms, n_slots)
        return np.append(slots, 1.0)[self.product_slots]

    def _values(self, factors: np.ndarray) -> np.ndarray:
        terms = self.product_coeff * factors.prod(axis=1)
        return self.constant + np.bincount(self.product_element, terms, len(self.constant))

    def values(self, means: np.ndarray) -> np.ndarray:
        """Element values, in element order, from reading means."""
        return self._values(self._factors(means))

    def matrices(self, means: np.ndarray, shots: float) -> dict:
        """QLRProblem's a, b, sigma and their std fields from reading means.

        Variances are delta-method estimates in per-shot units: every
        measured string contributes 4·c²·p₁(1−p₁) through its effective
        coefficient c, the chain-weighted sum of its coefficients over
        the element's units.  With saving a string shared between units
        is one sample; without it every occurrence is its own.
        """
        n_slots, n_elements = len(self.slot_identity), len(self.constant)
        factors = self._factors(means)
        values = self._values(factors)
        # First-order sensitivity of each product to each of its factors.
        partials = np.empty_like(factors)
        for col in range(factors.shape[1]):
            others = factors.copy()
            others[:, col] = 1.0
            partials[:, col] = self.product_coeff * others.prod(axis=1)
        weights = np.bincount(self.product_slots.ravel(), partials.ravel(), n_slots + 1)
        pair_terms = weights[self.entry_slot] * self.entry_coeff
        effective = np.bincount(self.entry_pair, pair_terms, len(self.pair_element))
        p1 = 0.5 * (1.0 - means)
        spread = bernoulli_variance(p1)[self.pair_reading]
        var = np.bincount(self.pair_element, 4.0 * effective**2 * spread, n_elements)
        var_nc = np.bincount(self.pair_element, 4.0 * spread, n_elements)
        # (value, var, var_nc) x (A, B, S) element vectors, then matrices.
        mats = np.stack([values, var, var_nc]).reshape(3, 3, -1)[..., self.square]
        if not self.saving:
            halves = np.array([0.5, 0.25, 0.25]).reshape(3, 1, 1, 1)
            mats[:, :2] = halves * (mats[:, :2] + mats[:, :2].swapaxes(-1, -2))
        value, std, std_nc = mats[0], np.sqrt(mats[1] / shots), np.sqrt(mats[2] / shots)
        return {
            f"{name}{suffix}": part[t]
            for t, name in enumerate(("a", "b", "sigma"))
            for suffix, part in (("", value), ("_std", std), ("_std_nc", std_nc))
        }


class ResponseBuilder:
    """Compiles and evaluates the response problem for one ground state.

    Compilation happens once per parametrization; evaluation reads the
    compiled plans through replay layouts with either exact means or a
    shot-based measurement cache, so repeated sampled runs reuse all
    symbolic work.
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
        self._layouts: dict[tuple[str, bool], _ReplayLayout] = {}
        n = len(self.basis)
        for tag in _MATRIX_TAGS:
            for i in range(n):
                for j in range(i, n):
                    self._plan(tag, i, j)
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

    def _compile_expr(self, expr: dict, direct_key: tuple) -> ElementPlan:
        """Compile an expression: single-atom words merge under
        ``direct_key``, and products with an always-zero atom are dropped."""
        normal = _normal_form(expr)
        constant = normal.pop((), 0.0)
        direct_words: list[tuple[tuple, float]] = []
        products: list[tuple[float, tuple]] = []
        for atoms, coeff in normal.items():
            if len(atoms) == 1:
                direct_words.append((atoms[0], coeff))
            elif not any(self._registry.always_zero(atom) for atom in atoms):
                products.append((coeff, atoms))
        if not (direct_words and self._registry.merged(direct_key, direct_words)):
            direct_key = None
        products.sort(key=lambda item: item[1])
        return ElementPlan(float(constant), direct_key, tuple(products))

    def _plan(self, tag: str, i: int, j: int) -> ElementPlan:
        """The plan of element (tag, i, j), compiled on first use.  A, B and
        Σ read (j, i) for i > j; Δ is antisymmetric and only asked for i < j."""
        key = (tag, min(i, j), max(i, j))
        plan = self._plans.get(key)
        if plan is None:
            expr = self._element_expr(*key)
            plan = self._plans[key] = self._compile_expr(expr, ("direct", *key))
        return plan

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
                        key = (tag, axis, l)
                        self._plans[key] = self._compile_expr(expr, ("direct", *key))
            self._dipole_axes = axes
        return self._dipole_axes

    # -- evaluation ----------------------------------------------------------

    def _layout(self, kind: str, saving: bool = True) -> _ReplayLayout:
        """The replay layout of one kind, lowered once per builder.

        "ABS" holds A, B and Σ: the upper triangle with Pauli saving, the
        full square without.  "VW" holds the transition moments (axis,
        then l, then V before W) and continues the ABS walk of the same
        saving mode.  "D" holds Δ (i < j) on a walk of its own; it is
        read only with exact means.
        """
        layout = self._layouts.get((kind, saving))
        if layout is not None:
            return layout
        n = len(self.basis)
        square = None
        if kind == "ABS":
            walk = _Walk(self.n_qubits, saving)
            elements = [
                ((tag, i, j), self._plan(tag, i, j))
                for tag in _MATRIX_TAGS
                for i in range(n)
                for j in (range(i, n) if saving else range(n))
            ]
            square = np.arange(n * n).reshape(n, n)
            if saving:
                rows, cols = np.triu_indices(n)
                square[rows, cols] = square[cols, rows] = np.arange(len(rows))
        elif kind == "VW":
            axes = self._dipole_plans()
            walk = self._layout("ABS", saving).walk
            elements = [
                ((tag, axis, l), self._plans[tag, axis, l])
                for axis in axes
                for l in range(n)
                for tag in ("V", "W")
            ]
        else:
            walk = _Walk(self.n_qubits, True)
            elements = [
                (("D", i, j), self._plan("D", i, j))
                for i in range(n)
                for j in range(i + 1, n)
            ]
        layout = _ReplayLayout(self._registry, walk, elements, square)
        self._layouts[kind, saving] = layout
        logger.debug(
            "replay layout %s for %s, pauli_saving=%s: %d draws, %d readings, "
            "%d units, %d elements",
            kind,
            self.parametrization,
            saving,
            len(layout.draw_keys),
            len(layout.strings),
            len(layout.slot_identity),
            len(layout.constant),
        )
        return layout

    def _problem(self, **fields) -> QLRProblem:
        return QLRProblem(
            parametrization=self.parametrization,
            labels=list(self.labels),
            n_qubits=self.n_qubits,
            **fields,
        )

    def _delta_matrix(self) -> np.ndarray:
        layout = self._layout("D")
        values = layout.values(layout.exact_means(self.ground.state))
        n = len(self.basis)
        rows, cols = np.triu_indices(n, 1)
        delta = np.zeros((n, n))
        delta[rows, cols] = values
        delta[cols, rows] = -values
        return delta

    def evaluate_exact(self, with_delta: bool = True) -> QLRProblem:
        """Assemble all matrices from exact expectation values."""
        layout = self._layout("ABS")
        means = layout.exact_means(self.ground.state)
        return self._problem(
            **layout.matrices(means, 1.0),
            delta=self._delta_matrix() if with_delta else None,
            mode="exact",
            shots=None,
            pauli_saving=None,
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
        lets the transition moments reuse the same histograms; it
        overrides the shot and seed arguments, and it must be bound to
        this builder's state and hold no draws yet.
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
        elif cache.fingerprint != self.ground.state.fingerprint():
            raise ValueError("cache is bound to a different state")
        elif cache.cliques_sampled:
            raise ValueError("cache already holds draws; pass a fresh one")
        layout = self._layout("ABS", cache.pauli_saving)
        means = layout.sampled_means(cache)
        cache.filled_by = layout
        return self._problem(
            **layout.matrices(means, float(cache.shots)),
            delta=None,
            mode="sampled",
            shots=cache.shots,
            pauli_saving=cache.pauli_saving,
            cliques_sampled=cache.cliques_sampled,
        )

    # -- measurement counting --------------------------------------------------

    def count_measurements(self) -> dict[str, int]:
        """Count measured groups under three grouping strategies.

        "none" counts every Pauli string of every measurement unit of
        every element occurrence, "qwc" greedily groups qubit-wise
        commuting strings within one unit, and "ps_qwc" additionally
        shares the groups across the whole problem: the entries and draws
        of the unsaved A, B and Σ layout, and the draws of the saved one.
        """
        unsaved = self._layout("ABS", False)
        return {
            "none": len(unsaved.entry_reading),
            "qwc": len(unsaved.draw_keys),
            "ps_qwc": len(self._layout("ABS", True).draw_keys),
        }

    # -- transition moments ------------------------------------------------------

    def transition_moments(self, cache: MeasurementCache | None = None):
        """Return per-axis moment rows (V, W) over the operator basis.

        Without a cache the moments are exact.  A cache must have been
        filled by this builder's evaluate_sampled: the moments then read
        its histograms, and the cliques only they need are drawn and
        appended to it.
        """
        if cache is None:
            layout = self._layout("VW")
            means = layout.exact_means(self.ground.state)
        else:
            filled = self._layouts.get(("ABS", cache.pauli_saving))
            if filled is None or cache.filled_by is not filled:
                raise ValueError(
                    "cache was not filled by this builder's evaluate_sampled"
                )
            layout = self._layout("VW", cache.pauli_saving)
            means = layout.sampled_means(cache)
        n = len(self.basis)
        rows = [_AXES.index(axis) for axis in self._dipole_axes]
        values = layout.values(means).reshape(len(rows), n, 2)
        v = np.zeros((3, n))
        w = np.zeros((3, n))
        v[rows], w[rows] = values[..., 0], values[..., 1]
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


def response_blocks(problem: QLRProblem) -> tuple[np.ndarray, np.ndarray]:
    """E2 = [[A, B], [B*, A*]] and S2 = [[Σ, Δ], [−Δ*, −Σ*]]; a missing Δ is zero."""
    a, b, sigma, delta = problem.a, problem.b, problem.sigma, problem.delta
    if delta is None:
        delta = np.zeros_like(sigma)
    e2 = np.block([[a, b], [b.conj(), a.conj()]])
    s2 = np.block([[sigma, delta], [-delta.conj(), -sigma.conj()]])
    return e2, s2


def solve(problem: QLRProblem, zero_tol: float = 1e-10) -> QLRSolution:
    """Solve the generalized response eigenproblem.

    Eigenvalues with a nonvanishing imaginary part or a real part at or
    below zero_tol are discarded; the rest are sorted ascending and the
    eigenvectors metric-normalized where the metric norm is positive.
    The solution is flagged invalid when the symmetrized electronic
    Hessian has a negative eigenvalue.
    """
    e2, s2 = response_blocks(problem)
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
    norms = np.real(np.sum(vectors.conj() * (s2 @ vectors), axis=0))
    norms_ok = norms > 1e-12
    normalized = vectors / np.sqrt(np.where(norms_ok, norms, 1.0))
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
