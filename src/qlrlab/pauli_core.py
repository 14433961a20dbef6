"""Pauli string algebra, qubit-wise commuting cliques and fermion-to-qubit maps.

Conventions used throughout the package:

* A Pauli string is a plain ``str`` over the alphabet ``IXYZ`` whose
  character ``i`` acts on qubit ``i`` (qubit 0 first).
* Spin orbitals are interleaved, ``mode = 2 * orbital + spin`` with
  ``spin = 0`` for alpha and ``1`` for beta, and fermionic mode ``m`` is
  carried by qubit ``m``.
* Coefficients with magnitude below :data:`DROP_TOLERANCE` are dropped
  when sums are simplified.

The fermion-to-qubit maps work on bit masks and render ``str`` labels
only for the finished sum.  Qubit ``q`` is bit ``q``; a pair ``(x, z)``
is the Hermitian string ``i^(x.z) X^x Z^z`` with ``x.z = popcount(x & z)``,
so ``Y = iXZ``.  Jordan-Wigner sends ``a_m^dagger`` (``a_m``) to Z on the
qubits below ``m`` times ``sigma+ = |1><0|`` (``sigma- = |0><1|``) on
qubit ``m``.  Each monomial is walked once, keeping a signed local
operator per qubit (I, Z or a matrix unit ``|r><c|``; a product of matrix
units is a matrix unit or zero).  Monomials with equal local operators are
summed, and each distinct product is expanded once through
``|r><r| = (I + (-1)^r Z) / 2`` and ``sigma+- = (X -+ iY) / 2``.  Parity
is a linear map on the masks: ``x'`` is the prefix XOR of ``x`` (bit
``q`` is ``x_0 ^ ... ^ x_q``), ``z' = z ^ (z >> 1)``, and the string picks
up the sign ``i^(x.z - x'.z')``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple, Sequence

DROP_TOLERANCE = 1e-12


class PauliTerm(NamedTuple):
    """A single Pauli string with its complex coefficient."""

    string: str
    coeff: complex


def identity_string(n_qubits: int) -> str:
    return "I" * n_qubits


def qubitwise_commutes(a: str, b: str) -> bool:
    """Check qubit-wise commutation of two Pauli strings.

    Two strings qubit-wise commute when on every qubit the axes are
    equal or at least one of them is the identity.
    """
    if len(a) != len(b):
        raise ValueError(f"Pauli string lengths differ: {len(a)} != {len(b)}")
    return all(ca == "I" or cb == "I" or ca == cb for ca, cb in zip(a, b))


class PauliSum:
    """A complex linear combination of Pauli strings on a fixed register.

    Stored as a mapping ``string -> coefficient``.  All mutating helpers
    drop coefficients below :data:`DROP_TOLERANCE`.
    """

    __slots__ = ("n_qubits", "_coeffs")

    def __init__(self, n_qubits: int, coeffs: dict[str, complex] | None = None):
        self.n_qubits = n_qubits
        self._coeffs: dict[str, complex] = dict(coeffs) if coeffs else {}

    def copy(self) -> "PauliSum":
        return PauliSum(self.n_qubits, self._coeffs)

    def add_term(self, string: str, coeff: complex) -> None:
        if len(string) != self.n_qubits:
            raise ValueError("Pauli string length does not match the register")
        new = self._coeffs.get(string, 0.0) + coeff
        if abs(new) <= DROP_TOLERANCE:
            self._coeffs.pop(string, None)
        else:
            self._coeffs[string] = new

    def coefficient(self, string: str) -> complex:
        return self._coeffs.get(string, 0.0)

    def terms(self) -> list[PauliTerm]:
        """Return the terms sorted by string for deterministic iteration."""
        return [PauliTerm(s, c) for s, c in sorted(self._coeffs.items())]

    def strings(self) -> list[str]:
        return sorted(self._coeffs)

    def non_identity_terms(self) -> list[PauliTerm]:
        ident = identity_string(self.n_qubits)
        return [t for t in self.terms() if t.string != ident]

    def identity_coefficient(self) -> complex:
        return self._coeffs.get(identity_string(self.n_qubits), 0.0)

    def __len__(self) -> int:
        return len(self._coeffs)

    def __iter__(self) -> Iterator[PauliTerm]:
        return iter(self.terms())

    def __add__(self, other: "PauliSum") -> "PauliSum":
        if other.n_qubits != self.n_qubits:
            raise ValueError("register size mismatch")
        out = self.copy()
        for s, c in other._coeffs.items():
            out.add_term(s, c)
        return out

    def dagger(self) -> "PauliSum":
        """Hermitian adjoint: conjugate every coefficient (strings are Hermitian)."""
        return PauliSum(self.n_qubits, {s: c.conjugate() for s, c in self._coeffs.items()})


@dataclass
class Clique:
    """A set of mutually qubit-wise commuting Pauli strings.

    Attributes:
        axes: Fused measurement basis, the per-qubit union of all member
            axes (identity where no member acts).
        members: Strings assigned to this clique, in insertion order.
    """

    axes: str
    members: list[str] = field(default_factory=list)

    def admits(self, string: str) -> bool:
        return qubitwise_commutes(self.axes, string)

    def absorb(self, string: str) -> None:
        self.members.append(string)
        fused = [
            cs if cs != "I" else cn for cs, cn in zip(self.axes, string)
        ]
        self.axes = "".join(fused)


@dataclass
class CliqueCover:
    """A first-fit qubit-wise commuting clique cover of a stream of strings.

    Identity strings are rejected: they need no measurement.  Every
    registered string is a member of exactly one clique, recorded in
    ``member_index``.
    """

    n_qubits: int
    cliques: list[Clique] = field(default_factory=list)
    member_index: dict[str, int] = field(default_factory=dict)

    def register(self, string: str) -> int:
        """Insert a string with first-fit scan, returning its clique index."""
        if set(string) == {"I"}:
            raise ValueError("identity string requires no measurement")
        known = self.member_index.get(string)
        if known is not None:
            return known
        for idx, clique in enumerate(self.cliques):
            if clique.admits(string):
                clique.absorb(string)
                self.member_index[string] = idx
                return idx
        self.cliques.append(Clique(axes=string, members=[string]))
        idx = len(self.cliques) - 1
        self.member_index[string] = idx
        return idx

    def __len__(self) -> int:
        return len(self.cliques)


def cover_first_fit(n_qubits: int, strings: Iterable[str]) -> CliqueCover:
    """Cover a stream of Pauli strings with first-fit qubit-wise cliques.

    The scan order is the insertion order of the stream, so callers
    control determinism by feeding strings in a fixed order.  Identity
    strings are skipped.

    Args:
        n_qubits: Register size.
        strings: Pauli strings in deterministic generation order.

    Returns:
        The cover; ``len(cover)`` is the number of measured cliques.
    """
    cover = CliqueCover(n_qubits)
    ident = identity_string(n_qubits)
    for s in strings:
        if s == ident:
            continue
        cover.register(s)
    return cover


# ---------------------------------------------------------------------------
# Fermionic operator polynomials
# ---------------------------------------------------------------------------

# One elementary operator: (mode, True) for creation, (mode, False) for
# annihilation.  A term is a tuple of elementary operators applied right
# to left, so ("a2+ a0" -> ((2, True), (0, False))) means a2^dagger a0.
FermionOp = tuple[int, bool]
FermionTerm = tuple[FermionOp, ...]


class FermionPolynomial:
    """A complex polynomial in fermionic creation/annihilation operators.

    Terms are stored verbatim (no normal ordering); equal operator
    sequences merge their coefficients.
    """

    __slots__ = ("_terms", "_sorted")

    def __init__(self, terms: dict[FermionTerm, complex] | None = None):
        self._terms: dict[FermionTerm, complex] = dict(terms) if terms else {}
        self._sorted: tuple[tuple[FermionTerm, complex], ...] | None = None

    @classmethod
    def from_term(cls, ops: Sequence[FermionOp], coeff: complex = 1.0) -> "FermionPolynomial":
        return cls({tuple(ops): coeff})

    @classmethod
    def identity(cls, coeff: complex = 1.0) -> "FermionPolynomial":
        return cls({(): coeff})

    def add_term(self, ops: FermionTerm, coeff: complex) -> None:
        self._sorted = None
        new = self._terms.get(ops, 0.0) + coeff
        if abs(new) <= DROP_TOLERANCE:
            self._terms.pop(ops, None)
        else:
            self._terms[ops] = new

    def items(self) -> tuple[tuple[FermionTerm, complex], ...]:
        """Terms sorted by operator sequence, cached until the next mutation."""
        if self._sorted is None:
            self._sorted = tuple(sorted(self._terms.items()))
        return self._sorted

    def __len__(self) -> int:
        return len(self._terms)

    def __add__(self, other: "FermionPolynomial") -> "FermionPolynomial":
        out = FermionPolynomial(self._terms)
        for ops, c in other._terms.items():
            out.add_term(ops, c)
        return out

    def __sub__(self, other: "FermionPolynomial") -> "FermionPolynomial":
        return self + (other * -1.0)

    def __mul__(self, other):
        if isinstance(other, FermionPolynomial):
            out = FermionPolynomial()
            for ops_a, ca in self._terms.items():
                for ops_b, cb in other._terms.items():
                    out.add_term(ops_a + ops_b, ca * cb)
            return out
        if abs(other) <= DROP_TOLERANCE:
            return FermionPolynomial()
        return FermionPolynomial({ops: c * other for ops, c in self._terms.items()})

    __rmul__ = __mul__

    def dagger(self) -> "FermionPolynomial":
        """Adjoint: reverse each operator sequence and toggle dagger flags."""
        out = FermionPolynomial()
        for ops, c in self._terms.items():
            rev = tuple((mode, not create) for mode, create in reversed(ops))
            out.add_term(rev, c.conjugate())
        return out

    def max_mode(self) -> int:
        m = -1
        for ops in self._terms:
            for mode, _ in ops:
                m = max(m, mode)
        return m


def spin_mode(orbital: int, spin: int) -> int:
    """Interleaved spin orbital index: alpha of orbital p is 2p, beta is 2p+1."""
    return 2 * orbital + spin


def e_pq(p: int, q: int) -> FermionPolynomial:
    """Singlet one-electron excitation E_pq summed over both spins (spatial p, q)."""
    out = FermionPolynomial()
    for spin in (0, 1):
        out.add_term(((spin_mode(p, spin), True), (spin_mode(q, spin), False)), 1.0)
    return out


# ---------------------------------------------------------------------------
# Fermion-to-qubit mappings
# ---------------------------------------------------------------------------


# Qubit axis from the mask bits (x, z): I, X, Z and Y = iXZ.
_MASK_AXES = "IXZY"


def _local_operators(poly: FermionPolynomial) -> dict[tuple, complex]:
    """Sum the monomials' Jordan-Wigner images by local-operator key.

    A key ``(units, rows, cols, zs)`` puts |r><c| on the qubits in
    ``units`` (row and column bits in ``rows``/``cols``), Z on ``zs`` and
    I elsewhere.  Vanishing words are skipped.
    """
    out: dict[tuple, complex] = {}
    for ops, coeff in poly.items():
        units = rows = cols = zs = 0
        sign = 1
        for mode, create in ops:
            bit = 1 << mode
            below = bit - 1
            # Z on every qubit below the mode; |r><c| Z = (-1)^c |r><c|.
            if (cols & below).bit_count() & 1:
                sign = -sign
            zs ^= below & ~units
            # a+ carries sigma+ = |1><0|, a carries sigma- = |0><1|.
            if units & bit:
                if bool(cols & bit) != create:
                    break
                cols ^= bit
            else:
                if create and zs & bit:
                    sign = -sign  # Z |1><0| = -|1><0|
                zs &= ~bit
                units |= bit
                if create:
                    rows |= bit
                else:
                    cols |= bit
        else:
            key = (units, rows, cols, zs)
            out[key] = out.get(key, 0.0) + sign * coeff
    return out


def _expand(key: tuple, coeff: complex) -> list[tuple[int, int, complex]]:
    """Expand one local-operator product into (x, z, coefficient) terms."""
    units, rows, cols, zs = key
    terms = [(0, zs, complex(coeff))]
    while units:
        bit = units & -units
        units ^= bit
        if (rows ^ cols) & bit:  # sigma+- = (X -+ iY) / 2
            xb, half = bit, (-0.5j if rows & bit else 0.5j)
        else:  # |r><r| = (I + (-1)^r Z) / 2
            xb, half = 0, (-0.5 if rows & bit else 0.5)
        terms = [
            t for x, z, c in terms for t in ((x | xb, z, 0.5 * c), (x | xb, z | bit, half * c))
        ]
    return terms


def _parity_masks(x: int, z: int, n_modes: int) -> tuple[int, int, int]:
    """Parity image (x', z', sign) of the string i^(x.z) X^x Z^z."""
    xp = x
    shift = 1
    while shift < n_modes:
        xp ^= xp << shift
        shift <<= 1
    xp &= (1 << n_modes) - 1
    zp = z ^ (z >> 1)
    turns = (x & z).bit_count() - (xp & zp).bit_count()
    return xp, zp, -1 if turns % 4 else 1


def _map_masks(poly: FermionPolynomial, n_modes: int, parity: bool) -> PauliSum:
    if poly.max_mode() >= n_modes:
        raise ValueError("polynomial acts on a mode outside the register")
    acc: dict[tuple[int, int], complex] = {}
    for key, coeff in _local_operators(poly).items():
        for x, z, c in _expand(key, coeff):
            if parity:
                x, z, sign = _parity_masks(x, z, n_modes)
                c = sign * c
            acc[x, z] = acc.get((x, z), 0.0) + c
    qubits = range(n_modes)
    return PauliSum(
        n_modes,
        {
            "".join(_MASK_AXES[(x >> q & 1) | (z >> q & 1) << 1] for q in qubits): c
            for (x, z), c in acc.items()
            if abs(c) > DROP_TOLERANCE
        },
    )


def jordan_wigner(poly: FermionPolynomial, n_modes: int) -> PauliSum:
    """Map a fermionic polynomial to Pauli strings under Jordan-Wigner.

    Mode m is carried by qubit m; the parity Z string acts on qubits
    below m.  With two spin orbitals, ``a0^dagger a0`` maps to
    ``0.5*(II - IZ)`` when labels are read with qubit 0 rightmost.

    Args:
        poly: Operator polynomial over modes ``0 .. n_modes - 1``.
        n_modes: Register size (one qubit per spin orbital mode).

    Returns:
        The mapped operator as a PauliSum.
    """
    return _map_masks(poly, n_modes, parity=False)


def parity_transform_bits(bits: Sequence[int]) -> list[int]:
    """Occupation bits to parity-encoded bits: p_j = n_0 xor ... xor n_j."""
    out = []
    acc = 0
    for b in bits:
        acc ^= int(b)
        out.append(acc)
    return out


def parity_map(poly: FermionPolynomial, n_modes: int) -> PauliSum:
    """Map a fermionic polynomial to Pauli strings under the parity encoding.

    Qubit j stores the cumulative occupation parity of modes 0..j.  The
    image equals the Jordan-Wigner image conjugated by the CNOT chain
    that converts occupations to cumulative parities; no qubit tapering
    is applied.

    Args:
        poly: Operator polynomial over modes ``0 .. n_modes - 1``.
        n_modes: Register size.

    Returns:
        The mapped operator as a PauliSum.
    """
    return _map_masks(poly, n_modes, parity=True)


MAPPINGS = ("jw", "parity")


def map_to_paulis(poly: FermionPolynomial, n_modes: int, mapping: str) -> PauliSum:
    """Dispatch to the requested fermion-to-qubit mapping ("jw" or "parity")."""
    if mapping == "jw":
        return jordan_wigner(poly, n_modes)
    if mapping == "parity":
        return parity_map(poly, n_modes)
    raise ValueError(f"unknown mapping {mapping!r}; expected one of {MAPPINGS}")


# ---------------------------------------------------------------------------
# Spin-adapted excitation operators
# ---------------------------------------------------------------------------


def build_spin_adapted_ops(
    occupied: Sequence[int], virtual: Sequence[int]
) -> list[tuple[str, FermionPolynomial]]:
    """Build the singlet single and double excitation operator set.

    Singles are ``E_ai / sqrt(2)``.  Doubles come in a symmetric
    combination with prefactor ``1 / (2 sqrt((1 + d_ab) (1 + d_ij)))``
    and, when both index pairs differ, an antisymmetric combination
    with prefactor ``1 / (2 sqrt(3))``.  The antisymmetric combination
    vanishes identically when a == b or i == j and is skipped.

    Args:
        occupied: Spatial orbitals occupied in the reference (ascending).
        virtual: Spatial orbitals empty in the reference (ascending).

    Returns:
        Ordered ``(label, polynomial)`` pairs: singles in lexicographic
        (i, a) order, then doubles in lexicographic (i, j, a, b) order
        with the symmetric combination before the antisymmetric one.
    """
    ops: list[tuple[str, FermionPolynomial]] = []
    for i in occupied:
        for a in virtual:
            ops.append((f"s({a}<-{i})", (1.0 / _SQRT2) * e_pq(a, i)))
    for ii, i in enumerate(occupied):
        for j in occupied[ii:]:
            for ai, a in enumerate(virtual):
                for b in virtual[ai:]:
                    norm = 2.0 * ((1.0 + (a == b)) * (1.0 + (i == j))) ** 0.5
                    sym = (e_pq(a, i) * e_pq(b, j) + e_pq(a, j) * e_pq(b, i)) * (1.0 / norm)
                    ops.append((f"d+({a}{b}<-{i}{j})", sym))
                    if a != b and i != j:
                        anti = (e_pq(a, i) * e_pq(b, j) - e_pq(a, j) * e_pq(b, i)) * (
                            1.0 / (2.0 * _SQRT3)
                        )
                        ops.append((f"d-({a}{b}<-{i}{j})", anti))
    return ops


_SQRT2 = 2.0**0.5
_SQRT3 = 3.0**0.5
