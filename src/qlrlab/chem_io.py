"""Integral file handling, orbital rotations and active-space reduction.

FCIDUMP files follow the Molpro convention: 1-based indices, chemists'
notation (ij|kl) with 8-fold permutation symmetry, one-electron entries
with k = l = 0 and the core energy on the all-zero index line.  Dipole
sidecar files use the same line grammar restricted to one-electron
entries, one file per Cartesian axis with suffixes .dx/.dy/.dz.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.linalg

from .pauli_core import DROP_TOLERANCE, FermionPolynomial, FermionTerm

_INACTIVE, _ACTIVE, _VIRTUAL = 0, 1, 2


@dataclass(frozen=True)
class ActiveSpace:
    """A CAS partition of spatial orbitals into inactive/active/virtual.

    Attributes:
        n_orb: Total spatial orbital count.
        n_elec: Total electron count (must be even, closed-shell reference).
        active: Sorted 0-based spatial orbitals in the active space.
        n_active_elec: Electrons distributed in the active orbitals.

    The inactive space is the lowest (n_elec - n_active_elec) / 2
    non-active orbitals; everything else is virtual.  Within the active
    space the first n_active_elec / 2 orbitals are occupied in the
    reference determinant.  ``mode_table[mode]`` holds the orbital class
    of a spin-orbital mode and its index on the active register (-1 for
    frozen modes).
    """

    n_orb: int
    n_elec: int
    active: tuple[int, ...]
    n_active_elec: int

    def __post_init__(self):
        active = tuple(sorted(self.active))
        object.__setattr__(self, "active", active)
        if self.n_elec % 2 or self.n_active_elec % 2:
            raise ValueError("closed-shell reference requires even electron counts")
        if self.n_active_elec > self.n_elec:
            raise ValueError("more active electrons than electrons")
        if len(set(active)) != len(active):
            raise ValueError("duplicate active orbitals")
        if active and (active[0] < 0 or active[-1] >= self.n_orb):
            raise ValueError("active orbital index out of range")
        if self.n_active_elec > 2 * len(active):
            raise ValueError("active orbitals cannot hold the active electrons")
        n_inactive = (self.n_elec - self.n_active_elec) // 2
        rest = [p for p in range(self.n_orb) if p not in active]
        if len(rest) < n_inactive:
            raise ValueError("not enough orbitals outside the active space")
        inactive = tuple(rest[:n_inactive])
        object.__setattr__(self, "_inactive", inactive)
        object.__setattr__(self, "_virtual", tuple(rest[n_inactive:]))
        table = []
        for mode in range(2 * self.n_orb):
            orbital, spin = divmod(mode, 2)
            if orbital in active:
                table.append((_ACTIVE, 2 * active.index(orbital) + spin))
            else:
                table.append((_INACTIVE if orbital in inactive else _VIRTUAL, -1))
        object.__setattr__(self, "mode_table", tuple(table))

    @classmethod
    def full(cls, n_orb: int, n_elec: int) -> "ActiveSpace":
        return cls(n_orb, n_elec, tuple(range(n_orb)), n_elec)

    @property
    def n_inactive(self) -> int:
        return (self.n_elec - self.n_active_elec) // 2

    @property
    def inactive(self) -> tuple[int, ...]:
        return self._inactive

    @property
    def virtual(self) -> tuple[int, ...]:
        return self._virtual

    @property
    def occupied_active(self) -> tuple[int, ...]:
        return self.active[: self.n_active_elec // 2]

    @property
    def virtual_active(self) -> tuple[int, ...]:
        return self.active[self.n_active_elec // 2 :]

    @property
    def n_active_orb(self) -> int:
        return len(self.active)

    @property
    def n_active_modes(self) -> int:
        return 2 * len(self.active)


@dataclass
class MolecularSystem:
    """Molecular integrals in a fixed orthonormal (MO) basis.

    Attributes:
        n_orb: Spatial orbital count.
        n_elec: Electron count.
        e_core: Scalar (nuclear repulsion plus any frozen-core constant).
        h: One-electron integrals, shape (n_orb, n_orb).
        g: Two-electron integrals (ij|kl) in chemists' notation,
            shape (n_orb,) * 4.
        dipole: Optional per-axis one-electron dipole matrices.
    """

    n_orb: int
    n_elec: int
    e_core: float
    h: np.ndarray
    g: np.ndarray
    dipole: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        self.h = np.asarray(self.h, dtype=float)
        self.g = np.asarray(self.g, dtype=float)
        if self.h.shape != (self.n_orb, self.n_orb):
            raise ValueError("h has the wrong shape")
        if self.g.shape != (self.n_orb,) * 4:
            raise ValueError("g has the wrong shape")


_NAMELIST_INT = {"NORB", "NELEC", "MS2"}


def _parse_namelist(text: str) -> dict[str, int]:
    """Extract integer fields from the &FCI ... &END (or /) header."""
    header_match = re.search(r"&FCI(.*?)(?:&END|/)", text, re.IGNORECASE | re.DOTALL)
    if header_match is None:
        raise ValueError("malformed FCIDUMP: missing &FCI ... &END namelist")
    header = header_match.group(1)
    values: dict[str, int] = {}
    for key in _NAMELIST_INT:
        m = re.search(rf"{key}\s*=\s*(-?\d+)", header, re.IGNORECASE)
        if m:
            values[key] = int(m.group(1))
    if "NORB" not in values or "NELEC" not in values:
        raise ValueError("malformed FCIDUMP: NORB and NELEC are required")
    return values


def parse_fcidump(path: str | Path) -> MolecularSystem:
    """Read a Molpro-convention FCIDUMP file.

    Two-electron entries are expanded to all 8 permutation-symmetric
    index orders.  Orbital-energy lines (one positive index) are
    accepted and ignored.

    Raises:
        ValueError: On a malformed namelist, an index out of range or
            duplicate entries that disagree by more than 1e-10.
    """
    text = Path(path).read_text()
    values = _parse_namelist(text)
    n_orb = values["NORB"]
    n_elec = values["NELEC"]
    body_start = re.search(r"(?:&END|/)", text, re.IGNORECASE).end()
    h = np.zeros((n_orb, n_orb))
    g = np.zeros((n_orb,) * 4)
    h_seen = np.zeros((n_orb, n_orb), dtype=bool)
    g_seen = np.zeros((n_orb,) * 4, dtype=bool)
    e_core = 0.0
    for line in text[body_start:].splitlines():
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 5:
            raise ValueError(f"malformed FCIDUMP line: {line!r}")
        value = float(parts[0])
        i, j, k, l = (int(x) for x in parts[1:])
        for idx in (i, j, k, l):
            if idx < 0 or idx > n_orb:
                raise ValueError(f"orbital index {idx} out of range 0..{n_orb}")
        if i == 0 and j == 0 and k == 0 and l == 0:
            e_core = value
        elif j == 0 and k == 0 and l == 0:
            continue  # orbital energy line
        elif k == 0 and l == 0:
            a, b = i - 1, j - 1
            for p, q in ((a, b), (b, a)):
                if h_seen[p, q] and abs(h[p, q] - value) > 1e-10:
                    raise ValueError(f"conflicting h({i},{j}) entries")
                h[p, q] = value
                h_seen[p, q] = True
        elif i > 0 and j > 0 and k > 0 and l > 0:
            a, b, c, d = i - 1, j - 1, k - 1, l - 1
            for p, q, r, s in _eightfold(a, b, c, d):
                if g_seen[p, q, r, s] and abs(g[p, q, r, s] - value) > 1e-10:
                    raise ValueError(f"conflicting g({i},{j},{k},{l}) entries")
                g[p, q, r, s] = value
                g_seen[p, q, r, s] = True
        else:
            raise ValueError(f"malformed FCIDUMP indices in line: {line!r}")
    return MolecularSystem(n_orb=n_orb, n_elec=n_elec, e_core=e_core, h=h, g=g)


def _eightfold(i, j, k, l):
    return {
        (i, j, k, l),
        (j, i, k, l),
        (i, j, l, k),
        (j, i, l, k),
        (k, l, i, j),
        (l, k, i, j),
        (k, l, j, i),
        (l, k, j, i),
    }


def write_fcidump(system: MolecularSystem, path: str | Path, tol: float = 0.0) -> None:
    """Write integrals in the Molpro FCIDUMP convention.

    Only canonical index quadruples (i >= j, k >= l, (ij) >= (kl)) are
    emitted; entries with |value| <= tol are skipped except the core
    energy line, which is always written last.
    """
    n = system.n_orb
    lines = [
        f"&FCI NORB={n},NELEC={system.n_elec},MS2=0,",
        " ORBSYM=" + ",".join(["1"] * n) + ",",
        " ISYM=1,",
        "&END",
    ]
    for i in range(n):
        for j in range(i + 1):
            for k in range(i + 1):
                lmax = j if k == i else k
                for l in range(lmax + 1):
                    val = system.g[i, j, k, l]
                    if abs(val) > tol:
                        lines.append(_fmt(val, i + 1, j + 1, k + 1, l + 1))
    for i in range(n):
        for j in range(i + 1):
            if abs(system.h[i, j]) > tol:
                lines.append(_fmt(system.h[i, j], i + 1, j + 1, 0, 0))
    lines.append(_fmt(system.e_core, 0, 0, 0, 0))
    Path(path).write_text("\n".join(lines) + "\n")


def _fmt(value: float, i: int, j: int, k: int, l: int) -> str:
    return f"{value: .16E} {i:4d} {j:4d} {k:4d} {l:4d}"


DIPOLE_SUFFIXES = {"x": ".dx", "y": ".dy", "z": ".dz"}


def parse_dipole(prefix: str | Path, n_orb: int) -> dict[str, np.ndarray]:
    """Read per-axis dipole matrices from <prefix>.dx/.dy/.dz sidecar files.

    Each file uses FCIDUMP line grammar restricted to one-electron
    entries ("value i j 0 0"); a missing file yields a zero matrix.

    Raises:
        ValueError: If a line carries four nonzero indices.
    """
    out: dict[str, np.ndarray] = {}
    for axis, suffix in DIPOLE_SUFFIXES.items():
        path = Path(str(prefix) + suffix)
        mat = np.zeros((n_orb, n_orb))
        if path.exists():
            text = path.read_text()
            m = re.search(r"(?:&END|/)", text, re.IGNORECASE)
            body = text[m.end() :] if m else text
            for line in body.splitlines():
                line = line.strip()
                if not line:
                    continue
                parts = line.split()
                if len(parts) != 5:
                    raise ValueError(f"malformed dipole line: {line!r}")
                value = float(parts[0])
                i, j, k, l = (int(x) for x in parts[1:])
                if k != 0 or l != 0:
                    raise ValueError("dipole files carry one-electron entries only")
                if i == 0 and j == 0:
                    continue
                if not (1 <= i <= n_orb and 1 <= j <= n_orb):
                    raise ValueError(f"orbital index out of range in {path}")
                mat[i - 1, j - 1] = value
                mat[j - 1, i - 1] = value
        out[axis] = mat
    return out


def write_dipole(system: MolecularSystem, prefix: str | Path, tol: float = 0.0) -> None:
    """Write the per-axis dipole matrices as <prefix>.dx/.dy/.dz sidecars.

    Lines follow the one-electron FCIDUMP grammar ("value i j 0 0") over
    the lower triangle; entries with magnitude <= ``tol`` are dropped.
    """
    for axis, suffix in DIPOLE_SUFFIXES.items():
        mat = system.dipole.get(axis)
        lines = []
        if mat is not None:
            for i in range(system.n_orb):
                for j in range(i + 1):
                    if abs(mat[i, j]) > tol or (tol == 0.0 and mat[i, j] != 0.0):
                        lines.append(_fmt(mat[i, j], i + 1, j + 1, 0, 0))
        Path(str(prefix) + suffix).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Orbital rotations
# ---------------------------------------------------------------------------


def kappa_pairs(space: ActiveSpace) -> list[tuple[int, int]]:
    """Non-redundant orbital rotation pairs (target, source).

    Classes in order: active<-inactive, virtual<-inactive,
    virtual<-active; within a class sorted by (source, target).
    The full-space limit has no pairs.
    """
    pairs: list[tuple[int, int]] = []
    for src_list, tgt_list in (
        (space.inactive, space.active),
        (space.inactive, space.virtual),
        (space.active, space.virtual),
    ):
        for q in src_list:
            for p in tgt_list:
                pairs.append((p, q))
    return pairs


def kappa_matrix(space: ActiveSpace, values) -> np.ndarray:
    """Assemble the antisymmetric rotation generator from parameters.

    kappa acts as sum_r values[r] (E_pq - E_qp) at the orbital level,
    stored as mat[p, q] = values[r], mat[q, p] = -values[r].
    """
    pairs = kappa_pairs(space)
    values = np.asarray(values, dtype=float)
    if values.shape != (len(pairs),):
        raise ValueError(f"expected {len(pairs)} kappa parameters, got {values.shape}")
    mat = np.zeros((space.n_orb, space.n_orb))
    for (p, q), v in zip(pairs, values):
        mat[p, q] = v
        mat[q, p] = -v
    return mat


def rotate_integrals(system: MolecularSystem, kappa: np.ndarray) -> MolecularSystem:
    """Transform all integrals by the orthogonal rotation exp(kappa).

    With O = expm(kappa) the one-electron part maps as O^T h O and the
    two-electron part carries one factor of O on each index.  The core
    energy is untouched; dipole matrices transform like h.
    """
    kappa = np.asarray(kappa, dtype=float)
    if not np.allclose(kappa, -kappa.T, atol=1e-12):
        raise ValueError("kappa must be antisymmetric")
    rot = scipy.linalg.expm(kappa)
    h = rot.T @ system.h @ rot
    g = np.einsum("pa,qb,rc,sd,pqrs->abcd", rot, rot, rot, rot, system.g, optimize=True)
    dipole = {axis: rot.T @ mat @ rot for axis, mat in system.dipole.items()}
    return MolecularSystem(
        n_orb=system.n_orb,
        n_elec=system.n_elec,
        e_core=system.e_core,
        h=h,
        g=g,
        dipole=dipole,
    )


# ---------------------------------------------------------------------------
# Hamiltonian construction and frozen-space reduction
# ---------------------------------------------------------------------------


def build_hamiltonian_poly(system: MolecularSystem, tol: float = 1e-14) -> FermionPolynomial:
    """Second-quantized Hamiltonian (without e_core) over spin-orbital modes.

    Uses the chemists' normal form
    ``sum h_pq a+_ps a_qs + 1/2 sum (pq|rs) a+_ps a+_rt a_st a_qs``.
    """
    n = system.n_orb
    poly = FermionPolynomial()
    for p in range(n):
        for q in range(n):
            if abs(system.h[p, q]) > tol:
                for s in (0, 1):
                    poly.add_term(
                        ((2 * p + s, True), (2 * q + s, False)), system.h[p, q]
                    )
    for p in range(n):
        for q in range(n):
            for r in range(n):
                for s_ in range(n):
                    val = system.g[p, q, r, s_]
                    if abs(val) <= tol:
                        continue
                    for sig in (0, 1):
                        for tau in (0, 1):
                            poly.add_term(
                                (
                                    (2 * p + sig, True),
                                    (2 * r + tau, True),
                                    (2 * s_ + tau, False),
                                    (2 * q + sig, False),
                                ),
                                0.5 * val,
                            )
    return poly


def dipole_poly(system: MolecularSystem, axis: str, tol: float = 1e-14) -> FermionPolynomial:
    """Electronic dipole operator for one axis as a one-electron polynomial."""
    mat = system.dipole[axis]
    poly = FermionPolynomial()
    n = system.n_orb
    for p in range(n):
        for q in range(n):
            if abs(mat[p, q]) > tol:
                for s in (0, 1):
                    poly.add_term(((2 * p + s, True), (2 * q + s, False)), mat[p, q])
    return poly


def reduce_term(
    ops: FermionTerm, space: ActiveSpace
) -> tuple[float, FermionTerm] | None:
    """Contract the frozen-space part of one operator product.

    The product is stably partitioned into (inactive)(active)(virtual)
    sub-products; each crossing of two operators contributes a fermionic
    sign (distinct modes always anticommute).  The inactive product is
    evaluated against the filled inactive determinant, the virtual one
    against the empty virtual register.  Unbalanced frozen excitations
    evaluate to zero (returned as None), never an error.

    Returns:
        (classical_factor, active_ops_local) or None when the term
        vanishes; active operators are re-indexed to the active register.
    """
    sign = 1
    seen_active = 0
    seen_virtual = 0
    inactive_ops: list[tuple[int, bool]] = []
    active_ops: list[tuple[int, bool]] = []
    virtual_ops: list[tuple[int, bool]] = []
    table = space.mode_table
    for mode, create in ops:
        cls, local = table[mode]
        if cls == _INACTIVE:
            if (seen_active + seen_virtual) % 2:
                sign = -sign
            inactive_ops.append((mode, create))
        elif cls == _ACTIVE:
            if seen_virtual % 2:
                sign = -sign
            seen_active += 1
            active_ops.append((local, create))
        else:
            seen_virtual += 1
            virtual_ops.append((mode, create))
    i_val = _filled_register_expectation(inactive_ops, filled=True)
    if i_val == 0:
        return None
    v_val = _filled_register_expectation(virtual_ops, filled=False)
    if v_val == 0:
        return None
    return float(sign * i_val * v_val), tuple(active_ops)


def _filled_register_expectation(ops: list[tuple[int, bool]], filled: bool) -> int:
    """<det| ops |det> for a register that is fully occupied or fully empty.

    A nonzero result requires every mode to be toggled an even number of
    times, so the static occupation parity below each mode cancels over
    the sequence and only currently flipped modes contribute to signs.
    """
    flipped = 0  # mask of modes whose occupation currently differs from det
    sign = 1
    for mode, create in reversed(ops):
        bit = 1 << mode
        if create == (not flipped & bit if filled else bool(flipped & bit)):
            return 0
        if (flipped & (bit - 1)).bit_count() & 1:
            sign = -sign
        flipped ^= bit
    return 0 if flipped else sign


def reduce_to_active(
    poly: FermionPolynomial, space: ActiveSpace
) -> tuple[complex, FermionPolynomial]:
    """Contract a full-space polynomial over the frozen spaces.

    Returns:
        (scalar, active_poly): the purely classical part and the
        remaining operator on the active register (local mode indices).
    """
    scalar: complex = 0.0
    out = FermionPolynomial()
    for ops, coeff in poly.items():
        res = reduce_term(ops, space)
        if res is None:
            continue
        factor, act = res
        value = coeff * factor
        if act:
            out.add_term(act, value)
        else:
            scalar += value
    return scalar, out


def active_hamiltonian(
    system: MolecularSystem, space: ActiveSpace
) -> tuple[complex, FermionPolynomial]:
    """Reduce the molecular Hamiltonian to the active register.

    Returns:
        (scalar, active_poly) where scalar includes e_core and the
        frozen-core energy; active_poly acts on local active modes.
    """
    scalar, act = reduce_to_active(build_hamiltonian_poly(system), space)
    return scalar + system.e_core, act
