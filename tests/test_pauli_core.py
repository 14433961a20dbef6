"""Pauli algebra, clique covers, fermion-to-qubit mappings, operator sets."""

import numpy as np
import pytest

from qlrlab.pauli_core import (
    FermionPolynomial,
    PauliSum,
    PauliTerm,
    build_spin_adapted_ops,
    cover_first_fit,
    e_pq,
    jordan_wigner,
    map_to_paulis,
    parity_map,
    parity_transform_bits,
    qubitwise_commutes,
    spin_mode,
)
from oracles import (
    apply_ops_to_det,
    commutator,
    dense_fermion,
    dense_pauli_string,
    dense_pauli_sum,
    enumerate_dets,
    multiply,
    parity_permutation,
    s_squared_matrix,
    sector_operator,
)


# -- single-term products ----------------------------------------------------


def test_multiply_self_inverse():
    out = multiply(PauliTerm("X", 1.0), PauliTerm("X", 1.0))
    assert out == PauliTerm("I", 1.0)


def test_multiply_xy_gives_iz():
    out = multiply(PauliTerm("X", 1.0), PauliTerm("Y", 1.0))
    assert out.string == "Z"
    assert out.coeff == 1j


def test_multiply_two_qubit_phase():
    out = multiply(PauliTerm("XZ", 1.0), PauliTerm("ZZ", 1.0))
    assert out.string == "YI"
    assert out.coeff == -1j


def test_multiply_length_mismatch():
    with pytest.raises(ValueError):
        multiply(PauliTerm("X", 1.0), PauliTerm("XX", 1.0))


def test_multiply_matches_dense_and_closes(seed=5):
    rng = np.random.default_rng(seed)
    axes = np.array(list("IXYZ"))
    for _ in range(1000):
        a = "".join(rng.choice(axes, size=3))
        b = "".join(rng.choice(axes, size=3))
        c = "".join(rng.choice(axes, size=3))
        ab = multiply(PauliTerm(a, 1.0), PauliTerm(b, 1.0))
        assert set(ab.string) <= set("IXYZ")
        assert ab.coeff in (1, -1, 1j, -1j)
        dense = dense_pauli_string(a) @ dense_pauli_string(b)
        assert np.allclose(ab.coeff * dense_pauli_string(ab.string), dense)
        left = multiply(ab, PauliTerm(c, 1.0))
        right = multiply(PauliTerm(a, 1.0), multiply(PauliTerm(b, 1.0), PauliTerm(c, 1.0)))
        assert left == right


# -- qubit-wise commutation and first fit ------------------------------------


def test_qubitwise_commutes_identity_rule():
    assert qubitwise_commutes("XIZ", "XII")
    assert not qubitwise_commutes("XI", "YI")
    assert qubitwise_commutes("ZZ", "ZZ")


def test_cover_first_fit_forced_grouping():
    cover = cover_first_fit(2, ["ZI", "IZ", "XI"])
    groups = [clique.members for clique in cover.cliques]
    assert groups == [["ZI", "IZ"], ["XI"]]


def test_cover_first_fit_singletons():
    cover = cover_first_fit(2, ["XX", "YY", "ZZ"])
    assert len(cover) == 3


def test_cover_invariants_random(seed=9):
    rng = np.random.default_rng(seed)
    axes = np.array(list("IXYZ"))
    assert len(cover_first_fit(4, ["IIII"])) == 0
    for _ in range(50):
        strings = ["".join(rng.choice(axes, size=4)) for _ in range(30)]
        strings = list({s for s in strings if set(s) != {"I"}})
        cover = cover_first_fit(4, strings)
        assert len(cover) <= len(strings)
        seen = []
        for clique in cover.cliques:
            seen.extend(clique.members)
            for a in clique.members:
                for b in clique.members:
                    assert qubitwise_commutes(a, b)
        assert sorted(seen) == sorted(strings)
        for string in strings:
            idx = cover.member_index[string]
            assert string in cover.cliques[idx].members


# -- fermionic mappings ------------------------------------------------------


def test_jordan_wigner_number_operator():
    poly = FermionPolynomial.from_term(((0, True), (0, False)))
    image = jordan_wigner(poly, 2)
    coeffs = dict(image.terms())
    assert coeffs[PauliTerm("II", 0.5).string] == pytest.approx(0.5)
    assert coeffs[PauliTerm("ZI", -0.5).string] == pytest.approx(-0.5)


def test_jordan_wigner_hopping():
    poly = FermionPolynomial.from_term(((0, True), (1, False)))
    poly.add_term(((1, True), (0, False)), 1.0)
    image = jordan_wigner(poly, 2)
    coeffs = dict(image.terms())
    assert coeffs["XX"] == pytest.approx(0.5)
    assert coeffs["YY"] == pytest.approx(0.5)


def test_jordan_wigner_zero_polynomial():
    image = jordan_wigner(FermionPolynomial(), 2)
    assert not image.terms()


def test_parity_identity_polynomial():
    image = parity_map(FermionPolynomial.identity(2.0), 2)
    assert image.terms() == [("II", 2.0)]


def test_parity_number_operator_is_basis_change_of_jw():
    poly = FermionPolynomial.from_term(((0, True), (0, False)))
    jw = dense_pauli_sum(jordan_wigner(poly, 2))
    par = dense_pauli_sum(parity_map(poly, 2))
    perm = parity_permutation(2)
    assert np.allclose(perm @ jw @ perm.T, par)


def test_parity_total_number_spectrum():
    total = FermionPolynomial()
    for m in range(2):
        total.add_term(((m, True), (m, False)), 1.0)
    eigs = np.linalg.eigvalsh(dense_pauli_sum(parity_map(total, 2)))
    assert np.allclose(sorted(eigs), [0, 1, 1, 2])


def test_mappings_unitarily_equivalent_random(seed=3):
    rng = np.random.default_rng(seed)
    n_modes = 4
    for _ in range(20):
        poly = FermionPolynomial()
        for _ in range(4):
            rank = rng.integers(1, 3)
            ops = []
            for _ in range(rank):
                ops.append((int(rng.integers(n_modes)), True))
                ops.append((int(rng.integers(n_modes)), False))
            poly.add_term(tuple(ops), complex(rng.normal(), rng.normal()))
        hermitian = poly + poly.dagger()
        jw = dense_pauli_sum(jordan_wigner(hermitian, n_modes))
        par = dense_pauli_sum(parity_map(hermitian, n_modes))
        assert np.allclose(np.linalg.eigvalsh(jw), np.linalg.eigvalsh(par), atol=1e-10)


def _dense_image(poly, n_modes, mapping):
    """Oracle image: the dense fermion matrix, basis-changed for parity."""
    dense = dense_fermion(poly, n_modes)
    if mapping == "parity":
        perm = parity_permutation(n_modes)
        dense = perm @ dense @ perm.T
    return dense


def test_mapped_image_matches_dense_fermion(seed=11):
    rng = np.random.default_rng(seed)
    for mapping in ("jw", "parity"):
        for _ in range(40):
            n_modes = int(rng.integers(4, 7))
            poly = FermionPolynomial()
            for _ in range(int(rng.integers(1, 4))):
                # Words of 2-12 operators on few distinct modes, so modes
                # repeat.  Most alternate creation and annihilation on each
                # mode and survive; the rest are free and often vanish.
                modes = rng.choice(n_modes, size=int(rng.integers(1, 5)), replace=False)
                alternate = rng.integers(3) > 0
                last: dict[int, bool] = {}
                ops = []
                for _ in range(int(rng.integers(2, 13))):
                    mode = int(rng.choice(modes))
                    create = bool(rng.integers(2))
                    if alternate and mode in last:
                        create = not last[mode]
                    last[mode] = create
                    ops.append((mode, create))
                poly.add_term(tuple(ops), complex(rng.normal(), rng.normal()))
            image = map_to_paulis(poly, n_modes, mapping)
            assert np.allclose(
                dense_pauli_sum(image), _dense_image(poly, n_modes, mapping), atol=1e-12
            )


@pytest.mark.parametrize("mapping", ["jw", "parity"])
@pytest.mark.parametrize(
    "ops",
    [
        ((2, False), (2, False)),  # a_m a_m vanishes
        ((3, True), (1, True), (3, True)),  # repeated creation vanishes
        ((4, True),),  # Z string over qubits 0-3, no ladder there
        ((5, True), (1, False), (0, True)),  # odd word with a gap in the string
        ((1, True), (1, False), (1, True), (1, False)),  # n_1 n_1 = n_1
        ((2, False), (2, True), (0, False), (0, True)),  # hole numbers
        ((5, False), (3, True), (5, True), (0, False), (3, False), (0, True)),
    ],
)
def test_edge_words_match_dense_fermion(mapping, ops):
    n_modes = 6
    poly = FermionPolynomial.from_term(ops, 0.7 - 0.2j)
    image = map_to_paulis(poly, n_modes, mapping)
    dense = _dense_image(poly, n_modes, mapping)
    assert np.allclose(dense_pauli_sum(image), dense, atol=1e-12)
    if not np.any(dense):
        assert len(image) == 0


def test_mapping_rejects_out_of_range_mode():
    poly = FermionPolynomial.from_term(((4, True), (0, False)))
    for mapping in ("jw", "parity"):
        with pytest.raises(ValueError):
            map_to_paulis(poly, 4, mapping)


def test_fermion_items_cache_tracks_mutation():
    poly = FermionPolynomial.from_term(((1, True), (0, False)), 2.0)
    first = poly.items()
    assert poly.items() is first
    assert isinstance(first, tuple)
    poly.add_term(((0, True), (1, False)), 1.0)
    assert poly.items() == (
        (((0, True), (1, False)), 1.0),
        (((1, True), (0, False)), 2.0),
    )
    assert first == ((((1, True), (0, False)), 2.0),)
    poly.add_term(((0, True), (1, False)), -1.0)
    assert poly.items() == first


# -- spin-adapted operator set -----------------------------------------------


def test_spin_adapted_cas22_prefactors():
    ops = build_spin_adapted_ops([0], [1])
    labels = [lab for lab, _ in ops]
    assert labels == ["s(1<-0)", "d+(11<-00)"]
    single = dense_fermion(dict(ops)["s(1<-0)"], 4)
    assert np.allclose(single, dense_fermion(e_pq(1, 0), 4) / np.sqrt(2))
    double = dense_fermion(dict(ops)["d+(11<-00)"], 4)
    e10 = dense_fermion(e_pq(1, 0), 4)
    # Prefactor 1/(2 sqrt((1+1)(1+1))) = 1/4 on both identical index orders.
    assert np.allclose(double, 2.0 * (e10 @ e10) / 4.0)


def test_spin_adapted_antisymmetric_needs_distinct_pairs():
    ops = build_spin_adapted_ops([0, 1], [2, 3])
    labels = [lab for lab, _ in ops]
    assert "d-(23<-01)" in labels
    assert not any(lab.startswith("d-(22") or lab.startswith("d-(33") for lab in labels)
    assert all("d-" not in lab or lab == "d-(23<-01)" for lab in labels)


def test_spin_adapted_singlet_action(seed=2):
    """G applied to a closed-shell determinant keeps total spin S = 0."""
    n_orb = 3
    dets = enumerate_dets(n_orb, 2, 0)
    index = {d: i for i, d in enumerate(dets)}
    s2 = s_squared_matrix(n_orb, dets)
    hf = (1 << spin_mode(0, 0)) + (1 << spin_mode(0, 1))
    for _, poly in build_spin_adapted_ops([0], [1, 2]):
        vec = np.zeros(len(dets))
        for ops, coeff in poly.items():
            res = apply_ops_to_det(ops, hf)
            if res is None:
                continue
            sign, det = res
            vec[index[det]] += (coeff * sign).real
        norm = np.linalg.norm(vec)
        if norm > 1e-12:
            vec /= norm
            assert abs(vec @ s2 @ vec) < 1e-10


def test_commutator_matches_dense(seed=7):
    rng = np.random.default_rng(seed)
    n_modes = 4
    for _ in range(5):
        a = FermionPolynomial()
        b = FermionPolynomial()
        for _ in range(2):
            a.add_term(((int(rng.integers(n_modes)), True), (int(rng.integers(n_modes)), False)), rng.normal())
            b.add_term(((int(rng.integers(n_modes)), True), (int(rng.integers(n_modes)), False)), rng.normal())
        lhs = dense_fermion(commutator(a, b), n_modes)
        da, db = dense_fermion(a, n_modes), dense_fermion(b, n_modes)
        assert np.allclose(lhs, da @ db - db @ da, atol=1e-12)


def test_pauli_sum_drops_small_coefficients():
    out = PauliSum(2)
    out.add_term("XX", 1e-13)
    assert not out.terms()
    out.add_term("XX", 0.5)
    out.add_term("XX", -0.5)
    assert not out.terms()


def test_e_pq_matrix_elements():
    """E_10 moves one electron from orbital 0 to 1 in both spin channels."""
    poly = e_pq(1, 0)
    dets = enumerate_dets(2, 2, 0)
    mat = sector_operator([(c, ops) for ops, c in poly.items()], dets)
    hf = (1 << 0) + (1 << 1)
    j = dets.index(hf)
    column = mat[:, j]
    assert np.count_nonzero(np.abs(column) > 1e-12) == 2
    assert np.allclose(sorted(np.abs(column[np.abs(column) > 1e-12])), [1.0, 1.0])
