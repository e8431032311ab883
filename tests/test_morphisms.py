import random

from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from s1cochain import morphisms
from s1cochain.brieskorn import milnor_model
from s1cochain.complexes import lift_family, make_complex, truncate, verify_s1_relations
from s1cochain.linalg import SparseMatrix, Subquotient, vsub
from s1cochain.morphisms import (
    S1Homotopy,
    S1Morphism,
    compose,
    homotopy_deformation,
    identity_morphism,
    induced_cohomology_map,
    phi_k,
    verify_functoriality,
    verify_homotopy,
    verify_morphism,
    zero_morphism,
)
from s1cochain.randomized import (
    _allowed_pairs,
    _rand_coeff,
    random_endomorphism_pair,
    random_homotopy_blocks,
    random_morphism,
    random_s1_complex,
)
from s1cochain.spectral import (
    WitnessedCycle,
    delta_value,
    filtration_tower,
)

from oracles import perturbed_witness, submatrix


class TestVerify:
    def test_identity_valid(self):
        c = milnor_model(2, 2).complex
        assert verify_morphism(identity_morphism(c)).valid

    def test_non_chain_map_invalid_at_zero(self):
        c = make_complex([("x", 0), ("y", 1)], 1, {0: [("x", "y", 1)]})
        d = make_complex([("u", 0), ("v", 1)], 1, {})
        # with delta_D = 0 the k=0 residual is phi0 . delta_C, which is
        # nonzero as soon as phi0 does not kill the image of delta_C
        phi0 = SparseMatrix.from_entries(2, 2, [(1, 1, F(1))])
        bad = S1Morphism(c, d, (phi0, SparseMatrix.zero(2, 2)))
        rep = verify_morphism(bad)
        assert not rep.valid
        assert not rep.relation_checks[0].ok
        assert rep.violations() == [
            "relation sum_(i+j=0) phi^i delta^j - partial^j phi^i = 0: "
            "VIOLATED (('x', 'v', Fraction(1, 1)),)"]

    def test_subcomplex_inclusion_milnor(self):
        # the span of e, p1_check, p1_hat is closed under every operator
        big = milnor_model(2, 2, include_spheres=False).complex
        sub_names = ["e", "p1_check", "p1_hat"]
        idx = [big.index_of(n) for n in sub_names]
        gens = [(n, big.generators[big.index_of(n)].degree) for n in sub_names]
        ops = {}
        for r in range(big.truncation + 1):
            sub = submatrix(big.deltas[r], idx, idx)
            ops[r] = [(sub_names[j], sub_names[i], v) for i, j, v in sub.entries]
        small = make_complex(gens, big.truncation, ops)
        assert verify_s1_relations(small).valid
        ent = [(idx[j], j, F(1)) for j in range(len(idx))]
        phi0 = SparseMatrix.from_entries(big.n, small.n, ent)
        inc = S1Morphism(small, big,
                         (phi0,) + (SparseMatrix.zero(big.n, small.n),) * big.truncation)
        assert verify_morphism(inc).valid
        assert verify_functoriality(inc).valid

    def test_truncation_mismatch_rejected(self):
        a = make_complex([("x", 0)], 1, {})
        b = make_complex([("y", 0)], 2, {})
        with pytest.raises(Exception):
            zero_morphism(a, b)
        assert verify_morphism(zero_morphism(a, truncate(b, 1))).valid

    def test_degree_shift_violation_reported(self):
        a = make_complex([("x", 0)], 1, {})
        b = make_complex([("y", 1)], 1, {})
        # phi^0 must have degree 0; x -> y has degree +1
        phi0 = SparseMatrix.from_entries(1, 1, [(0, 0, F(1))])
        bad = S1Morphism(a, b, (phi0, SparseMatrix.zero(1, 1)))
        rep = verify_morphism(bad)
        assert not rep.degree_checks[0].ok
        assert rep.degree_checks[0].entries == (("x", "y"),)
        assert not rep.valid
        assert rep.violations() == ["degree shift of phi^0 (-2r): VIOLATED (('x', 'y'),)"]

    def test_homotopy_degree_violation_names_pairs(self):
        a = make_complex([("x", 0)], 1, {})
        b = make_complex([("y", 0)], 1, {})
        # h^0 must have degree -1; x -> y has degree 0
        h0 = SparseMatrix.from_entries(1, 1, [(0, 0, F(1))])
        phi = zero_morphism(a, b)
        rep = verify_homotopy(S1Homotopy((phi, phi), (h0, SparseMatrix.zero(1, 1))))
        assert [(c.order, c.ok, c.entries) for c in rep.degree_checks] == [
            (0, False, (("x", "y"),)), (1, True, ())]
        assert not rep.valid
        assert rep.violations() == ["degree shift of h^0 (-1-2r): VIOLATED (('x', 'y'),)"]

    def test_broken_homotopy_detected(self):
        rng = random.Random(43)
        c = random_s1_complex(rng, 6, 2)
        base, deformed, hom = random_endomorphism_pair(rng, c)
        assert verify_homotopy(hom).valid
        # claiming the homotopy connects base to itself is wrong whenever
        # the deformation actually moved the morphism
        if any(base.phis[r] != deformed.phis[r] for r in range(3)):
            from s1cochain.morphisms import S1Homotopy
            wrong = S1Homotopy((base, base), hom.hs)
            assert not verify_homotopy(wrong).valid
            assert all(line.startswith("relation phi^") and " - psi^" in line
                       for line in verify_homotopy(wrong).violations())


class TestCompose:
    def test_identity_neutral(self):
        rng = random.Random(1)
        c = random_s1_complex(rng, 6, 3)
        d = random_s1_complex(rng, 6, 3)
        phi = random_morphism(rng, c, d)
        assert compose(identity_morphism(d), phi).phis == phi.phis
        assert compose(phi, identity_morphism(c)).phis == phi.phis

    def test_zero_composition(self):
        rng = random.Random(2)
        c = random_s1_complex(rng, 5, 2)
        z = zero_morphism(c, c)
        assert compose(z, z).phis == z.phis

    def test_assembled_map_multiplicative(self):
        # (phi . psi)_S1 = phi_S1 . psi_S1 as matrices on F^N
        rng = random.Random(3)
        for _ in range(4):
            a = random_s1_complex(rng, 5, 3)
            b = random_s1_complex(rng, 5, 3)
            c = random_s1_complex(rng, 5, 3)
            psi = random_morphism(rng, a, b)
            phi = random_morphism(rng, b, c)
            comp = compose(phi, psi)
            assert verify_morphism(comp).valid
            lhs = lift_family(comp.phis, 3)
            rhs = lift_family(phi.phis, 3) @ lift_family(psi.phis, 3)
            assert lhs == rhs


class TestPhiK:
    def test_phi0_of_identity_is_identity_on_h(self):
        c = milnor_model(2, 2, include_spheres=False).complex
        p = phi_k(_strip_higher_target_identity(c), 0)
        assert p.domain.dim == p.codomain.dim
        assert p.rank == p.domain.dim

    def test_phi1_hand_example(self):
        # C: w(0), y(1), x(2) with delta0 w = y and delta1 x = y;
        # x lies in Z_1 with alpha_1 = -w.  phi0: w -> d, phi1: x -> 2d into
        # the one-generator target gives Phi^1(x) = phi0(-w) + phi1(x) = d.
        c = make_complex([("w", 0), ("y", 1), ("x", 2)], 2,
                         {0: [("w", "y", 1)], 1: [("x", "y", 1)]})
        assert verify_s1_relations(c).valid
        d = make_complex([("d", 0)], 2, {})
        phi0 = SparseMatrix.from_entries(1, 3, [(0, 0, F(1))])
        phi1 = SparseMatrix.from_entries(1, 3, [(0, 2, F(2))])
        phi = S1Morphism(c, d, (phi0, phi1, SparseMatrix.zero(1, 3)))
        assert verify_morphism(phi).valid
        p = phi_k(phi, 1)
        x = c.index_of("x")
        col = [j for j, w in enumerate(p.domain_witnesses) if w.leading == {x: F(1)}]
        assert len(col) == 1
        assert p.matrix.col(col[0]) == {0: F(1)}

    def test_requires_trivial_target(self):
        c = milnor_model(2, 2).complex
        with pytest.raises(ValueError):
            phi_k(identity_morphism(c), 1)

    def test_witness_independence(self):
        from s1cochain.morphisms import phi_value
        from s1cochain.spectral import filtration_tower

        rng = random.Random(9)
        c = random_s1_complex(rng, 7, 4)
        d = make_complex([(f"d{i}", i - 2) for i in range(5)], 4,
                         {0: [("d0", "d1", 1)]})
        phi = random_morphism(rng, c, d)
        p = phi_k(phi, 1)
        t = filtration_tower(c, 1)
        changed = 0
        for j, w in enumerate(p.domain_witnesses):
            w2 = perturbed_witness(t, w, kernel_index=1)
            changed += w2 != w
            val2 = phi_value(phi, w2)
            assert p.codomain.coordinates(val2) == tuple(
                p.matrix.col(j).get(i, F(0)) for i in range(p.codomain.dim))
        assert changed


def _strip_higher_target_identity(c):
    trivial = make_complex(
        [(g.name, g.degree) for g in c.generators], c.truncation,
        {0: [(c.generators[j].name, c.generators[i].name, v)
             for i, j, v in c.deltas[0].entries]})
    eye = SparseMatrix.identity(c.n)
    zero = SparseMatrix.zero(c.n, c.n)
    return S1Morphism(c, trivial, (eye,) + (zero,) * c.truncation)


class TestFunctoriality:
    def test_identity_and_zero(self):
        c = milnor_model(2, 2, include_spheres=False).complex
        assert verify_functoriality(identity_morphism(c)).valid
        assert verify_functoriality(zero_morphism(c, c)).valid

    def test_square_failing_in_z_and_outside_z(self):
        # delta^1(x) = y.  phi^0 keeps y and kills x, so at alpha = x the
        # square's difference is phi^0(Delta^1 x) - Delta^1(phi^0 x) = y.
        c = make_complex([("x", 1), ("y", 0)], 2, {1: [("x", "y", 1)]})
        zero = SparseMatrix.zero(2, 2)
        keep_y = SparseMatrix.from_entries(2, 2, [(1, 1, F(1))])
        # in C the difference y is closed but not exact: in Z_0, not in B_0
        phi = S1Morphism(c, c, (keep_y, zero, zero))
        assert verify_functoriality(phi).squares == ((1, False),)
        # in D it lands on v, which is not closed: outside Z_0
        d = make_complex([("u", 1), ("v", 0), ("w", 1)], 2, {0: [("v", "w", 1)]})
        y_to_v = SparseMatrix.from_entries(3, 2, [(1, 1, F(1))])
        zero_d = SparseMatrix.zero(3, 2)
        phi = S1Morphism(c, d, (y_to_v, zero_d, zero_d))
        assert verify_functoriality(phi).squares == ((1, False),)

    def test_target_with_failing_relations_raises(self):
        # delta^0 a = b, delta^0 b = c: the boundary value b is not closed
        d = make_complex([("a", 0), ("b", 1), ("c", 2)], 2,
                         {0: [("a", "b", 1), ("b", "c", 1)]})
        c = make_complex([("x", 0)], 2, {})
        with pytest.raises(ValueError):
            verify_functoriality(zero_morphism(c, d))

    def test_random_morphisms(self):
        rng = random.Random(17)
        for _ in range(5):
            a = random_s1_complex(rng, rng.randint(4, 8), rng.randint(2, 4))
            b = random_s1_complex(rng, rng.randint(4, 8), a.truncation)
            phi = random_morphism(rng, a, b)
            assert verify_functoriality(phi).valid

    def test_homotopy_deformations(self):
        rng = random.Random(19)
        for _ in range(5):
            c = random_s1_complex(rng, rng.randint(4, 9), rng.randint(2, 4))
            base, deformed, hom = random_endomorphism_pair(rng, c)
            assert verify_morphism(deformed).valid
            assert verify_homotopy(hom).valid
            assert verify_functoriality(deformed).valid


def _reference_squares(phi):
    """The squares as decided through Z_0/B_{k-1}: the differences must have
    zero quotient coordinates, and one outside Z_0 fails the square."""
    src, dst = phi.source, phi.target
    level = phi.truncation // 2
    ts, td = filtration_tower(src, level), filtration_tower(dst, level)
    fmat = lift_family(phi.phis, level)
    out = []
    for k in range(1, level + 1):
        cod = Subquotient(dst.n, td.z_vectors(0), td.b_vectors(k - 1))
        diffs = []
        for w in ts.z(k - 1):
            left = phi.phis[0].apply(delta_value(src, w))
            image = WitnessedCycle(k - 1, fmat.apply(w.chain), dst.n)
            diffs.append(vsub(left, delta_value(dst, image)))
        try:
            out.append((k, cod.coordinate_matrix(diffs).is_zero()))
        except ValueError:
            out.append((k, False))
    return tuple(out)


def _graded_noise(rng, phi, r):
    """phi with phi^r replaced by random entries of degree -2r; breaking
    phi^0 or phi^1 can move a difference into Z_0 but outside B_0."""
    src, dst = phi.source, phi.target
    ent = [(i, j, _rand_coeff(rng)) for i, j in _allowed_pairs(src.degrees, dst.degrees, -2 * r)
           if rng.random() < 0.5]
    block = SparseMatrix.from_entries(dst.n, src.n, ent)
    return S1Morphism(src, dst, tuple(block if t == r else m for t, m in enumerate(phi.phis)))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from(["valid", "graded", "ungraded"]))
def test_squares_match_the_quotient_route(seed, kind):
    rng = random.Random(seed)
    n_tr = rng.randint(2, 4)
    a = random_s1_complex(rng, rng.randint(4, 9), n_tr)
    b = random_s1_complex(rng, rng.randint(4, 9), n_tr)
    phi = random_morphism(rng, a, b)
    if kind == "graded":
        phi = _graded_noise(rng, phi, rng.randint(0, 1))
    elif kind == "ungraded":
        noise = SparseMatrix.from_entries(b.n, a.n, [
            (rng.randrange(b.n), rng.randrange(a.n), _rand_coeff(rng)) for _ in range(3)])
        r = rng.randint(0, 1)
        phi = S1Morphism(a, b, tuple(m + noise if t == r else m for t, m in enumerate(phi.phis)))
    assert verify_functoriality(phi).squares == _reference_squares(phi)


class TestHomotopyInvariance:
    def test_homotopic_morphisms_equal_on_cohomology(self):
        rng = random.Random(23)
        for _ in range(6):
            c = random_s1_complex(rng, rng.randint(4, 9), rng.randint(1, 4))
            base, deformed, hom = random_endomorphism_pair(rng, c)
            for level in range(c.truncation + 1):
                assert (induced_cohomology_map(base, level)
                        == induced_cohomology_map(deformed, level))

    def test_deformed_pair_between_different_complexes(self):
        rng = random.Random(29)
        a = random_s1_complex(rng, 6, 3)
        b = random_s1_complex(rng, 6, 3)
        phi = random_morphism(rng, a, b)
        hs = random_homotopy_blocks(rng, phi)
        psi, hom = homotopy_deformation(phi, hs)
        assert verify_morphism(psi).valid
        assert verify_homotopy(hom).valid
        assert induced_cohomology_map(phi, 3) == induced_cohomology_map(psi, 3)


def _raises_no_u_power(ops, level):
    """Every entry of the lift sends u-power p to a power q <= p."""
    n_dst, n_src = ops[0].rows, ops[0].cols
    return all(i // n_dst <= j // n_src for i, j, _ in lift_family(ops, level).entries)


def test_lift_family_never_raises_the_u_power():
    # why [phi_S1] maps classes of F^j into F^j: the lift is block lower
    # triangular in the power-major order
    rng = random.Random(37)
    for _ in range(5):
        c = random_s1_complex(rng, 6, 3)
        d = random_s1_complex(rng, 5, 3)
        phi = random_morphism(rng, c, d)
        for level in range(phi.truncation + 1):
            assert _raises_no_u_power(phi.phis, level)
    # a hand-made family with an entry in every order, into a target of
    # another size: phi^r sends (j, p) to (i, p - r)
    ops = tuple(SparseMatrix.from_entries(3, 2, [(r, r % 2, F(r + 1))]) for r in range(3))
    lift = lift_family(ops, 2)
    assert _raises_no_u_power(ops, 2)
    assert lift.col(2 * 2 + 0) == {2 * 3 + 0: F(1), 0 * 3 + 2: F(3)}
    assert lift.col(1 * 2 + 1) == {0 * 3 + 1: F(2)}


def test_an_endomorphism_computes_its_complex_once():
    c = milnor_model(2, 2).complex
    d = milnor_model(2, 3).complex
    assert c != d and c.truncation == d.truncation
    with mock.patch.object(morphisms, "cohomology", wraps=morphisms.cohomology) as coh, \
            mock.patch.object(morphisms, "filtration_tower",
                              wraps=morphisms.filtration_tower) as towers:
        induced_cohomology_map(identity_morphism(c), 2)
        verify_functoriality(identity_morphism(c))
        assert (coh.call_count, towers.call_count) == (1, 1)
        coh.reset_mock()
        towers.reset_mock()
        # two complexes, each computed once
        induced_cohomology_map(zero_morphism(c, d), 2)
        verify_functoriality(zero_morphism(c, d))
        assert (coh.call_count, towers.call_count) == (2, 2)


@pytest.mark.parametrize("extra", [[], [("z", 0)]], ids=["no_target_cohomology", "target_cycles"])
def test_a_map_that_is_not_a_chain_map_raises_value_error(extra):
    # phi^0(a) = x with partial x = y, so phi^0 does not commute with the
    # differentials; with or without a target cycle in degree 0 the class
    # of a has no image in Z
    src = make_complex([("a", 0)], 0, {})
    dst = make_complex([("x", 0), ("y", 1)] + extra, 0, {0: [("x", "y", 1)]})
    phi = S1Morphism(src, dst, (SparseMatrix.from_entries(dst.n, 1, [(0, 0, F(1))]),))
    with pytest.raises(ValueError, match="vector is not in Z"):
        induced_cohomology_map(phi, 0)
