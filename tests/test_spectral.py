import random

from fractions import Fraction as F

import pytest

from s1cochain.brieskorn import milnor_model
from s1cochain.complexes import (
    TruncationError,
    build_filtered_plus,
    cohomology,
    make_complex,
)
from s1cochain.linalg import kernel_basis, span_leq
from s1cochain.randomized import random_s1_complex
from s1cochain.spectral import (
    delta_k,
    delta_value,
    e_infinity,
    filtration_tower,
    leray_page,
    reduced_page_map,
)

from oracles import perturbed_witness


def all_zero_complex(n_tr=3):
    return make_complex([("a", 0), ("b", 1), ("c", 3)], n_tr, {})


class TestZSpace:
    def test_level_zero_is_delta0_kernel(self):
        c = milnor_model(2, 2).complex
        z0 = filtration_tower(c, 0).z_vectors(0)
        k0 = kernel_basis(c.deltas[0])
        assert len(z0) == len(k0)
        assert span_leq(z0, k0, c.n) and span_leq(k0, z0, c.n)

    def test_all_deltas_zero_z_is_everything(self):
        c = all_zero_complex()
        for k in range(c.truncation + 1):
            assert len(filtration_tower(c, k).z_vectors(k)) == c.n

    def test_milnor_33_hand_membership(self):
        # delta0 p0_check = 6e + p1_hat is nonzero, so p0_check is not even
        # in Z_0; p2_check is in Z_1 with witness alpha_1 = -p1_check
        c = milnor_model(3, 3, include_spheres=False).complex
        p0c, p2c = c.index_of("p0_check"), c.index_of("p2_check")
        z0 = filtration_tower(c, 0).z_vectors(0)
        z1 = filtration_tower(c, 1).z_vectors(1)
        assert not span_leq([{p0c: F(1)}], z0, c.n)
        assert span_leq([{p2c: F(1)}], z1, c.n)
        wit = [w for w in filtration_tower(c, 1).z(1) if w.leading == {p2c: F(1)}]
        assert wit and wit[0].alphas[1] == {c.index_of("p1_check"): F(-1)}

    def test_witnesses_certify(self):
        c = milnor_model(3, 4, include_spheres=False).complex
        for k in range(c.truncation + 1):
            f = build_filtered_plus(c, k)
            for w in filtration_tower(c, k).z(k):
                assert not f.differential.apply(w.chain)

    def test_level_above_truncation(self):
        with pytest.raises(TruncationError):
            filtration_tower(all_zero_complex(2), 3).z(3)


class TestBSpace:
    def test_level_zero_is_image(self):
        c = milnor_model(2, 2).complex
        b0 = filtration_tower(c, 0).b_vectors(0)
        e, p1h = c.index_of("e"), c.index_of("p1_hat")
        assert len(b0) == 1
        assert span_leq([{e: F(2), p1h: F(1)}], b0, c.n)

    def test_all_deltas_zero_b_is_zero(self):
        c = all_zero_complex()
        for k in range(c.truncation + 1):
            assert filtration_tower(c, k).b_vectors(k) == []

    def test_unit_chain_witness_from_model(self):
        # e enters B_{k-1} with the explicit alternating primitive
        for k, m in [(2, 2), (3, 3), (3, 4)]:
            c = milnor_model(k, m, include_spheres=False).complex
            e = c.index_of("e")
            if k >= 2:
                assert not span_leq([{e: F(1)}], filtration_tower(c, k - 2).b_vectors(k - 2), c.n)
            assert span_leq([{e: F(1)}], filtration_tower(c, k - 1).b_vectors(k - 1), c.n)

    def test_primitives_certify(self):
        c = milnor_model(2, 3, include_spheres=False).complex
        for k in range(c.truncation + 1):
            f = build_filtered_plus(c, k)
            for w in filtration_tower(c, k).b(k):
                image = f.differential.apply(w.chain)
                assert image == w.boundary_value


def _chain_respected(c):
    spaces = [filtration_tower(c, k).b_vectors(k) for k in range(c.truncation + 1)]
    zpaces = [filtration_tower(c, k).z_vectors(k) for k in range(c.truncation + 1)]
    n_tr = c.truncation
    for k in range(n_tr):
        assert span_leq(spaces[k], spaces[k + 1], c.n)          # B_k <= B_{k+1}
        assert span_leq(zpaces[k + 1], zpaces[k], c.n)          # Z_{k+1} <= Z_k
    for k in range(n_tr // 2 + 1):
        assert span_leq(spaces[k], zpaces[k], c.n)              # B_k <= Z_k


class TestInclusionChain:
    def test_on_models(self):
        for k, m in [(1, 1), (2, 2), (2, 3), (3, 3)]:
            _chain_respected(milnor_model(k, m, include_spheres=False).complex)

    def test_on_random(self):
        rng = random.Random(31)
        for _ in range(8):
            _chain_respected(random_s1_complex(rng, rng.randint(4, 10), rng.randint(1, 4)))

    def test_bridge_can_fail_beyond_half_truncation(self):
        # B_k <= Z_k rests on multiplying a level-k primitive by u^-k, which
        # needs level 2k; past the truncation the containment genuinely
        # breaks.  Frozen counterexample: this seeded complex has N = 2 and
        # B_2 not contained in Z_2.
        from s1cochain.randomized import random_split_complex

        s = random_split_complex(random.Random(10_005), 8, 1, 2)
        c = s.complex
        assert c.truncation == 2
        t1, t2 = filtration_tower(c, 1), filtration_tower(c, 2)
        assert span_leq(t1.b_vectors(1), t1.z_vectors(1), c.n)
        assert not span_leq(t2.b_vectors(2), t2.z_vectors(2), c.n)


class TestDeltaK:
    def test_zero_delta1_gives_zero_map(self):
        c = all_zero_complex(2)
        dk = delta_k(c, 1)
        assert dk.matrix.is_zero()
        assert dk.domain.dim == c.n

    def test_milnor_22_delta1_frozen(self):
        # H = <[e], [p0_hat], [p1_check]> without spheres; Delta^1 sends
        # [p1_check] to [p1_hat] = -2[e] and kills the rest: rank 1
        c = milnor_model(2, 2, include_spheres=False).complex
        dk = delta_k(c, 1)
        assert (dk.domain.dim, dk.codomain.dim) == (3, 3)
        assert dk.rank == 1
        p1c = c.index_of("p1_check")
        col = [j for j, w in enumerate(dk.domain_witnesses)
               if w.leading == {p1c: F(1)}]
        assert len(col) == 1
        image_coords = dk.matrix.col(col[0])
        e_pos = [i for i, b in enumerate(dk.codomain.basis) if b == {c.index_of("e"): F(1)}]
        assert image_coords == {e_pos[0]: F(-2)}

    def test_delta1_is_class_of_delta1_on_h(self):
        rng = random.Random(77)
        for _ in range(6):
            c = random_s1_complex(rng, rng.randint(4, 9), rng.randint(2, 4))
            dk = delta_k(c, 1)
            # chain-level: Delta^1(alpha_0) = delta^1(alpha_0)
            for j, w in enumerate(dk.domain_witnesses):
                direct = c.deltas[1].apply(w.leading)
                assert dk.codomain.coordinates(direct) == tuple(
                    dk.matrix.col(j).get(i, F(0)) for i in range(dk.codomain.dim))

    def test_ker_im_coker_identities(self):
        # ker = Z_k/B_0, im = B_k/B_{k-1}, coker = Z_0/B_k as exact ranks
        for k, m in [(2, 2), (3, 3)]:
            c = milnor_model(k, m, include_spheres=False).complex
            for kk in range(1, c.truncation // 2 + 1):
                _check_delta_identities(c, kk)
        rng = random.Random(13)
        for _ in range(6):
            c = random_s1_complex(rng, rng.randint(4, 10), rng.randint(2, 4))
            for kk in range(1, c.truncation // 2 + 1):
                _check_delta_identities(c, kk)

    def test_witness_independence(self):
        # a k = 1 witness has level 0 and no closed vector below it to add,
        # so k = 2 is needed for a perturbation to change anything
        rng = random.Random(3)
        changed = 0
        for _ in range(5):
            c = random_s1_complex(rng, rng.randint(4, 9), 4)
            t = filtration_tower(c, c.truncation)
            for k in (1, 2):
                dk = delta_k(c, k)
                for j, w in enumerate(dk.domain_witnesses):
                    w2 = perturbed_witness(t, w, kernel_index=rng.randint(0, 5))
                    changed += w2 != w
                    assert w2.leading == w.leading
                    val2 = delta_value(c, w2)
                    assert dk.codomain.coordinates(val2) == tuple(
                        dk.matrix.col(j).get(i, F(0)) for i in range(dk.codomain.dim))
        assert changed

    def test_truncation_guard(self):
        c = all_zero_complex(3)
        with pytest.raises(TruncationError):
            delta_k(c, 2)


def _check_delta_identities(c, k):
    from s1cochain.linalg import SparseMatrix, rank

    dk = delta_k(c, k)
    n = c.n
    zk = filtration_tower(c, k).z_vectors(k)
    b0 = filtration_tower(c, 0).b_vectors(0)
    bk = filtration_tower(c, k).b_vectors(k)
    bk1 = filtration_tower(c, k - 1).b_vectors(k - 1)

    def quotient_dim(z, b):
        return (rank(SparseMatrix.from_columns(list(b) + list(z), n))
                - rank(SparseMatrix.from_columns(list(b), n)))

    assert dk.kernel_dim == quotient_dim(zk, b0)
    assert dk.rank == quotient_dim(bk, bk1)
    assert dk.coker_dim == quotient_dim(filtration_tower(c, 0).z_vectors(0), bk)


class TestLerayPages:
    def test_page_one_is_h_delta0_shifted(self):
        c = milnor_model(2, 2).complex
        page = leray_page(c, 0)
        h = {d: g.dim for d, g in cohomology(build_filtered_plus(c, 0)).items() if g.dim}
        for col in page.columns:
            dims = col.dims_by_total_degree(c.degrees)
            assert dims == {d - 2 * col.u_power: m for d, m in h.items()}

    def test_all_zero_all_pages_equal(self):
        c = all_zero_complex()
        base = leray_page(c, 0).dims_by_total_degree(c.degrees)
        for k in range(1, c.truncation + 1):
            page = leray_page(c, k)
            assert page.dims_by_total_degree(c.degrees) == base

    def test_e_infinity_converges_milnor22(self):
        c = milnor_model(2, 2, truncation=2).complex
        einf = e_infinity(c)
        f = build_filtered_plus(c, 2)
        target = {d: g.dim for d, g in cohomology(f).items() if g.dim}
        assert einf.dims_by_total_degree(c.degrees) == target

    def test_e_infinity_converges_random(self):
        rng = random.Random(41)
        for _ in range(6):
            c = random_s1_complex(rng, rng.randint(4, 10), rng.randint(1, 4))
            einf = e_infinity(c)
            f = build_filtered_plus(c, c.truncation)
            target = {d: g.dim for d, g in cohomology(f).items() if g.dim}
            assert einf.dims_by_total_degree(c.degrees) == target

    def test_page_recursion(self):
        # Z_k/B_k is the cohomology of the induced map on Z_{k-1}/B_{k-1}
        rng = random.Random(53)
        for _ in range(5):
            c = random_s1_complex(rng, rng.randint(4, 9), rng.randint(2, 4))
            for k in range(1, c.truncation // 2 + 1):
                _check_page_recursion(c, k)

    def test_page_map_refuses_k_below_one(self):
        c = milnor_model(2, 3).complex
        for k in (0, -1):
            with pytest.raises(ValueError, match="page map .* defined for k >= 1"):
                reduced_page_map(c, k)

    def test_page_differential_squares_to_zero(self):
        c = milnor_model(2, 2, truncation=4, include_spheres=False).complex
        page = leray_page(c, 1)
        for i, mat in page.differentials.items():
            src = i + 2
            if src in page.differentials:
                prod = mat @ page.differentials[src]
                assert prod.is_zero()

    def test_columnwise_page_recursion(self):
        # cohomology of page k+1 at each column reproduces the column
        # dimensions of page k+2, validating spaces and differentials jointly
        from s1cochain.linalg import rank

        def holds(c, k):
            page = leray_page(c, k)
            nxt = leray_page(c, k + 1)
            for i in range(c.truncation + 1):
                out_rank = rank(page.differentials[i - k - 1]) \
                    if (i - k - 1) in page.differentials else 0
                in_rank = rank(page.differentials[i]) \
                    if i in page.differentials else 0
                got = page.columns[i].subquotient.dim - out_rank - in_rank
                if got != nxt.columns[i].subquotient.dim:
                    return False
            return True

        for kk, mm, n_tr in [(2, 2, 4), (3, 3, 6)]:
            c = milnor_model(kk, mm, truncation=n_tr, include_spheres=False).complex
            for k in range(n_tr // 2):
                assert holds(c, k)
        rng = random.Random(7)
        for _ in range(6):
            c = random_s1_complex(rng, rng.randint(4, 9), rng.randint(2, 6))
            for k in range(c.truncation // 2):
                assert holds(c, k)


def _check_page_recursion(c, k):
    from s1cochain.linalg import SparseMatrix, rank

    page_map = reduced_page_map(c, k)
    sq, mat = page_map.domain, page_map.matrix
    assert (mat @ mat).is_zero()
    n = c.n

    def quotient_dim(z, b):
        return (rank(SparseMatrix.from_columns(list(b) + list(z), n))
                - rank(SparseMatrix.from_columns(list(b), n)))

    tk = filtration_tower(c, k)
    lhs = quotient_dim(tk.z_vectors(k), tk.b_vectors(k))
    rhs = len(kernel_basis(mat)) - rank(mat)
    assert lhs == rhs
