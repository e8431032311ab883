import random

from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from s1cochain import linalg
from s1cochain.brieskorn import milnor_model
from s1cochain.complexes import (
    MAX_DEGREE_WINDOW,
    TruncationError,
    build_filtered_plus,
    cohomology,
    cycles_and_boundaries,
    lift_degree,
    lift_family,
    make_complex,
    shift,
    truncate,
    verify_s1_relations,
)
from s1cochain.linalg import SparseMatrix
from s1cochain.randomized import random_morphism, random_s1_complex, random_split_complex

from oracles import submatrix


def single_generator():
    return make_complex([("x", 0)], 2, {})


def two_step():
    return make_complex([("x", 0), ("y", 1)], 1, {0: [("x", "y", 1)]})


class TestVerify:
    def test_single_generator_valid(self):
        assert verify_s1_relations(single_generator()).valid

    def test_two_step_valid(self):
        assert verify_s1_relations(two_step()).valid

    def test_degree_violation_detected(self):
        bad = make_complex([("x", 0), ("y", 1)], 1,
                           {0: [("x", "y", 1), ("y", "x", 1)]})
        rep = verify_s1_relations(bad)
        assert not rep.valid
        assert not rep.degree_checks[0].ok
        assert ("y", "x") in rep.degree_checks[0].entries

    def test_relation_violation_detected(self):
        # delta0 not square-zero: x -> y -> z
        bad = make_complex([("x", 0), ("y", 1), ("z", 2)], 0,
                           {0: [("x", "y", 1), ("y", "z", 1)]})
        rep = verify_s1_relations(bad)
        assert not rep.valid
        assert not rep.relation_checks[0].ok

    def test_milnor_model_valid(self):
        assert verify_s1_relations(milnor_model(2, 2).complex).valid

    def test_relation_over_a_common_denominator(self):
        # delta^0 delta^0 x = (1/2)(2) z + (1/3)(-3) z = 0
        ops = [("x", "y", F(1, 2)), ("x", "w", F(1, 3)), ("y", "z", 2), ("w", "z", -3)]
        gens = [("x", 0), ("y", 1), ("w", 1), ("z", 2)]
        assert verify_s1_relations(make_complex(gens, 0, {0: ops})).valid
        # a 1/2 in place of the 1/3 breaks it: the residual is z -> 1 - 3/2
        broken = make_complex(gens, 0, {0: [("x", "w", F(1, 2)), *ops[::2], ops[3]]})
        rep = verify_s1_relations(broken)
        assert not rep.valid
        assert rep.relation_checks[0].entries == (("x", "z", F(-1, 2)),)


class TestFilteredPlus:
    def test_level_zero_is_delta0(self):
        c = two_step()
        f = build_filtered_plus(c, 0)
        assert f.differential == c.deltas[0]
        assert f.degrees == c.degrees

    def test_u_term_definition_unfold(self):
        # delta^1 x = z: the entry from (x, 1) to (z, 0) equals the delta^1 entry
        c = make_complex([("x", 0), ("z", -1)], 1, {1: [("x", "z", F(5))]})
        assert verify_s1_relations(c).valid
        f = build_filtered_plus(c, 1)
        col = f.differential.col(f.index_of(0, 1))
        assert col == {f.index_of(1, 0): F(5)}

    def test_milnor_22_unfolds(self):
        s = milnor_model(2, 2)
        c = s.complex
        f = build_filtered_plus(c, 1)
        e, p0c, p1c, p1h = (c.index_of(n) for n in ("e", "p0_check", "p1_check", "p1_hat"))
        # delta_S1(p0_check * u^0) = 2e + p1_hat at u^0
        col = f.differential.col(f.index_of(p0c, 0))
        assert col == {f.index_of(e, 0): F(2), f.index_of(p1h, 0): F(1)}
        # delta_S1(p1_check * u^-1): only the u-term delta^1 p1_check = p1_hat,
        # landing at power 0
        col = f.differential.col(f.index_of(p1c, 1))
        assert col == {f.index_of(p1h, 0): F(1)}

    def test_basis_size_and_degrees(self):
        c = two_step()
        f = build_filtered_plus(c, 1)
        assert f.dim == c.n * 2
        assert f.degrees[f.index_of(0, 1)] == c.degrees[0] - 2

    def test_level_above_truncation(self):
        with pytest.raises(TruncationError):
            build_filtered_plus(two_step(), 2)

    def test_differential_squares_to_zero_models(self):
        for k, m in [(1, 1), (2, 2), (2, 3), (3, 3)]:
            c = milnor_model(k, m).complex
            for lvl in range(c.truncation + 1):
                f = build_filtered_plus(c, lvl)
                assert (f.differential @ f.differential).is_zero()

    def test_restriction_to_lower_level_is_prefix(self):
        rng = random.Random(5)
        c = random_s1_complex(rng, 8, 4)
        f_big = build_filtered_plus(c, 4)
        for small in range(4):
            f_small = build_filtered_plus(c, small)
            idx = list(range(f_small.dim))
            assert submatrix(f_big.differential, idx, idx) == f_small.differential


class TestCohomology:
    def test_zero_differential_full_dims(self):
        c = make_complex([("a", 0), ("b", 0), ("c", 1)], 0, {})
        dims = {d: g.dim for d, g in cohomology(build_filtered_plus(c, 0)).items()}
        assert dims == {0: 2, 1: 1}

    def test_isomorphism_kills_everything(self):
        dims = {d: g.dim for d, g in cohomology(build_filtered_plus(two_step(), 0)).items() if g.dim}
        assert dims == {}

    def test_milnor_22_hand_dims(self):
        # 6 generators e, s0, p0_check(-1), p0_hat(-2), p1_check(1), p1_hat(0);
        # delta0 p0_check = 2e + p1_hat kills one degree-0 class and the
        # degree -1 generator
        c = milnor_model(2, 2).complex
        dims = {d: g.dim for d, g in cohomology(build_filtered_plus(c, 0)).items() if g.dim}
        assert dims == {-2: 1, 0: 1, 1: 1, 2: 1}

    def test_representatives_are_cycles_not_boundaries(self):
        c = milnor_model(2, 2).complex
        for g in cohomology(build_filtered_plus(c, 0)).values():
            for rep in g.basis:
                assert c.deltas[0].apply(rep) == {}
            assert g.dim == len(g.basis)

    def test_cycles_and_boundaries_group_one_elimination_by_degree(self):
        f = build_filtered_plus(milnor_model(2, 3).complex, 2)
        with mock.patch.object(linalg, "_echelon", wraps=linalg._echelon) as spy:
            cycles, bounds = cycles_and_boundaries(f.differential, f.degrees)
        assert spy.call_count == 1
        kernel, image = linalg.kernel_and_image(f.differential)
        for grouped, flat in ((cycles, kernel), (bounds, image)):
            # each degree keeps the elimination's order, and every vector is homogeneous
            assert grouped == {d: [v for v in flat if f.degrees[min(v)] == d]
                               for d in {f.degrees[min(v)] for v in flat}}
            assert all({f.degrees[i] for i in v} == {d} for d, vs in grouped.items() for v in vs)

    def test_filtered_cohomology_degree_window(self):
        c = milnor_model(2, 2).complex
        f = build_filtered_plus(c, 1)
        groups = cohomology(f, range(-1, 2))
        assert set(groups) == {-1, 0, 1}

    @pytest.mark.parametrize("window", [range(-200_000, 200_000), range(10**9),
                                        range(-10**20, 10**20), range(MAX_DEGREE_WINDOW + 1)])
    def test_wide_degree_window_refused_before_elimination(self, window):
        f = build_filtered_plus(milnor_model(2, 2, include_spheres=False).complex, 1)
        with mock.patch.object(linalg, "_echelon", side_effect=AssertionError("eliminated")):
            with pytest.raises(ValueError, match=str(MAX_DEGREE_WINDOW)):
                cohomology(f, window)

    def test_widest_degree_window_accepted(self):
        f = build_filtered_plus(milnor_model(2, 2, include_spheres=False).complex, 1)
        groups = cohomology(f, range(-MAX_DEGREE_WINDOW // 2, MAX_DEGREE_WINDOW // 2))
        assert len(groups) == MAX_DEGREE_WINDOW

    def test_empty_window_degrees_share_one_group(self):
        f = build_filtered_plus(milnor_model(2, 2, include_spheres=False).complex, 1)
        kernel, image = linalg.kernel_and_image(f.differential)
        held = {f.degrees[min(v)] for v in kernel + image}
        init = linalg.Subquotient.__init__
        built = []

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        with mock.patch.object(linalg.Subquotient, "__init__", counting_init):
            groups = cohomology(f, range(-5000, 5000))
        assert len(groups) == 10_000
        assert len(built) <= len(held) + 1
        assert all(groups[d].dim == 0 and not groups[d].basis
                   for d in range(-5000, 5000) if d not in held)


class TestConstructions:
    def test_truncate_drops_operators(self):
        c = milnor_model(2, 2).complex
        t = truncate(c, 1)
        assert t.truncation == 1
        assert t.deltas == c.deltas[:2]
        with pytest.raises(TruncationError):
            truncate(t, 3)

    def test_shift_flips_sign_and_degrees(self):
        c = two_step()
        sh = shift(c, 1)
        assert sh.degrees == (-1, 0)
        assert sh.deltas[0] == c.deltas[0].scale(-1)
        assert verify_s1_relations(sh).valid

    def test_degrees_are_kept_and_unseen_by_equality(self):
        c, twin = two_step(), two_step()
        before = (repr(c), hash(c))
        assert c.degrees == (0, 1) and c.degrees is c.degrees
        assert (repr(c), hash(c)) == before
        assert c == twin and hash(c) == hash(twin) and "degrees" not in repr(c)


def test_random_complexes_always_valid():
    rng = random.Random(99)
    for _ in range(20):
        c = random_s1_complex(rng, rng.randint(3, 14), rng.randint(0, 6))
        assert verify_s1_relations(c).valid


def test_duplicate_generator_names_rejected():
    with pytest.raises(ValueError):
        make_complex([("x", 0), ("x", 1)], 0, {})


def _family_and_degrees(kind, rng, n, n_tr):
    """An operator family of each kind with its source generators' degrees."""
    if kind == "deltas":
        c = random_s1_complex(rng, n, n_tr)
        return c.deltas, c.degrees
    if kind == "phis":
        c = random_s1_complex(rng, n, n_tr)
        return random_morphism(rng, c, random_s1_complex(rng, n + 1, n_tr)).phis, c.degrees
    s = random_split_complex(rng, n, 2, n_tr, with_unit_killer=True)
    return s.connecting, s.plus_part.degrees


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["deltas", "phis", "connecting"]), st.integers(0, 2**32),
       st.integers(1, 6), st.integers(0, 3))
def test_lift_degree_is_the_degree_d_columns_of_lift_family(kind, seed, n, n_tr):
    ops, degrees = _family_and_degrees(kind, random.Random(seed), n, n_tr)
    n_src = ops[0].cols
    for level in range(n_tr + 1):
        full = lift_family(ops, level)
        for d in {g - 2 * p for g in degrees for p in range(level + 1)}:
            kept = tuple((i, j, v) for i, j, v in full.entries
                         if degrees[j % n_src] - 2 * (j // n_src) == d)
            assert lift_degree(ops, level, degrees, d) == SparseMatrix(full.rows, full.cols, kept)
    for d in set(degrees):
        with pytest.raises(ValueError, match="level must be non-negative"):
            lift_degree(ops, -1, degrees, d)


def test_lift_degree_refuses_a_level_past_the_truncation_as_lift_family_does():
    c = random_s1_complex(random.Random(5), 6, 4)
    with pytest.raises(TruncationError, match="level 99 exceeds truncation 4"):
        lift_family(c.deltas, 99)
    with pytest.raises(TruncationError, match="level 99 exceeds truncation 4"):
        lift_degree(c.deltas, 99, c.degrees, 0)
    with pytest.raises(TruncationError, match="level 5 exceeds truncation 4"):
        lift_degree(c.deltas, 5, c.degrees, 0)
    assert lift_degree(c.deltas, 4, c.degrees, 0).rows == 5 * 6


@pytest.mark.parametrize("level", [-1, -5])
def test_lift_degree_refuses_a_negative_level_as_lift_family_does(level):
    c = random_s1_complex(random.Random(5), 6, 4)
    with pytest.raises(ValueError, match="level must be non-negative"):
        lift_family(c.deltas, level)
    with pytest.raises(ValueError, match="level must be non-negative"):
        lift_degree(c.deltas, level, c.degrees, 0)
