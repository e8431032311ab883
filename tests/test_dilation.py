import contextlib
import dataclasses
import random
import re

from fractions import Fraction as F
from functools import partial
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from s1cochain import complexes, dilation, linalg, morphisms
from s1cochain.brieskorn import milnor_model
from s1cochain.complexes import (
    MAX_DEGREE_WINDOW,
    FilteredPlusComplex,
    S1Complex,
    TruncationError,
    build_filtered_plus,
    cohomology,
    induced_map,
    make_complex,
)
from s1cochain.dilation import (
    PLUS_PART,
    ZERO_PART,
    LesNode,
    LesReport,
    _homology_counts,
    _induced_ranks,
    _zero_part_h0,
    delta_partial_k,
    delta_plus0_k,
    delta_plus_k,
    has_k_dilation,
    has_k_semidilation,
    make_split_complex,
    order_of_dilation,
    order_of_semidilation,
    order_via_torsion,
    pi0_coordinate,
    tautological_les,
    verify_splitting,
)
from s1cochain.linalg import (
    SparseMatrix,
    Subquotient,
    kernel_basis,
    rank,
    vadd,
    vscale,
)
from s1cochain.randomized import random_split_complex
from s1cochain.morphisms import phi_k
from s1cochain.spectral import QuotientMap, delta_k, leray_page, reduced_page_map
from s1cochain.tensor import tensor_split

from oracles import submatrix


def unit_only_complex(n_tr=2):
    c = make_complex([("e", 0)], n_tr, {})
    return make_split_complex(c, ["e"], "e")


def modified_milnor(k, m):
    """A degree-0 zero-part class s' added to delta^0 p_check_{m-k}.

    The extra class never dies, so the unit cannot become exact at any level,
    while the pi_0-projection still reaches it: a semi-dilation without a
    dilation at the same truncation.
    """
    base = milnor_model(k, m, include_spheres=False)
    c = base.complex
    n = c.n
    gens = [(g.name, g.degree) for g in c.generators] + [("s_extra", 0)]
    ops = {}
    for r in range(c.truncation + 1):
        ops[r] = [(c.generators[j].name, c.generators[i].name, v)
                  for i, j, v in c.deltas[r].entries]
    ops[0] = ops.get(0, []) + [(f"p{m-k}_check", "s_extra", F(1))]
    big = make_complex(gens, c.truncation, ops)
    zero_names = [g.name for g, p in zip(c.generators, base.parts) if p == "zero"]
    return make_split_complex(big, zero_names + ["s_extra"], "e")


class TestVerifySplitting:
    def test_unit_only_valid(self):
        assert verify_splitting(unit_only_complex()).valid

    def test_higher_delta_on_zero_part_flagged(self):
        c = make_complex([("e", 0), ("x", -1)], 1, {1: [("e", "x", 1)]})
        s = make_split_complex(c, ["e"], "e")
        rep = verify_splitting(s)
        assert not rep.valid
        assert "delta^1 nonzero on zero-part generator e" in rep.violations()
        assert any("delta^1" in v for v in rep.violations())

    def test_unit_not_closed_flagged_over_a_common_denominator(self):
        c = make_complex([("e", 0), ("x", 1)], 0, {0: [("e", "x", F(1, 2))]})
        rep = verify_splitting(make_split_complex(c, ["e", "x"], "e"))
        assert not rep.valid
        assert "unit chain is not closed" in rep.violations()

    def test_exact_unit_flagged(self):
        c = make_complex([("e", 0), ("f", -1)], 0, {0: [("f", "e", 1)]})
        s = make_split_complex(c, ["e", "f"], "e")
        rep = verify_splitting(s)
        assert not rep.valid
        assert "unit class vanishes in H^0 of the zero part" in rep.violations()

    def test_milnor_models_valid(self):
        for k, m in [(1, 1), (2, 3), (3, 4), (2, 2)]:
            assert verify_splitting(milnor_model(k, m)).valid

    @pytest.mark.parametrize("index", [5, 1, -1])
    def test_unit_index_outside_the_generators_rejected(self, index):
        c = make_complex([("e", 0)], 1, {})
        with pytest.raises(ValueError, match="unit chain index"):
            make_split_complex(c, ["e"], {index: F(1)})


class TestHasKDilation:
    def test_immediate_vanishing(self):
        c = make_complex([("e", 0), ("x", -1)], 1, {0: [("x", "e", 1)]})
        s = make_split_complex(c, ["e"], "e")
        ok, witness = has_k_dilation(s, 0)
        assert ok
        f = build_filtered_plus(c, 0)
        assert f.differential.apply(witness) == {c.index_of("e"): F(1)}

    def test_milnor_found_at_k_minus_1_not_before(self):
        for k, m in [(2, 2), (2, 3), (3, 3)]:
            s = milnor_model(k, m, include_spheres=False)
            assert has_k_dilation(s, k - 1)[0]
            assert not has_k_dilation(s, k - 2)[0]

    def test_level_above_truncation(self):
        with pytest.raises(TruncationError):
            has_k_dilation(unit_only_complex(1), 2)


@pytest.mark.parametrize("level,error,message", [(-1, ValueError, "level must be non-negative"),
                                                 (2, TruncationError, "exceeds truncation")])
@pytest.mark.parametrize("level_test", [has_k_dilation, has_k_semidilation])
def test_level_tests_refuse_a_level_outside_0_to_n(level_test, level, error, message):
    with pytest.raises(error, match=message):
        level_test(unit_only_complex(1), level)


@pytest.mark.parametrize("names", [("p2_hat",), ("e", "p2_hat")])
@pytest.mark.parametrize("entry", [
    lambda s: has_k_dilation(s, 1), lambda s: has_k_semidilation(s, 1),
    order_of_dilation, order_of_semidilation, order_via_torsion,
    partial(order_via_torsion, semi=True),
], ids=["has_k_dilation", "has_k_semidilation", "order_of_dilation",
        "order_of_semidilation", "order_via_torsion", "order_via_torsion_semi"])
def test_order_entry_points_refuse_a_unit_off_the_zero_part(entry, names):
    # p2_hat is a degree-0 plus generator: the dilation system would read
    # it, the semi-dilation and torsion systems would drop it
    s = milnor_model(2, 3, include_spheres=False)
    index = {g.name: i for i, g in enumerate(s.complex.generators)}
    off = dataclasses.replace(s, unit={index[n]: F(1) for n in names})
    with pytest.raises(ValueError, match="unit chain is not supported on the zero part"):
        entry(off)


def _lift_called(*args):
    raise AssertionError("an order entry point lifted an order it should refuse")


@pytest.mark.parametrize("entry,message", [
    (lambda s: delta_k(s.complex, -1), r"Delta\^k is defined for k >= 1"),
    (lambda s: reduced_page_map(s.complex, -1), r"page map .* defined for k >= 1"),
    (lambda s: phi_k(s.connecting_morphism(), -1), r"Phi\^k is defined for k >= 0"),
    (lambda s: leray_page(s.complex, -1), r"page k\+1 is defined for k >= 0"),
    (lambda s: delta_plus_k(s, -1), r"Delta\^k is defined for k >= 1"),
    (lambda s: delta_plus0_k(s, -1), r"Phi\^k is defined for k >= 0"),
    (lambda s: has_k_dilation(s, -1), "level must be non-negative"),
    (lambda s: has_k_semidilation(s, -1), "level must be non-negative"),
    (lambda s: order_of_dilation(s, max_k=-1), "max_k must be non-negative"),
    (lambda s: order_of_semidilation(s, max_k=-1), "max_k must be non-negative"),
], ids=["delta_k", "reduced_page_map", "phi_k", "leray_page", "delta_plus_k",
        "delta_plus0_k", "has_k_dilation", "has_k_semidilation", "order_of_dilation",
        "order_of_semidilation"])
def test_order_entry_points_refuse_a_negative_order_by_name(monkeypatch, entry, message):
    # the lifts raise where each module looks them up, so the refusal must
    # come from the entry point before anything is lifted
    for module in (complexes, morphisms, dilation):
        for name in ("lift_family", "lift_degree"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, _lift_called)
    with pytest.raises(ValueError, match=message):
        entry(milnor_model(2, 2, include_spheres=False))


def test_quotient_map_constructors_return_quotient_maps():
    s = milnor_model(2, 2, include_spheres=False)
    cz = s.zero_part
    maps = [delta_k(s.complex, 1), reduced_page_map(s.complex, 1),
            phi_k(s.connecting_morphism(), 1), delta_plus_k(s, 1), delta_plus0_k(s, 1),
            delta_partial_k(s, SparseMatrix.identity(cz.n), cz, 1)]
    for m in maps:
        assert type(m) is QuotientMap
        assert m.matrix.cols == m.domain.dim == len(m.domain_witnesses)
        assert m.kernel_dim + m.rank == m.domain.dim
        assert m.coker_dim + m.rank == m.codomain.dim


class TestHasKSemidilation:
    def test_dilation_implies_semidilation(self):
        for k, m in [(1, 2), (2, 2), (3, 3)]:
            s = milnor_model(k, m, include_spheres=False)
            assert has_k_dilation(s, k - 1)[0]
            assert has_k_semidilation(s, k - 1)[0]

    def test_semidilation_witness_is_closed(self):
        s = milnor_model(2, 2, include_spheres=False)
        ok, witness = has_k_semidilation(s, 1)
        assert ok
        fp = build_filtered_plus(s.plus_part, 1)
        assert not fp.differential.apply(witness)

    def test_gap_between_semidilation_and_dilation(self):
        # the extra zero-part class blocks exactness of the unit entirely
        # while pi_0 still reaches it
        for k, m in [(2, 2), (3, 3)]:
            s = modified_milnor(k, m)
            assert verify_splitting(s).valid
            assert has_k_semidilation(s, k - 1)[0]
            assert not has_k_semidilation(s, k - 2)[0]
            for lvl in range(s.truncation + 1):
                assert not has_k_dilation(s, lvl)[0]


class TestOrders:
    def test_milnor_small_orders(self):
        assert order_of_dilation(milnor_model(1, 1)).order == 0
        assert order_of_dilation(milnor_model(2, 2)).order == 1

    def test_milnor_55_at_higher_truncation(self):
        s = milnor_model(5, 5, truncation=8, include_spheres=False)
        assert order_of_dilation(s).order == 4
        assert order_of_semidilation(s).order == 4

    def test_not_found_reports_truncation(self):
        rep = order_of_dilation(unit_only_complex(3))
        assert not rep.found and rep.order is None
        assert rep.truncation == 3

    def test_max_k_caps_scan(self):
        s = milnor_model(3, 3, include_spheres=False)
        rep = order_of_dilation(s, max_k=1)
        assert not rep.found

    def test_negative_max_k_rejected(self):
        s = milnor_model(2, 2, include_spheres=False)
        for scan in (order_of_dilation, order_of_semidilation):
            with pytest.raises(ValueError, match="max_k"):
                scan(s, max_k=-1)
            assert scan(s, max_k=0).order is None

    def test_report_witness_reverifies(self):
        for k, m in [(1, 1), (2, 3), (3, 3)]:
            s = milnor_model(k, m, include_spheres=False)
            rep = order_of_dilation(s)
            f = build_filtered_plus(s.complex, rep.order)
            assert f.differential.apply(rep.witness) == s.unit


class TestTorsionRoute:
    def test_milnor_22_both_routes(self):
        s = milnor_model(2, 2, truncation=4, include_spheres=False)
        assert order_of_dilation(s).order == 1
        assert order_via_torsion(s).order == 1
        assert order_via_torsion(s, semi=True).order == 1

    def test_milnor_33_both_routes(self):
        s = milnor_model(3, 3, truncation=6, include_spheres=False)
        assert order_of_dilation(s).order == 2
        assert order_via_torsion(s).order == 2

    def test_all_zero_both_routes_unbounded(self):
        s = unit_only_complex(3)
        assert order_of_dilation(s).order is None
        assert order_via_torsion(s).order is None
        assert order_via_torsion(s, semi=True).order is None

    def test_agreement_on_random_split_complexes(self):
        rng = random.Random(61)
        for i in range(10):
            s = random_split_complex(rng, rng.randint(3, 8), rng.randint(1, 3),
                                     rng.randint(2, 4), with_unit_killer=(i % 3 == 0))
            assert order_of_dilation(s).order == order_via_torsion(s).order
            assert (order_of_semidilation(s).order
                    == order_via_torsion(s, semi=True).order)


class TestOperators:
    def test_delta_plus0_level0_milnor22(self):
        # the connecting map on first-page classes is zero for (2,2): the
        # only degree -1 class of C_+ dies under delta0_+
        s = milnor_model(2, 2, include_spheres=False)
        p = delta_plus0_k(s, 0)
        assert p.matrix.is_zero()

    def test_delta_plus0_level1_reaches_unit(self):
        # ker Delta^1_+ of (2,2) is spanned by [p0_hat] (killed) and
        # [p1_check], which is sent to -2 [e]
        s = milnor_model(2, 2, include_spheres=False)
        p = delta_plus0_k(s, 1)
        cz = s.zero_part
        cp = s.plus_part
        assert p.domain.dim == 2
        assert p.rank == 1
        # read from the one rank elimination, also where the matrix is not square
        assert p.matrix.rows != p.matrix.cols
        assert p.kernel_dim == len(kernel_basis(p.matrix)) == 1
        assert p.coker_dim == p.codomain.dim - 1
        col = [j for j, w in enumerate(p.domain_witnesses)
               if w.leading == {cp.index_of("p1_check"): F(1)}]
        assert len(col) == 1
        coords = p.matrix.col(col[0])
        # the class with these coordinates, summed over the quotient basis
        val = {}
        for i, x in coords.items():
            val = vadd(val, vscale(x, p.codomain.basis[i]))
        assert val == {cz.index_of("e"): F(-2)}

    def test_delta_plus_zero_when_delta1_plus_zero(self):
        c = make_complex([("e", 0), ("a", 0), ("b", 1)], 2, {0: [("a", "b", 1)]})
        s = make_split_complex(c, ["e"], "e")
        dk = delta_plus_k(s, 1)
        assert dk.matrix.is_zero()

    def test_delta_plus_matches_spectral_module(self):
        s = milnor_model(3, 3, include_spheres=False)
        dk_split = delta_plus_k(s, 1)
        dk_direct = delta_k(s.plus_part, 1)
        assert dk_split.matrix == dk_direct.matrix

    def test_delta_partial_identity_matches(self):
        s = milnor_model(2, 2, include_spheres=False)
        cz = s.zero_part
        ident = SparseMatrix.identity(cz.n)
        via_partial = delta_partial_k(s, ident, cz, 1)
        direct = delta_plus0_k(s, 1)
        assert via_partial.matrix == direct.matrix

    def test_delta_partial_zero_map(self):
        s = milnor_model(2, 2, include_spheres=False)
        cz = s.zero_part
        zero = SparseMatrix.zero(cz.n, cz.n)
        p = delta_partial_k(s, zero, cz, 1)
        assert p.matrix.is_zero()

    def test_delta_partial_killing_unit_loses_it(self):
        # target D = C_0 / <e>: project away the unit; the image class that
        # previously hit e becomes zero while the semi-dilation persists
        s = milnor_model(2, 2, include_spheres=False)
        cz = s.zero_part
        e = cz.index_of("e")
        keep = [i for i in range(cz.n) if i != e]
        target = make_complex(
            [(cz.generators[i].name, cz.generators[i].degree) for i in keep],
            cz.truncation, {})
        proj = SparseMatrix.from_entries(
            len(keep), cz.n, [(t, i, F(1)) for t, i in enumerate(keep)])
        p = delta_partial_k(s, proj, target, 1)
        assert p.matrix.is_zero()
        assert has_k_semidilation(s, 1)[0]

    def test_delta_partial_requires_cochain_map(self):
        c2 = make_complex([("e", 0), ("z", 0), ("w", 1)], 2,
                          {0: [("z", "w", 1)]})
        s2 = make_split_complex(c2, ["e", "z", "w"], "e")
        cz2 = s2.zero_part
        # degree violation
        bad_degree = SparseMatrix.from_entries(
            cz2.n, cz2.n, [(cz2.index_of("w"), cz2.index_of("e"), F(1))])
        with pytest.raises(ValueError):
            delta_partial_k(s2, bad_degree, cz2, 0)
        # identity into the trivialized zero part does not commute with delta0
        trivial = make_complex(
            [(g.name, g.degree) for g in cz2.generators], cz2.truncation, {})
        with pytest.raises(ValueError):
            delta_partial_k(s2, SparseMatrix.identity(cz2.n), trivial, 0)


class TestPi0:
    def test_unit_coordinate_is_one(self):
        s = milnor_model(2, 2)
        assert pi0_coordinate(s, s.unit) == F(1)

    def test_non_unit_class_reads_zero(self):
        s = modified_milnor(2, 2)
        c = s.complex
        extra = {c.index_of("s_extra"): F(1)}
        assert pi0_coordinate(s, extra) == F(0)
        mixed = {c.index_of("e"): F(3), c.index_of("s_extra"): F(5)}
        assert pi0_coordinate(s, mixed) == F(3)


    @pytest.mark.parametrize("extra", [lambda n: {0: F(1), n - 1: F(1)},
                                       lambda n: {10**6: F(1)}, lambda n: {-1: F(1)}],
                             ids=["plus-generator", "past-the-end", "negative"])
    def test_index_off_the_zero_part_refused(self, extra):
        s = milnor_model(2, 3)
        v = extra(s.complex.n)
        assert s.parts[s.complex.n - 1] == "plus"
        with pytest.raises(ValueError, match="not zero-part generators"):
            pi0_coordinate(s, v)


class TestTautologicalLes:
    def test_no_plus_part_degenerates(self):
        c = make_complex([("e", 0), ("z", 2)], 2, {})
        s = make_split_complex(c, ["e", "z"], "e")
        rep = tautological_les(s)
        assert rep.exact
        assert rep.dims_plus == {}
        assert rep.dims_zero == rep.dims_full

    def test_unit_with_free_plus_part(self):
        c = make_complex([("e", 0), ("x", 1)], 1, {})
        s = make_split_complex(c, ["e"], "e")
        rep = tautological_les(s)
        assert rep.exact
        for d in rep.dims_full:
            assert rep.dims_full[d] == (rep.dims_zero.get(d, 0)
                                        + rep.dims_plus.get(d, 0))

    def test_milnor_models_exact(self):
        for m in range(1, 6):
            for k in range(1, m + 1):
                s = milnor_model(k, m, include_spheres=False)
                window = range(-2 * m, 2 * m + 1)
                assert tautological_les(s, window).exact

    def test_random_split_complexes_exact(self):
        rng = random.Random(67)
        for _ in range(6):
            s = random_split_complex(rng, rng.randint(3, 8), rng.randint(1, 3),
                                     rng.randint(1, 4))
            assert tautological_les(s).exact

    def test_differential_not_squaring_to_zero_rejected(self):
        # delta^0 a = b and delta^0 b = x, so delta^0 delta^0 a = x
        c = make_complex([("e", 0), ("a", -1), ("b", 0), ("x", 1)], 1,
                         {0: [("a", "b", 1), ("b", "x", 1)]})
        s = make_split_complex(c, ["e"], "e")
        with pytest.raises(ValueError):
            tautological_les(s)

    def test_degree_window_limit(self):
        c = make_complex([("e", 0), ("x", MAX_DEGREE_WINDOW - 1)], 0, {})
        s = make_split_complex(c, ["e"], "e")
        # the default window 0..MAX_DEGREE_WINDOW spans one degree too many
        with pytest.raises(ValueError, match=str(MAX_DEGREE_WINDOW)):
            tautological_les(s)
        with pytest.raises(ValueError, match=str(MAX_DEGREE_WINDOW)):
            tautological_les(s, range(MAX_DEGREE_WINDOW + 1))
        assert len(tautological_les(s, range(MAX_DEGREE_WINDOW)).nodes) == 3 * MAX_DEGREE_WINDOW


    def test_non_split_input_rejected(self):
        # delta^0 y = w + x leaves the zero part {e, y, w}
        c = make_complex([("e", 0), ("y", 0), ("w", 1), ("x", 1)], 1,
                         {0: [("y", "w", 1), ("y", "x", 1)]})
        s = make_split_complex(c, ["e", "y", "w"], "e")
        with pytest.raises(ValueError, match="zero part"):
            tautological_les(s)

    def test_higher_operator_on_zero_part_rejected(self):
        c = make_complex([("e", 0), ("y", 1), ("x", -1)], 1, {1: [("y", "x", 1)]})
        s = make_split_complex(c, ["e", "y"], "e")
        with pytest.raises(ValueError, match="zero part"):
            tautological_les(s)

    def test_connecting_map_off_degree_rejected(self):
        # delta^0 x = e keeps the degree, so the connecting image of the
        # degree-0 cycle x is no cycle of degree 1
        c = make_complex([("e", 0), ("x", 0)], 0, {0: [("x", "e", 1)]})
        s = make_split_complex(c, ["e"], "e")
        with pytest.raises(ValueError, match="cycle of degree 1"):
            tautological_les(s)

    def test_pushed_non_cycle_rejected(self):
        c = make_complex([("a", 0), ("b", 1)], 0, {0: [("a", "b", 1)]})
        f = build_filtered_plus(c, 0)
        with pytest.raises(ValueError, match="cycle of degree 0"):
            _induced_ranks({0: [{1: F(1)}]}, lambda z: {0: F(1)}, f.differential, f.degrees, [], 0)

    def test_pushed_non_cycle_rejected_over_a_common_denominator(self):
        # a 3/2 in the differential and 1/2, 1/3 in the vectors: D > 1
        c = make_complex([("a", 0), ("b", 1)], 0, {0: [("a", "b", F(3, 2))]})
        f = build_filtered_plus(c, 0)
        with pytest.raises(ValueError, match="cycle of degree 0"):
            _induced_ranks({0: [{1: F(1, 2)}]}, lambda z: {0: F(1, 3)}, f.differential, f.degrees,
                           [], 0)

    def test_boundary_that_is_not_a_cycle_rejected(self):
        # delta^0 delta^0 x = (1/2)(2/3) z, not 0
        c = make_complex([("x", 0), ("y", 1), ("z", 2)], 0,
                         {0: [("x", "y", F(1, 2)), ("y", "z", F(2, 3))]})
        f = build_filtered_plus(c, 0)
        with pytest.raises(ValueError, match="a boundary is not a cycle"):
            _homology_counts(f.differential, f.degrees)

    @pytest.mark.parametrize("window", [range(MAX_DEGREE_WINDOW + 1), range(10**9),
                                        range(-10**20, 10**20)])
    def test_wide_window_refused_before_elimination(self, window):
        s = milnor_model(2, 2, include_spheres=False)
        with mock.patch.object(linalg, "_echelon", side_effect=AssertionError("eliminated")):
            with pytest.raises(ValueError, match=str(MAX_DEGREE_WINDOW)):
                tautological_les(s, window)

    def test_builds_no_cohomology_group(self):
        s = milnor_model(3, 4)
        with mock.patch.object(Subquotient, "__init__", side_effect=AssertionError("built")):
            assert tautological_les(s).exact

    def test_six_eliminations(self):
        s = tensor_split(milnor_model(2, 2), milnor_model(2, 3))
        with mock.patch.object(linalg, "_echelon", wraps=linalg._echelon) as spy:
            assert tautological_les(s).exact
        # one kernel_and_image per complex, one pivot_columns per map
        assert spy.call_count == 6


# ---------------------------------------------------------------------------
# oracle: the LES read from the three cohomology groups and the matrices of
# the induced maps in their bases


def _oracle_reindex(v, n_from, n_to, where):
    out = {}
    for idx, x in v.items():
        p, g = divmod(idx, n_from)
        t = where.get(g)
        if t is not None:
            out[p * n_to + t] = x
    return out


def _oracle_les(s, degrees=None):
    n_tr = s.truncation
    c = s.complex
    cz, cp = s.zero_part, s.plus_part
    f_full = build_filtered_plus(c, n_tr)
    h_full = cohomology(f_full)
    h_zero, h_plus = (cohomology(build_filtered_plus(x, n_tr)) for x in (cz, cp))
    zi, pi = ([i for i, p in enumerate(s.parts) if p == part] for part in (ZERO_PART, PLUS_PART))
    n = c.n
    inc_map = partial(_oracle_reindex, n_from=cz.n, n_to=n, where=dict(enumerate(zi)))
    lift_plus = partial(_oracle_reindex, n_from=cp.n, n_to=n, where=dict(enumerate(pi)))
    proj_map = partial(_oracle_reindex, n_from=n, n_to=cp.n,
                       where={g: t for t, g in enumerate(pi)})
    to_zero = partial(_oracle_reindex, n_from=n, n_to=cz.n,
                      where={g: t for t, g in enumerate(zi)})
    if degrees is None:
        all_deg = sorted(set(h_full) | set(h_zero) | set(h_plus))
        degrees = range(min(all_deg), max(all_deg) + 2) if all_deg else range(0, 1)

    def connecting(rep):
        return to_zero(f_full.differential.apply(lift_plus(rep)))

    conn_rank = {d: rank(induced_map(h_plus, h_zero, d, d + 1, connecting))
                 for d in sorted({e for d in degrees for e in (d - 1, d)})}
    nodes = []
    for d in degrees:
        iota = induced_map(h_zero, h_full, d, d, inc_map)
        pimat = induced_map(h_full, h_plus, d, d, proj_map)
        r_iota, r_pi = rank(iota), rank(pimat)
        nodes.append(LesNode(d, "full", r_iota, pimat.cols - r_pi))
        nodes.append(LesNode(d, "plus", r_pi, pimat.rows - conn_rank[d]))
        nodes.append(LesNode(d, "zero", conn_rank[d - 1], iota.cols - r_iota))
    return LesReport(n_tr,
                     {d: g.dim for d, g in sorted(h_zero.items())},
                     {d: g.dim for d, g in sorted(h_full.items())},
                     {d: g.dim for d, g in sorted(h_plus.items())},
                     tuple(nodes))


def assert_les_matches_oracle(s, degrees=None):
    # repr also compares the order of the dims dicts, which the CLI prints
    assert repr(tautological_les(s, degrees)) == repr(_oracle_les(s, degrees))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32), st.integers(3, 8), st.integers(0, 3), st.integers(1, 4),
       st.booleans())
def test_les_matches_oracle_on_random_split_complexes(seed, n_plus, n_zero_extra, n_tr,
                                                      killer):
    s = random_split_complex(random.Random(seed), n_plus, n_zero_extra, n_tr,
                             with_unit_killer=killer)
    assert_les_matches_oracle(s)


@pytest.mark.parametrize("k,m", [(k, m) for m in range(1, 5) for k in range(1, m + 1)])
def test_les_matches_oracle_on_milnor_models_with_spheres(k, m):
    assert_les_matches_oracle(milnor_model(k, m))


def test_les_matches_oracle_on_tensor_split():
    assert_les_matches_oracle(tensor_split(milnor_model(2, 3), milnor_model(3, 3)))


@pytest.mark.parametrize("window", [range(-40, 41), range(-1, 1), range(3, 4),
                                    range(50, 53), range(-60, -57), range(0)])
def test_les_matches_oracle_on_explicit_windows(window):
    rng = random.Random(79)
    for s in (milnor_model(3, 4), random_split_complex(rng, 6, 2, 3, with_unit_killer=True)):
        assert_les_matches_oracle(s, window)


class TestHierarchy:
    def test_models_and_killers(self):
        rng = random.Random(71)
        subjects = [milnor_model(2, 2, include_spheres=False),
                    milnor_model(2, 3, include_spheres=False),
                    milnor_model(3, 3, include_spheres=False)]
        subjects += [random_split_complex(rng, 5, 2, 3, with_unit_killer=True)
                     for _ in range(3)]
        for s in subjects:
            n_tr = s.truncation
            for k in range(n_tr):
                dil, _ = has_k_dilation(s, k)
                semi, _ = has_k_semidilation(s, k)
                if dil:
                    assert semi
                    assert has_k_dilation(s, k + 1)[0]
                if semi:
                    assert has_k_semidilation(s, k + 1)[0]


def test_zero_part_cohomology_tensor_factorization():
    # H(F^N C_0) = H(C_0) (x) <1, ..., u^-N> as graded dimensions
    rng = random.Random(73)
    for _ in range(5):
        s = random_split_complex(rng, rng.randint(3, 7), rng.randint(1, 4),
                                 rng.randint(1, 4))
        cz = s.zero_part
        base = {d: g.dim for d, g in cohomology(cz).items() if g.dim}
        f = build_filtered_plus(cz, s.truncation)
        full = {d: g.dim for d, g in cohomology(f).items() if g.dim}
        expected: dict[int, int] = {}
        for p in range(s.truncation + 1):
            for d, m in base.items():
                expected[d - 2 * p] = expected.get(d - 2 * p, 0) + m
        assert full == expected


# ---------------------------------------------------------------------------
# oracle: H^0(F^k C_0) with [e] first, from the cohomology of F^k(C_0) itself


def _oracle_unit_first_h0(obj, e):
    sq = cohomology(obj, degrees=range(0, 1), preferred={0: [e]})[0]
    if not sq.basis_sources or sq.basis_sources[0] != 0:
        return None
    return sq


def assert_h0_matches_oracle(s):
    for k in range(s.truncation + 1):
        fz = build_filtered_plus(s.zero_part, k)
        old = _oracle_unit_first_h0(fz, s.unit_zero)
        new = _zero_part_h0(s, k)
        assert (old is None) == (new is None)
        if new is None:
            continue
        assert repr([z for _, z in new[1]]) == repr(list(old.basis[1:]))
        assert [p for p, _ in new[1]] == [max(z) // s.zero_part.n for z in old.basis[1:]]
        assert repr(new[0].basis) == repr(_oracle_unit_first_h0(s.zero_part, s.unit_zero).basis)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32), st.integers(3, 8), st.integers(0, 3), st.integers(1, 4),
       st.booleans())
def test_zero_part_h0_matches_oracle_on_random_split_complexes(seed, n_plus, n_zero_extra,
                                                               n_tr, killer):
    assert_h0_matches_oracle(random_split_complex(random.Random(seed), n_plus, n_zero_extra,
                                                  n_tr, with_unit_killer=killer))


@pytest.mark.parametrize("k,m", [(k, m) for m in range(1, 5) for k in range(1, m + 1)])
def test_zero_part_h0_matches_oracle_on_milnor_models_with_spheres(k, m):
    assert_h0_matches_oracle(milnor_model(k, m))


def test_zero_part_h0_none_when_unit_exact_in_zero_part():
    c = make_complex([("e", 0), ("f", -1), ("z", 2)], 2, {0: [("f", "e", 1)]})
    s = make_split_complex(c, ["e", "f", "z"], "e")
    assert _zero_part_h0(s, 2) is None
    assert_h0_matches_oracle(s)


@pytest.mark.parametrize("s", [milnor_model(3, 4), modified_milnor(2, 2),
                               random_split_complex(random.Random(83), 6, 3, 3,
                                                    with_unit_killer=True)])
def test_split_routes_build_no_part_and_no_filtered_zero_part_cohomology(s):
    real = dilation.cohomology

    def cohomology_of_complexes_only(obj, *args, **kwargs):
        if isinstance(obj, FilteredPlusComplex):
            raise AssertionError("cohomology of a filtered complex")
        return real(obj, *args, **kwargs)

    expected = [order_of_semidilation(s), has_k_semidilation(s, s.truncation),
                order_via_torsion(s), order_via_torsion(s, semi=True),
                pi0_coordinate(s, s.unit), tautological_les(s)]
    with mock.patch.object(S1Complex, "__post_init__", side_effect=AssertionError("built")), \
            mock.patch.object(dilation, "cohomology", side_effect=cohomology_of_complexes_only):
        got = [order_of_semidilation(s), has_k_semidilation(s, s.truncation),
               order_via_torsion(s), order_via_torsion(s, semi=True),
               pi0_coordinate(s, s.unit), tautological_les(s)]
    assert repr(got) == repr(expected)


def _off_degree_unit():
    """A split complex whose unit e + z has a degree-2 term."""
    c = make_complex([("e", 0), ("z", 2), ("x", -1)], 1, {0: [("x", "e", 1)]})
    return make_split_complex(c, ["e", "z"], {0: F(1), 1: F(1)})


@pytest.mark.parametrize("route", [
    partial(has_k_dilation, k=0), partial(has_k_semidilation, k=0), order_of_dilation,
    order_of_semidilation, order_via_torsion, partial(order_via_torsion, semi=True)])
def test_every_order_route_refuses_a_unit_off_degree_zero(route):
    s = _off_degree_unit()
    assert "unit chain is not of pure degree 0" in verify_splitting(s).violations()
    with pytest.raises(ValueError, match="unit chain is not of pure degree 0"):
        route(s)


def _order_routes(s):
    return [has_k_dilation(s, s.truncation), has_k_semidilation(s, s.truncation),
            order_of_dilation(s), order_of_semidilation(s),
            order_via_torsion(s), order_via_torsion(s, semi=True)]


@pytest.mark.parametrize("s", [milnor_model(3, 4),
                               random_split_complex(random.Random(83), 6, 3, 3,
                                                    with_unit_killer=True)])
def test_order_routes_build_no_whole_lift(s):
    expected = _order_routes(s)
    assert any(rep.found for rep in expected[2:])
    with mock.patch.object(complexes, "lift_family", side_effect=AssertionError("lift")), \
            mock.patch.object(dilation, "lift_family", side_effect=AssertionError("lift")), \
            mock.patch.object(dilation, "build_filtered_plus",
                              side_effect=AssertionError("filtered")):
        got = _order_routes(s)
    assert repr(got) == repr(expected)


def _unit_exact_in_zero_part():
    """A split complex whose unit class vanishes in H^0(C_0)."""
    c = make_complex([("e", 0), ("f", -1), ("z", 2)], 2, {0: [("f", "e", 1)]})
    return make_split_complex(c, ["e", "f", "z"], "e")


def _degree_minus_one_lifts(route, s):
    """How many degree -1 blocks one call of `route(s)` lifts."""
    degrees = []
    real = dilation.lift_degree

    def spy(ops, level, gen_degrees, d):
        degrees.append(d)
        return real(ops, level, gen_degrees, d)

    with mock.patch.object(dilation, "lift_degree", spy):
        route(s)
    return degrees.count(-1)


@pytest.mark.parametrize("semi", [False, True])
@pytest.mark.parametrize("n_tr", range(5))
def test_torsion_route_lifts_its_degree_minus_one_blocks_once(n_tr, semi):
    # x closed, x connects to e, and w: three blocks, whatever the number of levels
    route = partial(order_via_torsion, semi=semi)
    for s in (milnor_model(3, 4, truncation=n_tr),
              random_split_complex(random.Random(n_tr), 6, 3, n_tr),
              random_split_complex(random.Random(n_tr), 6, 3, n_tr, with_unit_killer=True)):
        assert _degree_minus_one_lifts(route, s) == 3


def test_torsion_semi_route_lifts_nothing_when_the_unit_vanishes():
    s = _unit_exact_in_zero_part()
    assert _degree_minus_one_lifts(partial(order_via_torsion, semi=True), s) == 0
    assert order_via_torsion(s, semi=True).order is None


_DIRECT_SCAN = ("has_k_dilation", "has_k_semidilation", "_solve_semidilation",
                "order_of_dilation", "order_of_semidilation")


def _assert_torsion_orders_match_scan_without_it(s):
    expected = [order_of_dilation(s).order, order_of_semidilation(s).order]
    with contextlib.ExitStack() as stack:
        for name in _DIRECT_SCAN:
            stack.enter_context(mock.patch.object(dilation, name,
                                                  side_effect=AssertionError(name)))
        got = [order_via_torsion(s).order, order_via_torsion(s, semi=True).order]
    assert got == expected


def test_torsion_route_runs_without_the_direct_scan_on_milnor_34():
    _assert_torsion_orders_match_scan_without_it(milnor_model(3, 4))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32), st.integers(3, 8), st.integers(0, 3), st.integers(1, 4),
       st.booleans())
def test_torsion_route_runs_without_the_direct_scan_on_random_split_complexes(
        seed, n_plus, n_zero_extra, n_tr, killer):
    _assert_torsion_orders_match_scan_without_it(
        random_split_complex(random.Random(seed), n_plus, n_zero_extra, n_tr,
                             with_unit_killer=killer))


@pytest.mark.parametrize("names", [["e", "typo"], ["E"]])
def test_make_split_complex_refuses_a_name_that_names_no_generator(names):
    c = make_complex([("e", 0), ("x", -1)], 1, {0: [("x", "e", 1)]})
    bad = sorted(set(names) - {"e"})
    with pytest.raises(ValueError, match=re.escape(f"zero-part names {bad} name no generator")):
        make_split_complex(c, names, "e")


@pytest.mark.parametrize("unit, error, message", [
    ({0: 0.5}, TypeError, "floating point values are not allowed"),
    ({0: F(1), 1: F(0)}, ValueError, "zero coefficient stored in the unit chain"),
    ({0: "1"}, TypeError, "neither an int nor a Fraction")])
def test_split_refuses_a_float_or_a_stored_zero_in_the_unit(unit, error, message):
    s = milnor_model(2, 3)
    with pytest.raises(error, match=message):
        dilation.SplitS1Complex(s.complex, s.parts, unit)


def test_make_split_complex_refuses_a_unit_name_that_names_no_generator():
    c = make_complex([("e", 0), ("x", -1)], 1, {0: [("x", "e", 1)]})
    with pytest.raises(ValueError, match="unit name 'nope' names no generator"):
        make_split_complex(c, ["e"], "nope")


# ---------------------------------------------------------------------------
# oracle: the split's blocks as slices of the operators, and its violations
# as two re-scans of delta^0 and of the higher operators


def _oracle_split(s):
    c = s.complex
    zi = [i for i, p in enumerate(s.parts) if p == "zero"]
    pi = [i for i, p in enumerate(s.parts) if p == "plus"]
    zset = set(zi)
    nz = len(zi)
    zero_deltas = (submatrix(c.deltas[0], zi, zi),) + (SparseMatrix.zero(nz, nz),) * c.truncation
    plus_deltas = tuple(submatrix(d, pi, pi) for d in c.deltas)
    connecting = tuple(submatrix(d, zi, pi) for d in c.deltas)
    unit_zero = {zi.index(i): x for i, x in s.unit.items() if i in zset}
    preserved = all(i in zset for i, j, _ in c.deltas[0].entries if j in zset)
    higher = [(r, j) for r in range(1, c.truncation + 1)
              for _, j, _ in c.deltas[r].entries if j in zset]
    return zero_deltas, plus_deltas, connecting, unit_zero, preserved, higher


def assert_split_matches_oracle(s):
    zero_deltas, plus_deltas, connecting, unit_zero, preserved, higher = _oracle_split(s)
    assert s.zero_part.deltas == zero_deltas
    assert s.plus_part.deltas == plus_deltas
    assert s.connecting == connecting
    assert repr(s.unit_zero) == repr(unit_zero)
    for tag in (ZERO_PART, PLUS_PART):
        part = [i for i, p in enumerate(s.parts) if p == tag]
        assert [s.positions[i] for i in part] == list(range(len(part)))
    assert all(r for r, _, _ in s.outside) == preserved
    assert [(r, j) for r, _, j in s.outside if r] == higher
    # every entry of outside is a delta^r entry, and delta^0's leave C_0
    for r, i, j in s.outside:
        assert any(e[:2] == (i, j) for e in s.complex.deltas[r].entries)
        assert s.parts[j] == "zero" and (r or s.parts[i] == "plus")
    rep = verify_splitting(s)
    operator_lines = ["delta^0 does not preserve the zero part"] * (not preserved) + [
        f"delta^{r} nonzero on zero-part generator {s.complex.generators[j].name}" for r, j in higher]
    assert [v for v in rep.violations() if v.startswith("delta^")] == operator_lines


def _retagged(s, rng):
    """The same complex and unit under random part tags: mostly no split."""
    parts = tuple(rng.choice(["zero", "plus"]) for _ in s.parts)
    return dilation.SplitS1Complex(s.complex, parts, s.unit)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32), st.integers(3, 8), st.integers(0, 3), st.integers(1, 4),
       st.booleans())
def test_split_matches_oracle_on_random_split_complexes(seed, n_plus, n_zero_extra, n_tr,
                                                        killer):
    rng = random.Random(seed)
    s = random_split_complex(rng, n_plus, n_zero_extra, n_tr, with_unit_killer=killer)
    assert not s.outside
    assert_split_matches_oracle(s)
    assert_split_matches_oracle(_retagged(s, rng))


def test_split_matches_oracle_on_edge_cases():
    c = make_complex([("e", 0), ("x", -1), ("y", 0), ("z", 1)], 2, {})
    rng = random.Random(89)
    s = random_split_complex(rng, 5, 2, 3, with_unit_killer=True)
    every_zero = dilation.SplitS1Complex(s.complex, ("zero",) * s.complex.n, s.unit)
    every_plus = dilation.SplitS1Complex(s.complex, ("plus",) * s.complex.n, s.unit)
    subjects = [unit_only_complex(), unit_only_complex(0), every_zero, every_plus,
                make_split_complex(c, ["e", "y"], "e"), make_split_complex(c, ["e"], "e"),
                milnor_model(3, 4), modified_milnor(2, 2), _off_degree_unit()]
    for subject in subjects:
        assert_split_matches_oracle(subject)
    assert every_zero.outside
    assert every_plus.outside == ()
    assert every_zero.plus_part.n == 0 and every_plus.zero_part.n == 0


def _oracle_splitting_lines(s):
    """The violation lines of the seven-flag splitting report, from the
    oracle's slices and re-scans."""
    c = s.complex
    zero_deltas, _, _, unit_zero, preserved, higher = _oracle_split(s)
    subcomplex_ok, higher_vanish_ok = preserved, not higher
    unit_in_zero_part = all(s.parts[i] == "zero" for i in s.unit)
    unit_degree_zero = all(c.generators[i].degree == 0 for i in s.unit)
    d0 = zero_deltas[0]
    unit_closed = not d0.apply(unit_zero) if unit_in_zero_part else False
    unit_nonexact = unit_in_zero_part and unit_closed and linalg.solve(d0, unit_zero) is None
    out = []
    if not subcomplex_ok:
        out.append("delta^0 does not preserve the zero part")
    if not higher_vanish_ok:
        out.extend(f"delta^{r} nonzero on zero-part generator {c.generators[j].name}"
                   for r, j in higher)
    if not unit_in_zero_part:
        out.append("unit chain is not supported on the zero part")
    if not unit_degree_zero:
        out.append("unit chain is not of pure degree 0")
    if not unit_closed:
        out.append("unit chain is not closed")
    if not unit_nonexact:
        out.append("unit class vanishes in H^0 of the zero part")
    return out


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.integers(3, 8), st.integers(0, 3), st.integers(1, 4),
       st.booleans(), st.booleans())
def test_splitting_lines_match_the_seven_flag_oracle(seed, n_plus, n_zero_extra, n_tr,
                                                     killer, redraw_unit):
    rng = random.Random(seed)
    s = random_split_complex(rng, n_plus, n_zero_extra, n_tr, with_unit_killer=killer)
    assert verify_splitting(s).violations() == _oracle_splitting_lines(s) == []
    # most re-tagged splits are invalid; a redrawn unit may be open or off degree 0
    t = _retagged(s, rng)
    if redraw_unit:
        t = dilation.SplitS1Complex(t.complex, t.parts, {
            i: F(rng.choice([-2, -1, 1, 3])) for i in rng.sample(range(t.complex.n), 2)})
    rep = verify_splitting(t)
    assert rep.violations() == _oracle_splitting_lines(t)
    assert rep.valid == (not rep.violations())


def test_making_a_split_slices_no_operator():
    rng = random.Random(97)
    subjects = [milnor_model(3, 4), random_split_complex(rng, 6, 3, 3, with_unit_killer=True),
                tensor_split(milnor_model(2, 2), milnor_model(2, 3))]
    for s in subjects:
        assert_split_matches_oracle(s)


@pytest.mark.parametrize("s", [milnor_model(3, 4), tensor_split(milnor_model(2, 2),
                                                                 milnor_model(2, 3)),
                               random_split_complex(random.Random(101), 6, 3, 3,
                                                    with_unit_killer=True)])
def test_les_builds_no_filtered_whole_complex(s):
    real = dilation.build_filtered_plus

    def parts_only(c, k):
        if c is s.complex:
            raise AssertionError("F^N of the whole complex")
        return real(c, k)

    with mock.patch.object(dilation, "build_filtered_plus", side_effect=parts_only):
        got = tautological_les(s)
    assert repr(got) == repr(_oracle_les(s))
