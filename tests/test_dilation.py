import contextlib
import copy
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
    _solve_semidilation,
    _torsion_solver,
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

from oracles import (corpus_splits, les_with_vector_checks, submatrix,
                     whole_solve_semidilation, whole_zero_part_h0)


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
    partial(order_via_torsion, semi=True), partial(pi0_coordinate, v={0: F(1)}),
], ids=["has_k_dilation", "has_k_semidilation", "order_of_dilation",
        "order_of_semidilation", "order_via_torsion", "order_via_torsion_semi",
        "pi0_coordinate"])
def test_order_entry_points_refuse_a_unit_off_the_zero_part(entry, names):
    # p2_hat is a degree-0 plus generator: the dilation system would read
    # it, the semi-dilation, torsion and pi_0 systems would drop it
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


    @pytest.mark.parametrize("value, message", [
        (0.5, "floating point values are not allowed"), ("1", "neither an int nor a Fraction")],
        ids=["float", "string"])
    def test_inexact_value_refused(self, value, message):
        s = milnor_model(2, 3)
        with pytest.raises(TypeError, match=message):
            pi0_coordinate(s, {0: value})

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
        # delta^0 a = b crosses into C_0 and delta^0 b = c there, so the
        # connecting image b of the C_+ cycle a is no cycle of C_0: R_0 a = c
        c = make_complex([("e", 0), ("a", 0), ("b", 1), ("c", 2)], 0,
                         {0: [("a", "b", 1), ("b", "c", 1)]})
        s = make_split_complex(c, ["e", "b", "c"], "e")
        with pytest.raises(ValueError, match="does not square to zero"):
            tautological_les(s)

    def test_pushed_non_cycle_rejected_over_a_common_denominator(self):
        # delta^0 x = (3/2) y + (1/2) y' in C_+, and the connecting map sends
        # y to (1/3) z and y' to sign z: R_0 x = (1/2 + sign/2) z, which
        # cancels over the common denominator only for sign = -1
        def split(sign):
            c = make_complex([("e", 0), ("x", 0), ("y", 1), ("y'", 1), ("z", 2)], 0,
                             {0: [("x", "y", F(3, 2)), ("x", "y'", F(1, 2)),
                                  ("y", "z", F(1, 3)), ("y'", "z", sign)]})
            return make_split_complex(c, ["e", "z"], "e")

        with pytest.raises(ValueError, match=r"sum_\(i\+j=0\).*does not square to zero"):
            tautological_les(split(1))
        assert tautological_les(split(-1)).exact

    def test_boundary_that_is_not_a_cycle_rejected(self):
        # delta^0 delta^0 x = (1/2)(2/3) z, not 0, inside C_+ and inside C_0
        c = make_complex([("e", 0), ("x", 0), ("y", 1), ("z", 2)], 0,
                         {0: [("x", "y", F(1, 2)), ("y", "z", F(2, 3))]})
        for zero in (["e"], ["e", "x", "y", "z"]):
            with pytest.raises(ValueError, match="does not square to zero"):
                tautological_les(make_split_complex(c, zero, "e"))

    def test_higher_relation_refused(self):
        # delta^1 delta^0 x = w while delta^0 delta^1 x = 0: R_1 x = w
        c = make_complex([("e", 0), ("x", 0), ("y", 1), ("w", 0)], 1,
                         {0: [("x", "y", 1)], 1: [("y", "w", 1)]})
        s = make_split_complex(c, ["e"], "e")
        with pytest.raises(ValueError, match=r"sum_\(i\+j=1\).*does not square to zero"):
            tautological_les(s)

    def test_degree_shift_refused_where_no_cycle_shows_it(self):
        # delta^0 a = b keeps the degree inside C_+; the cycle b pushes to
        # nothing, so no pushed cycle exposes the shift, but the operator
        # check refuses it before any elimination
        c = make_complex([("e", 0), ("a", 0), ("b", 0)], 0, {0: [("a", "b", 1)]})
        s = make_split_complex(c, ["e"], "e")
        with mock.patch.object(linalg, "_echelon", side_effect=AssertionError("eliminated")):
            with pytest.raises(ValueError, match="degree-0 generator maps under delta.0 "
                                                 "to no cycle of degree 1"):
                tautological_les(s)

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

    def test_two_forward_eliminations(self):
        s = tensor_split(milnor_model(2, 2), milnor_model(2, 3))
        with mock.patch.object(linalg, "_echelon", wraps=linalg._echelon) as spy, \
                mock.patch.object(linalg, "_rref_rows", side_effect=AssertionError("rref")):
            assert tautological_les(s).exact
        # one of F^N(C), which serves F^N(C_0) too, and one of F^N(C_+)
        assert spy.call_count == 2


# ---------------------------------------------------------------------------
# the LES's one operator check against the vector checks it replaced


def _les_subjects():
    """The benchmark's 215 seed-10 corpus inputs, which hold the sphere-free
    Milnor models with k <= m <= 4, and the sphere-free models with m = 5."""
    subjects = corpus_splits() + [milnor_model(k, 5, include_spheres=False) for k in range(1, 6)]
    assert len(subjects) == 220
    return subjects


def _with_one_value_changed(s, rng):
    """s with one seeded entry of one operator scaled by a seeded factor
    other than 0 and 1, or s itself when no operator holds an entry.  The
    entry pattern stays, and with it the degree shifts and the split; the
    relations may break."""
    c = s.complex
    held = [r for r, d in enumerate(c.deltas) if d.entries]
    if not held:
        return s
    r = rng.choice(held)
    ent = list(c.deltas[r].entries)
    t = rng.randrange(len(ent))
    i, j, v = ent[t]
    ent[t] = (i, j, v * rng.choice([F(-1), F(2), F(1, 2), F(-2, 3)]))
    deltas = list(c.deltas)
    deltas[r] = SparseMatrix(c.n, c.n, tuple(ent))
    return dilation.SplitS1Complex(S1Complex(c.generators, c.truncation, tuple(deltas)),
                                   s.parts, s.unit)


@pytest.mark.parametrize("seed", [0, 1])
def test_les_refuses_exactly_what_the_vector_checks_refuse(seed):
    """On every input and on a copy with one value changed, the operator
    check refuses exactly when a mat-vec shows a boundary or a pushed
    cycle that is no cycle, and an accepted input gets the oracle's report."""
    rng = random.Random(seed)
    refused = accepted = 0
    for s in _les_subjects():
        for t in (s, _with_one_value_changed(s, rng)):
            try:
                want = les_with_vector_checks(t)
            except ValueError:
                with pytest.raises(ValueError, match="does not square to zero"):
                    tautological_les(t)
                refused += 1
            else:
                assert tautological_les(t) == want
                accepted += 1
    # seeds 0 and 1 refuse 65 and 67 of the 440 inputs
    assert refused > 50 and accepted > 300


def test_les_makes_no_mat_vec(monkeypatch):
    """The ranks come from pivot counts: no cycle is pushed and no boundary
    or pushed cycle is checked vector by vector."""
    monkeypatch.setattr(SparseMatrix, "apply", mock.Mock(side_effect=AssertionError("mat-vec")))
    for s in _les_subjects():
        tautological_les(s)


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


def _les_benchmark_shapes():
    """milnor_model(4, 6) with its spheres, the `product_pages` complex and
    a dense random input."""
    return [milnor_model(4, 6),
            tensor_split(milnor_model(3, 4, include_spheres=False),
                         milnor_model(4, 5, include_spheres=False)),
            random_split_complex(random.Random(10), 40, 10, 6)]


@pytest.mark.parametrize("s", _les_benchmark_shapes(), ids=["milnor46", "product", "dense"])
def test_les_matches_both_oracles_on_benchmark_shapes(s):
    """The pivot-count identities against the cohomology-group oracle and
    the vector-checked sequence, in the derived window and in an explicit
    window three degrees wider on each side."""
    derived = tautological_les(s)
    first, last = derived.nodes[0].degree, derived.nodes[-1].degree
    for window in (None, range(first - 3, last + 4)):
        want = repr(_oracle_les(s, window))
        assert repr(tautological_les(s, window)) == want
        assert repr(les_with_vector_checks(s, window)) == want


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
        base = {d: g.dim for d, g in cohomology(build_filtered_plus(cz, 0)).items() if g.dim}
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
    """H^0 of obj (C_0 or F^k(C_0)) over [B_0 | e | Z_0], from the kernel and
    image of obj's own differential; None when [e] does not head its basis."""
    diff = obj.differential if isinstance(obj, FilteredPlusComplex) else obj.deltas[0]
    kernel, image = linalg.kernel_and_image(diff)
    z0, b0 = ([v for v in vs if obj.degrees[min(v)] == 0] for vs in (kernel, image))
    sq = Subquotient(len(obj.degrees), [e, *z0], b0)
    if sq.rank_z != len(z0) or sq.basis_sources[:1] != (0,):
        return None
    return sq


def _oracle_inert(s):
    """The C_0 positions of the generators off the unit's support that hold
    no entry in any row or column of any delta^r, from a scan of every
    operator."""
    touched = {x for d in s.complex.deltas for i, j, _ in d.entries for x in (i, j)}
    zi = [i for i, p in enumerate(s.parts) if p == "zero"]
    return frozenset(t for t, i in enumerate(zi) if i not in touched and i not in s.unit)


def _whole(s):
    """A copy of s that marks no generator inert: the whole-complex path."""
    t = copy.copy(s)
    object.__setattr__(t, "inert_zero", frozenset())
    return t


def assert_h0_matches_oracle(s):
    inert, n0 = _oracle_inert(s), s.zero_part.n
    assert s.inert_zero == inert

    def active(basis):
        # an inert class of F^k(C_0) is the unit vector at (g, p), g inert
        return [z for z in basis if not (len(z) == 1 and min(z) % n0 in inert)]

    for k in range(s.truncation + 1):
        fz = build_filtered_plus(s.zero_part, k)
        old = _oracle_unit_first_h0(fz, s.unit_zero)
        if old is None:
            for subject in (s, _whole(s)):
                with pytest.raises(ValueError,
                                   match=r"unit (chain is not closed|class vanishes)"):
                    _zero_part_h0(subject, k)
            continue
        assert repr(list(_zero_part_h0(s, k).basis)) == repr(active(old.basis))
        # the whole-complex path keeps the inert classes, as the oracle does
        assert repr(_zero_part_h0(_whole(s), k).basis) == repr(old.basis)


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


@pytest.mark.parametrize("s", [milnor_model(3, 6), milnor_model(4, 4),
                               random_split_complex(random.Random(83), 6, 3, 3)])
def test_zero_part_h0_makes_three_eliminations_at_every_level(s):
    # one elimination of C_0's delta^0, then the two of one subquotient
    for k in range(s.truncation + 1):
        with mock.patch.object(linalg, "_echelon", wraps=linalg._echelon) as spy:
            _zero_part_h0(s, k)
        assert spy.call_count == 3


def test_zero_part_h0_refuses_a_unit_exact_in_zero_part():
    s = _unit_exact_in_zero_part()
    with pytest.raises(ValueError, match=r"^unit class vanishes in H\^0 of the zero part$"):
        _zero_part_h0(s, 2)
    assert _oracle_unit_first_h0(s.zero_part, s.unit_zero) is None
    assert_h0_matches_oracle(s)


def _hand_split_with_inert(unit):
    """milnor_model(2, 2) without spheres, plus zero-part generators s and g
    of degree 0 and t of degree 2 that no operator touches; `unit` names
    the generators of a unit with coefficient 1."""
    base = milnor_model(2, 2, include_spheres=False)
    c = base.complex
    gens = [(g.name, g.degree) for g in c.generators] + [("s", 0), ("g", 0), ("t", 2)]
    ops = {r: [(c.generators[j].name, c.generators[i].name, v) for i, j, v in d.entries]
           for r, d in enumerate(c.deltas)}
    big = make_complex(gens, c.truncation, ops)
    zero = [g.name for g, p in zip(c.generators, base.parts) if p == "zero"] + ["s", "g", "t"]
    return make_split_complex(big, zero, {big.index_of(name): F(1) for name in unit})


def _routes_repr(s):
    """Every order route's report, and the semi-dilation test at every level."""
    return repr([order_of_dilation(s), order_of_semidilation(s), order_via_torsion(s),
                 order_via_torsion(s, semi=True),
                 *(has_k_semidilation(s, k) for k in range(s.truncation + 1))])


def test_order_routes_match_the_whole_complex_path():
    corpus = corpus_splits()
    models = [milnor_model(k, m) for m in range(2, 5) for k in range(2, m + 1)]
    models.append(milnor_model(3, 6))
    product = tensor_split(milnor_model(3, 3), milnor_model(3, 4))
    hand = _hand_split_with_inert(["e", "s"])
    assert len(corpus) == 215
    assert [len(s.inert_zero) for s in models] == [(k - 1) ** (m + 1) for m in range(2, 5)
                                                   for k in range(2, m + 1)] + [2 ** 7]
    assert len(product.inert_zero) == 512
    # s sits on the unit and no operator touches it: it is not inert
    s_pos = hand.positions[hand.complex.index_of("s")]
    assert s_pos not in hand.inert_zero and len(hand.inert_zero) == 2
    assert sum(bool(s.inert_zero) for s in corpus) > 0
    bad = [i for i, s in enumerate([*corpus, *models, product, hand])
           if _routes_repr(s) != _routes_repr(_whole(s))]
    assert bad == []


def test_pi0_coordinate_drops_degree_zero_inert_components():
    for unit in (["e"], ["e", "s"]):
        s = _hand_split_with_inert(unit)
        c = s.complex
        e, g, t = (c.index_of(name) for name in ("e", "g", "t"))
        for v in ({e: F(3), g: F(5)}, {g: F(-2)}, {e: F(1), c.index_of("s"): F(1), g: F(7)}):
            assert pi0_coordinate(s, v) == pi0_coordinate(_whole(s), v)
        assert pi0_coordinate(s, {e: F(3), g: F(5)}) == (F(3) if unit == ["e"] else F(0))
        # an inert component of degree 2 has no class in H^0 on either path
        for subject in (s, _whole(s)):
            with pytest.raises(ValueError, match="^vector is not in Z$"):
                pi0_coordinate(subject, {e: F(1), t: F(1)})


def test_pi0_coordinate_refuses_an_inert_component_off_degree_zero():
    s = milnor_model(2, 3)
    assert s.complex.generators[1].name == "s0" and s.complex.generators[1].degree == 3
    assert s.positions[1] in s.inert_zero
    with pytest.raises(ValueError, match="^vector is not in Z$"):
        pi0_coordinate(s, {0: F(1), 1: F(1)})


def _elimination_shapes(route, s):
    """(rows, pivots) of every `_echelon` call that `route(s)` makes."""
    shapes = []
    real = linalg._echelon

    def spy(rows):
        n = len(rows)
        out = real(rows)
        shapes.append((n, len(out[0])))
        return out

    with mock.patch.object(linalg, "_echelon", spy):
        route(s)
    return shapes


@pytest.mark.parametrize("k,m", [(2, 2), (3, 4), (4, 4), (3, 6)])
def test_spheres_add_no_row_and_no_pivot_to_any_elimination(k, m):
    with_spheres = milnor_model(k, m)
    without = milnor_model(k, m, include_spheres=False)
    assert len(with_spheres.inert_zero) == (k - 1) ** (m + 1)
    routes = [order_of_dilation, order_of_semidilation, order_via_torsion,
              partial(order_via_torsion, semi=True),
              partial(has_k_semidilation, k=with_spheres.truncation),
              partial(pi0_coordinate, v={0: F(1)})]
    for route in routes:
        assert _elimination_shapes(route, with_spheres) == _elimination_shapes(route, without)


@pytest.mark.parametrize("s", [milnor_model(3, 4), modified_milnor(2, 2),
                               random_split_complex(random.Random(83), 6, 3, 3,
                                                    with_unit_killer=True)])
def test_split_routes_build_no_part_and_no_filtered_zero_part_cohomology(s):
    real = dilation.cycles_and_boundaries
    d0 = s.zero_part.deltas[0]
    active = [t for t in range(s.zero_part.n) if t not in s.inert_zero]
    restricted = submatrix(d0, active, active)

    def of_c0_only(differential, degrees):
        # H(C_0) is read from C_0's own delta^0, or from its restriction to the
        # active generators when some are inert, never from F^k(C_0)'s differential
        if not (differential is d0 or (s.inert_zero and differential == restricted)):
            raise AssertionError("cycles of a differential other than C_0's delta^0")
        return real(differential, degrees)

    def semi_routes():
        return [order_of_semidilation(s), has_k_semidilation(s, s.truncation),
                order_via_torsion(s), order_via_torsion(s, semi=True),
                pi0_coordinate(s, s.unit)]

    expected = [*semi_routes(), tautological_les(s)]
    with mock.patch.object(S1Complex, "__post_init__", side_effect=AssertionError("built")):
        with mock.patch.object(dilation, "cycles_and_boundaries", side_effect=of_c0_only):
            got = semi_routes()
        got.append(tautological_les(s))
    assert repr(got) == repr(expected)


def _unit_class_vanishes():
    """e = delta g in C_0, so [e] = 0; e is also exact in C."""
    c = make_complex([("e", 0), ("g", -1), ("x", -1), ("y", 0)], 2,
                     {0: [("g", "e", 1), ("x", "y", 1)]})
    return make_split_complex(c, ["e", "g"], "e")


def _unit_not_closed():
    """delta e = f, so e has no class, and e is not exact in C."""
    c = make_complex([("e", 0), ("f", 1), ("x", -1), ("y", 0)], 2,
                     {0: [("e", "f", 1), ("x", "y", 1)]})
    return make_split_complex(c, ["e", "f"], "e")


@pytest.mark.parametrize("split, sentence, dilation_order", [
    (_unit_class_vanishes, "unit class vanishes in H^0 of the zero part", 0),
    (_unit_not_closed, "unit chain is not closed", None),
], ids=["class-vanishes", "not-closed"])
def test_semidilation_routes_refuse_a_unit_without_a_class(split, sentence, dilation_order):
    s = split()
    assert sentence in verify_splitting(s).violations()
    routes = [order_of_semidilation, partial(order_via_torsion, semi=True),
              partial(pi0_coordinate, v=s.unit),
              *(partial(has_k_semidilation, k=k) for k in range(s.truncation + 1))]
    for route in routes:
        with pytest.raises(ValueError, match=f"^{re.escape(sentence)}$"):
            route(s)
    # the dilation routes ask whether e is exact, which needs no class
    assert order_of_dilation(s).order == order_via_torsion(s).order == dilation_order
    assert [has_k_dilation(s, k)[0] for k in range(s.truncation + 1)] == [
        dilation_order is not None] * (s.truncation + 1)


def _off_degree_unit():
    """A split complex whose unit e + z has a degree-2 term."""
    c = make_complex([("e", 0), ("z", 2), ("x", -1)], 1, {0: [("x", "e", 1)]})
    return make_split_complex(c, ["e", "z"], {0: F(1), 1: F(1)})


@pytest.mark.parametrize("route", [
    partial(has_k_dilation, k=0), partial(has_k_semidilation, k=0), order_of_dilation,
    order_of_semidilation, order_via_torsion, partial(order_via_torsion, semi=True),
    partial(pi0_coordinate, v={0: F(1)})])
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
    def refused(s):
        with pytest.raises(ValueError, match=r"unit class vanishes in H\^0 of the zero part"):
            order_via_torsion(s, semi=True)

    assert _degree_minus_one_lifts(refused, _unit_exact_in_zero_part()) == 0


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


def _corpus_and_sphere_models():
    """The benchmark's 215 seed-10 corpus inputs and the Milnor models with
    spheres, 2 <= k <= m <= 4."""
    subjects = corpus_splits()
    subjects += [milnor_model(k, m) for m in range(2, 5) for k in range(2, m + 1)]
    assert len(subjects) == 221
    return subjects


def _torsion_feasible_levels(s, semi):
    """The levels k in 0..N whose torsion system `order_via_torsion` can
    solve, each solved on its own."""
    at = _torsion_solver(s, semi)
    return [k for k in range(s.truncation + 1) if at(k) is not None]


def test_torsion_feasibility_is_monotone_in_the_level():
    """The feasible levels of the torsion route are an up-set in k.

    If u^{k+1} x = delta y with y in F^{N-k-1}(C_+), then u^{k+2} x =
    delta(u y), since u commutes with the differential, and u y lies in
    F^{N-k-2}(C_+): level k feasible makes level k+1 feasible, with the same
    x, w and c.  At k = N the u-condition is void.  So the first feasible
    level is the order, and a bisection over 0..N would find it.  Checked
    for both kinds on the benchmark's 215 seed-10 corpus inputs and on the
    Milnor models with spheres, 2 <= k <= m <= 4.
    """
    subjects = _corpus_and_sphere_models()
    bad, with_feasible = [], 0
    for i, s in enumerate(subjects):
        for semi in (False, True):
            levels = _torsion_feasible_levels(s, semi)
            with_feasible += bool(levels)
            up_set = levels == list(range(levels[0], s.truncation + 1)) if levels else True
            first = levels[0] if levels else None
            if not up_set or first != order_via_torsion(s, semi=semi).order:
                bad.append((i, semi, levels))
    assert bad == []
    # both outcomes are exercised: some runs feasible somewhere, some nowhere
    assert 0 < with_feasible < 2 * len(subjects)


def test_torsion_route_solves_once_beyond_the_truncation_and_at_most_order_plus_two():
    """Level N first: an infeasible one ends the scan, and a feasible one
    is followed by levels 0..order, the level-N solve serving at N."""
    bad, found, beyond = [], 0, 0
    for i, s in enumerate(_corpus_and_sphere_models()):
        for semi in (False, True):
            with mock.patch.object(dilation, "solve", wraps=dilation.solve) as spy:
                report = order_via_torsion(s, semi=semi)
            count = spy.call_count
            if report.order is None:
                beyond += 1
                ok = count == 1
            else:
                found += 1
                ok = count <= report.order + 2
            if not ok:
                bad.append((i, semi, report.order, count))
    assert bad == []
    assert found > 0 and beyond > 0


def test_semidilation_routes_match_their_whole_column_oracles():
    """`_zero_part_h0` eliminates delta^0 over the active generators and
    `_solve_semidilation` solves over the columns its blocks fill; both
    answer as their oracles over every generator and every column, at
    every level, for both column orders, over the level-N and the level-k
    subquotient."""
    bad, checked = [], 0
    for i, s in enumerate(_corpus_and_sphere_models()):
        levels = range(s.truncation + 1)
        try:
            top = whole_zero_part_h0(s, s.truncation)
        except ValueError as exc:
            for k in levels:
                with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                    _zero_part_h0(s, k)
            continue
        for k in levels:
            own, whole = _zero_part_h0(s, k), whole_zero_part_h0(s, k)
            if (repr((own.basis, own.basis_sources, own.rank_z, own.rank_b))
                    != repr((whole.basis, whole.basis_sources, whole.rank_z, whole.rank_b))):
                bad.append((i, k, "h0"))
            for h0 in (top, own):
                for by_power in (False, True):
                    checked += 1
                    if (repr(_solve_semidilation(s, k, h0, by_power))
                            != repr(whole_solve_semidilation(s, k, h0, by_power))):
                        bad.append((i, k, by_power))
    assert bad == []
    assert checked == 4 * 1123


def test_semidilation_system_columns_do_not_depend_on_the_spheres():
    def columns(s):
        cols = []
        real = dilation.solve

        def spy(m, b):
            cols.append(m.cols)
            return real(m, b)

        with mock.patch.object(dilation, "solve", spy):
            order_of_semidilation(s)
            for k in range(s.truncation + 1):
                has_k_semidilation(s, k)
        return cols

    with_spheres = milnor_model(4, 4)
    assert len(with_spheres.inert_zero) == 3 ** 5
    got = columns(with_spheres)
    assert len(got) == with_spheres.truncation + 3
    assert got == columns(milnor_model(4, 4, include_spheres=False))


def test_the_level_k_complement_is_the_level_n_one_at_u_power_at_most_k():
    """`order_of_semidilation` solves its witness at `order` over the
    level-N complement, filtered by u-power.  That rests on two claims: the
    basis of `_zero_part_h0` at level k is the level-N basis's vectors of
    u-power <= k, in order, and `_solve_semidilation` at level k answers
    the same over either.  Checked at every level on the benchmark's 215
    seed-10 corpus inputs and on the Milnor models with spheres,
    2 <= k <= m <= 4; a unit without a class is refused at every level.
    """
    subjects = _corpus_and_sphere_models()
    bad, checked = [], 0
    for i, s in enumerate(subjects):
        n0, levels = s.zero_part.n, range(s.truncation + 1)
        try:
            top = _zero_part_h0(s, s.truncation)
        except ValueError:
            for k in levels:
                with pytest.raises(ValueError, match="^unit "):
                    _zero_part_h0(s, k)
            continue
        for k in levels:
            own = _zero_part_h0(s, k)
            checked += 1
            if (repr(own.basis) != repr(tuple(z for z in top.basis if min(z) // n0 <= k))
                    or _solve_semidilation(s, k, top, False)
                    != _solve_semidilation(s, k, own, False)):
                bad.append((i, k))
    assert bad == []
    assert checked == 1123


@pytest.mark.parametrize("names", [["e", "typo"], ["E"]])
def test_make_split_complex_refuses_a_name_that_names_no_generator(names):
    c = make_complex([("e", 0), ("x", -1)], 1, {0: [("x", "e", 1)]})
    bad = sorted(set(names) - {"e"})
    with pytest.raises(ValueError, match=re.escape(f"zero-part names {bad} name no generator")):
        make_split_complex(c, names, "e")


@pytest.mark.parametrize("unit, error, message", [
    ({0: 0.5}, TypeError, "floating point values are not allowed"),
    ({0: F(1), 1: F(0)}, ValueError, "zero coefficient stored in the unit chain"),
    ({0: "1"}, TypeError, "neither an int nor a Fraction"),
    ({0: True}, TypeError, "True is neither an int nor a Fraction")])
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
    assert s.inert_zero == _oracle_inert(s)
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
