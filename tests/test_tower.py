"""The filtration tower, the pages and the one-solve orders against references.

`_reference_z_space` and `_reference_b_space` are the per-level
constructions that `filtration_tower` replaced, kept here verbatim as an
oracle: each builds F^k and eliminates it on its own, and the B space also
eliminates F^k's rows at positive u-power.  The tower reads every level from
one elimination of F^level, B's primitives included, and must give the same
bases and the same witnesses, compared by `repr` so that even the order of
the dict entries is checked.  `_reference_leray_page` builds one
`Subquotient` per column of one page, with every Z witness of the column's
level, and `leray_pages`, which builds only the quotient's witnesses, must
give the same pages.
`_reference_alphas` splits a witness's chain into its alphas by
`power_component`, and `_reference_value` sums a value over them for
j = level down to 0; `alphas`, `leading` and `WitnessedCycle.value` must
agree with them, dict order included.
`order_of_dilation` and `order_of_semidilation` must equal a scan of
`has_k_dilation` and `has_k_semidilation` for every `max_k`, and the level
test must fail below the order and hold at every level from the order up.
`_reference_order_of_semidilation` is the per-level scan with its monotone
check that the one-solve semi-dilation order replaced.
`tower_exact_by_elimination` is the second elimination, `pivot_columns`
over the boundary values, that chose B's primitives before the tower read
them from its own pivots; both must keep the same primitives.  The
dilation order must also be the least k with the unit in span(B_k), which
reads it from the tower instead of from a solve.
"""

import random
import subprocess
import sys

from fractions import Fraction as F
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest
from click.testing import CliRunner

from s1cochain import cli, dilation, linalg, spectral
from s1cochain.brieskorn import milnor_model
from s1cochain.complexes import build_filtered_plus, make_complex
from s1cochain.dilation import (
    DilationReport,
    has_k_dilation,
    has_k_semidilation,
    order_of_dilation,
    order_of_semidilation,
)
from s1cochain.io_json import dumps
from s1cochain.linalg import SparseMatrix, Subquotient, kernel_basis, span_leq, vadd
from s1cochain.randomized import random_split_complex
from s1cochain.spectral import (
    LerayPage,
    PageColumn,
    WitnessedCycle,
    delta_k,
    delta_value,
    e_infinity,
    filtration_tower,
    leray_page,
    leray_pages,
)

from oracles import corpus_splits, perturbed_witness, rref, tower_exact_by_elimination
from test_acceptance import _corpus


# ---------------------------------------------------------------------------
# reference: one elimination of F^k per level k


def _independent_by_leading(pairs, dim):
    mat = SparseMatrix.from_columns([p[0] for p in pairs], dim)
    _, pivots = rref(mat)
    return list(pivots)


def _reference_z_space(c, k):
    f = build_filtered_plus(c, k)
    kern = kernel_basis(f.differential)
    pairs = [(f.power_component(v, k), v) for v in kern]
    pairs = [p for p in pairs if p[0]]
    chosen = _independent_by_leading(pairs, c.n)
    out = []
    for i in chosen:
        full = pairs[i][1]
        w = WitnessedCycle(k, full, c.n)
        assert not f.differential.apply(w.chain)
        out.append(w)
    return out


def _reference_b_space(c, k):
    f = build_filtered_plus(c, k)
    n = c.n
    high = SparseMatrix.from_entries(
        f.dim, f.dim, ((i, j, v) for i, j, v in f.differential.entries if i >= n))
    prims = kernel_basis(high)
    pairs = []
    for a in prims:
        value = f.differential.apply(a)
        value_c = f.power_component(value, 0)
        if value_c:
            pairs.append((value_c, a))
    chosen = _independent_by_leading(pairs, n)
    out = []
    for i in chosen:
        value_c, a = pairs[i]
        w = WitnessedCycle(k, a, n, boundary_value=value_c)
        assert f.differential.apply(w.chain) == value_c
        out.append(w)
    return out


def _reference_order_of_semidilation(s, max_k):
    level = min(max_k, s.truncation)
    for k in range(level + 1):
        ok, witness = has_k_semidilation(s, k)
        if ok:
            for later in range(k + 1, level + 1):
                if not has_k_semidilation(s, later)[0]:
                    raise AssertionError(
                        f"monotonicity violated: semidilation at {k} but not at {later}")
            return DilationReport("semidilation", s.truncation, k, witness)
    return DilationReport("semidilation", s.truncation, None, None)


def _reference_leray_page(c, k, with_differential=None):
    n_tr = c.truncation
    if with_differential is None:
        with_differential = 2 * (k + 1) <= n_tr
    t = filtration_tower(c, k)
    z_wits = {j: t.z(j) for j in range(k + 1)}
    b_vecs = {j: t.b_vectors(j) for j in range(k + 1)}
    columns = []
    for i in range(n_tr + 1):
        zi = min(i, k)
        bi = min(k, n_tr - i)
        # every Z witness built, then the quotient's picked out
        sq = Subquotient(c.n, [w.leading for w in z_wits[zi]], b_vecs[bi])
        wits = [z_wits[zi][j] for j in sq.basis_sources]
        columns.append(PageColumn(i, sq, tuple(wits)))
    diffs = {}
    if with_differential:
        for i in range(0, n_tr - k):
            images = [delta_value(c, w) for w in columns[i + k + 1].witnesses]
            diffs[i] = columns[i].subquotient.coordinate_matrix(images)
    return LerayPage(k, n_tr, tuple(columns), diffs)


def _reference_alphas(f, w):
    """(alpha_0, ..., alpha_level): the chain's block at u-power level - j."""
    return tuple(f.power_component(w.chain, w.level - j) for j in range(w.level + 1))


def _reference_value(alphas, ops, top):
    """sum_j ops[top - j](alpha_j), summed for j = level down to 0."""
    out = {}
    for j in range(len(alphas) - 1, -1, -1):
        a = alphas[j]
        if a and top - j < len(ops):
            out = vadd(out, ops[top - j].apply(a))
    return out


# ---------------------------------------------------------------------------
# the checks


def _check_tower(c, level):
    tower = filtration_tower(c, level)
    for j in range(level + 1):
        z_ref, b_ref = _reference_z_space(c, j), _reference_b_space(c, j)
        assert repr(tower.z(j)) == repr(z_ref)
        assert repr(tower.b(j)) == repr(b_ref)
        assert repr(tower.z_vectors(j)) == repr([w.leading for w in z_ref])
        assert repr(tower.b_vectors(j)) == repr([w.boundary_value for w in b_ref])
    with pytest.raises(ValueError):
        tower.z(level + 1)
    with pytest.raises(ValueError):
        tower.b(-1)


def _check_witness_views(c):
    tower = filtration_tower(c, c.truncation)
    f = tower.filtered
    for j in range(c.truncation + 1):
        for w in tower.z(j) + tower.b(j):
            alphas = _reference_alphas(f, w)
            assert repr(w.alphas) == repr(alphas)
            assert repr(w.leading) == repr(alphas[0])
            for top in (w.level, w.level + 1):
                ref = _reference_value(alphas, c.deltas, top)
                assert repr(w.value(c.deltas, top)) == repr(ref)


def _check_orders(s, semi):
    order, level_test = ((order_of_semidilation, has_k_semidilation) if semi
                         else (order_of_dilation, has_k_dilation))
    levels = [level_test(s, k) for k in range(s.truncation + 1)]
    first = next((k for k, (ok, _) in enumerate(levels) if ok), None)
    # monotone: the level test fails below the order and holds from it up
    assert [ok for ok, _ in levels] == [first is not None and k >= first
                                        for k in range(s.truncation + 1)]
    for max_k in range(s.truncation + 1):
        rep = order(s, max_k=max_k)
        expected = first if first is not None and first <= max_k else None
        assert rep.order == expected
        assert repr(rep.witness) == repr(None if expected is None else levels[expected][1])
    if semi:
        ref = _reference_order_of_semidilation(s, s.truncation)
        assert (rep.order, repr(rep.witness)) == (ref.order, repr(ref.witness))


def _page_repr(page):
    """`repr` of the page with each column's quotient basis spelt out."""
    return repr(page) + repr([(col.subquotient.basis, col.subquotient.basis_sources)
                              for col in page.columns])


def _check_pages(c):
    levels = range(c.truncation + 1)
    pages = [_page_repr(page) for page in leray_pages(c)]
    assert pages == [_page_repr(_reference_leray_page(c, k)) for k in levels]
    assert pages == [_page_repr(leray_page(c, k)) for k in levels]
    # the last page has no differential, so it is E_infinity
    assert pages[-1] == _page_repr(e_infinity(c))


@st.composite
def split_complexes(draw):
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return random_split_complex(rng, draw(st.integers(1, 8)), draw(st.integers(0, 3)),
                                draw(st.integers(0, 5)),
                                with_unit_killer=draw(st.booleans()))


@settings(max_examples=60, deadline=None)
@given(split_complexes(), st.data())
def test_tower_and_order_match_the_references(s, data):
    level = data.draw(st.integers(0, s.truncation), label="level")
    _check_tower(s.complex, level)
    _check_tower(s.plus_part, s.truncation)
    _check_orders(s, semi=False)
    _check_orders(s, semi=True)
    _check_pages(s.complex)


@settings(max_examples=60, deadline=None)
@given(split_complexes())
def test_witness_views_match_the_split_form(s):
    _check_witness_views(s.complex)
    _check_witness_views(s.plus_part)


def test_witness_views_on_milnor_models():
    for k, m in [(2, 2), (2, 3), (3, 3), (3, 4)]:
        _check_witness_views(milnor_model(k, m).complex)


def test_tower_and_order_on_the_corpus():
    for s in _corpus():
        _check_tower(s.complex, s.truncation)
        _check_orders(s, semi=False)
        _check_orders(s, semi=True)
        _check_pages(s.complex)


def _counting(monkeypatch, module, name):
    """Record the calls of module.name, passing them through."""
    calls = []
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_one_tower_per_page_set_and_two_solves_per_order(monkeypatch):
    s = milnor_model(3, 3)
    c = s.complex
    towers = _counting(monkeypatch, spectral, "filtration_tower")
    leray_page(c, 2)
    leray_pages(c)
    assert [level for _, level in towers] == [2, c.truncation]
    towers.clear()
    res = CliRunner().invoke(cli.main, ["pages"], input=dumps(s))
    assert res.exit_code == 0
    assert [level for _, level in towers] == [c.truncation]

    # the scan's solve and the witness's read H(C_0) once, at the scan level
    solves = _counting(monkeypatch, dilation, "solve")
    h0s = _counting(monkeypatch, dilation, "_zero_part_h0")
    assert order_of_semidilation(s).order == 2
    assert len(solves) == 2 and [k for _, k in h0s] == [c.truncation]
    solves.clear()
    h0s.clear()
    assert order_of_semidilation(s, max_k=1).order is None
    assert len(solves) == 1 and [k for _, k in h0s] == [1]


def test_a_tower_runs_one_kernel_elimination(monkeypatch):
    c = milnor_model(3, 3).complex
    kernels = _counting(monkeypatch, spectral, "kernel_basis")
    for level in range(c.truncation + 1):
        tower = filtration_tower(c, level)
        for j in range(level + 1):
            tower.z(j)
            tower.b(j)
        assert len(kernels) == 1
        kernels.clear()


def _tower_subjects(dense):
    """The 215 seed-10 corpus inputs, the sphere Milnor models with
    2 <= k <= m <= 4, and `dense`."""
    subjects = corpus_splits()
    subjects += [milnor_model(k, m) for m in range(2, 5) for k in range(2, m + 1)]
    return [*subjects, dense]


def test_a_tower_reads_b_from_its_own_pivots():
    """B's primitives read from F^level's pivots are the ones that a second
    elimination, `pivot_columns` over their boundary values, keeps, in the
    same order and with the same entries, at every level; the dense input
    has n = 76."""
    for s in _tower_subjects(random_split_complex(random.Random(10), 60, 15, 6)):
        c = s.complex
        for level in range(c.truncation + 1):
            t = filtration_tower(c, level)
            assert repr(t._exact) == repr(tower_exact_by_elimination(t)), (c.n, level)


def test_a_towers_z_and_b_make_one_elimination():
    """`_closed` and `_exact` of one tower together run `_echelon` once."""
    c = milnor_model(3, 4).complex
    for level in (0, 1, c.truncation):
        with mock.patch.object(linalg, "_echelon", wraps=linalg._echelon) as spy:
            t = filtration_tower(c, level)
            assert t._closed and t._exact
        assert spy.call_count == 1


def test_dilation_order_is_the_first_b_holding_the_unit():
    """`order_of_dilation` is the least k with the unit in span(B_k), read
    from one tower of F^N, and None when no k <= N has it there; the dense
    input has n = 151."""
    orders = []
    for s in _tower_subjects(random_split_complex(random.Random(10), 120, 30, 8)):
        t = filtration_tower(s.complex, s.truncation)
        want = next((k for k in range(s.truncation + 1)
                     if span_leq([s.unit], t.b_vectors(k), s.complex.n)), None)
        assert order_of_dilation(s).order == want
        orders.append(want)
    assert len(orders) == 222
    assert sum(k is not None for k in orders) == 101


def test_a_tower_makes_one_mat_vec_per_kernel_vector(monkeypatch):
    """Reading every Z_j and B_j applies F^level's differential once to each
    of its kernel vectors: that one product checks the vector closed and,
    below the top level, gives its boundary value."""
    complexes = [s.complex for s in corpus_splits()]
    complexes += [milnor_model(k, m).complex for m in range(2, 4) for k in range(2, m + 1)]
    sizes = {(id(c), level): len(kernel_basis(build_filtered_plus(c, level).differential))
             for c in complexes for level in {c.truncation, c.truncation // 2}}
    calls = _counting(monkeypatch, SparseMatrix, "apply")
    for c in complexes:
        for level in {c.truncation, c.truncation // 2}:
            tower = filtration_tower(c, level)
            for j in range(level + 1):
                tower.z(j)
                tower.b(j)
            assert len(calls) == sizes[id(c), level]
            calls.clear()


def test_perturbed_witness_reads_the_callers_tower(monkeypatch):
    # one kernel elimination per tower and none per perturbation; every
    # tower of level >= the witness's gives the same perturbed witness
    c = milnor_model(2, 3, truncation=4, include_spheres=False).complex
    kernels = _counting(monkeypatch, spectral, "kernel_basis")
    low, top = filtration_tower(c, 1), filtration_tower(c, c.truncation)
    wits = low.z(1)
    perturbed = [perturbed_witness(low, w, i) for i, w in enumerate(wits)]
    assert len(kernels) == 1
    assert perturbed == [perturbed_witness(top, w, i) for i, w in enumerate(wits)]
    assert len(kernels) == 2
    assert any(p != w for p, w in zip(perturbed, wits))
    with pytest.raises(ValueError, match="outside the tower"):
        perturbed_witness(filtration_tower(c, 0), wits[0])


def test_pages_and_delta_build_witnesses_only_for_quotient_bases(monkeypatch):
    # one witness per Z_j vector that some quotient of Z_j keeps, shared
    # between those quotients
    c = milnor_model(3, 3).complex
    wits = _counting(monkeypatch, spectral, "WitnessedCycle")
    for pages in (lambda: [leray_page(c, 2)], lambda: leray_pages(c)):
        kept = {id(w) for page in pages() for col in page.columns for w in col.witnesses}
        assert len(wits) == len(kept)
        wits.clear()
    dk = delta_k(c, 3)
    assert len(wits) == len(dk.domain_witnesses) < dk.domain.rank_z


# ---------------------------------------------------------------------------
# the tower's own checks, over entries with a common denominator D > 1


def _rational_pair():
    """x -> y with coefficient 2/3, at every u-power of F^1."""
    return make_complex([("x", 0), ("y", 1)], 1, {0: [("x", "y", F(2, 3))]})


def test_tower_rejects_a_kernel_vector_that_is_not_closed(monkeypatch):
    # (x, 0) maps to (2/3)(y, 0) times 1/2, not 0
    monkeypatch.setattr(spectral, "kernel_basis", lambda m: [{0: F(1, 2)}])
    with pytest.raises(AssertionError, match="kernel vector .* not closed"):
        filtration_tower(_rational_pair(), 1).z(0)


def test_tower_rejects_a_boundary_value_beyond_u_power_0(monkeypatch):
    # the one mat-vec of a level-0 vector in a level-1 tower applies D to it
    # raised to u-power 1: (x, 0) times 1/2 raised to (x, 1) maps to
    # (2/3)(y, 1) times 1/2, beyond u-power 0, so the vector is not closed
    # and neither Z_0 nor B_1, which reads its boundary value, is built
    monkeypatch.setattr(spectral, "kernel_basis", lambda m: [{0: F(1, 2)}])
    for read in (lambda t: t.z(0), lambda t: t.b(1)):
        with pytest.raises(AssertionError, match="kernel vector .* not closed"):
            read(filtration_tower(_rational_pair(), 1))


LES_REFUSALS = ("test_connecting_map_off_degree_rejected", "test_pushed_non_cycle_rejected",
                "test_pushed_non_cycle_rejected_over_a_common_denominator",
                "test_boundary_that_is_not_a_cycle_rejected", "test_higher_relation_refused",
                "test_degree_shift_refused_where_no_cycle_shows_it")


def test_tower_checks_survive_python_O():
    """Both tower checks and the LES's operator check are explicit raises,
    so `python -O` keeps them."""
    here = Path(__file__).resolve()
    dilation_tests = here.parent / "test_dilation.py"
    out = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{here}::test_tower_rejects_a_kernel_vector_that_is_not_closed",
         f"{here}::test_tower_rejects_a_boundary_value_beyond_u_power_0",
         *(f"{dilation_tests}::TestTautologicalLes::{name}" for name in LES_REFUSALS)],
        cwd=here.parent.parent, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stdout + out.stderr
    assert "8 passed" in out.stdout
