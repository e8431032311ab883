"""Operator-family constructions against the loops they replaced.

The relation checks of complexes, morphisms and homotopies, composition,
homotopy deformation, the witness values Delta and Phi, the morphism
sampler and the split-complex sampler all rest on the degree-k product
sum_{i+j=k} a^i b^j.  The `_reference_*` functions below are the
per-construction loops that one shared product, one witness evaluator and
one sampler replaced, kept verbatim as an oracle.  The library must give the
same residual entries, the same components, the same witness values and the
same random draws, compared by `repr` so that even the order of dict entries
is checked, on valid families and on deliberately broken ones.
"""

import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from s1cochain import complexes
from s1cochain.complexes import (
    Generator,
    S1Complex,
    family_product,
    verify_s1_relations,
)
from s1cochain.dilation import PLUS_PART, ZERO_PART, SplitS1Complex
from s1cochain.linalg import (
    DimensionError,
    SparseMatrix,
    Vector,
    kernel_basis,
    vadd,
    vscale,
)
from s1cochain.morphisms import (
    S1Homotopy,
    S1Morphism,
    compose,
    homotopy_deformation,
    phi_value,
    verify_homotopy,
    verify_morphism,
)
from s1cochain.randomized import (
    _allowed_pairs,
    _append_unit_killer,
    _matched_pairing_delta0,
    _rand_coeff,
    random_homotopy_blocks,
    random_morphism,
    random_s1_complex,
    random_split_complex,
)
from s1cochain.spectral import delta_value, filtration_tower


# ---------------------------------------------------------------------------
# references: one hand-written sum_{i+j=k} loop per construction


def _reference_relation_residuals(c):
    names = [g.name for g in c.generators]
    out = []
    for k in range(c.truncation + 1):
        total = SparseMatrix.zero(c.n, c.n)
        for i in range(k + 1):
            total = total + (c.deltas[i] @ c.deltas[k - i])
        bad = tuple((names[j], names[i], v) for i, j, v in total.entries)
        out.append((k, not bad, bad))
    return out


def _reference_verify_morphism(phi):
    src, dst = phi.source, phi.target
    src_names = [g.name for g in src.generators]
    dst_names = [g.name for g in dst.generators]
    degree_checks = []
    for r, m in enumerate(phi.phis):
        bad = tuple((src_names[j], dst_names[i]) for i, j, _ in m.entries
                    if dst.generators[i].degree - src.generators[j].degree != -2 * r)
        degree_checks.append((r, not bad, bad))
    checks = []
    for k in range(phi.truncation + 1):
        total = SparseMatrix.zero(dst.n, src.n)
        for i in range(k + 1):
            j = k - i
            total = total + (phi.phis[i] @ src.deltas[j]) - (dst.deltas[j] @ phi.phis[i])
        bad = tuple((src_names[jj], dst_names[ii], v) for ii, jj, v in total.entries)
        checks.append((k, not bad, bad))
    return checks, degree_checks


def _reference_verify_homotopy(h):
    phi, psi = h.between
    src, dst = phi.source, phi.target
    src_names = [g.name for g in src.generators]
    dst_names = [g.name for g in dst.generators]
    degree_checks = []
    for r, m in enumerate(h.hs):
        bad = tuple((src_names[j], dst_names[i]) for i, j, _ in m.entries
                    if dst.generators[i].degree - src.generators[j].degree != -2 * r - 1)
        degree_checks.append((r, not bad, bad))
    checks = []
    for k in range(phi.truncation + 1):
        total = phi.phis[k] - psi.phis[k]
        for i in range(k + 1):
            j = k - i
            total = total - (h.hs[i] @ src.deltas[j]) - (dst.deltas[j] @ h.hs[i])
        bad = tuple((src_names[jj], dst_names[ii], v) for ii, jj, v in total.entries)
        checks.append((k, not bad, bad))
    return checks, degree_checks


def _reference_compose(outer, inner):
    phis = []
    for k in range(inner.truncation + 1):
        total = SparseMatrix.zero(outer.target.n, inner.source.n)
        for i in range(k + 1):
            total = total + (outer.phis[i] @ inner.phis[k - i])
        phis.append(total)
    return tuple(phis)


def _reference_homotopy_deformation(phi, hs):
    src, dst = phi.source, phi.target
    new = []
    for k in range(phi.truncation + 1):
        total = phi.phis[k]
        for i in range(k + 1):
            j = k - i
            total = total - (hs[i] @ src.deltas[j]) - (dst.deltas[j] @ hs[i])
        new.append(total)
    return tuple(new)


def _reference_delta_value(c, w):
    k1 = w.level + 1
    out: Vector = {}
    for i in range(1, k1 + 1):
        a = w.alphas[k1 - i] if 0 <= k1 - i < len(w.alphas) else {}
        if a and i <= c.truncation:
            out = vadd(out, c.deltas[i].apply(a))
    return out


def _reference_phi_value(phi, w):
    out: Vector = {}
    for i in range(0, w.level + 1):
        a = w.alphas[w.level - i]
        if a and i <= phi.truncation:
            out = vadd(out, phi.phis[i].apply(a))
    return out


def _reference_random_morphism(rng, source, target, density=0.5):
    n_tr = source.truncation
    unknowns = []
    for r in range(n_tr + 1):
        for (i, j) in _allowed_pairs(source.degrees, target.degrees, -2 * r):
            unknowns.append((r, i, j))
    upos = {u: t for t, u in enumerate(unknowns)}
    rows = []
    for k in range(n_tr + 1):
        for (i, j) in _allowed_pairs(source.degrees, target.degrees, 1 - 2 * k):
            rows.append((k, i, j))
    rpos = {u: t for t, u in enumerate(rows)}
    ent = []
    for k in range(n_tr + 1):
        for r in range(k + 1):
            dsrc = source.deltas[k - r]
            for (c, b, v) in dsrc.entries:          # phi^r . delta^{k-r}
                for a in range(target.n):
                    if (r, a, c) in upos and (k, a, b) in rpos:
                        ent.append((rpos[(k, a, b)], upos[(r, a, c)], v))
            ddst = target.deltas[k - r]
            for (a, c, v) in ddst.entries:          # - delta^{k-r} . phi^r
                for b in range(source.n):
                    if (r, c, b) in upos and (k, a, b) in rpos:
                        ent.append((rpos[(k, a, b)], upos[(r, c, b)], -v))
    sys = SparseMatrix.from_entries(len(rows), len(unknowns), ent)
    total = {}
    for kv in kernel_basis(sys):
        if rng.random() < density:
            total = vadd(total, vscale(_rand_coeff(rng), kv))
    phis = []
    for r in range(n_tr + 1):
        m_ent = [(i, j, x) for t, x in total.items()
                 for (rr, i, j) in [unknowns[t]] if rr == r]
        phis.append(SparseMatrix.from_entries(target.n, source.n, m_ent))
    return tuple(phis)


def _reference_connecting_family(rng, plus, zero_degrees, d0_zero, density=0.5):
    n_p, n_z = plus.n, len(zero_degrees)
    n_tr = plus.truncation
    unknowns = []  # (r, zero-row, plus-col)
    for r in range(n_tr + 1):
        for (i, j) in _allowed_pairs(plus.degrees, zero_degrees, 1 - 2 * r):
            unknowns.append((r, i, j))
    upos = {u: t for t, u in enumerate(unknowns)}
    rows = []
    for k in range(n_tr + 1):
        for (i, j) in _allowed_pairs(plus.degrees, zero_degrees, 2 - 2 * k):
            rows.append((k, i, j))
    rpos = {u: t for t, u in enumerate(rows)}
    ent = []
    for k in range(n_tr + 1):
        # sum_{i+j=k} conn^i . delta_+^j  +  delta_0^0 . conn^k = 0
        for r in range(k + 1):
            dplus = plus.deltas[k - r]
            for (c, b, v) in dplus.entries:
                for (rr, a, cc) in unknowns:
                    if rr == r and cc == c and (k, a, b) in rpos:
                        ent.append((rpos[(k, a, b)], upos[(r, a, c)], v))
        for (a, c, v) in d0_zero.entries:
            for (rr, cc, b) in unknowns:
                if rr == k and cc == c and (k, a, b) in rpos:
                    ent.append((rpos[(k, a, b)], upos[(k, c, b)], v))
    sys = SparseMatrix.from_entries(len(rows), len(unknowns), ent)
    total = {}
    for kv in kernel_basis(sys):
        if rng.random() < density:
            total = vadd(total, vscale(_rand_coeff(rng), kv))
    mats = []
    for r in range(n_tr + 1):
        m_ent = [(i, j, x) for t, x in total.items()
                 for (rr, i, j) in [unknowns[t]] if rr == r]
        mats.append(SparseMatrix.from_entries(n_z, n_p, m_ent))
    return mats


def _reference_random_split_complex(rng, n_plus, n_zero_extra, truncation,
                                    degree_span=(-3, 4), with_unit_killer=False):
    plus = random_s1_complex(rng, n_plus, truncation)
    zero_degrees = (0,) + tuple(rng.randint(degree_span[0], degree_span[1])
                                for _ in range(n_zero_extra))
    d0_zero = _matched_pairing_delta0(rng, zero_degrees, protected={0})
    conn = _reference_connecting_family(rng, plus, zero_degrees, d0_zero)
    n_z = len(zero_degrees)
    n_p = plus.n
    n = n_z + n_p
    gens = tuple([Generator("e", 0)]
                 + [Generator(f"z{i}", d) for i, d in enumerate(zero_degrees[1:])]
                 + [Generator(g.name, g.degree) for g in plus.generators])
    deltas = []
    for r in range(truncation + 1):
        ent = []
        if r == 0:
            ent.extend(d0_zero.entries)
        ent.extend((i + n_z, j + n_z, v) for i, j, v in plus.deltas[r].entries)
        ent.extend((i, j + n_z, v) for i, j, v in conn[r].entries)
        deltas.append(SparseMatrix.from_entries(n, n, ent))
    parts = (ZERO_PART,) * n_z + (PLUS_PART,) * n_p
    s = SplitS1Complex(S1Complex(gens, truncation, tuple(deltas)), parts, {0: Fraction(1)})
    if with_unit_killer:
        s = _append_unit_killer(s)
    return s


# ---------------------------------------------------------------------------
# the checks


def _report_fields(report):
    """A report as plain data: (k, ok, residual entries) and
    (r, ok, violating pairs)."""
    return ([(c.order, c.ok, c.entries) for c in report.relation_checks],
            [(c.order, c.ok, c.entries) for c in report.degree_checks])


def _noise(rng, rows, cols, count):
    """Arbitrary entries, ignoring degrees: a family that breaks the relations."""
    return SparseMatrix.from_entries(rows, cols, [
        (rng.randrange(rows), rng.randrange(cols),
         Fraction(rng.choice((-3, -1, 1, 2)), rng.choice((1, 2, 3))))
        for _ in range(count)])


def _broken(rng, mats):
    """mats with noise added to one randomly chosen component."""
    r = rng.randrange(len(mats))
    m = mats[r]
    return tuple(x + _noise(rng, m.rows, m.cols, 3) if t == r else x
                 for t, x in enumerate(mats))


def _check_morphisms(seed, n_a, n_b, n_tr):
    rng = random.Random(seed)
    a = random_s1_complex(rng, n_a, n_tr)
    b = random_s1_complex(rng, n_b, n_tr)
    for c in (a, b, S1Complex(a.generators, n_tr, _broken(rng, a.deltas))):
        report = verify_s1_relations(c)
        assert repr(_report_fields(report)[0]) == repr(_reference_relation_residuals(c))

    state = rng.getstate()
    phi = random_morphism(rng, a, b)
    ref_rng = random.Random()
    ref_rng.setstate(state)
    assert repr(phi.phis) == repr(_reference_random_morphism(ref_rng, a, b))
    assert rng.getstate() == ref_rng.getstate()
    psi = random_morphism(rng, b, a)

    for f in (phi, S1Morphism(a, b, _broken(rng, phi.phis))):
        assert repr(_report_fields(verify_morphism(f))) == repr(_reference_verify_morphism(f))
        hs = random_homotopy_blocks(rng, f)
        for blocks in (hs, _broken(rng, hs)):
            deformed, hom = homotopy_deformation(f, blocks)
            assert repr(deformed.phis) == repr(_reference_homotopy_deformation(f, blocks))
            assert hom.between == (f, deformed) and hom.hs == blocks
            for h in (hom, S1Homotopy((f, phi if f is not phi else deformed), blocks),
                      S1Homotopy((f, S1Morphism(a, b, _broken(rng, deformed.phis))), blocks)):
                assert (repr(_report_fields(verify_homotopy(h)))
                        == repr(_reference_verify_homotopy(h)))
        for g in (psi, S1Morphism(b, a, _broken(rng, psi.phis))):
            assert repr(compose(g, f).phis) == repr(_reference_compose(g, f))
            assert repr(compose(f, g).phis) == repr(_reference_compose(f, g))

    for c, f in ((a, phi), (a, S1Morphism(a, b, _broken(rng, phi.phis)))):
        tower = filtration_tower(c, n_tr)
        for j in range(n_tr + 1):
            for w in tower.z(j) + tower.b(j):
                assert repr(delta_value(c, w)) == repr(_reference_delta_value(c, w))
                assert repr(phi_value(f, w)) == repr(_reference_phi_value(f, w))


def test_witness_values_on_a_sweep():
    # larger complexes, where witness values sum several blocks with
    # different supports, so the summation order shows in the dict order
    rng = random.Random(1)
    for _ in range(60):
        c = random_s1_complex(rng, rng.randint(4, 12), rng.randint(2, 6))
        phi = random_morphism(rng, c, c)
        tower = filtration_tower(c, c.truncation)
        for j in range(c.truncation + 1):
            for w in tower.z(j) + tower.b(j):
                assert repr(delta_value(c, w)) == repr(_reference_delta_value(c, w))
                assert repr(phi_value(phi, w)) == repr(_reference_phi_value(phi, w))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(1, 8), st.integers(0, 4))
def test_families_match_the_references(seed, n_a, n_b, n_tr):
    _check_morphisms(seed, n_a, n_b, n_tr)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 9), st.integers(0, 4),
       st.integers(0, 6), st.booleans())
def test_split_sampler_matches_the_reference(seed, n_plus, n_zero_extra, n_tr, killer):
    got = random_split_complex(random.Random(seed), n_plus, n_zero_extra, n_tr,
                               with_unit_killer=killer)
    ref = _reference_random_split_complex(random.Random(seed), n_plus, n_zero_extra,
                                          n_tr, with_unit_killer=killer)
    assert repr(got) == repr(ref)


def test_split_sampler_on_the_corpus_recipe():
    for seed in range(0, 205, 7):
        rng_args = (3 + seed % 9, seed % 4, 2 + seed % 5)
        got = random_split_complex(random.Random(10_000 + seed), *rng_args,
                                   with_unit_killer=(seed % 7 == 0))
        ref = _reference_random_split_complex(random.Random(10_000 + seed), *rng_args,
                                              with_unit_killer=(seed % 7 == 0))
        assert repr(got) == repr(ref)


# ---------------------------------------------------------------------------
# the degree-k product itself, against the per-pair products it replaced


def _reference_family_product(a, b, k):
    ent = []
    for i in range(k + 1):
        ent.extend((a[i] @ b[k - i]).entries)
    return SparseMatrix.from_entries(a[0].rows, b[0].cols, ent)


_product_coeffs = st.fractions(min_value=-6, max_value=6, max_denominator=12).filter(bool)


def _family(rows, cols, length):
    """`length` matrices of one shape, about a third of them empty."""
    entry = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1))
    one = st.one_of(st.just({}), st.dictionaries(entry, _product_coeffs, max_size=rows * cols))
    return st.lists(one.map(lambda d: SparseMatrix.from_entries(
        rows, cols, [(r, c, v) for (r, c), v in d.items()])), min_size=length, max_size=length)


@st.composite
def _family_pairs(draw):
    """Families a (m x n) and b (n x p) and an order k; when asked, a[k] is
    a[0] and b[0] is -b[k], so the two end terms of the sum cancel."""
    m, n, p, length = (draw(st.integers(1, 4)) for _ in range(4))
    a, b = draw(_family(m, n, length)), draw(_family(n, p, length))
    k = draw(st.integers(0, length - 1))
    if k and draw(st.booleans()):
        a[k], b[0] = a[0], b[k].scale(-1)
    return a, b, k


@settings(max_examples=300, deadline=None)
@given(_family_pairs())
def test_family_product_matches_the_per_pair_products(pair):
    a, b, k = pair
    got = family_product(a, b, k)
    assert repr(got) == repr(_reference_family_product(a, b, k))
    assert all(type(v) is Fraction for _, _, v in got.entries)


def test_family_product_cases():
    half, third = SparseMatrix(1, 1, ((0, 0, Fraction(1, 2)),)), SparseMatrix(
        1, 1, ((0, 0, Fraction(-2, 3)),))
    empty = SparseMatrix.zero(1, 1)
    # different denominators: 1/2 * 1/2 + (-2/3) * 1/2 = -1/12
    assert family_product([half, third], [half, half], 1).entries == ((0, 0, Fraction(-1, 12)),)
    # every pair with an empty order adds nothing
    assert family_product([empty, third, half], [half, empty, empty], 2).entries == (
        (0, 0, Fraction(1, 4)),)
    assert family_product([empty, empty], [half, half], 1).is_zero()
    # and is skipped unread: no column view is built for an empty order
    assert "_int_cols" not in vars(empty)
    # residuals that cancel leave no entry
    assert family_product([half, half], [third, third.scale(-1)], 1).is_zero()
    with pytest.raises(DimensionError):
        family_product([SparseMatrix.zero(1, 2)], [SparseMatrix.zero(3, 1)], 0)


def test_a_relation_that_holds_builds_no_product_and_no_fraction():
    c = random_s1_complex(random.Random(4), 8, 4)
    assert any(not m.is_zero() for m in c.deltas[1:])
    with mock.patch.object(complexes, "Fraction", wraps=Fraction) as made, \
            mock.patch.object(SparseMatrix, "__matmul__") as products:
        assert verify_s1_relations(c).valid
    assert made.call_count == 0 and products.call_count == 0
