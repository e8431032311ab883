import random
from fractions import Fraction as F
from math import lcm
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from s1cochain import linalg
from s1cochain.brieskorn import milnor_model
from s1cochain.complexes import build_filtered_plus, cycles_and_boundaries
from s1cochain.dilation import (
    order_of_dilation,
    order_of_semidilation,
    order_via_torsion,
    tautological_les,
)
from s1cochain.linalg import (
    DimensionError,
    SparseMatrix,
    Subquotient,
    kernel_and_image,
    kernel_basis,
    pivot_columns,
    rank,
    solve,
    span_leq,
    vadd,
)
from s1cochain.spectral import leray_pages

from oracles import (corpus_splits, oracle_echelon, oracle_rref_rows, row_dicts, rref,
                     to_dense, vec)


def dense(rows):
    return SparseMatrix.from_entries(len(rows), len(rows[0]), [
        (r, c, x) for r, row in enumerate(rows) for c, x in enumerate(row)])


class TestRref:
    def test_zero_matrix(self):
        r, piv = rref(SparseMatrix.zero(2, 2))
        assert r.is_zero()
        assert piv == ()

    def test_identity(self):
        r, piv = rref(SparseMatrix.identity(3))
        assert r == SparseMatrix.identity(3)
        assert piv == (0, 1, 2)

    def test_rank_one_hand_reduction(self):
        # [[2,4],[1,2]] ~ [[1,2],[0,0]] with pivot column 0
        r, piv = rref(dense([[2, 4], [1, 2]]))
        assert to_dense(r) == [[F(1), F(2)], [F(0), F(0)]]
        assert piv == (0,)

    def test_idempotent_and_deterministic(self):
        m = dense([[0, 2, 1], [3, 6, 0], [3, 8, 1]])
        r1, p1 = rref(m)
        r2, p2 = rref(r1)
        assert (r1, p1) == (r2, p2)
        assert rref(m) == rref(m)

    def test_pivots_strictly_increasing(self):
        m = dense([[0, 1, 1], [0, 1, 1], [1, 0, 2]])
        _, piv = rref(m)
        assert list(piv) == sorted(set(piv))


class TestSolve:
    def test_identity_returns_rhs(self):
        b = vec({0: 5, 2: F(1, 3)})
        assert solve(SparseMatrix.identity(3), b) == b

    def test_zero_matrix_no_solution(self):
        assert solve(SparseMatrix.zero(2, 2), vec({0: 1})) is None

    def test_scalar_half(self):
        x = solve(dense([[2]]), vec({0: 1}))
        assert x == {0: F(1, 2)}
        assert dense([[2]]).apply(x) == {0: F(1)}

    def test_exactness_of_solutions(self):
        m = dense([[1, 2, 0], [0, 1, 1]])
        b = vec({0: 3, 1: F(7, 2)})
        x = solve(m, b)
        assert x is not None
        assert m.apply(x) == b

    def test_absence_certified_by_rank(self):
        m = dense([[1, 2], [2, 4]])
        b = vec({0: 0, 1: 1})
        assert solve(m, b) is None
        aug = SparseMatrix.from_columns([m.col(j) for j in range(m.cols)] + [b], 2)
        assert rank(aug) == rank(m) + 1

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            solve(dense([[1]]), vec({3: 1}))

    def test_rhs_on_an_empty_row(self):
        # row 1 of m holds no entry, so only b with b[1] == 0 is reachable
        m = dense([[1, 2], [0, 0], [0, 1]])
        assert solve(m, vec({1: 1})) is None
        assert solve(m, vec({0: 1, 1: F(-2, 3), 2: 1})) is None
        assert solve(m, vec({0: 1, 2: 1})) == {0: F(-1), 1: F(1)}
        assert solve(SparseMatrix.zero(3, 2), vec({2: 5})) is None


class TestKernelImage:
    def test_rank_nullity(self):
        m = dense([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
        assert len(kernel_basis(m)) + len(kernel_and_image(m)[1]) == m.cols

    def test_kernel_vectors_lie_in_kernel(self):
        m = dense([[1, 2, 3], [0, 1, 1]])
        for v in kernel_basis(m):
            assert m.apply(v) == {}

    def test_image_basis_is_original_columns(self):
        m = dense([[1, 2, 0], [0, 0, 1]])
        assert kernel_and_image(m)[1] == [m.col(0), m.col(2)]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(-4, 4), min_size=4, max_size=4),
                min_size=3, max_size=5))
def test_rref_properties_random(rows):
    m = dense(rows)
    r, piv = rref(m)
    assert rank(r) == rank(m) == len(piv)
    assert rref(r) == (r, piv)
    assert len(kernel_basis(m)) + len(kernel_and_image(m)[1]) == m.cols


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3),
                min_size=3, max_size=4),
       st.lists(st.integers(-3, 3), min_size=3, max_size=3))
def test_solve_random_consistent(rows, coeffs):
    m = dense(rows)
    # b built inside the image is always solvable, exactly
    b = m.apply({i: F(c) for i, c in enumerate(coeffs) if c})
    x = solve(m, b)
    assert x is not None
    assert m.apply(x) == b


class TestSubquotient:
    def test_zero_vector_in_b(self):
        s = Subquotient(2, [vec({0: 1}), vec({1: 1})], [vec({0: 1})])
        # in Z: coordinates exist; in B: they are all zero
        assert s.coordinates({}) == (F(0),)

    def test_b_span_in_b(self):
        s = Subquotient(2, [vec({0: 1}), vec({1: 1})], [vec({0: 1})])
        assert not any(s.coordinates(vec({0: F(7, 3)})))

    def test_plane_mod_line_coordinates(self):
        # Z = Q^2, B = <(1,0)>: the class of (1,1) has coordinate 1 on the
        # complement basis vector (0,1)... chosen deterministically
        s = Subquotient(2, [vec({0: 1}), vec({1: 1})], [vec({0: 1})])
        assert s.dim == 1
        assert s.coordinates(vec({0: 1, 1: 1})) == (F(1),)

    def test_not_in_z(self):
        s = Subquotient(2, [vec({0: 1})], [])
        with pytest.raises(ValueError, match="vector is not in Z"):
            s.coordinates(vec({1: 1}))

    def test_dimension_formula(self):
        z = [vec({0: 1}), vec({1: 1}), vec({0: 1, 1: 1})]
        b = [vec({0: 2})]
        s = Subquotient(3, z, b)
        assert s.dim == s.rank_z - s.rank_b == 1

    def test_b_not_inside_z_rejected(self):
        with pytest.raises(ValueError, match=r"not contained in span\(z_gens\)"):
            Subquotient(2, [vec({0: 1})], [vec({1: 1})])

    def test_dimension_mismatch(self):
        s = Subquotient(2, [vec({0: 1})], [])
        with pytest.raises(DimensionError, match="vector index out of ambient range"):
            s.coordinates(vec({5: 1}))

    def test_generator_out_of_range(self):
        z = [vec({0: 1}), vec({1: 1})]
        for args in ([z + [vec({2: 1})]], [z, [vec({-1: 1})]], [[vec({0: 1, 7: 1}), *z]]):
            with pytest.raises(DimensionError, match="generator index out of ambient range"):
                Subquotient(2, *args)

    def test_preferred_vector_heads_basis(self):
        z = [vec({0: 1}), vec({1: 1})]
        pref = vec({0: 1, 1: 1})
        s = Subquotient(2, [pref, *z], [])
        assert s.basis[0] == pref
        assert s.basis_sources == (0, 1)


def test_span_leq_rank_identity():
    a = [vec({0: 1, 1: 1})]
    b = [vec({0: 1}), vec({1: 1})]
    assert span_leq(a, b, 2)
    assert not span_leq(b, a, 2)


def test_apply_refuses_an_index_outside_the_columns():
    m = dense([[1, 2], [3, 4]])
    for v in ({-1: F(1)}, {-3: F(1), 0: F(1)}, {2: F(1)}):
        with pytest.raises(DimensionError, match="out of range"):
            m.apply(v)


@pytest.mark.parametrize("make", [lambda: SparseMatrix(-1, 2, ()),
                                  lambda: SparseMatrix.zero(-1, 3),
                                  lambda: SparseMatrix.zero(2, -1)])
def test_a_negative_shape_is_refused(make):
    with pytest.raises(DimensionError, match="negative shape"):
        make()


def test_a_float_entry_is_refused():
    with pytest.raises(TypeError, match="floating point values are not allowed"):
        SparseMatrix(1, 1, ((0, 0, 0.5),))


def test_a_string_entry_is_refused():
    # from_entries converts "p/q" through as_q; a stored entry must be exact
    with pytest.raises(TypeError, match="neither an int nor a Fraction"):
        SparseMatrix(1, 1, ((0, 0, "2"),))


@pytest.mark.parametrize("value, message", [(0.5, "floating point values are not allowed"),
                                            ("1", "neither an int nor a Fraction")])
def test_solve_refuses_an_inexact_right_hand_side(value, message):
    with pytest.raises(TypeError, match=message):
        solve(dense([[2]]), {0: value})
    assert solve(dense([[2]]), {0: 1}) == {0: F(1, 2)}


@pytest.mark.parametrize("refuse", [
    lambda: linalg.require_exact(True),
    lambda: linalg.as_q(True),
    lambda: SparseMatrix(1, 1, ((0, 0, True),)),
    lambda: SparseMatrix.from_entries(1, 1, [(0, 0, True)]),
    lambda: dense([[2]]).apply({0: True}),
    lambda: solve(dense([[2]]), {0: True}),
], ids=["require_exact", "as_q", "SparseMatrix", "from_entries", "apply", "solve"])
def test_a_bool_value_is_refused(refuse):
    # bool is an int subclass, but a document holds no "True" coefficient
    with pytest.raises(TypeError, match="True"):
        refuse()


def test_span_leq_rejects_out_of_range_vector():
    for a, b in (([vec({2: 1})], [vec({0: 1})]), ([], [vec({-1: 1})])):
        with pytest.raises(DimensionError):
            span_leq(a, b, 2)


_literals = st.one_of(
    st.integers(-3, 3),
    st.builds(F, st.integers(-3, 3), st.integers(1, 3)),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-3, 3), st.integers(1, 3)),
    st.builds(str, st.integers(-3, 3)))


@st.composite
def _entry_lists(draw):
    """(rows, cols, entries) with repeated positions, some of whose values
    cancel to zero, given as int, Fraction, "p" or "p/q"."""
    nrows, ncols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    pos = st.tuples(st.integers(0, nrows - 1), st.integers(0, ncols - 1))
    ent = draw(st.lists(st.tuples(pos, _literals).map(lambda t: (*t[0], t[1])),
                        max_size=12))
    for r, c, x in draw(st.lists(st.sampled_from(ent), max_size=4)) if ent else ():
        ent.append((r, c, -F(x)))           # cancels the earlier value
        if draw(st.booleans()):
            ent.append((r, c, x))           # and brings it back
    return nrows, ncols, draw(st.permutations(ent))


@settings(max_examples=200, deadline=None)
@given(_entry_lists())
def test_from_entries_matches_dense_accumulation(case):
    nrows, ncols, ent = case
    acc = [[F(0)] * ncols for _ in range(nrows)]
    for r, c, x in ent:
        acc[r][c] += F(x)
    m = SparseMatrix.from_entries(nrows, ncols, ent)
    assert to_dense(m) == acc
    assert [(r, c) for r, c, _ in m.entries] == sorted(
        (r, c) for r in range(nrows) for c in range(ncols) if acc[r][c])
    assert all(type(v) is F for _, _, v in m.entries)
    assert m == dense(acc)


def test_from_entries_drops_cancelled_and_zero_values():
    m = SparseMatrix.from_entries(2, 2, [(0, 0, 1), (0, 0, "-1"), (1, 1, 0),
                                         (0, 1, "1/2"), (0, 1, F(1, 2)), (1, 0, 0)])
    assert m.entries == ((0, 1, F(1)),)


def test_no_floats_anywhere():
    with pytest.raises(TypeError):
        vec({0: 0.5})
    with pytest.raises(TypeError):
        SparseMatrix.from_entries(1, 1, [(0, 0, 1.5)])


# ---------------------------------------------------------------------------
# oracle: plain leftmost-column, first-row Gauss-Jordan elimination


def _oracle_rref(m):
    rows, pivots = oracle_rref_rows(row_dicts(m), m.cols)
    ent = [(r, c, row[c]) for r, row in enumerate(rows) for c in sorted(row)]
    return SparseMatrix.from_entries(m.rows, m.cols, ent), tuple(pivots)


def _oracle_solve(m, b):
    rows = row_dicts(m)
    for i, x in b.items():
        rows[i][m.cols] = x
    rows, pivots = oracle_rref_rows(rows, m.cols + 1)
    if pivots and pivots[-1] == m.cols:
        return None
    return {p: rows[r][m.cols] for r, p in enumerate(pivots) if rows[r].get(m.cols)}


def _oracle_coordinates(s, u):
    """The quotient coordinates of u in s from the oracle's solve of the
    solver matrix, or None when u is not in Z."""
    sol = _oracle_solve(SparseMatrix.from_columns(s._solver, s.ambient_dim), u)
    return None if sol is None else tuple(sol.get(s.rank_b + j, F(0)) for j in range(s.dim))


def _oracle_kernel_basis(m):
    red, pivots = _oracle_rref(m)
    rows = row_dicts(red)
    out = []
    for f in range(m.cols):
        if f in pivots:
            continue
        v = {f: F(1)}
        for r, p in enumerate(pivots):
            if rows[r].get(f):
                v[p] = -rows[r][f]
        out.append(v)
    return out


def _oracle_image_basis(m):
    cols = [{r: v for r, c, v in m.entries if c == j} for j in range(m.cols)]
    return [cols[p] for p in _oracle_rref(m)[1]]


def _exact(vectors):
    """Vectors with their key order, which dict equality ignores."""
    return [None if v is None else list(v.items()) for v in vectors]


_small = st.integers(-3, 3)
_big = st.integers(-(2 ** 130), 2 ** 130)
_coeffs = st.builds(F, st.one_of(_small, _small, _big),
                    st.one_of(st.integers(1, 4), st.integers(1, 2 ** 110)))


@st.composite
def _matrices(draw):
    """Sparse rational matrices: empty shapes, all-zero, empty columns,
    repeated rows and coefficients of 100+ bits all occur."""
    nrows, ncols = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    ent = []
    if nrows and ncols:
        ent = draw(st.lists(st.tuples(st.integers(0, nrows - 1),
                                      st.integers(0, ncols - 1), _coeffs), max_size=24))
        for src in draw(st.lists(st.integers(0, nrows - 1), max_size=2)):
            scale = draw(_coeffs)
            ent += [(nrows, c, scale * v) for r, c, v in ent if r == src]
            nrows += 1
    return SparseMatrix.from_entries(nrows, ncols, ent)


def _vectors(dim):
    """Sparse vectors of length dim, without stored zeros."""
    return st.dictionaries(st.integers(0, max(dim - 1, 0)), _coeffs, max_size=4).map(
        lambda v: {i: x for i, x in v.items() if x and i < dim})


@st.composite
def _system(draw):
    """A matrix with a right-hand side inside or (usually) outside its image."""
    m = draw(_matrices())
    if draw(st.booleans()):
        return m, m.apply(draw(_vectors(m.cols)))
    return m, draw(_vectors(m.rows))


@settings(max_examples=300, deadline=None)
@given(_system())
def test_kernel_matches_gauss_jordan_oracle(system):
    m, b = system
    red, pivots = rref(m)
    assert (red, pivots) == _oracle_rref(m)
    assert rank(m) == len(pivots)
    assert _exact(kernel_basis(m)) == _exact(_oracle_kernel_basis(m))
    assert _exact(kernel_and_image(m)[1]) == _exact(_oracle_image_basis(m))
    kernel, image = kernel_and_image(m)
    assert _exact(kernel) == _exact(_oracle_kernel_basis(m))
    assert _exact(image) == _exact(_oracle_image_basis(m))
    assert _exact([solve(m, b)]) == _exact([_oracle_solve(m, b)])

    # The contract rref and kernel_basis read: the r-th RREF row is the
    # integer row built[prows[r]] over its positive pivot value, with 1 at
    # its pivot, which the row leaves out, and no other pivot column; every
    # other row is empty.  Only the rows of m that hold an entry enter.
    built = linalg._matrix_rows(m)
    assert len(built) == len({r for r, _, _ in m.entries})
    piv, prows, pvals = linalg._rref_rows(built)
    assert tuple(piv) == pivots and len(set(prows)) == len(prows) == len(pvals)
    assert all(type(a) is int and a > 0 for a in pvals)
    for i, row in enumerate(built):
        assert all(type(v) is int for v in row.values())
        assert not set(row) & set(piv) if i in prows else not row


@settings(max_examples=150, deadline=None)
@given(_system(), st.data())
def test_subquotient_membership_matches_oracle(system, data):
    m, v = system
    z = [m.col(j) for j in range(m.cols)]
    b = [m.apply(x) for x in data.draw(st.lists(_vectors(m.cols), max_size=3))]
    # images of m lie in Z = span(z); other vectors usually do not
    vs = [v] + data.draw(st.lists(
        st.one_of(_vectors(m.cols).map(m.apply), _vectors(m.rows)), max_size=4))

    def reduce():
        s = Subquotient(m.rows, z, b)
        try:
            return _exact(s.basis), s.coordinates(v)
        except ValueError:
            return _exact(s.basis), None

    got = reduce()
    with mock.patch.object(linalg, "_echelon", oracle_echelon):
        assert got == reduce()

    # The batched reduction against the oracle's solve of the solver
    # matrix, vector by vector.
    s = Subquotient(m.rows, z, b)
    expected = []
    for u in vs:
        coords = _oracle_coordinates(s, u)
        expected.append(coords)
        if coords is None:
            with pytest.raises(ValueError, match="vector is not in Z"):
                s.coordinate_matrix([u])
            with pytest.raises(ValueError, match="vector is not in Z"):
                s.coordinates(u)
        else:
            assert to_dense(s.coordinate_matrix([u])) == [[x] for x in coords]
            assert s.coordinates(u) == coords
    inside = [c for c in expected if c is not None]
    mat = s.coordinate_matrix([u for u, c in zip(vs, expected) if c is not None])
    assert (mat.rows, mat.cols) == (s.dim, len(inside))
    assert [tuple(to_dense(mat)[i][j] for i in range(s.dim))
            for j in range(mat.cols)] == inside
    if len(inside) < len(vs):
        with pytest.raises(ValueError, match="vector is not in Z"):
            s.coordinate_matrix(vs)


@st.composite
def _spans(draw):
    """(dim, b, a, inside): b holds dependent columns (repeats, combinations
    of the others, zeros); a lies inside span(b) by construction when
    `inside`, and is drawn at random otherwise."""
    m = draw(_matrices())
    b = [m.col(j) for j in range(m.cols)] + [
        m.apply(x) for x in draw(st.lists(_vectors(m.cols), max_size=3))]
    inside = draw(st.booleans())
    if inside:
        a = [m.apply(x) for x in draw(st.lists(_vectors(m.cols), max_size=3))]
    else:
        a = draw(st.lists(_vectors(m.rows), max_size=3))
    return m.rows, b, a, inside


@settings(max_examples=300, deadline=None)
@given(_spans())
def test_pivot_columns_and_span_leq_match_oracle(case):
    dim, b, a, inside = case
    given_vectors = _exact(b + a)

    def oracle_pivots(vectors):
        return list(_oracle_rref(SparseMatrix.from_columns(vectors, dim))[1])

    assert pivot_columns(b, dim) == oracle_pivots(b)
    assert pivot_columns(b + a, dim) == oracle_pivots(b + a)
    # the rank identity rank(b) == rank(b | a) as the oracle reads it
    assert span_leq(a, b, dim) == (len(oracle_pivots(b)) == len(oracle_pivots(b + a)))
    if inside:
        assert span_leq(a, b, dim)
    assert _exact(b + a) == given_vectors


# ---------------------------------------------------------------------------
# one elimination kernel, Fraction at its boundary


_M = dense([[1, 2, 0, 1], [2, 4, 1, 0], [0, 0, 3, F(1, 2)]])
_Z = [_M.col(j) for j in range(_M.cols)]
_SQ = Subquotient(_M.rows, _Z, [_Z[0]])


@pytest.mark.parametrize("entry, calls", [
    (lambda: rref(_M), 1),
    (lambda: rank(_M), 1),
    (lambda: solve(_M, {0: F(1), 2: F(2, 3)}), 1),
    (lambda: kernel_basis(_M), 1),
    (lambda: kernel_and_image(_M), 1),
    (lambda: pivot_columns(_Z, _M.rows), 1),
    (lambda: span_leq(_Z[:1], _Z[1:], _M.rows), 1),
    (lambda: Subquotient(_M.rows, _Z, [_Z[0]]), 2),
    (lambda: _SQ.coordinate_matrix([_Z[3], _Z[2]]), 1),
], ids=["rref", "rank", "solve", "kernel_basis", "kernel_and_image", "pivot_columns",
        "span_leq", "Subquotient", "coordinate_matrix"])
def test_every_elimination_enters_the_forward_kernel(entry, calls):
    with mock.patch.object(linalg, "_echelon", wraps=linalg._echelon) as spy:
        entry()
    assert spy.call_count == calls


@st.composite
def _row_denominators(draw):
    """A system whose rows carry different denominators, row by row."""
    m, b = draw(_system())
    dens = draw(st.lists(st.one_of(st.integers(1, 9), st.integers(1, 2 ** 110)),
                         min_size=m.rows, max_size=m.rows))
    scaled = SparseMatrix.from_entries(m.rows, m.cols,
                                       [(r, c, v / dens[r]) for r, c, v in m.entries])
    return scaled, {i: x / dens[i] for i, x in b.items()}


def _fractions(values):
    return all(type(v) is F for v in values)


@settings(max_examples=200, deadline=None)
@given(st.one_of(_system(), _row_denominators()), st.data())
def test_every_scalar_leaving_linalg_is_a_fraction(system, data):
    m, b = system
    red, _ = rref(m)
    assert _fractions(v for _, _, v in red.entries)
    x = solve(m, b)
    assert x is None or _fractions(x.values())
    kernel, image = kernel_and_image(m)
    assert all(_fractions(v.values()) for v in kernel_basis(m) + kernel + image)
    s = Subquotient(m.rows, [m.col(j) for j in range(m.cols)], image[:1])
    images = [m.apply(v) for v in data.draw(st.lists(_vectors(m.cols), max_size=3))]
    assert _fractions(v for _, _, v in s.coordinate_matrix(images).entries)


# ---------------------------------------------------------------------------
# integer rows, built in one pass


def _scaled(rows):
    """Each rational row times the lcm of its own denominators."""
    out = []
    for row in rows:
        d = lcm(*(x.denominator for x in row.values()))
        out.append([(k, int(x * d)) for k, x in row.items()])
    return out


@settings(max_examples=200, deadline=None)
@given(st.one_of(_system(), _row_denominators()))
def test_each_integer_row_is_its_rational_row_times_its_lcm(system):
    m, b = system
    by_row: dict[int, dict[int, F]] = {}
    for r, c, v in m.entries:
        by_row.setdefault(r, {})[c] = v
    expected = _scaled(by_row.values())
    for i, x in b.items():
        by_row.setdefault(i, {})[m.cols] = x
    expected_rhs = _scaled(by_row.values())
    # as columns, b last: its entries join rows built from the other columns
    by_col: dict[int, dict[int, F]] = {}
    for c, v in enumerate([*(m.col(j) for j in range(m.cols)), b]):
        for r, x in v.items():
            by_col.setdefault(r, {})[c] = x
    got = [linalg._matrix_rows(m), linalg._matrix_rows(m, b),
           linalg._column_rows([*(m.col(j) for j in range(m.cols)), b], m.rows)]
    assert [[list(row.items()) for row in rows] for rows in got] == [
        expected, expected_rhs, _scaled(by_col.values())]
    assert all(type(v) is int for rows in got for row in rows for v in row.values())


# Integer rows beside fractional ones (lcm 6 and 36), and a right-hand side
# whose denominators 5, 70, 20, 7 and 11 divide no row's lcm.
_MIXED = dense([[1, 2, 0, 0], [F(1, 2), F(1, 3), 1, 0], [0, 3, 5, F(3, 4)],
                [2, 0, 0, 1], [F(1, 6), 0, F(1, 9), F(1, 4)]])
_INSIDE = _MIXED.apply({0: F(1, 5), 2: F(2, 7), 3: F(1, 35)})
_OUTSIDE = vadd(_INSIDE, {4: F(1, 11)})


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.just((_MIXED, _INSIDE)), st.just((_MIXED, _OUTSIDE)), _row_denominators()),
       st.integers(1, 2 ** 70))
def test_solve_and_coordinates_over_mixed_denominators_match_oracle(system, den):
    m, b = system
    b = {i: x / den for i, x in b.items()}
    x = solve(m, b)
    assert _exact([x]) == _exact([_oracle_solve(m, b)])
    if x is not None:
        assert m.apply(x) == b
    z = [m.col(j) for j in range(m.cols)]
    s = Subquotient(m.rows, z, z[:1])
    images = [m.apply({j: F(1, j + 2)}) for j in range(m.cols)]
    coords = [_oracle_coordinates(s, u) for u in [*images, b]]
    mat = s.coordinate_matrix(images)
    assert [tuple(to_dense(mat)[i][j] for i in range(s.dim)) for j in range(mat.cols)] \
        == coords[:-1]
    if coords[-1] is None:
        with pytest.raises(ValueError, match="vector is not in Z"):
            s.coordinates(b)
    else:
        assert s.coordinates(b) == coords[-1]


def test_mixed_denominator_cases_are_both_answers():
    assert solve(_MIXED, _INSIDE) is not None
    assert solve(_MIXED, _OUTSIDE) is None


@pytest.mark.parametrize("late", [{3: F(1)}, {0: F(1, 3), 3: F(1, 2)}, {-1: F(1)}],
                         ids=["past-the-end", "beside-a-known-row", "negative"])
def test_an_index_out_of_range_in_a_later_vector_is_refused(late):
    # the earlier vectors make rows 0..2 of the 3 ambient rows
    with pytest.raises(DimensionError):
        pivot_columns([{0: F(1)}, {1: F(1, 2), 2: F(2)}, late], 3)
    with pytest.raises(DimensionError):
        _SQ.coordinate_matrix([_Z[1], late])


def test_a_stored_zero_enters_no_row():
    assert pivot_columns([{0: F(0)}, {0: F(1), 1: F(0)}], 2) == [1]
    assert linalg._column_rows([{0: F(0)}, {1: F(0)}], 2) == []
    assert solve(dense([[2]]), {0: F(0)}) == {}
    assert linalg._matrix_rows(dense([[2], [0]]), {0: F(0), 1: F(0)}) == [{0: 2}]


@settings(max_examples=100, deadline=None)
@given(_matrices(), st.data())
def test_an_empty_spanning_vector_of_b_changes_nothing(m, data):
    # phi_k passes a zero value of Phi^j to the codomain's B as it is
    z = [m.col(j) for j in range(m.cols)]
    b = [m.apply(x) for x in data.draw(st.lists(_vectors(m.cols), max_size=3))]
    padded = list(b)
    for _ in range(data.draw(st.integers(1, 3))):
        padded.insert(data.draw(st.integers(0, len(padded))), {})
    images = [m.apply(x) for x in data.draw(st.lists(_vectors(m.cols), max_size=3))]
    s, t = Subquotient(m.rows, z, b), Subquotient(m.rows, z, padded)
    assert (_exact(t.basis), t.basis_sources, t.rank_b, t.rank_z) \
        == (_exact(s.basis), s.basis_sources, s.rank_b, s.rank_z)
    assert t.coordinate_matrix(images) == s.coordinate_matrix(images)


# ---------------------------------------------------------------------------
# rank(Z): the generators with a private index, and one elimination of the rest


def _generator_set(rng):
    """(dim, vectors) with private and shared indices, empty vectors,
    copies, multiples, sums of two others and stored zeros mixed in; one set
    in four is fully dependent, every vector a combination of two."""
    dim = rng.randint(1, 7)

    def fresh():
        at = rng.sample(range(dim), rng.randint(1, min(3, dim)))
        return {i: F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3)) for i in at}

    if rng.random() < 0.25:
        u, v = fresh(), fresh()
        return dim, [vadd({i: a * x for i, x in u.items()}, {i: b * x for i, x in v.items()})
                     for a, b in ((rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(4))]
    vs = [fresh() for _ in range(rng.randint(0, 5))]
    for _ in range(rng.randint(0, 4)):
        kind = rng.choice(["empty", "copy", "multiple", "sum", "stored zero"])
        if kind == "empty" or not vs:
            new = {}
        elif kind == "copy":
            new = dict(rng.choice(vs))
        elif kind == "multiple":
            new = {i: -2 * x for i, x in rng.choice(vs).items()}
        elif kind == "sum":
            new = vadd(rng.choice(vs), rng.choice(vs))
        else:
            new = {rng.randrange(dim): F(0)}
        vs.insert(rng.randint(0, len(vs)), new)
    return dim, vs


@pytest.mark.parametrize("seed", range(3))
def test_rank_z_from_private_indices_matches_the_elimination(seed):
    rng = random.Random(seed)
    seen = set()
    for _ in range(300):
        dim, z = _generator_set(rng)
        assert Subquotient(dim, z).rank_z == len(pivot_columns(z, dim))
        private = [v for v in z if any(x and sum(i in w for w in z) == 1 for i, x in v.items())]
        seen.add("none" if not private else "all" if len(private) == len(z) else "some")
    assert seen == {"none", "some", "all"}


@pytest.mark.parametrize("b", [{2: F(1)}, {0: F(1), 1: F(1)}, {3: F(1, 2)}])
def test_b_outside_an_all_private_z_is_refused(b):
    z = [{0: F(1)}, {1: F(2), 3: F(1)}]
    assert Subquotient(4, z, [{0: F(2), 1: F(2), 3: F(1)}]).dim == 1
    with pytest.raises(ValueError, match=r"b_gens not contained in span\(z_gens\)"):
        Subquotient(4, z, [b])


def test_a_subquotient_over_a_kernel_basis_runs_one_elimination():
    # every kernel-basis vector holds its free column privately, so rank(Z)
    # needs no elimination, and only [B | Z] is eliminated
    built = 0
    for s in [milnor_model(2, 3), *corpus_splits()[:20]]:
        f = build_filtered_plus(s.complex, s.truncation)
        d = f.differential
        kernel, image = kernel_and_image(d)
        cycles, bounds = cycles_and_boundaries(d, f.degrees)
        with mock.patch.object(linalg, "_echelon", wraps=linalg._echelon) as spy:
            sqs = [Subquotient(d.rows, kernel, image)]
            sqs += [Subquotient(d.rows, z, bounds.get(deg, [])) for deg, z in cycles.items()]
        assert spy.call_count == len(sqs)
        assert [sq.rank_z for sq in sqs[1:]] == [len(z) for z in cycles.values()]
        built += len(sqs)
    assert built > 100


# ---------------------------------------------------------------------------
# column view


@settings(max_examples=100, deadline=None)
@given(_matrices(), st.data())
def test_column_view_agrees_with_dense(m, data):
    d = to_dense(m)
    other = data.draw(_matrices().map(lambda o: SparseMatrix.from_entries(
        m.cols, o.cols, [(r, c, v) for r, c, v in o.entries if r < m.cols])))
    x = data.draw(_vectors(m.cols))
    kernel = kernel_basis(m)
    if kernel and data.draw(st.booleans()):
        # kernel vectors make every product term at a touched position cancel
        other = SparseMatrix.from_columns(
            kernel + [other.col(j) for j in range(other.cols)], m.cols)
        x = vadd(x, kernel[-1])
    od = to_dense(other)
    assert to_dense(m @ other) == [
        [sum((d[i][k] * od[k][j] for k in range(m.cols)), F(0)) for j in range(other.cols)]
        for i in range(m.rows)]
    product = {i: sum((d[i][j] * c for j, c in x.items()), F(0)) for i in range(m.rows)}
    assert m.apply(x) == {i: c for i, c in product.items() if c}
    for j in range(m.cols):
        assert m.col(j) == {i: d[i][j] for i in range(m.rows) if d[i][j]}
        assert list(m.col(j)) == sorted(m.col(j))


def test_column_view_leaves_equality_hash_and_repr_alone():
    a = dense([[1, 0, 2], [0, F(1, 3), 0]])
    b = dense([[1, 0, 2], [0, F(1, 3), 0]])
    a.apply({0: F(1)})
    assert a.col(2) == {0: F(2)}
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert {a: 1}[b] == 1


def test_col_out_of_range():
    with pytest.raises(DimensionError):
        dense([[1]]).col(1)


# ---------------------------------------------------------------------------
# integer column view: one common denominator per matrix, one Fraction per
# output nonzero


def _reference_apply(m, x):
    out = {}
    for r, c, v in m.entries:
        if c in x:
            out[r] = out.get(r, F(0)) + v * x[c]
    return {r: s for r, s in out.items() if s}


def _reference_matmul(a, b):
    acc = {}
    for r, k, v in a.entries:
        for kk, c, w in b.entries:
            if kk == k:
                acc[(r, c)] = acc.get((r, c), F(0)) + v * w
    return SparseMatrix.from_entries(a.rows, b.cols, [(r, c, s) for (r, c), s in acc.items()])


@st.composite
def _cancelling(draw):
    """A matrix, often with a column appended that is a rational multiple s
    of another, and a vector; with the extra column the vector may hold the
    pair (t, -t/s) on the two columns, whose terms cancel in every row."""
    m = draw(_matrices())
    x = draw(_vectors(m.cols))
    if m.cols and draw(st.booleans()):
        j = draw(st.integers(0, m.cols - 1))
        s = draw(_coeffs.filter(bool))
        m = SparseMatrix.from_entries(m.rows, m.cols + 1, list(m.entries) + [
            (r, m.cols, s * v) for r, c, v in m.entries if c == j])
        if draw(st.booleans()):
            t = draw(_coeffs.filter(bool))
            x = {j: t, m.cols - 1: -t / s}
    return m, x


@settings(max_examples=300, deadline=None)
@given(_cancelling(), st.data())
def test_integer_column_view_matches_fraction_sums(system, data):
    m, x = system
    twin = SparseMatrix.from_entries(m.rows, m.cols, m.entries)
    with mock.patch.object(linalg, "Fraction", wraps=F) as made:
        got = m.apply(x)
    assert got == _reference_apply(m, x)
    assert all(type(v) is F for v in got.values())
    # a vector that maps to zero makes no Fraction at all
    assert made.call_count == len(got)
    other = data.draw(_matrices().map(lambda o: SparseMatrix.from_entries(
        m.cols, o.cols, [(r, c, v) for r, c, v in o.entries if r < m.cols])))
    product = m @ other
    assert product == _reference_matmul(m, other)
    assert all(type(v) is F for _, _, v in product.entries)
    assert [m.col(j) for j in range(m.cols)] == [
        {r: v for r, c, v in m.entries if c == j} for j in range(m.cols)]
    with pytest.raises(DimensionError):
        m.apply({m.cols: F(1, 2)})
    # the view built above is invisible to equality, hashing and repr
    assert m == twin and hash(m) == hash(twin) and repr(m) == repr(twin)


@pytest.mark.parametrize("x", [0.5, "1"])
def test_apply_refuses_inexact_values(x):
    m = SparseMatrix(1, 1, ((0, 0, F(2)),))
    with pytest.raises(TypeError, match="float|neither an int nor a Fraction"):
        m.apply({0: x})


def test_integer_column_view_of_empty_shapes():
    for rows, cols in [(0, 3), (3, 0), (0, 0)]:
        z = SparseMatrix.zero(rows, cols)
        assert z.apply({}) == {}
        assert [z.col(j) for j in range(z.cols)] == [{}] * cols
        assert z @ SparseMatrix.zero(cols, 2) == SparseMatrix.zero(rows, 2)
    assert SparseMatrix.zero(0, 3).apply({2: F(1, 2)}) == {}


# the pivot row is free: any holder of the pivot column gives the same RREF


def _holder_subjects():
    """The benchmark's 215 seed-10 corpus inputs and Milnor models, with
    spheres for 2 <= k <= m <= 3 and without for 2 <= k <= m <= 5."""
    subjects = corpus_splits()
    subjects += [milnor_model(k, m) for m in range(2, 4) for k in range(2, m + 1)]
    subjects += [milnor_model(k, m, include_spheres=False)
                 for m in range(2, 6) for k in range(2, m + 1)]
    assert len(subjects) == 215 + 3 + 10
    return subjects


def _elimination_answers(s):
    """Every answer of the four entry points on F^N(C)'s differential D:
    the kernel and image bases, the pivot columns of D's columns, a solve
    that succeeds and solves at unit vectors (some fail), and the quotient
    coordinates of each degree's cycles in its cohomology."""
    f = build_filtered_plus(s.complex, s.truncation)
    d = f.differential
    columns = [d.col(j) for j in range(d.cols)]
    kernel, image = kernel_and_image(d)
    b = d.apply({j: F(j + 1, 2) for j in range(0, d.cols, 3)})
    solves = [solve(d, b)] + [solve(d, {i: F(1)}) for i in range(0, d.rows, 7)]
    cycles, bounds = cycles_and_boundaries(d, f.degrees)
    coordinates = {deg: Subquotient(d.rows, z, bounds.get(deg, [])).coordinate_matrix(z)
                   for deg, z in cycles.items()}
    return kernel, image, pivot_columns(columns, d.rows), solves, coordinates


@pytest.mark.parametrize("seed", [0, 1])
def test_any_holder_can_supply_the_pivot(monkeypatch, seed):
    """`_echelon` takes `min(holders)` as its pivot row; a seeded random
    holder gives equal pivots, solutions, bases and coordinates, since the
    RREF for a fixed column order is unique."""
    subjects = _holder_subjects()
    expected = [_elimination_answers(s) for s in subjects]
    rng = random.Random(seed)
    free_choices = 0

    def any_holder(items, *args, **kwargs):
        nonlocal free_choices
        if not isinstance(items, set):
            return min(items, *args, **kwargs)
        choice = rng.choice(sorted(items))
        free_choices += choice != min(items)
        return choice

    monkeypatch.setattr(linalg, "min", any_holder, raising=False)
    for s, want in zip(subjects, expected):
        assert _elimination_answers(s) == want
    assert free_choices > 1000


# the package's answers with plain Gauss-Jordan in the forward kernel's place


def _package_answers(s):
    """The four order routes, the tautological sequence and every Leray page,
    by `repr`, each page's subquotients by their bases and sources."""
    pages = [(page.index, page.differentials,
              [(col.u_power, col.subquotient.basis, col.subquotient.basis_sources,
                [w.chain for w in col.witnesses]) for col in page.columns])
             for page in leray_pages(s.complex)]
    return repr([order_of_dilation(s), order_of_semidilation(s), order_via_torsion(s),
                 order_via_torsion(s, semi=True), tautological_les(s), pages])


def test_corpus_answers_match_with_the_oracle_echelon():
    """On the benchmark's 215 seed-10 corpus inputs, the answers with
    `oracle_echelon` in `_echelon`'s place equal the kernel's."""
    subjects = corpus_splits()
    assert len(subjects) == 215
    with mock.patch.object(linalg, "_echelon", wraps=linalg._echelon) as kernel:
        expected = [_package_answers(s) for s in subjects]
    with mock.patch.object(linalg, "_echelon", wraps=oracle_echelon) as spy:
        differ = [i for i, (s, want) in enumerate(zip(subjects, expected))
                  if _package_answers(s) != want]
    assert differ == []
    # the oracle stood in for every elimination the kernel ran
    assert spy.call_count == kernel.call_count > 0
