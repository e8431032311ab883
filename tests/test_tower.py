"""The filtration tower and the one-solve dilation order against references.

`_reference_z_space` and `_reference_b_space` are the per-level
constructions that `filtration_tower` replaced, kept here verbatim as an
oracle: each builds F^k and eliminates it on its own.  The tower reads every
level from one elimination of F^level, and must give the same bases and the
same witnesses, compared by `repr` so that even the order of the dict
entries is checked.  `order_of_dilation` must equal a scan of
`has_k_dilation`, which fails below the order and holds at every level from
the order up.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from s1cochain.complexes import build_filtered_plus
from s1cochain.dilation import has_k_dilation, order_of_dilation
from s1cochain.linalg import SparseMatrix, kernel_basis, rref, vis_zero
from s1cochain.randomized import random_split_complex
from s1cochain.spectral import (
    WitnessedCycle,
    _split_filtered_vector,
    filtration_tower,
)

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
    pairs = [p for p in pairs if not vis_zero(p[0])]
    chosen = _independent_by_leading(pairs, c.n)
    out = []
    for i in chosen:
        full = pairs[i][1]
        w = WitnessedCycle(k, _split_filtered_vector(f, full, k))
        assert vis_zero(f.differential.apply(w.filtered_vector(f)))
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
        if not vis_zero(value_c):
            pairs.append((value_c, a))
    chosen = _independent_by_leading(pairs, n)
    out = []
    for i in chosen:
        value_c, a = pairs[i]
        w = WitnessedCycle(k, _split_filtered_vector(f, a, k), boundary_value=value_c)
        assert f.differential.apply(w.filtered_vector(f)) == f.include_chain(value_c, 0)
        out.append(w)
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


def _check_order(s, max_k):
    rep = order_of_dilation(s, max_k=max_k)
    levels = [has_k_dilation(s, k) for k in range(max_k + 1)]
    first = next((k for k, (ok, _) in enumerate(levels) if ok), None)
    assert rep.order == first
    if first is None:
        assert rep.witness is None
        return
    assert repr(rep.witness) == repr(levels[first][1])
    # monotone: no dilation below the order, a dilation at every level above
    assert [ok for ok, _ in levels] == [k >= first for k in range(max_k + 1)]


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
    _check_tower(s.plus_part_complex(), s.truncation)
    _check_order(s, level)
    _check_order(s, s.truncation)


def test_tower_and_order_on_the_corpus():
    for s in _corpus():
        _check_tower(s.complex, s.truncation)
        _check_order(s, s.truncation)
