"""Tensor products of circle-equivariant complexes with Koszul signs.

Every operator acts by the graded Leibniz rule

    delta^r(a (x) b) = delta^r(a) (x) b + (-1)^{|a|} a (x) delta^r(b),

which preserves all truncated relations; the product truncation is the
minimum of the factors'.  For split complexes the zero part of the product
is C_0 (x) D_0 with unit e_C (x) e_D, and every mixed summand is assigned to
the plus part (the higher operators vanish on C_0 (x) D_0 because they
vanish on both factors).
"""

from __future__ import annotations

from .complexes import (
    MAX_FILTERED_DIM,
    MAX_GENERATORS,
    Generator,
    S1Complex,
    truncate,
)
from .dilation import PLUS_PART, ZERO_PART, SplitS1Complex
from .linalg import SparseMatrix, Vector
from .morphisms import S1Morphism


def _pair_name(a: Generator, b: Generator) -> str:
    return f"{a.name}(x){b.name}"


def tensor(c: S1Complex, d: S1Complex) -> S1Complex:
    """Koszul-signed tensor product, truncated to min of the truncations.

    Raises ValueError, before allocating anything, when the product exceeds
    MAX_GENERATORS or MAX_FILTERED_DIM.
    """
    n_tr = min(c.truncation, d.truncation)
    n = c.n * d.n
    if n > MAX_GENERATORS:
        raise ValueError(f"the tensor product has {c.n}*{d.n} = {n} generators, "
                         f"above the limit {MAX_GENERATORS}")
    if (n_tr + 1) * n > MAX_FILTERED_DIM:
        raise ValueError(f"the tensor product has filtered dimension (N+1)*n = "
                         f"{(n_tr + 1) * n}, above the limit {MAX_FILTERED_DIM}")
    cc = truncate(c, n_tr)
    dd = truncate(d, n_tr)
    nc, nd = cc.n, dd.n
    gens = tuple(Generator(_pair_name(a, b), a.degree + b.degree)
                 for a in cc.generators for b in dd.generators)

    def pair(i: int, j: int) -> int:
        return i * nd + j

    deltas = []
    for r in range(n_tr + 1):
        ent = []
        for i2, i1, v in cc.deltas[r].entries:      # delta_C^r: gen i1 -> gen i2
            for j in range(nd):
                ent.append((pair(i2, j), pair(i1, j), v))
        for j2, j1, v in dd.deltas[r].entries:      # delta_D^r: gen j1 -> gen j2
            for i in range(nc):
                sign = -1 if cc.generators[i].degree % 2 else 1
                ent.append((pair(i, j2), pair(i, j1), sign * v))
        deltas.append(SparseMatrix.from_entries(nc * nd, nc * nd, ent))
    return S1Complex(gens, n_tr, tuple(deltas))


def tensor_split(s: SplitS1Complex, t: SplitS1Complex) -> SplitS1Complex:
    """Product splitting: zero part C_0 (x) D_0, unit e_C (x) e_D."""
    prod = tensor(s.complex, t.complex)
    parts = tuple(
        ZERO_PART if pc == ZERO_PART and pt == ZERO_PART else PLUS_PART
        for pc in s.parts for pt in t.parts)
    unit = tensor_chain(t, s.unit, t.unit)
    return SplitS1Complex(prod, parts, unit)


def tensor_chain(t: SplitS1Complex, u: Vector, v: Vector) -> Vector:
    """The chain u (x) v of the product, from chains of the two factors."""
    n_t = t.complex.n
    out: Vector = {}
    for i, x in u.items():
        for j, y in v.items():
            q = x * y
            if q:
                out[i * n_t + j] = q
    return out


def unit_embedding(c: S1Complex, t: SplitS1Complex) -> S1Morphism:
    """The morphism a -> a (x) e_T into the product with a split factor.

    Valid because every operator kills the unit chain of the second factor.
    """
    n_tr = min(c.truncation, t.truncation)
    cc = truncate(c, n_tr)
    tt = truncate(t.complex, n_tr)
    prod = tensor(cc, tt)
    n_t = tt.n
    ent = []
    for i in range(cc.n):
        for j, y in t.unit.items():
            ent.append((i * n_t + j, i, y))
    phi0 = SparseMatrix.from_entries(prod.n, cc.n, ent)
    zero = SparseMatrix.zero(prod.n, cc.n)
    return S1Morphism(cc, prod, (phi0,) + (zero,) * n_tr)
