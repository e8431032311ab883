"""Seeded random generators of valid complexes, splittings and morphisms.

Test utility, not part of the stable API; its degree span, retry count and
densities are constants.  The strategy follows the structure of the
objects rather than rejection sampling:

* delta^0 is sampled as a matched acyclic pairing (a square-zero map that is
  strictly triangular in a suitable basis order) and the whole family is
  conjugated by a random degree-preserving change of basis at the end;
* morphisms phi are sampled from the kernel of their defining relations,
  which are jointly linear in the entries of the phi^r; the system indexes
  its unknowns by (order, generator), so an operator entry visits only the
  unknowns it multiplies;
* the connecting family delta_{+,0} of a split complex is a morphism
  C_+ -> C_0[1] and is drawn by that sampler;
* each higher operator delta^k is solved from its relation
  delta^0 delta^k + delta^k delta^0 = -sum_{0<i<k} delta^i delta^{k-i}:
  the left side is the k=0 morphism relation from (C, delta^0) to its
  shift C[1-2k], so the same system builder gives it.  A particular
  solution plus a random kernel element is drawn; when the bilinear
  obstruction makes a level unsolvable the draw is retried with fresh lower
  operators.

Every produced object passes the public verifiers; generation asserts this.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .complexes import (
    Generator,
    S1Complex,
    family_product,
    shift,
    verify_s1_relations,
)
from .dilation import (
    PLUS_PART,
    ZERO_PART,
    SplitS1Complex,
    verify_splitting,
)
from .linalg import SparseMatrix, Vector, kernel_basis, solve, vadd, vscale
from .morphisms import (
    S1Morphism,
    homotopy_deformation,
    identity_morphism,
    verify_morphism,
)

_SMALL = [Fraction(x) for x in (-2, -1, -1, 1, 1, 2)]
# generator degrees lie in _DEGREE_SPAN; an unsolvable higher operator is
# redrawn _RETRIES times; each kernel basis vector joins a random kernel
# element with chance _KERNEL_DENSITY
_DEGREE_SPAN, _RETRIES, _KERNEL_DENSITY = (-3, 4), 4, 0.5


def _rand_coeff(rng: random.Random) -> Fraction:
    return rng.choice(_SMALL)


def _degree_preserving_change_of_basis(rng: random.Random,
                                       degrees: tuple[int, ...]) -> tuple[SparseMatrix, SparseMatrix]:
    """A random invertible block map P (per-degree blocks) and its inverse.

    P is a product of elementary transvections within each degree block, so
    the inverse is the reversed product of the negated transvections.
    """
    n = len(degrees)
    by_degree: dict[int, list[int]] = {}
    for i, d in enumerate(degrees):
        by_degree.setdefault(d, []).append(i)
    transvections: list[tuple[int, int, Fraction]] = []
    for idx in by_degree.values():
        if len(idx) < 2:
            continue
        for _ in range(len(idx)):
            a, b = rng.sample(idx, 2)
            transvections.append((a, b, _rand_coeff(rng)))

    # right-multiplying by I + c e_a e_b^T adds c times column a to column b
    p = [{i: Fraction(1)} for i in range(n)]
    for a, b, c in transvections:
        p[b] = vadd(p[b], vscale(c, p[a]))
    q = [{i: Fraction(1)} for i in range(n)]
    for a, b, c in reversed(transvections):
        q[b] = vadd(q[b], vscale(-c, q[a]))
    return SparseMatrix.from_columns(p, n), SparseMatrix.from_columns(q, n)


def _matched_pairing_delta0(rng: random.Random, degrees: tuple[int, ...],
                            protected: set[int] = frozenset()) -> SparseMatrix:
    """A square-zero degree-1 map: disjoint source -> target matches."""
    n = len(degrees)
    used: set[int] = set()
    ent = []
    order = list(range(n))
    rng.shuffle(order)
    for i in order:
        if i in used or i in protected:
            continue
        targets = [j for j in order
                   if j != i and j not in used and j not in protected
                   and degrees[j] == degrees[i] + 1]
        if targets and rng.random() < 0.7:
            j = targets[0]
            ent.append((j, i, _rand_coeff(rng)))
            used.add(i)
            used.add(j)
    return SparseMatrix.from_entries(n, n, ent)


def _allowed_pairs(src_degrees: tuple[int, ...], dst_degrees: tuple[int, ...],
                   degree_shift: int) -> list[tuple[int, int]]:
    """The (target, source) pairs whose degrees differ by degree_shift, source-major."""
    by_degree: dict[int, list[int]] = {}
    for i, d in enumerate(dst_degrees):
        by_degree.setdefault(d, []).append(i)
    return [(i, j) for j, dj in enumerate(src_degrees)
            for i in by_degree.get(dj + degree_shift, ())]


def _random_kernel_element(rng: random.Random, sys: SparseMatrix, density: float,
                           base: Vector) -> Vector:
    """base plus a random combination of the kernel basis of sys."""
    total = dict(base)
    for kv in kernel_basis(sys):
        if rng.random() < density:
            total = vadd(total, vscale(_rand_coeff(rng), kv))
    return total


def _solve_relation_level(rng: random.Random, gens: tuple[Generator, ...],
                          deltas: list[SparseMatrix], k: int,
                          density: float) -> SparseMatrix | None:
    """Solve delta^0 D + D delta^0 = -R_k for D over the allowed entries,
    as the k=0 morphism relation from (C, delta^0) to C[1-2k]."""
    n = len(gens)
    c0 = S1Complex(gens, 0, (deltas[0],))
    sys, unknowns, rpos = _relation_system(c0, shift(c0, 1 - 2 * k))
    # R_k = sum_{i+j=k, i,j >= 1} delta^i delta^j, empty at k = 1
    r_k = family_product(deltas[1:], deltas[1:], k - 2).entries if k > 1 else ()
    rhs: Vector = {}
    for a, b, v in r_k:
        if (0, a, b) not in rpos:
            return None  # residual outside the graded window: unsolvable
        rhs[rpos[0, a, b]] = -v
    part = solve(sys, rhs)
    if part is None:
        return None
    total = _random_kernel_element(rng, sys, density, part)
    return SparseMatrix.from_entries(n, n, [(unknowns[t][1], unknowns[t][2], x)
                                            for t, x in total.items()])


def random_s1_complex(rng: random.Random, n_gens: int, truncation: int) -> S1Complex:
    """A valid N-truncated complex with nonzero higher operators when possible."""
    degrees = tuple(rng.randint(*_DEGREE_SPAN) for _ in range(n_gens))
    gens = tuple(Generator(f"g{i}", d) for i, d in enumerate(degrees))
    for attempt in range(_RETRIES + 1):
        deltas = [_matched_pairing_delta0(rng, degrees)]
        ok = True
        for k in range(1, truncation + 1):
            density = _KERNEL_DENSITY if attempt < _RETRIES else 0.0
            dk = _solve_relation_level(rng, gens, deltas, k, density)
            if dk is None:
                ok = False
                break
            deltas.append(dk)
        if ok:
            break
    if not ok:
        # last resort: the delta^0-only complex is always valid
        n = len(degrees)
        deltas = [_matched_pairing_delta0(rng, degrees)]
        deltas.extend(SparseMatrix.zero(n, n) for _ in range(truncation))
    p, q = _degree_preserving_change_of_basis(rng, degrees)
    conjugated = tuple(p @ d @ q for d in deltas)
    c = S1Complex(gens, truncation, conjugated)
    assert verify_s1_relations(c).valid
    return c


def random_split_complex(rng: random.Random, n_plus: int, n_zero_extra: int,
                         truncation: int,
                         with_unit_killer: bool = False) -> SplitS1Complex:
    """A valid split complex with unit e and sampled connecting operators.

    `with_unit_killer` appends a plus generator x with delta^0 x = e, which
    forces a 0-dilation; useful for exercising the implications that are
    vacuous on complexes without any dilation.
    """
    plus = random_s1_complex(rng, n_plus, truncation)
    zero_gens = (Generator("e", 0),) + tuple(
        Generator(f"z{i}", rng.randint(*_DEGREE_SPAN))
        for i in range(n_zero_extra))
    # e (index 0) is protected: never a pairing source or target
    d0_zero = _matched_pairing_delta0(rng, tuple(g.degree for g in zero_gens), protected={0})
    n_z = len(zero_gens)
    zero = S1Complex(zero_gens, truncation,
                     (d0_zero,) + (SparseMatrix.zero(n_z, n_z),) * truncation)
    # delta_{+,0} is a morphism C_+ -> C_0[1]: its relation
    # sum_{i+j=k} conn^i delta_+^j + delta_0^0 conn^k = 0 is the morphism relation
    conn = _morphism_components(rng, plus, shift(zero, 1))

    # C = C_0 + C_+ with delta_{+,0} in the block from C_+ to C_0
    n = n_z + plus.n
    deltas = []
    for z, p, m in zip(zero.deltas, plus.deltas, conn):
        ent = list(z.entries)
        ent.extend((i + n_z, j + n_z, v) for i, j, v in p.entries)
        ent.extend((i, j + n_z, v) for i, j, v in m.entries)
        deltas.append(SparseMatrix.from_entries(n, n, ent))
    parts = (ZERO_PART,) * n_z + (PLUS_PART,) * plus.n
    s = SplitS1Complex(S1Complex(zero_gens + plus.generators, truncation, tuple(deltas)),
                       parts, {0: Fraction(1)})
    if with_unit_killer:
        s = _append_unit_killer(s)
    assert verify_s1_relations(s.complex).valid
    assert verify_splitting(s).valid
    return s


def _append_unit_killer(s: SplitS1Complex) -> SplitS1Complex:
    """Append a plus generator x of degree -1 with delta^0 x = unit chain."""
    c = s.complex
    n = c.n
    gens = tuple(c.generators) + (Generator("unit_killer", -1),)
    deltas = []
    for r in range(c.truncation + 1):
        ent = list(c.deltas[r].entries)
        if r == 0:
            ent.extend((i, n, x) for i, x in s.unit.items())
        deltas.append(SparseMatrix.from_entries(n + 1, n + 1, ent))
    return SplitS1Complex(S1Complex(gens, c.truncation, tuple(deltas)),
                          tuple(s.parts) + (PLUS_PART,), dict(s.unit))


def random_homotopy_blocks(rng: random.Random, phi: S1Morphism) -> tuple[SparseMatrix, ...]:
    """Arbitrary degree-(-2r-1) blocks; any choice is a valid homotopy datum."""
    src, dst = phi.source, phi.target
    hs = []
    for r in range(phi.truncation + 1):
        ent = []
        for (i, j) in _allowed_pairs(src.degrees, dst.degrees, -2 * r - 1):
            if rng.random() < 0.4:
                ent.append((i, j, _rand_coeff(rng)))
        hs.append(SparseMatrix.from_entries(dst.n, src.n, ent))
    return tuple(hs)


def _relation_system(source: S1Complex, target: S1Complex
                     ) -> tuple[SparseMatrix, list[tuple[int, int, int]], dict[tuple[int, int, int], int]]:
    """The morphism relations sum_{i+j=k} phi^i delta^j - partial^j phi^i = 0
    as one linear system in the entries of the phi^r of degree -2r.

    Returns the matrix, its columns' unknowns (r, target, source generator)
    and the rows' positions by relation entry (k, target, source generator).
    """
    n_tr = source.truncation
    unknowns = [(r, i, j) for r in range(n_tr + 1)
                for i, j in _allowed_pairs(source.degrees, target.degrees, -2 * r)]
    rows = [(k, i, j) for k in range(n_tr + 1)
            for i, j in _allowed_pairs(source.degrees, target.degrees, 1 - 2 * k)]
    rpos = {u: t for t, u in enumerate(rows)}
    # the unknowns of phi^r by source generator and by target generator
    by_source: dict[tuple[int, int], list[tuple[int, int]]] = {}
    by_target: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for t, (r, i, j) in enumerate(unknowns):
        by_source.setdefault((r, j), []).append((i, t))
        by_target.setdefault((r, i), []).append((j, t))
    ent = []
    for k in range(n_tr + 1):
        for r in range(k + 1):
            for c, b, v in source.deltas[k - r].entries:    # phi^r . delta^{k-r}
                for a, t in by_source.get((r, c), ()):
                    if (k, a, b) in rpos:
                        ent.append((rpos[k, a, b], t, v))
            for a, c, v in target.deltas[k - r].entries:    # - delta^{k-r} . phi^r
                for b, t in by_target.get((r, c), ()):
                    if (k, a, b) in rpos:
                        ent.append((rpos[k, a, b], t, -v))
    return SparseMatrix.from_entries(len(rows), len(unknowns), ent), unknowns, rpos


def _morphism_components(rng: random.Random, source: S1Complex,
                         target: S1Complex) -> tuple[SparseMatrix, ...]:
    """phi^0, ..., phi^N of a random element of the kernel of the morphism relations."""
    sys, unknowns, _ = _relation_system(source, target)
    comps: list[list[tuple[int, int, Fraction]]] = [[] for _ in range(source.truncation + 1)]
    for t, x in _random_kernel_element(rng, sys, _KERNEL_DENSITY, {}).items():
        r, i, j = unknowns[t]
        comps[r].append((i, j, x))
    return tuple(SparseMatrix.from_entries(target.n, source.n, e) for e in comps)


def random_morphism(rng: random.Random, source: S1Complex, target: S1Complex) -> S1Morphism:
    """A random solution of the (jointly linear) morphism relations."""
    if source.truncation != target.truncation:
        raise ValueError("equal truncations required")
    phi = S1Morphism(source, target, _morphism_components(rng, source, target))
    assert verify_morphism(phi).valid
    return phi


def random_endomorphism_pair(rng: random.Random, c: S1Complex):
    """A morphism and a homotopic deformation of it, with the homotopy."""
    base = identity_morphism(c)
    hs = random_homotopy_blocks(rng, base)
    deformed, hom = homotopy_deformation(base, hs)
    return base, deformed, hom
