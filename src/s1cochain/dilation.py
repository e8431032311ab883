"""Split complexes, dilation and semi-dilation detection, and their orders.

A split complex decomposes C = C_0 (+) C_+ where C_0 is a delta^0-subcomplex
killed by every higher operator, together with a distinguished degree-0 unit
chain e whose class generates a line in H^0(C_0).  The projection pi_0 onto
that line is realized structurally: take the u^0, degree-0 component of a
class and read off its e-coordinate in a deterministic basis of H^0(C_0).

Detection over the level-k filtered complexes:

* k-dilation: the unit e is exact in F^k of the full complex; the witness is
  the primitive.
* k-semi-dilation: some closed element A of F^k(C_+) has connecting image
  delta_{+,0}(A) whose class projects to [e] under pi_0; feasibility is a
  single exact linear system.

Orders are the minimal such k.  A truncated structure can certify existence
but never non-existence, so a failed scan reports "greater than truncation"
rather than infinity.  An independent route via u-torsion (a closed class of
F^N(C_+) with connecting class [e] killed by u^{k+1}) is provided and agrees
with the direct scan.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from .complexes import (
    S1Complex,
    TruncationError,
    build_filtered_plus,
    check_degree_window,
    cycles_and_boundaries,
    lift_degree,
    lift_family,
    shift,
    verify_s1_relations,
)
from .linalg import (
    SparseMatrix,
    Subquotient,
    Vector,
    pivot_columns,
    require_exact,
    solve,
)
from .morphisms import S1Morphism, compose, phi_k, verify_morphism
from .spectral import QuotientMap, delta_k

ZERO_PART = "zero"
PLUS_PART = "plus"


@dataclass(frozen=True)
class SplitS1Complex:
    """An S1-complex with a C_0/C_+ partition and a distinguished unit chain.

    `parts[i]` tags generator i as "zero" or "plus"; `unit` is a chain in
    ambient coordinates supported on the zero part.

    The split is the one reader of the partition.  Its derived fields are
    built once, in one pass over each operator's entries, and never compared:
    `positions` maps a generator to its place in its part (each part keeps
    the ambient order, so `parts` lists either part's generators), `zero_part`
    is C_0 with (delta^0_0, 0, ..., 0), `plus_part` is C_+ with (delta^0_+,
    delta^1_+, ...), `connecting` holds the blocks delta^r_{+,0} : C_+ -> C_0,
    `unit_zero` is the unit in C_0's coordinates, `outside` lists the
    entries (r, row, column) that fit no block, the splitting's violations,
    in operator then entry order, and `inert_zero` holds the C_0 positions
    of the inert generators: those off the unit's support that hold no
    entry in any row or column of any delta^r, read in the same pass.  An
    inert generator is a cycle of its own that nothing else touches, so
    every order system leaves its class out (see `_zero_part_h0`).
    """

    complex: S1Complex
    parts: tuple[str, ...]
    unit: Vector
    positions: dict[int, int] = field(init=False, compare=False, repr=False)
    zero_part: S1Complex = field(init=False, compare=False, repr=False)
    plus_part: S1Complex = field(init=False, compare=False, repr=False)
    connecting: tuple[SparseMatrix, ...] = field(init=False, compare=False, repr=False)
    outside: tuple[tuple[int, int, int], ...] = field(init=False, compare=False, repr=False)
    unit_zero: Vector = field(init=False, compare=False, repr=False)
    inert_zero: frozenset[int] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.parts) != self.complex.n:
            raise ValueError("one part tag per generator required")
        for p in self.parts:
            if p not in (ZERO_PART, PLUS_PART):
                raise ValueError(f"unknown part tag {p!r}")
        if not self.unit:
            raise ValueError("unit chain must be nonzero")
        c = self.complex
        if not all(0 <= i < c.n for i in self.unit):
            raise ValueError(f"unit chain index outside the generators 0..{c.n - 1}")
        for x in self.unit.values():
            require_exact(x)
            if not x:
                raise ValueError("zero coefficient stored in the unit chain")
        zero = [p == ZERO_PART for p in self.parts]
        zi = tuple(i for i in range(c.n) if zero[i])
        pi = tuple(i for i in range(c.n) if not zero[i])
        pos = {i: t for part in (zi, pi) for t, i in enumerate(part)}
        # each part keeps the ambient order, so every block stays row-major
        zero_block, plus_blocks, conn_blocks, outside = [], [], [], []
        # the generators of either part that an entry touching C_0 holds
        touched: set[int] = set()
        for r, d in enumerate(c.deltas):
            plus, conn = [], []
            for i, j, v in d.entries:
                if not zero[j]:
                    if zero[i]:
                        conn.append((pos[i], pos[j], v))
                        touched.add(i)
                    else:
                        plus.append((pos[i], pos[j], v))
                else:
                    touched.add(i)
                    touched.add(j)
                    if r == 0 and zero[i]:
                        zero_block.append((pos[i], pos[j], v))
                    else:
                        outside.append((r, i, j))
            plus_blocks.append(SparseMatrix(len(pi), len(pi), tuple(plus)))
            conn_blocks.append(SparseMatrix(len(zi), len(pi), tuple(conn)))
        derived = {
            "positions": pos,
            "zero_part": S1Complex.from_checked(
                tuple(c.generators[i] for i in zi), c.truncation,
                (SparseMatrix(len(zi), len(zi), tuple(zero_block)),)
                + (SparseMatrix.zero(len(zi), len(zi)),) * c.truncation),
            "plus_part": S1Complex.from_checked(
                tuple(c.generators[i] for i in pi), c.truncation, tuple(plus_blocks)),
            "connecting": tuple(conn_blocks),
            "outside": tuple(outside),
            "unit_zero": {pos[i]: x for i, x in self.unit.items() if zero[i]},
            "inert_zero": frozenset(t for t, i in enumerate(zi)
                                    if i not in touched and i not in self.unit),
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    @property
    def truncation(self) -> int:
        return self.complex.truncation

    def connecting_morphism(self) -> S1Morphism:
        """delta_{+,0} as a morphism C_+ -> C_0[1] (target structure -delta^0_0)."""
        return S1Morphism(self.plus_part, shift(self.zero_part, 1), self.connecting)


def make_split_complex(c: S1Complex, zero_names: list[str],
                       unit: str | Vector) -> SplitS1Complex:
    index = {g.name: i for i, g in enumerate(c.generators)}
    zset = set(zero_names)
    unknown = sorted(zset - index.keys())
    if unknown:
        raise ValueError(f"zero-part names {unknown} name no generator")
    if isinstance(unit, str) and unit not in index:
        raise ValueError(f"unit name {unit!r} names no generator")
    parts = tuple(ZERO_PART if g.name in zset else PLUS_PART for g in c.generators)
    unit_vec = {index[unit]: Fraction(1)} if isinstance(unit, str) else dict(unit)
    return SplitS1Complex(c, parts, unit_vec)


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class SplittingReport:
    """One line per failed splitting axiom, in `verify_splitting`'s order."""

    lines: tuple[str, ...]

    @property
    def valid(self) -> bool:
        return not self.lines

    def violations(self) -> list[str]:
        return list(self.lines)


def verify_splitting(s: SplitS1Complex) -> SplittingReport:
    """delta^0 preserves C_0 and the higher operators vanish on it (read from
    `s.outside`); the unit is a closed, non-exact degree-0 chain of C_0, and
    one that is not closed has no class, so its class is reported vanishing."""
    c = s.complex
    lines = []
    if not all(r for r, _, _ in s.outside):
        lines.append("delta^0 does not preserve the zero part")
    lines += [f"delta^{r} nonzero on zero-part generator {c.generators[j].name}"
              for r, _, j in s.outside if r]
    in_zero = all(s.parts[i] == ZERO_PART for i in s.unit)
    if not in_zero:
        lines.append("unit chain is not supported on the zero part")
    if any(c.generators[i].degree for i in s.unit):
        lines.append("unit chain is not of pure degree 0")
    d0, e0 = s.zero_part.deltas[0], s.unit_zero
    closed = in_zero and not d0.apply(e0)
    if not closed:
        lines.append("unit chain is not closed")
    if not closed or solve(d0, e0) is not None:
        lines.append("unit class vanishes in H^0 of the zero part")
    return SplittingReport(tuple(lines))


# ---------------------------------------------------------------------------
# dilation / semi-dilation at a fixed level


def _check_level(s: SplitS1Complex, k: int) -> None:
    """Refuse a level outside 0..N, and a unit off degree 0 or off the zero
    part: every order system reads the unit from its degree-0 rows only,
    and the semi-dilation and torsion systems from C_0's rows only."""
    if k < 0:
        raise ValueError("level must be non-negative")
    if k > s.truncation:
        raise TruncationError(f"level {k} exceeds truncation {s.truncation}")
    if any(s.complex.generators[i].degree for i in s.unit):
        raise ValueError("unit chain is not of pure degree 0")
    if not all(s.parts[i] == ZERO_PART for i in s.unit):
        raise ValueError("unit chain is not supported on the zero part")


def has_k_dilation(s: SplitS1Complex, k: int) -> tuple[bool, Vector | None]:
    """Is the unit exact in F^k of the full complex?  Returns the primitive,
    solved from the degree -1 columns of F^k's differential alone."""
    _check_level(s, k)
    prim = solve(lift_degree(s.complex.deltas, k, s.complex.degrees, -1), s.unit)
    return (prim is not None), prim


def _zero_part_h0(s: SplitS1Complex, k: int) -> Subquotient:
    """H^0(F^k C_0), less the classes of the inert generators, as one
    subquotient of F^k(C_0) over [B | e | Z], so that [e] heads its basis.

    C_0 carries no higher operators, so F^k(C_0) is k+1 disjoint copies of
    (C_0, delta^0), and its degree-0 part at u^-p is C_0's degree 2p.  Z
    holds C_0's degree-2p cycles and B its degree-2p boundaries, each placed
    at u^-p (index p * n0 + i), all read from one elimination of delta^0
    over C_0's active generators.  The pivots of block-disjoint columns
    split by block, so this is the basis that the cohomology of F^k(C_0)
    itself, with e put ahead of the degree-0 cycles, would choose, less the
    inert classes; a basis vector's u-power is its lowest index // n0.
    ValueError, in `verify_splitting`'s words, when e is not closed (it
    raises rank(Z)) or its class vanishes (it is not the first pivot after
    B): then pi_0 does not exist.

    An inert generator g (`SplitS1Complex.inert_zero`) has an empty row and
    an empty column, so the one kernel vector that holds g is the unit
    vector {g: 1}, and no other cycle, no boundary and not e touches g.
    The elimination runs over the active generators, those that are not
    inert, in C_0's order: its RREF rows, pivots, kernel and image are
    those of the whole delta^0 with the inert columns and their {g: 1}
    cycles left out, index for index once mapped back.  No reader loses
    anything: in every system that solves over this basis the column of
    {g: 1} at u^-p has its only entry in row (g, p), which holds nothing
    else and no right-hand side.  It is a private pivot whose unknown is
    0, and dropping that row and column leaves every other pivot, every
    other RREF row and the free-variables-zero solution as they were.
    """
    cz, inert = s.zero_part, s.inert_zero
    n0, d0, degrees = cz.n, cz.deltas[0], cz.degrees
    active = [t for t in range(n0) if t not in inert]
    # with no inert generator the restriction is delta^0 itself
    if inert:
        at = {t: a for a, t in enumerate(active)}
        d0 = SparseMatrix(len(active), len(active),
                          tuple((at[i], at[j], v) for i, j, v in d0.entries))
        degrees = tuple(degrees[t] for t in active)
    cycles, bounds = cycles_and_boundaries(d0, degrees)
    z_gens: list[Vector] = [s.unit_zero]
    b_gens: list[Vector] = []
    for d in sorted(cycles.keys() | bounds.keys()):
        p, odd = divmod(d, 2)
        if odd or not 0 <= p <= k:
            continue
        base = p * n0
        for gens, vectors in ((z_gens, cycles), (b_gens, bounds)):
            gens += [{base + active[a]: x for a, x in v.items()} for v in vectors.get(d, ())]
    h0 = Subquotient((k + 1) * n0, z_gens, b_gens)
    if h0.rank_z != len(z_gens) - 1:
        raise ValueError("unit chain is not closed")
    if h0.basis_sources[:1] != (0,):
        raise ValueError("unit class vanishes in H^0 of the zero part")
    return h0


def pi0_coordinate(s: SplitS1Complex, v: Vector) -> Fraction:
    """pi_0 of a closed degree-0 chain of C_0, in ambient coordinates.

    The e-coordinate of the class in the deterministic basis of H^0(C_0).
    The components of v at degree-0 inert generators are dropped first:
    each is a cycle whose class is a basis vector of its own, with
    e-coordinate 0.  An inert component of any other degree is kept, so v
    is still refused as not in Z.  ValueError when an index of v is not a
    zero-part generator, and, as in the semi-dilation routes, when the unit
    is off degree 0 or off the zero part, is not closed, or has a vanishing
    class; TypeError when a value is neither an int nor a Fraction.
    """
    _check_level(s, 0)
    bad = sorted(i for i in v if not (0 <= i < s.complex.n and s.parts[i] == ZERO_PART))
    if bad:
        raise ValueError(f"indices {bad} are not zero-part generators")
    for x in v.values():
        require_exact(x)
    pos, inert, degrees = s.positions, s.inert_zero, s.complex.degrees
    v0 = {pos[i]: x for i, x in v.items() if pos[i] not in inert or degrees[i]}
    return _zero_part_h0(s, 0).coordinates(v0)[0]


def _solve_semidilation(s: SplitS1Complex, k: int, h0: Subquotient, by_power: bool
                        ) -> tuple[Vector, int] | None:
    """Solve the level-k system in [A | w | c]: A of total degree -1 in
    F^k(C_+), w of degree -1 in F^k(C_0) absorbing exact ambiguity, c along
    the non-unit part of H^0(F^k C_0), with delta_+ A = 0 and conn(A) -
    delta_0 w - sum c_j z_j = e u^0.  Returns the free-variables-zero
    solution's A and the largest u-power in its support, or None if there
    is none.

    In ambient order A sits at its F^k(C_+) index, w after all of those at
    its F^k(C_0) index, and the rows are F^k(C_+)'s, then F^k(C_0)'s.  The
    c columns come last: the non-unit basis of `h0`, the result of
    `_zero_part_h0` at level k or above, less its vectors at u-power > k.
    The per-degree bases of H(C_0) do not depend on the level, so this is
    the level-k basis, vector for vector.  Reading `h0` has refused a unit
    without a class, and `h0` holds no inert class (see `_zero_part_h0`).

    The system holds only the columns that some block fills, in ambient
    order, or with `by_power` stably by (u-power, block, position).  An
    empty column is never a pivot and its unknown is 0, so leaving it out
    keeps every pivot and the free-variables-zero solution, and the other
    degrees' columns and the inert generators' w columns cost nothing."""
    cp, cz = s.plus_part, s.zero_part
    n_plus, n_zero = cp.n, cz.n
    na, nw = (k + 1) * n_plus, (k + 1) * n_zero
    rest = [z for z in h0.basis[1:] if min(z) < nw]
    # the entries at their ambient columns; no position repeats
    ent = list(lift_degree(cp.deltas, k, cp.degrees, -1).entries)
    ent += [(na + i, j, v) for i, j, v in lift_degree(s.connecting, k, cp.degrees, -1).entries]
    ent += [(na + i, na + j, -v) for i, j, v in lift_degree(cz.deltas, k, cz.degrees, -1).entries]
    ent += [(na + i, na + nw + jj, -v) for jj, z in enumerate(rest) for i, v in z.items()]

    def power(j: int) -> int:
        if j < na:
            return j // n_plus
        if j < na + nw:
            return (j - na) // n_zero
        return min(rest[j - na - nw]) // n_zero

    order = sorted({j for _, j, _ in ent})
    if by_power:
        order.sort(key=power)
    col = {j: t for t, j in enumerate(order)}
    system = SparseMatrix(na + nw, len(order), tuple(sorted((i, col[j], v) for i, j, v in ent)))
    sol = solve(system, {na + i: x for i, x in s.unit_zero.items()})
    if sol is None:
        return None
    unknowns = {order[t]: x for t, x in sol.items()}
    return {j: x for j, x in unknowns.items() if j < na}, max(map(power, unknowns))


def has_k_semidilation(s: SplitS1Complex, k: int) -> tuple[bool, Vector | None]:
    """Can a closed A of F^k(C_+) connect to a class projecting to [e]?
    Returns A in F^k(C_+) coordinates, solved in the ambient column order.
    ValueError at every k when e is not closed or [e] vanishes in H^0(C_0)."""
    _check_level(s, k)
    found = _solve_semidilation(s, k, _zero_part_h0(s, k), by_power=False)
    return (found is not None), found[0] if found else None


# ---------------------------------------------------------------------------
# orders


@dataclass(frozen=True)
class DilationReport:
    """Outcome of an order scan: Found(order) or greater-than-truncation."""

    kind: str                    # "dilation" | "semidilation"
    truncation: int
    order: int | None
    witness: Vector | None
    route: str = "filtered"

    @property
    def found(self) -> bool:
        return self.order is not None


def _scan_level(s: SplitS1Complex, max_k: int | None) -> int:
    if max_k is None:
        return s.truncation
    if max_k < 0:
        raise ValueError(f"max_k must be non-negative (got {max_k})")
    return min(max_k, s.truncation)


def order_of_dilation(s: SplitS1Complex, max_k: int | None = None) -> DilationReport:
    """The least k at which the unit is exact in F^k, from the one level
    test `has_k_dilation` at the scan level.

    The degree -1 columns of F^k are those of F^N at u-power <= k, a prefix
    of F^N's power-major columns, and the rows of F^N they miss are zero
    there: a column at power p has rows at powers <= p only.  So the
    level-k block is the leading block of the level-N one, and F^N's pivot
    columns inside the prefix are a basis of its span.  The
    free-variables-zero solution is the one combination of pivot columns
    giving e, so e is exact in F^k exactly when it is supported there: the
    order is its largest index // n, it is the witness
    `has_k_dilation(s, order)` returns, and e stays exact at higher levels.
    """
    prim = has_k_dilation(s, _scan_level(s, max_k))[1]
    order = None if prim is None else max(prim) // s.complex.n
    return DilationReport("dilation", s.truncation, order, prim)


def order_of_semidilation(s: SplitS1Complex, max_k: int | None = None) -> DilationReport:
    """The least k with a k-semi-dilation, from one `solve` of level N.

    In (u-power, block, position) column order the degree -1 columns of A
    and w at level k are the level-N ones at u-power <= k, a column prefix,
    and the level-N rows they miss are zero there: a column at power p has
    rows at powers <= p only.  The complement is the non-unit basis of
    `_zero_part_h0` at level N, each vector at its u-power, and its level-k
    part is the level-N vectors of power <= k, in order: the basis at u^-p
    is the degree-2p basis of H(C_0) whatever the level.  The RREF of a
    column prefix is the prefix of the RREF, so the free-variables-zero
    solution solves level k exactly when it is supported there.  The order
    is its largest u-power, every higher level has a semi-dilation, and the
    witness is `has_k_semidilation`'s, solved over the same subquotient,
    built once.

    That second solve is not redundant: the two column orders give
    different free-variables-zero solutions.  On `random197` of the
    benchmark's seed-10 corpus (n = 13, N = 4, order 2) the ambient-order
    witness is {1: -1/2, 28: -1, 30: -1} and the by-power one {28: 1}, and
    the golden digests pin the ambient one.
    """
    level = _scan_level(s, max_k)
    _check_level(s, level)
    h0 = _zero_part_h0(s, level)
    found = _solve_semidilation(s, level, h0, by_power=True)
    if found is None:
        return DilationReport("semidilation", s.truncation, None, None)
    order = found[1]
    return DilationReport("semidilation", s.truncation, order,
                          _solve_semidilation(s, order, h0, by_power=False)[0])


# ---------------------------------------------------------------------------
# the u-torsion route


def _torsion_solver(s: SplitS1Complex, semi: bool) -> Callable[[int], Vector | None]:
    """The torsion route's level test: level k -> the free-variables-zero
    solution's x, or None when level k is infeasible.

    The unknowns are [x | w | y | c], x at its F^N(C_+) index and w after
    all of those at its F^N(C_0) index; the rows are F^N(C_+)'s (x closed),
    F^N(C_0)'s (x connects to e), then F^N(C_+)'s (u^{k+1} x is exact).
    The degree -1 blocks of x and w, the non-unit part of H^0(F^N C_0) and
    the right-hand side are built here, once; each level adds u^{k+1} x and
    the y columns, the degree-2k block of F^{N-k-1}(C_+)'s differential.
    The blocks are disjoint, so no position repeats.  The c columns hold no
    inert class (see `_zero_part_h0`).  The semi route reads pi_0 here, so
    it raises ValueError when e is not closed or [e] vanishes in H^0(C_0)."""
    n_tr = s.truncation
    _check_level(s, n_tr)
    complement = list(_zero_part_h0(s, n_tr).basis[1:]) if semi else []

    cp, cz = s.plus_part, s.zero_part
    # x and w take the first nxw columns, the closed and target rows the first nxw rows
    nx = (n_tr + 1) * cp.n
    nxw = nx + (n_tr + 1) * cz.n
    # block 1: delta_+ x = 0
    base = list(lift_degree(cp.deltas, n_tr, cp.degrees, -1).entries)
    # block 2: conn(x) - delta_0 w - sum c_j z_j = e
    base += [(nx + i, j, v) for i, j, v in lift_degree(s.connecting, n_tr, cp.degrees, -1).entries]
    base += [(nx + i, nx + j, -v)
             for i, j, v in lift_degree(cz.deltas, n_tr, cz.degrees, -1).entries]
    c_block = [(nx + i, jj, -v) for jj, z in enumerate(complement) for i, v in z.items()]
    rhs = {nx + i: x for i, x in s.unit_zero.items()}
    # x has total degree -1: the pair (g, p) with |g| = 2p - 1
    x_pairs = [(g, (d + 1) // 2) for g, d in enumerate(cp.degrees)
               if d % 2 and 0 <= (d + 1) // 2 <= n_tr]

    def level(k: int) -> Vector | None:
        # block 3: u^{k+1} x - delta_+ y = 0, where y has degree 2k; u^{k+1}
        # lowers the u-power by k+1 and drops what falls below u^0, all of x
        # at k = N, where y would lie in the empty F^{-1}: no y block there
        y = (lift_degree(cp.deltas, n_tr - k - 1, cp.degrees, 2 * k) if k < n_tr
             else SparseMatrix.zero(0, 0))
        ent = base + [(i, nxw + y.cols + jj, v) for i, jj, v in c_block]
        ent += [(nxw + (p - k - 1) * cp.n + g, p * cp.n + g, Fraction(1))
                for g, p in x_pairs if p > k]
        ent += [(nxw + i, nxw + j, -v) for i, j, v in y.entries]
        sol = solve(SparseMatrix(nxw + nx, nxw + y.cols + len(complement), tuple(sorted(ent))),
                    rhs)
        return None if sol is None else {j: x for j, x in sol.items() if j < nx}

    return level


def order_via_torsion(s: SplitS1Complex, semi: bool = False) -> DilationReport:
    """Independent order detection through u-torsion of the connecting class.

    The test at level k (`_torsion_solver`): a closed x in F^N(C_+) with
    connecting class [e] (or pi_0-image [e]) such that u^{k+1} x is exact,
    with primitive inside F^{N-k-1}(C_+).  Restricting the primitive to the
    lower filtration level is the truncated shadow of torsion on the
    untruncated module and makes this route agree with the direct scan at
    every level.  The order is the first feasible k, and the witness is x
    at that level.  The semi route reads pi_0 first, so it raises
    ValueError when e is not closed or [e] vanishes in H^0(C_0); the
    dilation route asks only whether e is exact.

    Feasibility is monotone in k.  If u^{k+1} x = delta y with y in
    F^{N-k-1}(C_+), then u^{k+2} x = delta(u y), since u commutes with the
    differential, and u y lies in F^{N-k-2}(C_+): level k feasible makes
    level k+1 feasible with the same x, w and c.  At k = N the u-condition
    is void.  The feasible levels are an up-set, and the first one is the
    order.

    So level N is solved first: when it is infeasible no level is, and the
    answer "> truncation" costs one solve.  Otherwise the scan runs up from
    k = 0 and reuses the level-N solution when it reaches N, so an order k
    costs k + 2 solves (N + 1 at k = N).  The orders are small next to the
    truncation, so scanning up beats bisecting 0..N-1: over the benchmark's
    seed-10 corpus (215 inputs, both kinds, 430 answers) the route makes
    749 solves this way and 915 by bisection, against 1,511 when every
    level from 0 is solved in turn.
    """
    kind = "semidilation" if semi else "dilation"
    n_tr = s.truncation
    at = _torsion_solver(s, semi)
    top = at(n_tr)
    if top is None:
        return DilationReport(kind, n_tr, None, None, route="torsion")
    for k in range(n_tr):
        x = at(k)
        if x is not None:
            return DilationReport(kind, n_tr, k, x, route="torsion")
    return DilationReport(kind, n_tr, n_tr, top, route="torsion")


# ---------------------------------------------------------------------------
# the operator family on the split pieces


def delta_plus_k(s: SplitS1Complex, k: int) -> QuotientMap:
    """Delta^k of the plus part (C_+, delta_+)."""
    return delta_k(s.plus_part, k)


def delta_plus0_k(s: SplitS1Complex, k: int) -> QuotientMap:
    """Delta^k_{+,0} : ker Delta^k_+ -> coker Delta^{k-1}_{+,0}.

    This is the quotient-map construction applied to the connecting morphism
    C_+ -> C_0[1]; at k = 0 it is the connecting map on cohomology.
    """
    return phi_k(s.connecting_morphism(), k)


def delta_partial_k(s: SplitS1Complex, restriction: SparseMatrix,
                    target: S1Complex, k: int) -> QuotientMap:
    """Post-compose Delta^k_{+,0} with a degree-0 cochain map C_0 -> D.

    `restriction` is the matrix of the map on the zero-part basis, taken as
    the morphism C_0[1] -> D[1] with no higher components; ValueError when
    it is not one.  D must carry trivial higher structure, as `phi_k`
    requires of the composite's target.
    """
    zeros = (SparseMatrix.zero(target.n, s.zero_part.n),) * s.truncation
    outer = S1Morphism(shift(s.zero_part, 1), shift(target, 1), (restriction, *zeros))
    if not verify_morphism(outer).valid:
        raise ValueError("restriction is not a degree-0 cochain map C_0 -> D")
    return phi_k(compose(outer, s.connecting_morphism()), k)


# ---------------------------------------------------------------------------
# the tautological long exact sequence


@dataclass(frozen=True)
class LesNode:
    degree: int
    position: str             # "full" | "plus" | "zero"
    incoming_rank: int
    kernel_dim: int

    @property
    def exact(self) -> bool:
        return self.incoming_rank == self.kernel_dim


@dataclass(frozen=True)
class LesReport:
    level: int
    dims_zero: dict[int, int]
    dims_full: dict[int, int]
    dims_plus: dict[int, int]
    nodes: tuple[LesNode, ...]

    @property
    def exact(self) -> bool:
        return all(n.exact for n in self.nodes)


def _check_operators(c: S1Complex) -> None:
    """Refuse an operator family that breaks a degree shift or a relation
    R_k = sum_(i+j=k) delta^i delta^j = 0, k <= N, as `verify_s1_relations`
    reads them: ValueError naming the first broken shift, else the first
    broken relation."""
    rel = verify_s1_relations(c)
    for check in rel.degree_checks:
        if not check.ok:
            a = c.generators[c.index_of(check.entries[0][0])].degree
            r = check.order
            raise ValueError(f"a degree-{a} generator maps under delta^{r} "
                             f"to no cycle of degree {a + 1 - 2 * r}")
    for check in rel.relation_checks:
        if not check.ok:
            raise ValueError(f"sum_(i+j={check.order}) delta^i delta^j is not 0: "
                             "the differential does not square to zero")


def _homology_counts(differential: SparseMatrix, degrees: tuple[int, ...]
                     ) -> tuple[dict[int, list[Vector]], list[Vector], dict[int, int]]:
    """The cycles by degree, the boundary basis and dim H^d = |Z_d| - |B_d|
    per degree, from one elimination of the differential, given the degree
    of each basis vector."""
    cycles, bounds = cycles_and_boundaries(differential, degrees)
    image = [b for bs in bounds.values() for b in bs]
    dims = {d: len(cycles.get(d, ())) - len(bounds.get(d, ()))
            for d in sorted(cycles.keys() | bounds.keys())}
    return cycles, image, dims


def _induced_ranks(cycles: dict[int, list[Vector]], push: Callable[[Vector], Vector],
                   target_dim: int, bounds: list[Vector]) -> Counter[int]:
    """Source degree d -> rank of the map that the chain map `push` induces
    on H^d(source), from one `pivot_columns` of [B_tgt | push(Z_src)],
    B_tgt being the boundary basis of the target, of dimension target_dim."""
    images: list[Vector] = []
    source_degree: list[int] = []
    for d, zs in cycles.items():
        for z in zs:
            images.append(push(z))
            source_degree.append(d)
    nb = len(bounds)
    return Counter(source_degree[p - nb] for p in pivot_columns([*bounds, *images], target_dim)
                   if p >= nb)


def tautological_les(s: SplitS1Complex, degrees: range | None = None) -> LesReport:
    """Exactness of ... -> H(F^N C_0) -> H(F^N C) -> H(F^N C_+) -> H(F^N C_0)[1] -> ... .

    Only dimensions and ranks leave this function, so it builds no
    cohomology group.  Each complex gives its cycles Z and boundaries B from
    one elimination of its differential, and dim H^d = |Z_d| - |B_d|.

    F^N(C) is read in the basis [F^N(C_0) | F^N(C_+)], a permutation of its
    own, where its differential is [[D_0, K], [0, D_+]] with K the lift of
    the blocks delta^r_{+,0}.  So the inclusion keeps every index, the
    projection drops the first block, and the connecting map is K.  For
    each of these chain maps f, with f(B_src) in B_tgt, the image of H(src)
    in H(tgt) is (f(Z_src) + B_tgt) / B_tgt, and the B_tgt basis is
    independent, so

        rank H^d(f) = rank [B_tgt | f(Z_src,d)] - |B_tgt|.

    One `pivot_columns` of [B_tgt | f(Z_src)] over all degrees serves every
    d: the degree blocks have disjoint supports, so the pivots split by
    block, and each pivot at or beyond |B_tgt| counts for the degree of its
    source cycle.  ker = im is then compared as ranks at every node of the
    window.

    Every fact the sequence rests on is checked once, on the operators,
    before any elimination.  The split must be valid: delta^0 preserves C_0
    and the higher operators vanish on it, i.e. the split's `outside` is
    empty, which makes the block form F^N(C)'s differential D.  Then the
    operators must meet their degree shifts and the relations R_k =
    sum_(i+j=k) delta^i delta^j = 0 for k <= N (`verify_s1_relations`).
    That is enough:

    * D's block (q, p) is delta^(p-q), so D^2's block (q, p) is R_(p-q),
      and D^2 = 0 exactly when R_0 = ... = R_N = 0.
    * In the basis [F^N(C_0) | F^N(C_+)], D^2 is [[D_0^2, D_0 K + K D_+],
      [0, D_+^2]]: D_0^2 = 0, D_+^2 = 0 and K being a chain map are its
      blocks, and the inclusion and the projection are chain maps of the
      block form.  So every boundary is a cycle and every pushed cycle is a
      cycle of its target.
    * The degree shifts make D raise the total degree by one, so every
      cycle and boundary is homogeneous, inclusion and projection keep its
      degree and K raises it by one.

    It refuses, each with ValueError and in this order: an explicit window
    of more than MAX_DEGREE_WINDOW degrees; a non-empty `outside`; a
    degree-a generator that some delta^r maps off degree a + 1 - 2r ("maps
    under delta^r to no cycle of degree a+1-2r"); a broken relation ("the
    differential does not square to zero"); and a derived window wider than
    MAX_DEGREE_WINDOW.
    """
    if degrees is not None:
        check_degree_window(degrees)
    if s.outside:
        raise ValueError("not a split complex: delta^0 must preserve the zero part "
                         "and the higher operators must vanish on it")
    _check_operators(s.complex)
    n_tr = s.truncation
    f_zero, f_plus = (build_filtered_plus(x, n_tr) for x in (s.zero_part, s.plus_part))
    conn = lift_family(s.connecting, n_tr)
    d_zero, d_plus = f_zero.differential, f_plus.differential
    nz, deg_full = d_zero.rows, f_zero.degrees + f_plus.degrees
    # no position repeats and no entry is zero, so sorting is the canonical form
    d_full = SparseMatrix(len(deg_full), len(deg_full), tuple(sorted(
        [*d_zero.entries, *((i, nz + j, v) for i, j, v in conn.entries),
         *((nz + i, nz + j, v) for i, j, v in d_plus.entries)])))
    cyc_zero, b_zero, dims_zero = _homology_counts(d_zero, f_zero.degrees)
    cyc_full, b_full, dims_full = _homology_counts(d_full, deg_full)
    cyc_plus, b_plus, dims_plus = _homology_counts(d_plus, f_plus.degrees)

    if degrees is None:
        all_deg = sorted(dims_full.keys() | dims_zero.keys() | dims_plus.keys())
        degrees = range(min(all_deg), max(all_deg) + 2) if all_deg else range(0, 1)
        check_degree_window(degrees)

    def project(v: Vector) -> Vector:
        return {i - nz: x for i, x in v.items() if i >= nz}

    r_iota = _induced_ranks(cyc_zero, dict, d_full.rows, b_full)
    r_pi = _induced_ranks(cyc_full, project, d_plus.rows, b_plus)
    r_conn = _induced_ranks(cyc_plus, conn.apply, nz, b_zero)
    nodes = []
    for d in degrees:
        nodes.append(LesNode(d, "full", r_iota[d], dims_full.get(d, 0) - r_pi[d]))
        nodes.append(LesNode(d, "plus", r_pi[d], dims_plus.get(d, 0) - r_conn[d]))
        nodes.append(LesNode(d, "zero", r_conn[d - 1], dims_zero.get(d, 0) - r_iota[d]))
    return LesReport(n_tr, dims_zero, dims_full, dims_plus, tuple(nodes))
