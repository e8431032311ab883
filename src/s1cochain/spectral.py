"""The u-adic filtration calculus: Z_k, B_k, the maps Delta^k, and page data.

Z_k collects the leading terms alpha_0 of closed elements
sum_{i=0}^k u^-i alpha_{k-i} of F^k; B_k collects the elements of C that are
exact in F^k.  These are nested,

    B_0 <= ... <= B_k <= Z_k <= ... <= Z_0,

and the structural map

    Delta^k : Z_{k-1}/B_0 -> Z_0/B_{k-1},
    Delta^k(alpha_0) = sum_{i=1}^k delta^i(alpha_{k-i})

of degree 1-2k packages the k-th differential of the spectral sequence of the
u-power filtration.  Delta^k is well-defined exactly when 2k does not exceed
the truncation; it satisfies ker = Z_k/B_0, im = B_k/B_{k-1},
coker = Z_0/B_k.

All spaces are kept as spanning sets inside the ambient complex so that the
inclusion chain and the kernel/image/cokernel identities are literal rank
assertions.

Every level is read from one kernel elimination of F^N
(`filtration_tower`).  F^j is the column prefix of F^N's first (j+1)n
indices, and its differential is F^N's leading block, since a column at
u-power p has rows at u-powers <= p only.  The RREF of a column prefix is
the prefix of the RREF.  A kernel vector has a 1 at its free column and
otherwise entries at smaller pivot columns, so ker F^j is the kernel vectors
of F^N whose largest index, their free column, lies in the prefix.  Z_j is
read from those at u-power exactly j; their u^-j blocks are independent,
each holding a 1 at its free column where the others hold 0.

The primitives of B are the kernel of F^N's rows at positive u-power, and
that kernel is fixed by the first one, by the block-Toeplitz structure of a
filtered complex (McCleary, *A User's Guide to Spectral Sequences*, ch. 2).
Those rows are empty at u-power 0, and their block (q, p) is delta^{p-q},
which is F^{N-1}'s block (q-1, p-1).  So their RREF has no pivot at u-power
0 and is F^{N-1}'s RREF moved up one u-power: the kernel is {g: 1} for
every generator g, then the closed vectors of level < N raised one u-power
(index + n), in the same order and with the same entries.  A primitive's
boundary value lies at u-power 0, and the tower keeps the primitives at the
`pivot_columns` of those values.  Each kernel vector costs one mat-vec: a
vector below level N is applied raised, and since the raised vector's
value beyond u-power 0 is the vector's own value, that one product both
checks it closed and gives its boundary value.  The primitives of B_j are a
prefix of these, and the pivots of a column prefix are the pivots in the
prefix, so B_j's basis is the prefix of B_N's.  Every vector and witness is
the one a separate elimination of F^j, and of its rows at positive u-power,
gives.

Column i of page k+1 is u^-i Z_{min(i,k)}/B_{min(k,N-i)}, so only 28 of the
49 (page, column) pairs are distinct at N = 6, and a set of pages builds one
`Subquotient` per distinct pair: `leray_pages` from one tower of F^N,
`leray_page(c, k)` from F^k.  A witness, `WitnessedCycle`, is the tower's
own vector of F^j, a closed kernel vector for Z_j or a primitive for B_j,
and its alphas are views of that chain.  `FiltrationTower.quotients` builds
a witness only for a Z_j vector that a quotient keeps in its basis, once
for all the quotients of Z_j in a page set.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .complexes import (
    FilteredPlusComplex,
    S1Complex,
    TruncationError,
    build_filtered_plus,
)
from .linalg import (
    SparseMatrix,
    Subquotient,
    Vector,
    kernel_basis,
    pivot_columns,
    rank as matrix_rank,
    vadd,
)


@dataclass(frozen=True)
class WitnessedCycle:
    """A vector of C with the chain of F^level that certifies its membership.

    `chain` is sum_i u^-i alpha_{level-i}, indexed power-major, (g, p) at
    p * n + g for the n generators of C.  For Z_k it is closed and its
    leading term alpha_0 is its block at u-power k; for B_k,
    boundary_value = delta_S1(chain) lies in C.
    """

    level: int
    chain: Vector
    n: int
    boundary_value: Vector | None = None

    def _by_power(self) -> list[Vector]:
        """The chain's blocks at u-powers 0, ..., level, as chains of C."""
        blocks: list[Vector] = [{} for _ in range(self.level + 1)]
        for i, x in self.chain.items():
            p, g = divmod(i, self.n)
            blocks[p][g] = x
        return blocks

    @property
    def alphas(self) -> tuple[Vector, ...]:
        """(alpha_0, ..., alpha_level), alpha_j the block at u-power level - j."""
        return tuple(reversed(self._by_power()))

    @property
    def leading(self) -> Vector:
        return self.alphas[0]

    def value(self, ops: Sequence[SparseMatrix], top: int) -> Vector:
        """sum_p ops[top - level + p] of the block at u-power p, summed for
        p = 0 up to level; an order beyond the family contributes nothing."""
        out: Vector = {}
        for p, a in enumerate(self._by_power()):
            r = top - self.level + p
            if a and r < len(ops):
                out = vadd(out, ops[r].apply(a))
        return out


@dataclass(frozen=True)
class FiltrationTower:
    """Z_j and B_j with witnesses for every level j <= filtered.level.

    One kernel elimination of F^level serves both, run on first use.  Z_j
    is read from the closed vectors of level j.  B's primitives are the
    kernel of F^level's rows at positive u-power, and that kernel needs no
    elimination of its own: those rows are empty at u-power 0, and their
    block (q, p), delta^{p-q}, is F^{level-1}'s block (q-1, p-1).  So the
    kernel is every generator at u-power 0, then the closed vectors below
    level raised one u-power.  B keeps the primitives at the
    `pivot_columns` of their boundary values.  A vector's level is the
    u-power of its free column, max index // n.  One mat-vec per kernel
    vector serves both its closedness check and, below the top level, its
    boundary value (see `_closed`).
    """

    filtered: FilteredPlusComplex

    @cached_property
    def _closed(self) -> list[tuple[int, Vector, Vector | None]]:
        """(level, kernel vector v of F^level's differential D, boundary
        value), with one mat-vec per vector that checks v closed.

        Below the top level D is applied once, to v raised one u-power (a),
        and the value is D(a), which lies in C.  A raised vector's block p+1
        is v's block p, so (Da)_q = (Dv)_(q-1) for q >= 1: D(a) beyond
        u-power 0 is all of D(v), and v is closed exactly when D(a) lies at
        u-power 0.  A vector of the top level has no raise and no value; it
        is checked by D(v) itself."""
        f = self.filtered
        d, n, top = f.differential, f.source.n, f.level
        out = []
        for v in kernel_basis(d):
            lv = max(v) // n
            if lv < top:
                value = d.apply({i + n: x for i, x in v.items()})
                closed = all(i < n for i in value)
            else:
                value, closed = None, not d.apply(v)
            if not closed:
                raise AssertionError("a kernel vector of the filtered differential is not closed")
            out.append((lv, v, value))
        return out

    @cached_property
    def _exact(self) -> list[tuple[int, Vector, Vector]]:
        """(level, boundary value in C, primitive) of the chosen primitives."""
        f = self.filtered
        d = f.differential
        n = f.source.n
        # the kernel of the rows at positive u-power, in kernel_basis' order:
        # a generator's value is its column of d, which has rows at u-power 0
        # only, as a column at u-power p has rows at u-powers <= p, then the
        # closed vectors below the top level raised one u-power
        one = Fraction(1)
        pairs = [(0, d.col(g), {g: one}) for g in range(n)]
        pairs += [(lv + 1, value, {i + n: x for i, x in v.items()})
                  for lv, v, value in self._closed if value is not None]
        pairs = [p for p in pairs if p[1]]
        return [pairs[i] for i in pivot_columns([p[1] for p in pairs], n)]

    def _check(self, j: int) -> None:
        if not 0 <= j <= self.filtered.level:
            raise ValueError(f"level {j} outside the tower [0, {self.filtered.level}]")

    def _level_closed(self, j: int) -> list[Vector]:
        self._check(j)
        return [v for lv, v, _ in self._closed if lv == j]

    def z(self, j: int) -> list[WitnessedCycle]:
        """Basis of Z_j with witnesses: the closed vectors of level j."""
        n = self.filtered.source.n
        return [WitnessedCycle(j, v, n) for v in self._level_closed(j)]

    def z_vectors(self, j: int) -> list[Vector]:
        """The leading terms of `z(j)`."""
        return [self.filtered.power_component(v, j) for v in self._level_closed(j)]

    def b(self, j: int) -> list[WitnessedCycle]:
        """Basis of B_j with primitives: the chosen primitives of level <= j."""
        self._check(j)
        n = self.filtered.source.n
        return [WitnessedCycle(j, a, n, boundary_value=value)
                for lv, value, a in self._exact if lv <= j]

    def b_vectors(self, j: int) -> list[Vector]:
        """The boundary values of `b(j)`."""
        self._check(j)
        return [value for lv, value, _ in self._exact if lv <= j]

    def quotients(self, j: int, b_spans: Sequence[list[Vector]]
                  ) -> list[tuple[Subquotient, tuple[WitnessedCycle, ...]]]:
        """Z_j/span(b) for each b in b_spans, with one witness for each Z_j
        vector that a quotient keeps in its basis, shared between the quotients."""
        n = self.filtered.source.n
        z_vecs = self.z_vectors(j)
        sqs = [Subquotient(n, z_vecs, b) for b in b_spans]
        closed = self._level_closed(j)
        kept = {i for sq in sqs for i in sq.basis_sources}
        wits = {i: WitnessedCycle(j, closed[i], n) for i in kept}
        return [(sq, tuple(wits[i] for i in sq.basis_sources)) for sq in sqs]


def filtration_tower(c: S1Complex, level: int) -> FiltrationTower:
    """Z_0, ..., Z_level and B_0, ..., B_level, all read from F^level."""
    return FiltrationTower(build_filtered_plus(c, level))


def delta_value(c: S1Complex, w: WitnessedCycle) -> Vector:
    """Chain-level Delta^{k+1} of a Z_k witness: sum_{i>=1} delta^i(alpha_{k+1-i})."""
    return w.value(c.deltas, w.level + 1)


@dataclass(frozen=True)
class QuotientMap:
    """A map of subquotients whose columns are the codomain coordinates of
    the domain witnesses' values: Delta^k, Phi^k or the reduced page map."""

    k: int
    domain: Subquotient
    codomain: Subquotient
    matrix: SparseMatrix
    domain_witnesses: tuple[WitnessedCycle, ...]

    @cached_property
    def rank(self) -> int:
        return matrix_rank(self.matrix)

    @property
    def kernel_dim(self) -> int:
        return self.matrix.cols - self.rank

    @property
    def coker_dim(self) -> int:
        return self.codomain.dim - self.rank


def delta_k(c: S1Complex, k: int) -> QuotientMap:
    """The structural map Delta^k; requires 2k <= truncation."""
    if k < 1:
        raise ValueError("Delta^k is defined for k >= 1")
    if 2 * k > c.truncation:
        raise TruncationError(f"Delta^{k} needs truncation >= {2 * k} "
                              f"(have {c.truncation})")
    t = filtration_tower(c, k - 1)
    [(dom_sq, dom_wits)] = t.quotients(k - 1, [t.b_vectors(0)])
    cod_sq = Subquotient(c.n, t.z_vectors(0), t.b_vectors(k - 1))
    mat = cod_sq.coordinate_matrix([delta_value(c, w) for w in dom_wits])
    return QuotientMap(k, dom_sq, cod_sq, mat, dom_wits)


# ---------------------------------------------------------------------------
# Leray pages of the u-power filtration on F^N


@dataclass(frozen=True)
class PageColumn:
    u_power: int
    subquotient: Subquotient
    witnesses: tuple[WitnessedCycle, ...]

    def dims_by_total_degree(self, degrees: tuple[int, ...]) -> dict[int, int]:
        raw = self.subquotient.dims_by(degrees)
        return {d - 2 * self.u_power: m for d, m in raw.items()}


@dataclass(frozen=True)
class LerayPage:
    """Page k+1 of the filtration spectral sequence of F^N.

    Column i holds u^-i Z_{min(i,k)} / B_{min(k, N-i)}; the page differential
    maps column i+k+1 to column i and is induced by Delta^{k+1}.  The i = 0
    column is included by the same formula (giving Z_0/B_k there).
    """

    index: int
    truncation: int
    columns: tuple[PageColumn, ...]
    differentials: dict[int, SparseMatrix]

    @property
    def page_number(self) -> int:
        return self.index + 1

    def dims_by_total_degree(self, degrees: tuple[int, ...]) -> dict[int, int]:
        out: dict[int, int] = {}
        for col in self.columns:
            for d, m in col.dims_by_total_degree(degrees).items():
                out[d] = out.get(d, 0) + m
        return {d: m for d, m in sorted(out.items()) if m}


def _pages(c: S1Complex, tower: FiltrationTower, indices: Sequence[int]) -> list[LerayPage]:
    """Page k+1 for each k in `indices`, with its differential when
    2(k+1) <= truncation; one `Subquotient` per distinct column pair."""
    n_tr = c.truncation
    pairs = {(min(i, k), min(k, n_tr - i)) for k in indices for i in range(n_tr + 1)}
    quotients = {}
    for zi in {zi for zi, _ in pairs}:
        bis = sorted(bi for z, bi in pairs if z == zi)
        built = tower.quotients(zi, [tower.b_vectors(bi) for bi in bis])
        quotients.update(((zi, bi), q) for bi, q in zip(bis, built))
    out = []
    for k in indices:
        columns = [PageColumn(i, *quotients[min(i, k), min(k, n_tr - i)])
                   for i in range(n_tr + 1)]
        diffs: dict[int, SparseMatrix] = {}
        if 2 * (k + 1) <= n_tr:
            for i in range(0, n_tr - k):  # target column i, source column i+k+1
                # column i+k+1 > k holds Z_k, so its witnesses have level k
                images = [delta_value(c, w) for w in columns[i + k + 1].witnesses]
                diffs[i] = columns[i].subquotient.coordinate_matrix(images)
        out.append(LerayPage(k, n_tr, tuple(columns), diffs))
    return out


def leray_page(c: S1Complex, k: int) -> LerayPage:
    """Assemble page k+1 from F^k, with its differential when 2(k+1) <= truncation."""
    if k < 0:
        raise ValueError("page k+1 is defined for k >= 0")
    n_tr = c.truncation
    if k > n_tr:
        raise TruncationError(f"page index {k} exceeds truncation {n_tr}")
    return _pages(c, filtration_tower(c, k), [k])[0]


def leray_pages(c: S1Complex) -> list[LerayPage]:
    """Every page, `leray_pages(c)[k] == leray_page(c, k)`, from one tower of F^N."""
    n_tr = c.truncation
    return _pages(c, filtration_tower(c, n_tr), range(n_tr + 1))


def e_infinity(c: S1Complex) -> LerayPage:
    """The last page: column i is u^-i Z_i / B_{N-i}."""
    return leray_page(c, c.truncation)


def reduced_page_map(c: S1Complex, k: int) -> QuotientMap:
    """The induced endomorphism of Z_{k-1}/B_{k-1} squaring to zero.

    Its cohomology reproduces Z_k/B_k degreewise, which is the page-recursion
    property of the abstract spectral sequence.
    """
    if k < 1:
        raise ValueError("the page map Z_{k-1}/B_{k-1} -> Z_{k-1}/B_{k-1} is defined for k >= 1")
    if 2 * k > c.truncation:
        raise TruncationError(f"page map {k} needs truncation >= {2 * k}")
    t = filtration_tower(c, k - 1)
    [(sq, wits)] = t.quotients(k - 1, [t.b_vectors(k - 1)])
    return QuotientMap(k, sq, sq, sq.coordinate_matrix([delta_value(c, w) for w in wits]), wits)
