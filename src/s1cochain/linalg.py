"""Exact sparse linear algebra over the rationals.

Everything downstream (cochain complexes, filtration spaces, dilation
detection) reduces to rank/kernel/solve questions over Q, so all arithmetic
here is exact: scalars are `fractions.Fraction`, vectors are sparse dicts
``{index: Fraction}`` with no stored zeros, and matrices are canonical
row-major triplet lists.  No floating point is accepted anywhere.

Every answer is read from the reduced row echelon form (RREF), or from its
pivot columns alone, and the RREF is unique for a fixed column order.
Which row supplies a pivot is therefore a free choice that cannot change
any result: pivot columns, reduced rows, kernel and image bases, `solve`
witnesses and subquotient coordinates are a deterministic function of the
input.

Inside an elimination the rows are integer vectors, and `Fraction` appears
only at the boundary.  A row enters scaled by the lcm of its own
denominators, built in one pass over the input with no `Fraction` row in
between; its content is not divided out.  Each row lies on the line of its
rational row, and the RREF, the pivots and every answer read from them are
invariant under scaling a row.  Clearing column c of a row with entry f by
a pivot row with pivot value a replaces the row by (a/g) row - (f/g) pivot
row, g = gcd(a, f), and divides its content out; each pivot row keeps its
integer pivot value beside it.  On output each RREF nonzero becomes one
`Fraction(v, pivot value)`, so no `Fraction` arithmetic runs in a row
update, and callers see the same exact rationals.

The elimination has one kernel, the forward pass `_echelon`, which every
elimination enters.  It is column-indexed: it keeps, for every column that
occurs, the set of not-yet-pivot rows holding it, built in O(nnz), visits
only those columns, in increasing order, takes a pivot row from the
column's set, and clears the column from exactly the rows in that set,
updating the sets on fill-in and cancellation.  `pivot_columns`, `rank` and
`span_leq` need only the pivots and stop there, with no back-substitution
and no `Fraction` made.  `_rref_rows` adds the back-substitution, for
`kernel_basis`, `kernel_and_image` and `Subquotient.coordinate_matrix`: it
clears each pivot column from the pivot rows above it, found through an
index of pivot rows by pivot column built once.  Empty columns and rows
that do not hold a column cost nothing, so the work follows the nonzeros,
not rows x columns.  `solve` reads only the augmented column of [m | b]: it
back-substitutes that column alone over the echelon rows, last pivot
first, x_p = (b_r - sum row[c] x_c) / a_r over the later pivot columns c,
with every free variable zero.  That is the solution the RREF gives, so
the witness is the same.

Eliminations see the nonempty rows only; an empty row can neither supply a
pivot nor change one, so the RREF is the same.  A matrix hands over its own
rows (`solve` adds the rows in the support of the right-hand side).
Vectors take one path, with no matrix built: `_column_rows` turns them into
the integer rows of the matrix whose columns they are, range-checking every
index.  `span_leq`, the filtration tower and `Subquotient`'s construction
ask their span questions through `pivot_columns`, and `Subquotient` reduces
vectors over the same rows.  `kernel_and_image` reads a kernel basis and
the pivot columns from a single elimination, for callers that need both,
and copies the image columns out of the matrix's own entries.

A prefix question is read from pivots, since the pivots of a column
prefix are the prefix's pivots.  `solve` reads its augmented column, and a
subquotient Z/B reduces any number of vectors in one elimination: its B
basis and quotient basis are independent and span Z, so they are the first
pivots of [B basis | quotient basis | v_1 ... v_m], their rows hold the
unique coordinates of every v_t, and the v_t lie in Z exactly when no
later column is a pivot.  `Subquotient.coordinate_matrix` reads the matrix
of a map into Z/B this way; `coordinates` is the case of one vector.  The
coordinates are the unique solution that `solve` would find vector by
vector, so they are the same numbers.

Each matrix builds one column view on first use and keeps it: the
(row, integer) pairs of every column over a single common denominator D,
the lcm of the entries' denominators.  `apply(v)` scales v by the lcm d of
its denominators, accumulates plain integer products and makes one
`Fraction(y, D d)` per output nonzero; `@` does the same per output entry,
and `col` reads the view too.  A vector that maps to zero
makes no `Fraction` at all, which is the common case of the checks that
only ask whether a mat-vec vanishes.  `entries`, equality, hashing and
`repr` do not see the view.  `from_entries` stores the first value at a
position as it is and adds only repeated positions, dropping a sum that
cancels.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Iterable, Sequence

Vector = dict[int, Fraction]

# Fractions are immutable, so every caller shares these instances.
_ZERO, _ONE = Fraction(0), Fraction(1)
# the class the exactness guards compare with, bound once at import
_FRACTION = Fraction
_NO_FLOATS = "floating point values are not allowed; use Fraction or int"


class DimensionError(ValueError):
    """Shapes of the operands do not match."""


def as_q(x: object) -> Fraction:
    """Coerce an int / Fraction / rational string to Fraction, rejecting floats."""
    if isinstance(x, float):
        raise TypeError(_NO_FLOATS)
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def _inexact(x: object) -> TypeError:
    """The refusal of a stored value that is neither an int nor a Fraction."""
    if isinstance(x, float):
        return TypeError(_NO_FLOATS)
    return TypeError(f"{x!r} is neither an int nor a Fraction")


def require_exact(x: object) -> None:
    """Refuse a value that is neither an int nor a Fraction with TypeError;
    unlike `as_q`, a rational string is refused too."""
    if type(x) is not _FRACTION and not isinstance(x, int):
        raise _inexact(x)


# ---------------------------------------------------------------------------
# sparse vectors


def vadd(u: Vector, v: Vector) -> Vector:
    out = dict(u)
    for i, x in v.items():
        s = out.get(i, Fraction(0)) + x
        if s:
            out[i] = s
        else:
            out.pop(i, None)
    return out


def vsub(u: Vector, v: Vector) -> Vector:
    return vadd(u, vscale(Fraction(-1), v))


def vscale(c: object, v: Vector) -> Vector:
    q = as_q(c)
    if not q:
        return {}
    return {i: q * x for i, x in v.items()}


# ---------------------------------------------------------------------------
# sparse matrices


@dataclass(frozen=True)
class SparseMatrix:
    """Immutable sparse rational matrix.

    `entries` is a row-major sorted tuple of (row, col, value) with no zero
    values and no duplicate positions; this canonical form makes equality and
    hashing structural.
    """

    rows: int
    cols: int
    entries: tuple[tuple[int, int, Fraction], ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise DimensionError(f"negative shape {self.rows}x{self.cols}")
        last = None
        for r, c, v in self.entries:
            if not (0 <= r < self.rows and 0 <= c < self.cols):
                raise DimensionError(f"entry ({r},{c}) out of range {self.rows}x{self.cols}")
            if not v:
                raise ValueError("zero coefficient stored in SparseMatrix")
            # the identity test first: it is the common case and the cheapest
            if type(v) is not _FRACTION and not isinstance(v, int):
                raise _inexact(v)
            if last is not None and (r, c) <= last:
                raise ValueError("entries not in canonical row-major order")
            last = (r, c)

    # construction -----------------------------------------------------

    @staticmethod
    def from_entries(rows: int, cols: int,
                     entries: Iterable[tuple[int, int, object]]) -> "SparseMatrix":
        # The first value at a position is stored as it is; only a repeated
        # position costs an addition, and a sum that cancels is dropped.
        acc: dict[tuple[int, int], Fraction] = {}
        for r, c, x in entries:
            q = x if isinstance(x, Fraction) else as_q(x)
            key = (r, c)
            if key in acc:
                s = acc[key] + q
                if s:
                    acc[key] = s
                else:
                    del acc[key]
            elif q:
                acc[key] = q
        items = tuple((r, c, v) for (r, c), v in sorted(acc.items()))
        return SparseMatrix(rows, cols, items)

    @staticmethod
    def from_columns(columns: Sequence[Vector], rows: int) -> "SparseMatrix":
        ent = []
        for c, col in enumerate(columns):
            for r, x in col.items():
                ent.append((r, c, x))
        return SparseMatrix.from_entries(rows, len(columns), ent)

    @staticmethod
    def identity(n: int) -> "SparseMatrix":
        return SparseMatrix(n, n, tuple((i, i, Fraction(1)) for i in range(n)))

    @staticmethod
    def zero(rows: int, cols: int) -> "SparseMatrix":
        return SparseMatrix(rows, cols, ())

    # access -----------------------------------------------------------

    @cached_property
    def _int_cols(self) -> tuple[int, dict[int, list[tuple[int, int]]]]:
        """Column view over one common denominator: (D, column -> its
        (row, integer) pairs in row order), each entry being integer / D,
        with D the lcm of the entries' denominators.

        Built on first use and kept on the instance, which is immutable;
        fields, equality, hashing and repr do not see it.
        """
        ratios = [v.as_integer_ratio() for _, _, v in self.entries]
        den = lcm(*[q for _, q in ratios])
        acc: dict[int, list[tuple[int, int]]] = {}
        for (r, c, _), (p, q) in zip(self.entries, ratios):
            acc.setdefault(c, []).append((r, p * (den // q)))
        return den, acc

    def col(self, j: int) -> Vector:
        if not 0 <= j < self.cols:
            raise DimensionError(f"column {j} out of range")
        den, by_col = self._int_cols
        return {r: Fraction(x, den) for r, x in by_col.get(j, ())}

    def is_zero(self) -> bool:
        return not self.entries

    # algebra ------------------------------------------------------------

    def __add__(self, other: "SparseMatrix") -> "SparseMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionError("matrix shapes differ")
        return SparseMatrix.from_entries(
            self.rows, self.cols, list(self.entries) + list(other.entries))

    def __sub__(self, other: "SparseMatrix") -> "SparseMatrix":
        return self + other.scale(-1)

    def scale(self, c: object) -> "SparseMatrix":
        q = as_q(c)
        if not q:
            return SparseMatrix.zero(self.rows, self.cols)
        return SparseMatrix(self.rows, self.cols,
                            tuple((r, col, q * v) for r, col, v in self.entries))

    def __matmul__(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.cols != other.rows:
            raise DimensionError("inner dimensions differ")
        den, by_col = self._int_cols
        oden, other_cols = other._int_cols
        acc: dict[tuple[int, int], int] = {}
        for c, pairs in other_cols.items():
            # column c of the product is the sum of w * (column r of self)
            for r, w in pairs:
                for rr, vv in by_col.get(r, ()):
                    key = (rr, c)
                    acc[key] = acc.get(key, 0) + vv * w
        den *= oden
        ent = tuple((r, c, Fraction(s, den)) for (r, c), s in sorted(acc.items()) if s)
        return SparseMatrix(self.rows, other.cols, ent)

    def apply(self, v: Vector) -> Vector:
        """Matrix times sparse column vector; TypeError for an inexact value."""
        den, by_col = self._int_cols
        # d is the lcm of the denominators seen so far; a new one rescales
        # the integer sums onto the new lcm
        d = 1
        out: dict[int, int] = {}
        for c, x in v.items():
            if not 0 <= c < self.cols:
                raise DimensionError(f"vector index {c} out of range")
            if type(x) is not _FRACTION and not isinstance(x, int):
                raise _inexact(x)
            p, q = x.as_integer_ratio()
            if d % q:
                s = q // gcd(d, q)
                d *= s
                for r in out:
                    out[r] *= s
            x = p * (d // q)
            for r, m in by_col.get(c, ()):
                out[r] = out.get(r, 0) + m * x
        den *= d
        return {r: Fraction(y, den) for r, y in out.items() if y}


# ---------------------------------------------------------------------------
# elimination


def _echelon(rows: list[dict[int, int]]) -> tuple[list[int], list[int], list[int]]:
    """The forward pass: reduce the integer rows to echelon form, in place.

    Returns the strictly increasing pivot columns, the index in `rows` of
    each pivot row and its positive integer pivot value, which is left out
    of the row's dict.  A row below a pivot becomes (a/g) row - (f/g) pivot
    row, where a is the pivot value, f the row's entry and g = gcd(a, f),
    and its content is divided out, so every row an update touches is
    primitive; a row no update touches keeps the scale it entered with.
    """
    # column -> rows holding it that are not pivot rows yet; O(nnz) to build.
    # A fill-in column is always a column of the pivot row that causes it,
    # so elimination never adds a key and `sorted(index)` visits each
    # occurring column once, skipping empty columns entirely.
    index: dict[int, set[int]] = {}
    for i, row in enumerate(rows):
        for c in row:
            index.setdefault(c, set()).add(i)
    pivots: list[int] = []
    prows: list[int] = []
    pvals: list[int] = []
    for c in sorted(index):
        holders = index[c]
        if not holders:
            continue
        # Any holder can supply the pivot: the RREF does not depend on it.
        p = min(holders)
        prow = rows[p]
        for k in prow:
            index[k].discard(p)
        a = prow.pop(c)
        if a < 0:
            a = -a
            for k in prow:
                prow[k] = -prow[k]
        for i in holders:
            row = rows[i]
            f = row.pop(c)
            g = gcd(a, f)
            s, t = a // g, f // g
            if s != 1:
                for k in row:
                    row[k] *= s
            for k, v in prow.items():
                if k in row:
                    x = row[k] - t * v
                    if x:
                        row[k] = x
                    else:
                        del row[k]
                        index[k].discard(i)
                else:
                    row[k] = -t * v
                    index[k].add(i)
            if row:
                g = gcd(*row.values())
                if g != 1:
                    for k in row:
                        row[k] //= g
        holders.clear()
        pivots.append(c)
        prows.append(p)
        pvals.append(a)
    return pivots, prows, pvals


def _rref_rows(rows: list[dict[int, int]]) -> tuple[list[Vector], list[int]]:
    """The RREF of the integer rows: its pivot rows as `Fraction` dicts, in
    pivot order with 1 at the pivot, and the strictly increasing pivot
    columns.  The other rows of the RREF are empty.
    """
    pivots, prows, pvals = _echelon(rows)
    # Back-substitution, last pivot first, with the same integer row update;
    # a pivot row above scales its pivot value with its row, and a/g > 0
    # keeps that value positive.  When a
    # pivot row is subtracted, its later pivot columns are already cleared,
    # so it holds no pivot column and the index of pivot rows (by pivot
    # order) by pivot column stays exact.
    above: dict[int, list[int]] = {c: [] for c in pivots}
    for j, p in enumerate(prows):
        for k in rows[p]:
            if k in above:
                above[k].append(j)
    for j in reversed(range(len(pivots))):
        c, prow, a = pivots[j], rows[prows[j]], pvals[j]
        for i in above[c]:
            row = rows[prows[i]]
            f = row.pop(c)
            g = gcd(a, f)
            s, t = a // g, f // g
            if s != 1:
                for k in row:
                    row[k] *= s
                pvals[i] *= s
            for k, v in prow.items():
                if k in row:
                    x = row[k] - t * v
                    if x:
                        row[k] = x
                    else:
                        del row[k]
                else:
                    row[k] = -t * v
            g = gcd(pvals[i], *row.values())
            if g != 1:
                for k in row:
                    row[k] //= g
                pvals[i] //= g
    out: list[Vector] = []
    for c, p, a in zip(pivots, prows, pvals):
        row = {k: Fraction(v, a) for k, v in rows[p].items()}
        row[c] = _ONE
        out.append(row)
    return out, pivots


def _matrix_rows(m: SparseMatrix, rhs: Vector | None = None) -> list[dict[int, int]]:
    """The rows of m that hold an entry, as integer rows, each scaled by the
    lcm of its own denominators; with `rhs`, the rows of [m | rhs].

    One pass over the entries, which come row by row: d is the lcm of the
    current row's denominators so far, and a new one rescales the row's
    integers onto the new lcm, as in `SparseMatrix.apply`.
    """
    rows: dict[int, dict[int, int]] = {}
    dens: dict[int, int] = {}
    last = -1
    for r, c, x in m.entries:
        p, q = x.as_integer_ratio()
        if r != last:
            rows[r] = row = {c: p}
            dens[r] = d = q
            last = r
            continue
        if d % q:
            s = q // gcd(d, q)
            d *= s
            dens[r] = d
            for k in row:
                row[k] *= s
        row[c] = p * (d // q)
    return _join_columns(rows, dens, [rhs] if rhs else [], m.cols, m.rows)


def _join_columns(rows: dict[int, dict[int, int]], dens: dict[int, int],
                  vectors: Sequence[Vector], first: int, dim: int) -> list[dict[int, int]]:
    """Join `vectors` to the integer rows `rows` as the columns first,
    first + 1, ... of a dim-row matrix, and return the nonempty rows.

    `dens` holds each row's lcm of denominators so far; an entry p/q of a
    row with lcm d is stored as p (d / q), and a new denominator rescales
    the row's integers onto the new lcm.  An index is range-checked when
    its row is made; a stored zero makes no entry.
    """
    for c, v in enumerate(vectors, first):
        for r, x in v.items():
            p, q = x.as_integer_ratio()
            row = rows.get(r)
            if row is None:
                if not 0 <= r < dim:
                    raise DimensionError("vector index out of ambient range")
                if p:
                    rows[r] = {c: p}
                    dens[r] = q
            elif p:
                d = dens[r]
                if d % q:
                    s = q // gcd(d, q)
                    d *= s
                    dens[r] = d
                    for k in row:
                        row[k] *= s
                row[c] = p * (d // q)
    return list(rows.values())


def _column_rows(vectors: Sequence[Vector], dim: int) -> list[dict[int, int]]:
    """The nonempty rows of the dim-row matrix whose columns are `vectors`,
    as integer rows, each scaled by the lcm of its own denominators, built
    in one pass over the vectors."""
    return _join_columns({}, {}, vectors, 0, dim)


def pivot_columns(vectors: Sequence[Vector], dim: int) -> list[int]:
    """Pivot columns of the matrix whose columns are `vectors`: the first
    vector of each rank increase, read without building the matrix."""
    return _echelon(_column_rows(vectors, dim))[0]


def rank(m: SparseMatrix) -> int:
    return len(_echelon(_matrix_rows(m))[0])


def solve(m: SparseMatrix, b: Vector) -> Vector | None:
    """One exact solution of m @ x = b, or None when b is not in the image.

    Free variables are set to zero, so the returned witness is deterministic.
    Absence is certified by the pivot landing in the augmented column.
    """
    for i, x in b.items():
        if not 0 <= i < m.rows:
            raise DimensionError("right-hand side index out of range")
        require_exact(x)
    aug = m.cols
    rows = _matrix_rows(m, b)
    pivots, prows, pvals = _echelon(rows)
    if pivots and pivots[-1] == aug:
        return None
    # the augmented column alone, last pivot first; free variables are zero
    x: Vector = {}
    for p, i, a in zip(reversed(pivots), reversed(prows), reversed(pvals)):
        row = rows[i]
        y = Fraction(row.get(aug, 0))
        for c, v in row.items():
            if c in x:
                y -= v * x[c]
        if y:
            x[p] = y / a
    return {p: x[p] for p in pivots if p in x}


def _kernel_of_reduced(rows: list[Vector], pivots: list[int], cols: int) -> list[Vector]:
    pivset = set(pivots)
    free: dict[int, Vector] = {f: {f: _ONE} for f in range(cols) if f not in pivset}
    for row, p in zip(rows, pivots):
        for f, coeff in row.items():
            if f != p:
                free[f][p] = -coeff
    return list(free.values())


def kernel_basis(m: SparseMatrix) -> list[Vector]:
    """Deterministic basis of ker(m), one vector per free column."""
    rows, pivots = _rref_rows(_matrix_rows(m))
    return _kernel_of_reduced(rows, pivots, m.cols)


def kernel_and_image(m: SparseMatrix) -> tuple[list[Vector], list[Vector]]:
    """`kernel_basis(m)` and a basis of the column space, the original
    columns at the pivot indices, read from one elimination."""
    rows, pivots = _rref_rows(_matrix_rows(m))
    image: dict[int, Vector] = {p: {} for p in pivots}
    for r, c, v in m.entries:
        if c in image:
            image[c][r] = v
    return _kernel_of_reduced(rows, pivots, m.cols), list(image.values())


def span_leq(a: Sequence[Vector], b: Sequence[Vector], dim: int) -> bool:
    """span(a) contained in span(b): no column of a is a pivot of [b | a],
    since the RREF of a column prefix is the prefix of the RREF."""
    return all(p < len(b) for p in pivot_columns([*b, *a], dim))


# ---------------------------------------------------------------------------
# subquotients Z/B


class Subquotient:
    """A subquotient Z/B of an ambient Q-vector space.

    Z and B are presented by spanning sets; span(B) <= span(Z) is verified at
    construction.  A deterministic quotient basis is chosen by running the
    pivot search over the columns [B | Z]: the pivot columns beyond rank(B)
    represent the quotient, and `basis_sources` holds the index in `z_gens`
    of each.  A caller that wants some vectors to head the basis (e.g. a
    distinguished unit class) puts them first in `z_gens`.

    Construction runs two eliminations, both `pivot_columns` over the
    generators: rank(Z), and the one over [B | Z].  The containment check
    needs no third: the pivot count of [B | Z] is rank(span(Z, B)), which
    equals rank(Z) exactly when B lies in span(Z).
    """

    def __init__(self, ambient_dim: int, z_gens: Sequence[Vector],
                 b_gens: Sequence[Vector] = ()):
        self.ambient_dim = ambient_dim
        nb = len(b_gens)
        combined = [*b_gens, *z_gens]
        try:
            self.rank_z = len(pivot_columns(z_gens, ambient_dim))
            pivots = pivot_columns(combined, ambient_dim)
        except DimensionError:
            raise DimensionError("generator index out of ambient range") from None
        if len(pivots) != self.rank_z:
            raise ValueError("b_gens not contained in span(z_gens)")
        b_indep = [combined[p] for p in pivots if p < nb]
        self.rank_b = len(b_indep)
        self.basis = tuple(combined[p] for p in pivots if p >= nb)
        self.basis_sources = tuple(p - nb for p in pivots if p >= nb)
        self.dim = len(self.basis)
        assert self.dim == self.rank_z - self.rank_b
        self._solver = [*b_indep, *self.basis]

    def coordinate_matrix(self, images: Sequence[Vector]) -> SparseMatrix:
        """Column t holds the quotient coordinates of images[t]; raises
        ValueError when an image is not in Z.

        One elimination of the rows of [B basis | quotient basis | v_1 ... v_m].
        The s solver columns are independent, so they are the first s
        pivots, and pivot row r holds in column s + t the unique coefficient
        of solver column r in v_t.  They are a basis of Z, so every v_t lies
        in Z exactly when no later column is a pivot.
        """
        if not images:
            return SparseMatrix.zero(self.dim, 0)
        s = len(self._solver)
        reduced, pivots = _rref_rows(_column_rows([*self._solver, *images], self.ambient_dim))
        if len(pivots) > s:
            raise ValueError("vector is not in Z")
        ent = tuple((j, c - s, x) for j, row in enumerate(reduced[self.rank_b:])
                    for c, x in sorted(row.items()) if c >= s)
        return SparseMatrix(self.dim, len(images), ent)

    def coordinates(self, v: Vector) -> tuple[Fraction, ...]:
        col = self.coordinate_matrix([v]).col(0)
        return tuple(col.get(j, _ZERO) for j in range(self.dim))

    def dims_by(self, grading: Sequence[int]) -> dict[int, int]:
        """Quotient dimension per value of a grading on the ambient basis."""
        out: dict[int, int] = {}
        for b in self.basis:
            d = grading[min(b)]
            out[d] = out.get(d, 0) + 1
        return out

    def __repr__(self) -> str:  # pragma: no cover
        return (f"Subquotient(dim={self.dim}, rank_z={self.rank_z}, "
                f"rank_b={self.rank_b}, ambient={self.ambient_dim})")
