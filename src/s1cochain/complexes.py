"""Truncated circle-equivariant cochain complexes over Q.

An N-truncated structure on a Z-graded complex is a family of operators
delta^0, ..., delta^N with delta^r of degree 1-2r, subject to

    sum_{i+j=k} delta^i . delta^j = 0   for every k <= N.

The associated filtered complex F^k = C (x) <1, u^-1, ..., u^-k> carries the
total differential sum_r u^r delta^r, where the formal degree-2 variable u
acts by lowering the u-power and truncating at u^0.

`family_product(a, b, k)` is the degree-k part sum_{i+j=k} a^i b^j of the
product of two operator families.  The relation above, and in
`s1cochain.morphisms` the morphism and homotopy relations and composition,
are all read from it.  It skips every pair in which either order is empty
and sums the others' products as integers over one common denominator, so
a relation that holds builds no product matrix and no `Fraction`.

One `EntryCheck` type names the entries that break a rule at one order:
`EntryCheck.relation` those of a residual, `EntryCheck.shifts` those of a
degree-shift violation, for every family, and `S1ValidationReport`
carries both kinds for complexes, morphisms and homotopies alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Callable, Sequence

from .linalg import (
    DimensionError,
    SparseMatrix,
    Subquotient,
    Vector,
    kernel_and_image,
)

# Input size limits.  A document, a Milnor model or a tensor product beyond
# them is refused before any matrix is allocated for it.  They admit every
# construction the package is exercised on, up to the n=738, N=8 Milnor
# model with spheres.  MAX_FILTERED_DIM bounds the dimension (N+1)*n of F^N,
# MAX_DEGREE_WINDOW the degrees a cohomology window or an LES walks.
MAX_TRUNCATION = 100
MAX_GENERATORS = 10_000
MAX_FILTERED_DIM = 20_000
MAX_DEGREE_WINDOW = 10_000


class TruncationError(ValueError):
    """A filtration level or operator order exceeds the truncation."""


@dataclass(frozen=True)
class Generator:
    name: str
    degree: int


@dataclass(frozen=True)
class S1Complex:
    """Graded basis plus the operator family (delta^0, ..., delta^N).

    Matrices act on column vectors in the generator basis: column j of
    deltas[r] is delta^r applied to generators[j].  Structural constraints
    (shapes; unique, non-empty `str` names; `int` degrees, so no `bool`)
    are enforced here, or, by a caller that has already checked its
    fields, before `from_checked`; the graded relations are checked by
    `verify_s1_relations`.
    """

    generators: tuple[Generator, ...]
    truncation: int
    deltas: tuple[SparseMatrix, ...]

    def __post_init__(self) -> None:
        if self.truncation < 0:
            raise ValueError("truncation must be non-negative")
        if len(self.deltas) != self.truncation + 1:
            raise ValueError("need exactly truncation+1 operator matrices")
        n = len(self.generators)
        names = set()
        for g in self.generators:
            if type(g.name) is not str or not g.name:
                raise ValueError(f"generator name {g.name!r} is not a non-empty string")
            if type(g.degree) is not int:
                raise ValueError(f"generator {g.name!r} has degree {g.degree!r}, not an int")
            if g.name in names:
                raise ValueError(f"duplicate generator name {g.name!r}")
            names.add(g.name)
        for d in self.deltas:
            if (d.rows, d.cols) != (n, n):
                raise ValueError("operator matrix shape does not match basis")

    @classmethod
    def from_checked(cls, generators: tuple[Generator, ...], truncation: int,
                     deltas: tuple[SparseMatrix, ...]) -> "S1Complex":
        """The complex of fields that already meet `__post_init__`'s
        constraints, built without checking them again.  Its two callers
        know they do: the document reader, which refuses a bad truncation,
        name or degree with the field's JSON path and shapes every operator
        itself, and a split's parts, whose generators are a sub-tuple of
        a checked complex's and whose blocks the split shapes."""
        c = object.__new__(cls)
        object.__setattr__(c, "generators", generators)
        object.__setattr__(c, "truncation", truncation)
        object.__setattr__(c, "deltas", deltas)
        return c

    @property
    def n(self) -> int:
        return len(self.generators)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        """Built on first use and kept on the instance, which is immutable;
        fields, equality, hashing and repr do not see it."""
        return tuple(g.degree for g in self.generators)

    def index_of(self, name: str) -> int:
        for i, g in enumerate(self.generators):
            if g.name == name:
                return i
        raise KeyError(name)


def make_complex(generators: list[tuple[str, int]], truncation: int,
                 ops: dict[int, list[tuple[str, str, object]]]) -> S1Complex:
    """Convenience constructor: ops[r] lists (source, target, coefficient)."""
    gens = tuple(Generator(n, d) for n, d in generators)
    idx = {g.name: i for i, g in enumerate(gens)}
    n = len(gens)
    deltas = []
    for r in range(truncation + 1):
        ent = [(idx[to], idx[frm], c) for frm, to, c in ops.get(r, [])]
        deltas.append(SparseMatrix.from_entries(n, n, ent))
    return S1Complex(gens, truncation, tuple(deltas))


# ---------------------------------------------------------------------------
# validation


def family_product(a: Sequence[SparseMatrix], b: Sequence[SparseMatrix],
                   k: int) -> SparseMatrix:
    """sum_{i+j=k} a[i] @ b[j], summed in one pass: the degree-k part of the
    product of two operator families, on which every family relation rests.

    A pair in which either order is empty adds nothing and is skipped.  The
    others are summed as integers, read from each matrix's column view
    (integer / D), over the lcm of the pairs' products of denominators, and
    each nonzero sum becomes one `Fraction`: a product that vanishes, as
    the residual of a relation that holds does, makes none.
    """
    pairs = []
    for i in range(k + 1):
        x, y = a[i], b[k - i]
        if x.cols != y.rows:
            raise DimensionError("inner dimensions differ")
        if x.entries and y.entries:
            pairs.append((x._int_cols, y._int_cols))
    den = lcm(*[dx * dy for (dx, _), (dy, _) in pairs])
    acc: dict[tuple[int, int], int] = {}
    for (dx, x_cols), (dy, y_cols) in pairs:
        scale = den // (dx * dy)
        for c, column in y_cols.items():
            # column c of x @ y is the sum of w * (column r of x)
            for r, w in column:
                w *= scale
                for rr, v in x_cols.get(r, ()):
                    key = (rr, c)
                    acc[key] = acc.get(key, 0) + v * w
    return SparseMatrix(a[0].rows, b[0].cols, tuple(
        (r, c, Fraction(s, den)) for (r, c), s in sorted(acc.items()) if s))


@dataclass(frozen=True)
class EntryCheck:
    """The entries of the order-`order` member of a family that break a rule,
    named (source generator, target generator), with the residual value
    appended for a relation."""

    order: int
    entries: tuple[tuple[str, str] | tuple[str, str, Fraction], ...]

    @property
    def ok(self) -> bool:
        return not self.entries

    @staticmethod
    def relation(k: int, residual: SparseMatrix, source: S1Complex,
                 target: S1Complex) -> "EntryCheck":
        """The nonzero entries of the degree-k residual, with their values."""
        return EntryCheck(k, tuple((source.generators[j].name, target.generators[i].name, v)
                                   for i, j, v in residual.entries))

    @staticmethod
    def shifts(mats: Sequence[SparseMatrix], source: S1Complex, target: S1Complex,
               shift: int) -> tuple["EntryCheck", ...]:
        """One check per order r, each entry required to shift degree by shift - 2r."""
        src, dst = source.generators, target.generators
        out = []
        for r, m in enumerate(mats):
            bad = tuple((src[j].name, dst[i].name) for i, j, _ in m.entries
                        if dst[i].degree - src[j].degree != shift - 2 * r)
            out.append(EntryCheck(r, bad))
        return tuple(out)


@dataclass(frozen=True)
class S1ValidationReport:
    """The relation and degree-shift checks of one operator family, with the
    family's symbol, its required degree shift as a formula in r and its
    degree-k relation (`{k}` marks the degree) for the lines of
    `violations`."""

    relation_checks: tuple[EntryCheck, ...]
    degree_checks: tuple[EntryCheck, ...]
    symbol: str
    rule: str
    relation: str

    @property
    def valid(self) -> bool:
        return (all(c.ok for c in self.relation_checks)
                and all(c.ok for c in self.degree_checks))

    def violations(self) -> list[str]:
        """One line per failed check, the degree shifts first."""
        return ([f"degree shift of {self.symbol}^{c.order} ({self.rule}): VIOLATED {c.entries[:3]}"
                 for c in self.degree_checks if not c.ok]
                + [f"relation {self.relation.format(k=c.order)}: VIOLATED {c.entries[:3]}"
                   for c in self.relation_checks if not c.ok])


def verify_s1_relations(c: S1Complex) -> S1ValidationReport:
    """Check every truncated relation and every operator's degree shift."""
    relation_checks = tuple(EntryCheck.relation(k, family_product(c.deltas, c.deltas, k), c, c)
                            for k in range(c.truncation + 1))
    return S1ValidationReport(relation_checks, EntryCheck.shifts(c.deltas, c, c, 1),
                              "delta", "1-2r", "sum_(i+j={k}) delta^i delta^j = 0")


# ---------------------------------------------------------------------------
# filtered complexes F^k


@dataclass(frozen=True)
class FilteredPlusComplex:
    """F^k of an N-truncated complex: basis pairs (generator g, u-power p).

    Basis pairs are ordered power-major, the pair (g, p) at index p * n + g,
    so for k' <= k the pairs with power <= k' form a prefix, and that prefix
    spans a subcomplex (the differential never raises the power).  The pair
    (g, p) has total degree |g| - 2p.
    """

    source: S1Complex
    level: int
    degrees: tuple[int, ...]
    differential: SparseMatrix

    @property
    def dim(self) -> int:
        return (self.level + 1) * self.source.n

    def index_of(self, gen_index: int, power: int) -> int:
        return power * self.source.n + gen_index

    def power_component(self, v: Vector, power: int) -> Vector:
        """Coefficient of u^-power, as a chain of C."""
        n = self.source.n
        return {i - power * n: x for i, x in v.items() if i // n == power}


def lift_family(ops: Sequence[SparseMatrix], level: int) -> SparseMatrix:
    """sum_r u^r ops[r] as a matrix F^level(source) -> F^level(target).

    ops[r] maps the source generators to the target generators, for r up to
    the truncation len(ops) - 1.  The lift sends the basis pair (j, p) to
    the pairs (i, p - r), truncating at u^0; both sides are power-major.
    """
    n_tr = len(ops) - 1
    if level > n_tr:
        raise TruncationError(f"level {level} exceeds truncation {n_tr}")
    if level < 0:
        raise ValueError("level must be non-negative")
    n_dst, n_src = ops[0].rows, ops[0].cols
    # no position repeats and no entry is zero, so sorting is all the
    # canonical form needs; the same holds in lift_degree
    ent = []
    for p in range(level + 1):  # source power
        for r in range(0, min(p, n_tr) + 1):  # target power p - r
            q = p - r
            for i, j, v in ops[r].entries:
                ent.append((q * n_dst + i, p * n_src + j, v))
    return SparseMatrix((level + 1) * n_dst, (level + 1) * n_src, tuple(sorted(ent)))


def lift_degree(ops: Sequence[SparseMatrix], level: int, degrees: Sequence[int],
                d: int) -> SparseMatrix:
    """The columns of `lift_family(ops, level)` whose source pair has total
    degree d, every other column left empty; same shape, same indices.

    The source pair (j, p) has degree degrees[j] - 2p, so an entry
    (i, j, v) of ops[r] meets d at one power p at most and lands at
    (i, p - r): this costs the nonzeros of ops, where the whole lift costs
    level + 1 times them.  A level outside 0..truncation raises, as in `lift_family`.
    """
    if level >= len(ops):
        raise TruncationError(f"level {level} exceeds truncation {len(ops) - 1}")
    if level < 0:
        raise ValueError("level must be non-negative")
    size = level + 1
    n_dst, n_src = ops[0].rows, ops[0].cols
    ent = []
    for r, op in enumerate(ops[:size]):
        for i, j, v in op.entries:
            p, odd = divmod(degrees[j] - d, 2)
            if not odd and r <= p <= level:
                ent.append(((p - r) * n_dst + i, p * n_src + j, v))
    return SparseMatrix(size * n_dst, size * n_src, tuple(sorted(ent)))


def build_filtered_plus(c: S1Complex, k: int) -> FilteredPlusComplex:
    """Assemble F^k with differential sum_r u^r delta^r (truncated at u^0)."""
    diff = lift_family(c.deltas, k)
    degrees = tuple(g.degree - 2 * p for p in range(k + 1) for g in c.generators)
    return FilteredPlusComplex(c, k, degrees, diff)


# ---------------------------------------------------------------------------
# cohomology


def check_degree_window(degrees: range) -> None:
    """Refuse a window of more than MAX_DEGREE_WINDOW degrees."""
    # len() of a range longer than sys.maxsize raises OverflowError
    span = max(0, -((degrees.start - degrees.stop) // degrees.step))
    if span > MAX_DEGREE_WINDOW:
        raise ValueError(f"degree window {degrees.start}..{degrees.stop - 1} spans "
                         f"{span} degrees, more than {MAX_DEGREE_WINDOW}")


def cycles_and_boundaries(differential: SparseMatrix, degrees: Sequence[int]
                          ) -> tuple[dict[int, list[Vector]], dict[int, list[Vector]]]:
    """The kernel basis and the image basis of the differential, each grouped
    by degree, from one `kernel_and_image`.  Every vector is homogeneous, and
    its degree is read at its lowest index."""
    kernel, image = kernel_and_image(differential)
    cycles: dict[int, list[Vector]] = {}
    bounds: dict[int, list[Vector]] = {}
    for grouped, vectors in ((cycles, kernel), (bounds, image)):
        for v in vectors:
            grouped.setdefault(degrees[min(v)], []).append(v)
    return cycles, bounds


def cohomology(f: FilteredPlusComplex,
               degrees: range | None = None) -> dict[int, Subquotient]:
    """Per-degree cohomology of a filtered complex F^k; that of (C, delta^0)
    is the cohomology of `build_filtered_plus(c, 0)`.

    Returns {degree: cycles/boundaries}, each a `Subquotient` whose `basis`
    holds deterministic representative cycles.  The cycles and boundaries
    of every degree come from one elimination of the differential.  A
    window of more than MAX_DEGREE_WINDOW degrees is refused before it.
    """
    if degrees is not None:
        check_degree_window(degrees)
    n = len(f.degrees)
    cycles, bounds = cycles_and_boundaries(f.differential, f.degrees)
    out: dict[int, Subquotient] = {}
    for d in sorted(cycles.keys() | bounds.keys()):
        if degrees is None or d in degrees:
            out[d] = Subquotient(n, cycles.get(d, []), bounds.get(d, []))
    if degrees is not None:
        # the window degrees without cycles or boundaries share one zero group
        missing = [d for d in degrees if d not in out]
        if missing:
            out.update(dict.fromkeys(missing, Subquotient(n, [], [])))
    return out


def induced_map(src: dict[int, Subquotient], dst: dict[int, Subquotient],
                d_src: int, d_dst: int, push: Callable[[Vector], Vector]) -> SparseMatrix:
    """Matrix of H^{d_src}(src) -> H^{d_dst}(dst) induced by the chain map
    `push`, in the deterministic bases; a degree missing from dst has no
    cohomology, so every image there must be zero.  ValueError when an image
    is not a cycle of dst, as when `push` is not a chain map."""
    grp = src.get(d_src)
    images = [push(rep) for rep in grp.basis] if grp else []
    tgt = dst.get(d_dst)
    if tgt is None:
        if any(images):
            raise ValueError("vector is not in Z: its degree has no cohomology")
        return SparseMatrix.zero(0, len(images))
    return tgt.coordinate_matrix(images)


# ---------------------------------------------------------------------------
# constructions


def truncate(c: S1Complex, new_truncation: int) -> S1Complex:
    """Forget the operators above a lower truncation level."""
    if new_truncation > c.truncation:
        raise TruncationError(f"truncation {new_truncation} exceeds the complex's "
                              f"{c.truncation}")
    return S1Complex(c.generators, new_truncation, c.deltas[: new_truncation + 1])


def shift(c: S1Complex, s: int = 1) -> S1Complex:
    """Degree shift C[s]: degrees drop by s, operators pick up the sign (-1)^s."""
    gens = tuple(Generator(g.name, g.degree - s) for g in c.generators)
    sign = -1 if s % 2 else 1
    deltas = tuple(d.scale(sign) for d in c.deltas)
    return S1Complex(gens, c.truncation, deltas)

