"""Reeb-orbit combinatorics of Brieskorn links and Milnor-fiber model complexes.

For exponents a_0, ..., a_n (all >= 2) the periodic Reeb orbits of the
standard contact form on the link organize into families indexed by
principal periods: T is principal when T = lcm of exactly the exponents
dividing it and at least two of them divide it.  A family of total period
A = N*T (with T maximal under divisibility among principal divisors of A)
has parametrized dimension 2|I_T| - 3 and minimal Conley-Zehnder index

    2 sum_{i in I_T} NT/a_i + 2 sum_{i not in I_T} floor(NT/a_i)
      + (n+1) - 2|I_T| - 2NT + 2.

The helper f(T) evaluates the same expression for arbitrary T >= 1 with I_T
the full divisor set; it satisfies f(T+1) - f(T) = 2|I_T| - 2, which gives
cheap lower bounds on index growth.

`milnor_model(k, m)` builds the finite split complex computing the
equivariant theory of the degree-k Fermat affine hypersurface in m+1
variables at its first Reeb period: a unit e, (k-1)^{m+1} middle-dimensional
sphere classes with vanishing differentials, and hyperplane-power chain
pairs (p_check_j, p_hat_j) whose differentials are pinned by the circle
bundle Euler class and the two-point genus-zero Gromov-Witten number k!.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lcm

from .complexes import (
    MAX_FILTERED_DIM,
    MAX_GENERATORS,
    MAX_TRUNCATION,
    Generator,
    S1Complex,
)
from .dilation import SplitS1Complex, make_split_complex
from .linalg import SparseMatrix

# The largest total-period bound an orbit walk accepts: the walk and its
# family list grow linearly with the bound (about 1 s and 5 MB of `cz`
# output at 100,000 for 2,3,3,3).  It admits the default bound 110,880 of
# the one-dilation exponents (2, ..., n, n) up to n = 12.
MAX_PERIOD_BOUND = 120_000
# k pairwise coprime exponents have 2^k - k - 1 principal periods: about a
# second for the first 15 primes.  The one-dilation vectors up to n = 12 have 11.
MAX_DISTINCT_EXPONENTS = 15


@dataclass(frozen=True)
class BrieskornData:
    exponents: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.exponents) < 2:
            raise ValueError("need at least two exponents (n >= 1)")
        if any(a < 2 for a in self.exponents):
            raise ValueError("all exponents must be >= 2")
        distinct = len(set(self.exponents))
        if distinct > MAX_DISTINCT_EXPONENTS:
            raise ValueError(f"{distinct} distinct exponents exceed the limit {MAX_DISTINCT_EXPONENTS}")

    @property
    def n(self) -> int:
        """Complex dimension of the affine variety."""
        return len(self.exponents) - 1

    def divisor_indices(self, t: int) -> tuple[int, ...]:
        return tuple(i for i, a in enumerate(self.exponents) if t % a == 0)

    def kodaira_nonnegative(self) -> bool:
        """sum 1/a_i <= 1, the regime without any dilation."""
        return sum(Fraction(1, a) for a in self.exponents) <= 1


@dataclass(frozen=True)
class PrincipalPeriod:
    period: int
    indices: tuple[int, ...]


@dataclass(frozen=True)
class OrbitFamily:
    """A Morse-Bott family of Reeb orbits of total period N * T."""

    principal: PrincipalPeriod
    count: int                      # N, the multiple of the principal period

    @property
    def total_period(self) -> int:
        return self.count * self.principal.period

    @property
    def parametrized_dimension(self) -> int:
        return 2 * len(self.principal.indices) - 3


def principal_periods(exponents: tuple[int, ...] | list[int]) -> list[PrincipalPeriod]:
    """All principal periods, sorted by period.

    Candidates are the lcm values of exponent subsets (closed incrementally);
    each candidate T is kept when its full divisor set I_T regenerates T as
    an lcm and has at least two elements.
    """
    data = BrieskornData(tuple(exponents))
    lcms: set[int] = set()
    for a in data.exponents:
        lcms |= {a} | {lcm(a, t) for t in lcms}
    out = []
    for t in sorted(lcms):
        idx = data.divisor_indices(t)
        if len(idx) >= 2 and lcm(*(data.exponents[i] for i in idx)) == t:
            out.append(PrincipalPeriod(t, idx))
    return out


def min_cz(exponents: tuple[int, ...] | list[int], family: OrbitFamily) -> int:
    """Minimal Conley-Zehnder index in the family, an exact integer."""
    data = BrieskornData(tuple(exponents))
    a = data.exponents
    it = set(family.principal.indices)
    nt = family.total_period
    if any(nt % ai for i, ai in enumerate(a) if i in it):
        raise ValueError("family indices must divide the total period")
    return 2 * sum(nt // ai for ai in a) + (data.n + 1) - 2 * len(it) - 2 * nt + 2


def f_of_t(exponents: tuple[int, ...] | list[int], t: int) -> int:
    """The index-growth function 2 sum floor(T/a_i) + n + 3 - 2|I_T| - 2T.

    Here I_T is the full divisor set of T among the exponents, with no size
    restriction.
    """
    if t < 1:
        raise ValueError("T must be >= 1")
    data = BrieskornData(tuple(exponents))
    a = data.exponents
    return (2 * sum(t // ai for ai in a) + data.n + 3
            - 2 * len(data.divisor_indices(t)) - 2 * t)


def orbit_families(exponents: tuple[int, ...] | list[int],
                   period_bound: int) -> list[OrbitFamily]:
    """All families with total period <= bound.

    For a composite period A the families are indexed by the principal
    periods T maximal under divisibility among principal divisors of A.
    A bound above MAX_PERIOD_BOUND raises ValueError.
    """
    if period_bound > MAX_PERIOD_BOUND:
        raise ValueError(f"period bound {period_bound} exceeds the limit {MAX_PERIOD_BOUND}")
    periods = principal_periods(exponents)
    if not periods:
        return []
    by_period = {p.period: p for p in periods}
    out = []
    for a_tot in range(min(by_period), period_bound + 1):
        divisors = [t for t in by_period if a_tot % t == 0]
        maximal = [t for t in divisors
                   if not any(t2 != t and t2 % t == 0 for t2 in divisors)]
        for t in sorted(maximal):
            out.append(OrbitFamily(by_period[t], a_tot // t))
    return out


@dataclass(frozen=True)
class GlobalMinCz:
    minimum: int
    attained: OrbitFamily
    min_attained_at_minimal_period: bool
    period_bound: int
    families: tuple[tuple[OrbitFamily, int], ...]   # (family, its min_cz)


def global_min_cz(exponents: tuple[int, ...] | list[int],
                  period_bound: int | None = None) -> GlobalMinCz:
    """Minimal CZ index over all families with total period within the bound.

    The default bound is four times the largest principal period.  The
    returned flag records whether the minimum is attained at the minimal
    principal period; the statement is a bounded-period certificate.
    """
    periods = principal_periods(exponents)
    if not periods:
        raise ValueError("no principal period exists for these exponents")
    if period_bound is None:
        period_bound = 4 * max(p.period for p in periods)
    families = tuple((fam, min_cz(exponents, fam))
                     for fam in orbit_families(exponents, period_bound))
    if not families:
        raise ValueError("period bound below the minimal principal period")
    best_fam, best = min(families, key=lambda fv: fv[1])
    minimal_period = min(p.period for p in periods)
    at_min = any(v == best and fam.total_period == minimal_period for fam, v in families)
    return GlobalMinCz(best, best_fam, at_min, period_bound, families)


@dataclass(frozen=True)
class AdcCertificate:
    certified: bool
    period_bound: int
    sft_degrees: tuple[tuple[int, int, int], ...]  # (principal T, count N, degree)

    @property
    def minimal_sft_degree(self) -> int | None:
        return min((d for _, _, d in self.sft_degrees), default=None)


def is_adc_certified(exponents: tuple[int, ...] | list[int],
                     period_bound: int | None = None) -> AdcCertificate:
    """Positivity of all SFT degrees mu + n - 3 for periods within the bound.

    This is a bounded-period certificate of asymptotic dynamical convexity,
    not a proof: families beyond the bound are not inspected.  The families
    and the default bound are `global_min_cz`'s, which refuses a bound below
    the minimal principal period, where no family would be inspected.
    """
    n = BrieskornData(tuple(exponents)).n
    g = global_min_cz(exponents, period_bound)
    degs = tuple((fam.principal.period, fam.count, v + n - 3) for fam, v in g.families)
    return AdcCertificate(all(d > 0 for _, _, d in degs), g.period_bound, degs)


@dataclass(frozen=True)
class OrderPrediction:
    predicted_order: int | None
    mu_min: int
    period_bound: int
    min_attained_at_minimal_period: bool
    parity_ok: bool
    kodaira_obstruction: bool
    existence_assumed: bool = True


def predicted_order(exponents: tuple[int, ...] | list[int],
                    period_bound: int | None = None) -> OrderPrediction:
    """Predicted (semi-)dilation order (n - mu_min + 1)/2.

    The value is reported only when the minimal index is attained at the
    minimal period and the numerator is even and non-negative.  When
    sum 1/a_i <= 1 no dilation of any order exists, so the prediction is
    suppressed and the obstruction flagged.  The prediction always assumes a
    dilation exists at some order.
    """
    data = BrieskornData(tuple(exponents))
    g = global_min_cz(exponents, period_bound)
    numer = data.n - g.minimum + 1
    parity_ok = numer >= 0 and numer % 2 == 0
    kodaira = data.kodaira_nonnegative()
    value = None
    if g.min_attained_at_minimal_period and parity_ok and not kodaira:
        value = numer // 2
    return OrderPrediction(value, g.minimum, g.period_bound,
                           g.min_attained_at_minimal_period, parity_ok, kodaira)


# ---------------------------------------------------------------------------
# the Milnor-fiber model complex


def milnor_model(k: int, m: int, truncation: int | None = None,
                 include_spheres: bool = True) -> SplitS1Complex:
    """The split model complex of the degree-k Fermat hypersurface (m+1 vars).

    Requires 1 <= k <= m.  Zero part: the unit e in degree 0 plus
    (k-1)^{m+1} sphere classes of degree m with vanishing differentials
    (their two-point invariant is zero; `include_spheres=False` elides them,
    which changes no dilation rank).  Plus part: chain pairs p_check_j
    (degree 2k+2j-2m-1) and p_hat_j (degree 2k+2j-2m-2) for
    j = m-k, ..., m-1 with

        delta^0 p_check_j = p_hat_{j+1}            (j < m-1)
        delta^0 p_check_{m-k} += k! * e
        delta^1 p_check_j = p_hat_j,

    and delta^r = 0 for r >= 2.  The default truncation is 2k, enough for
    every structural map up to Delta^k.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > m:
        raise ValueError(f"monotonicity requires k <= m (got k={k}, m={m})")
    n_tr = 2 * k if truncation is None else truncation
    if n_tr < 0:
        raise ValueError("truncation must be non-negative")
    if n_tr > MAX_TRUNCATION:
        raise ValueError(f"truncation {n_tr} exceeds the limit {MAX_TRUNCATION}")
    n_spheres = 0
    if include_spheres:
        # (k-1)^(m+1).  Capping the exponent at the limit's bit length keeps
        # the power small and changes it only where it exceeds the limit.
        n_spheres = (k - 1) ** min(m + 1, MAX_GENERATORS.bit_length())
    n = 1 + n_spheres + 2 * k
    if n > MAX_GENERATORS:
        raise ValueError(f"milnor_model({k}, {m}) has more than {MAX_GENERATORS} "
                         f"generators, the limit")
    if (n_tr + 1) * n > MAX_FILTERED_DIM:
        raise ValueError(f"milnor_model({k}, {m}) at truncation {n_tr} has filtered "
                         f"dimension (N+1)*n = {(n_tr + 1) * n}, above the limit "
                         f"{MAX_FILTERED_DIM}")

    gens: list[Generator] = [Generator("e", 0)]
    zero_names = ["e"]
    if include_spheres:
        for s in range(n_spheres):
            name = f"s{s}"
            gens.append(Generator(name, m))
            zero_names.append(name)
    check_idx: dict[int, int] = {}
    hat_idx: dict[int, int] = {}
    for j in range(m - k, m):
        check_idx[j] = len(gens)
        gens.append(Generator(f"p{j}_check", 2 * k + 2 * j - 2 * m - 1))
        hat_idx[j] = len(gens)
        gens.append(Generator(f"p{j}_hat", 2 * k + 2 * j - 2 * m - 2))

    n = len(gens)
    e_index = 0
    d0_ent = []
    d1_ent = []
    for j in range(m - k, m):
        if j < m - 1:
            d0_ent.append((hat_idx[j + 1], check_idx[j], Fraction(1)))
        if j == m - k:
            d0_ent.append((e_index, check_idx[j], Fraction(factorial(k))))
        d1_ent.append((hat_idx[j], check_idx[j], Fraction(1)))
    deltas = [SparseMatrix.from_entries(n, n, d0_ent)]
    if n_tr >= 1:
        deltas.append(SparseMatrix.from_entries(n, n, d1_ent))
    deltas.extend(SparseMatrix.zero(n, n) for _ in range(n_tr - 1))

    cplx = S1Complex(tuple(gens), n_tr, tuple(deltas))
    return make_split_complex(cplx, zero_names, "e")


def milnor_unit_primitive(k: int, m: int) -> list[tuple[str, int, Fraction]]:
    """The explicit primitive of the unit at level k-1.

    The chain sum_{i=0}^{k-1} (-1)^i (1/k!) p_check_{m-k+i} u^-i, returned
    as (generator name, u-power, coefficient) triples; its total differential
    is exactly e.
    """
    out = []
    for i in range(k):
        coeff = Fraction((-1) ** i, factorial(k))
        out.append((f"p{m - k + i}_check", i, coeff))
    return out
