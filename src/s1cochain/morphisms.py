"""Morphisms and homotopies of truncated circle-equivariant complexes.

A morphism between N-truncated complexes (C, delta) and (D, partial) is a
family phi^0, ..., phi^N with phi^r of degree -2r satisfying

    sum_{i+j=k} phi^i . delta^j - partial^j . phi^i = 0      (k <= N),

and a homotopy between phi and psi is a family h^r of degree -2r-1 with

    phi^k - psi^k = sum_{i+j=k} h^i . delta^j + partial^j . h^i.

When the target carries no higher operators, the higher components of phi
descend to quotient maps

    Phi^k : Z_k/B_0 -> coker Phi^{k-1},
    Phi^k(alpha_0) = sum_{i=0}^k phi^i(alpha_{k-i}),

computed here with deterministic witness choices.

Both relations and the composite (phi . psi)^k = sum_{i+j=k} phi^i psi^j
are degree-k parts of products of families, `complexes.family_product`.
A homotopy is checked through its deformation: phi - (h delta + partial h)
must equal psi.  Both checks return the `S1ValidationReport` of a complex,
which names the entries of each failed relation and degree shift, and words
its lines for phi^r (shift -2r) and h^r (shift -1-2r).  Phi^k
and Delta^k evaluate a witness the same way, `WitnessedCycle.value`, and
take their domains and witnesses from `FiltrationTower.quotients`.  The
functoriality square moves a witness's chain by the lifted morphism, which
gives the target's witness as a chain of F^{k-1} directly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import (
    EntryCheck,
    S1Complex,
    S1ValidationReport,
    TruncationError,
    build_filtered_plus,
    cohomology,
    family_product,
    induced_map,
    lift_family,
)
from .linalg import (
    SparseMatrix,
    Subquotient,
    Vector,
    kernel_and_image,
    span_leq,
    vsub,
)
from .spectral import (
    FiltrationTower,
    QuotientMap,
    WitnessedCycle,
    delta_value,
    filtration_tower,
)


@dataclass(frozen=True)
class S1Morphism:
    source: S1Complex
    target: S1Complex
    phis: tuple[SparseMatrix, ...]

    def __post_init__(self) -> None:
        if self.source.truncation != self.target.truncation:
            raise TruncationError("morphisms require equal truncations; truncate first")
        if len(self.phis) != self.source.truncation + 1:
            raise ValueError("need exactly truncation+1 component matrices")
        for m in self.phis:
            if (m.rows, m.cols) != (self.target.n, self.source.n):
                raise ValueError("component matrix shape mismatch")

    @property
    def truncation(self) -> int:
        return self.source.truncation


@dataclass(frozen=True)
class S1Homotopy:
    between: tuple[S1Morphism, S1Morphism]
    hs: tuple[SparseMatrix, ...]

    def __post_init__(self) -> None:
        a, b = self.between
        if a.source != b.source or a.target != b.target:
            raise ValueError("homotopy endpoints must share source and target")
        if len(self.hs) != a.truncation + 1:
            raise ValueError("need exactly truncation+1 homotopy matrices")
        for m in self.hs:
            if (m.rows, m.cols) != (a.target.n, a.source.n):
                raise ValueError("homotopy matrix shape mismatch")


def identity_morphism(c: S1Complex) -> S1Morphism:
    eye = SparseMatrix.identity(c.n)
    zero = SparseMatrix.zero(c.n, c.n)
    return S1Morphism(c, c, (eye,) + (zero,) * c.truncation)


def zero_morphism(source: S1Complex, target: S1Complex) -> S1Morphism:
    z = SparseMatrix.zero(target.n, source.n)
    return S1Morphism(source, target, (z,) * (source.truncation + 1))


# ---------------------------------------------------------------------------
# verification


def verify_morphism(phi: S1Morphism) -> S1ValidationReport:
    src, dst = phi.source, phi.target
    checks = tuple(
        EntryCheck.relation(k, family_product(phi.phis, src.deltas, k)
                            - family_product(dst.deltas, phi.phis, k), src, dst)
        for k in range(phi.truncation + 1))
    return S1ValidationReport(checks, EntryCheck.shifts(phi.phis, src, dst, 0),
                              "phi", "-2r", "sum_(i+j={k}) phi^i delta^j - partial^j phi^i = 0")


def verify_homotopy(h: S1Homotopy) -> S1ValidationReport:
    """The residual of phi - psi = h delta + partial h is the deformation of
    phi by h minus psi."""
    phi, psi = h.between
    src, dst = phi.source, phi.target
    deformed, _ = homotopy_deformation(phi, h.hs)
    checks = tuple(EntryCheck.relation(k, deformed.phis[k] - psi.phis[k], src, dst)
                   for k in range(phi.truncation + 1))
    return S1ValidationReport(checks, EntryCheck.shifts(h.hs, src, dst, -1), "h", "-1-2r",
                              "phi^{k} - psi^{k} = sum_(i+j={k}) h^i delta^j + partial^j h^i")


def compose(outer: S1Morphism, inner: S1Morphism) -> S1Morphism:
    """(outer . inner)^k = sum_{i+j=k} outer^i . inner^j."""
    if inner.target != outer.source:
        raise ValueError("composition mismatch: target(inner) != source(outer)")
    phis = tuple(family_product(outer.phis, inner.phis, k)
                 for k in range(inner.truncation + 1))
    return S1Morphism(inner.source, outer.target, phis)


def homotopy_deformation(phi: S1Morphism, hs: tuple[SparseMatrix, ...]) -> tuple[S1Morphism, S1Homotopy]:
    """The morphism phi - (h delta + partial h), homotopic to phi via h."""
    src, dst = phi.source, phi.target
    new = tuple(phi.phis[k] - family_product(hs, src.deltas, k) - family_product(dst.deltas, hs, k)
                for k in range(phi.truncation + 1))
    psi = S1Morphism(src, dst, new)
    return psi, S1Homotopy((phi, psi), hs)


# ---------------------------------------------------------------------------
# the assembled map on filtered complexes


def induced_cohomology_map(phi: S1Morphism, level: int) -> dict[int, SparseMatrix]:
    """Matrices of [phi_S1] on H(F^level) in the deterministic bases, phi_S1
    being `lift_family(phi.phis, level)`."""
    mat = lift_family(phi.phis, level)
    hs = cohomology(build_filtered_plus(phi.source, level))
    # an endomorphism has one complex, so one cohomology
    ht = hs if phi.target == phi.source else cohomology(build_filtered_plus(phi.target, level))
    return {d: induced_map(hs, ht, d, d, mat.apply) for d in hs}


# ---------------------------------------------------------------------------
# Phi^k for targets with trivial higher structure


def _require_trivial_target(phi: S1Morphism) -> None:
    for r in range(1, phi.truncation + 1):
        if not phi.target.deltas[r].is_zero():
            raise ValueError("target must have trivial higher structure for Phi^k")


def phi_value(phi: S1Morphism, w: WitnessedCycle) -> Vector:
    """Chain-level Phi^k of a Z_k witness: sum_{i=0}^k phi^i(alpha_{k-i})."""
    return w.value(phi.phis, w.level)


def phi_k(phi: S1Morphism, k: int) -> QuotientMap:
    """Phi^k : Z_k/B_0 (source) -> H(target) / (im Phi^0 + ... + im Phi^{k-1});
    requires 2k <= truncation and a plain target."""
    if k < 0:
        raise ValueError("Phi^k is defined for k >= 0")
    _require_trivial_target(phi)
    if 2 * k > phi.truncation:
        raise TruncationError(f"Phi^{k} needs truncation >= {2 * k}")
    src, dst = phi.source, phi.target
    t = filtration_tower(src, k)
    cycles, cum = kernel_and_image(dst.deltas[0])
    for j in range(k):
        for w in t.z(j):
            cum.append(phi_value(phi, w))
    [(dom, dom_wits)] = t.quotients(k, [t.b_vectors(0)])
    cod = Subquotient(dst.n, cycles, cum)
    mat = cod.coordinate_matrix([phi_value(phi, w) for w in dom_wits])
    return QuotientMap(k, dom, cod, mat, dom_wits)


# ---------------------------------------------------------------------------
# functoriality of the filtration spaces


@dataclass(frozen=True)
class FunctorialityReport:
    z_containments: tuple[tuple[int, bool], ...]
    b_containments: tuple[tuple[int, bool], ...]
    squares: tuple[tuple[int, bool], ...]

    @property
    def valid(self) -> bool:
        return (all(ok for _, ok in self.z_containments)
                and all(ok for _, ok in self.b_containments)
                and all(ok for _, ok in self.squares))


def verify_functoriality(phi: S1Morphism) -> FunctorialityReport:
    """phi^0 preserves Z_k and B_k, and commutes with Delta^k (2k <= N).

    Containments and squares are span inclusions (rank identities).  The
    square at k commutes when every phi^0(Delta^k alpha) - Delta^k(phi^0 alpha)
    lies in span B_{k-1}(target), the zero class of Z_0/B_{k-1}: B_{k-1} lies
    in Z_0 when the target's relations hold, and a target whose boundary
    values are not delta^0-closed raises ValueError.  The target witness is
    transported by the assembled filtered morphism, lifted once at the top
    level: the lift never raises the u-power, so on a witness of level k-1
    it acts as the lift at level k-1.
    """
    src, dst = phi.source, phi.target
    phi0 = phi.phis[0]
    level = phi.truncation // 2
    ts = filtration_tower(src, level)
    td = ts if dst == src else filtration_tower(dst, level)
    if level >= 1 and any(dst.deltas[0].apply(b) for b in td.b_vectors(level - 1)):
        raise ValueError("the target's relations fail: a boundary value is not "
                         "delta^0-closed")
    fmat = lift_family(phi.phis, level)
    z_cont, b_cont, squares = [], [], []
    for k in range(0, level + 1):
        z_cont.append((k, span_leq([phi0.apply(v) for v in ts.z_vectors(k)],
                                   td.z_vectors(k), dst.n)))
        b_cont.append((k, span_leq([phi0.apply(v) for v in ts.b_vectors(k)],
                                   td.b_vectors(k), dst.n)))
        if k >= 1:
            squares.append((k, _delta_square_commutes(phi, k, ts, td, fmat)))
    return FunctorialityReport(tuple(z_cont), tuple(b_cont), tuple(squares))


def _delta_square_commutes(phi: S1Morphism, k: int, ts: FiltrationTower,
                           td: FiltrationTower, fmat: SparseMatrix) -> bool:
    src, dst = phi.source, phi.target
    phi0 = phi.phis[0]
    diffs = []
    for w in ts.z(k - 1):
        left = phi0.apply(delta_value(src, w))
        right = delta_value(dst, WitnessedCycle(k - 1, fmat.apply(w.chain), dst.n))
        diffs.append(vsub(left, right))
    return span_leq(diffs, td.b_vectors(k - 1), dst.n)
