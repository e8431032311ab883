"""Test oracles and constructors that the package does not need.

Each is a plain reference that the tests build inputs with or compare the
package against: a sparse vector from a mapping, dense and per-row views
of a matrix, a slice of a matrix, the RREF as a matrix, a second
witness family for a leading term, the filtration tower's choice of B
by a second elimination, the semi-dilation route's H^0 of the
zero part and level system over every generator and every column, the
tautological sequence checked vector by vector, and plain Gauss-Jordan
elimination in `linalg._echelon`'s place; and the benchmark's workload
module, whose inputs the tests reuse, with the seed-10 corpus documents
built once per session.  The file name has no `test_`
prefix, so pytest does not collect it; the test modules import it by
name.
"""

import importlib.util
import sys
from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from functools import cache
from math import gcd, lcm
from pathlib import Path

from s1cochain import linalg
from s1cochain.complexes import (
    build_filtered_plus,
    check_degree_window,
    cycles_and_boundaries,
    lift_degree,
    lift_family,
)
from s1cochain.dilation import LesNode, LesReport, SplitS1Complex
from s1cochain.io_json import loads
from s1cochain.linalg import SparseMatrix, Subquotient, Vector, as_q, pivot_columns, solve, vadd
from s1cochain.spectral import FiltrationTower, WitnessedCycle


def vec(entries: Mapping[int, object] | Iterable[tuple[int, object]] = ()) -> Vector:
    items = entries.items() if isinstance(entries, Mapping) else entries
    out: Vector = {}
    for i, x in items:
        q = as_q(x)
        if q:
            out[i] = out.get(i, Fraction(0)) + q
            if not out[i]:
                del out[i]
    return out


def to_dense(m: SparseMatrix) -> list[list[Fraction]]:
    out = [[Fraction(0)] * m.cols for _ in range(m.rows)]
    for r, c, v in m.entries:
        out[r][c] = v
    return out


def row_dicts(m: SparseMatrix) -> list[dict[int, Fraction]]:
    out: list[dict[int, Fraction]] = [dict() for _ in range(m.rows)]
    for r, c, v in m.entries:
        out[r][c] = v
    return out


def submatrix(m: SparseMatrix, row_indices: Sequence[int],
              col_indices: Sequence[int]) -> SparseMatrix:
    rpos = {idx: p for p, idx in enumerate(row_indices)}
    cpos = {idx: p for p, idx in enumerate(col_indices)}
    ent = [(rpos[r], cpos[c], v) for r, c, v in m.entries
           if r in rpos and c in cpos]
    return SparseMatrix.from_entries(len(row_indices), len(col_indices), ent)


def rref(m: SparseMatrix) -> tuple[SparseMatrix, tuple[int, ...]]:
    """Reduced row-echelon form with strictly increasing pivot columns.

    The RREF of a matrix is unique for its column order, so the output is a
    deterministic function of the input, whichever row supplies each pivot.
    Row r of the result is the r-th pivot row; the zero rows come last.
    """
    rows = linalg._matrix_rows(m)
    pivots, prows, pvals = linalg._rref_rows(rows)
    ent = []
    for r, (p, i, a) in enumerate(zip(pivots, prows, pvals)):
        row = {c: Fraction(v, a) for c, v in rows[i].items()}
        row[p] = Fraction(1)
        ent += [(r, c, row[c]) for c in sorted(row)]
    return SparseMatrix(m.rows, m.cols, tuple(ent)), tuple(pivots)


def perturbed_witness(t: FiltrationTower, w: WitnessedCycle, kernel_index: int = 0
                      ) -> WitnessedCycle:
    """Another witness family for the same leading term, if one exists.

    Adds a closed element of F^{level} with zero leading block, a closed
    vector of `t` below that level; used to test that Delta^k and Phi^k do
    not depend on the witness choice.  Those vectors are the same, in the
    same order, in every tower of level >= w.level.
    """
    t._check(w.level)
    candidates = [v for lv, v, _ in t._closed if lv < w.level]
    if not candidates:
        return w
    extra = candidates[kernel_index % len(candidates)]
    return WitnessedCycle(w.level, vadd(w.chain, extra), w.n, boundary_value=w.boundary_value)


def tower_exact_by_elimination(t: FiltrationTower) -> list[tuple[int, Vector, Vector]]:
    """The tower's (level, boundary value, primitive) list for B as a second
    elimination chooses it: the kernel of F^level's rows at positive
    u-power, in kernel_basis' order (each generator, then each closed
    vector below the top level raised one u-power), kept at the
    `pivot_columns` of its nonzero boundary values."""
    f = t.filtered
    d, n = f.differential, f.source.n
    one = Fraction(1)
    pairs = [(0, d.col(g), {g: one}) for g in range(n)]
    pairs += [(lv + 1, value, {i + n: x for i, x in v.items()})
              for lv, v, value in t._closed if value is not None]
    pairs = [p for p in pairs if p[1]]
    return [pairs[i] for i in pivot_columns([p[1] for p in pairs], n)]


def whole_zero_part_h0(s: SplitS1Complex, k: int) -> Subquotient:
    """`dilation._zero_part_h0` from one elimination of C_0's whole delta^0:
    every generator enters, and an inert generator's cycle {g: 1} is
    dropped after the elimination, when its lowest index is inert."""
    n0, inert = s.zero_part.n, s.inert_zero
    cycles, bounds = cycles_and_boundaries(s.zero_part.deltas[0], s.zero_part.degrees)
    z_gens: list[Vector] = [s.unit_zero]
    b_gens: list[Vector] = []
    for d in sorted(cycles.keys() | bounds.keys()):
        p, odd = divmod(d, 2)
        if odd or not 0 <= p <= k:
            continue
        at = p * n0
        z_gens += [{at + i: x for i, x in z.items()}
                   for z in cycles.get(d, ()) if min(z) not in inert]
        b_gens += [{at + i: x for i, x in b.items()} for b in bounds.get(d, ())]
    h0 = Subquotient((k + 1) * n0, z_gens, b_gens)
    if h0.rank_z != len(z_gens) - 1:
        raise ValueError("unit chain is not closed")
    if h0.basis_sources[:1] != (0,):
        raise ValueError("unit class vanishes in H^0 of the zero part")
    return h0


def whole_solve_semidilation(s: SplitS1Complex, k: int, h0: Subquotient, by_power: bool
                             ) -> tuple[Vector, int] | None:
    """`dilation._solve_semidilation` over every column [A | w | c]: every
    A and w index of F^k(C_+) and F^k(C_0), whatever its degree, then the
    complement; `by_power` sorts them stably by u-power."""
    cp, cz = s.plus_part, s.zero_part
    n_plus, n_zero = cp.n, cz.n
    na, nw = (k + 1) * n_plus, (k + 1) * n_zero
    rest = [z for z in h0.basis[1:] if min(z) < nw]
    powers = ([j // n_plus for j in range(na)] + [j // n_zero for j in range(nw)]
              + [min(z) // n_zero for z in rest])
    order = sorted(range(len(powers)), key=powers.__getitem__) if by_power else range(len(powers))
    col = {j: t for t, j in enumerate(order)}

    ent = [(i, col[j], v) for i, j, v in lift_degree(cp.deltas, k, cp.degrees, -1).entries]
    ent += [(na + i, col[j], v)
            for i, j, v in lift_degree(s.connecting, k, cp.degrees, -1).entries]
    ent += [(na + i, col[na + j], -v)
            for i, j, v in lift_degree(cz.deltas, k, cz.degrees, -1).entries]
    ent += [(na + i, col[na + nw + jj], -v) for jj, z in enumerate(rest)
            for i, v in z.items()]
    system = SparseMatrix.from_entries(na + nw, len(col), ent)
    sol = solve(system, {na + i: x for i, x in s.unit_zero.items()})
    if sol is None:
        return None
    unknowns = {order[t]: x for t, x in sol.items()}
    return {j: x for j, x in unknowns.items() if j < na}, max(powers[j] for j in unknowns)


def _checked_homology(differential: SparseMatrix, degrees: tuple[int, ...]
                      ) -> tuple[dict[int, list[Vector]], list[Vector], dict[int, int]]:
    """Cycles by degree, the boundary basis and dim H^d, with every
    boundary checked to be a cycle by a mat-vec."""
    cycles, bounds = cycles_and_boundaries(differential, degrees)
    image = [b for bs in bounds.values() for b in bs]
    for b in image:
        if differential.apply(b):
            raise ValueError("a boundary is not a cycle: the differential does not square to zero")
    dims = {d: len(cycles.get(d, ())) - len(bounds.get(d, ()))
            for d in sorted(cycles.keys() | bounds.keys())}
    return cycles, image, dims


def _checked_ranks(cycles, push, differential, degrees, bounds, raise_by) -> Counter:
    """Source degree d -> rank of the induced map on H^d, with every pushed
    cycle checked to be a cycle of the target in degree d + raise_by."""
    images, source_degree = [], []
    for d, zs in cycles.items():
        for z in zs:
            v = push(z)
            if v and (differential.apply(v) or any(degrees[i] != d + raise_by for i in v)):
                raise ValueError(f"a degree-{d} cycle maps to no cycle of degree {d + raise_by}")
            images.append(v)
            source_degree.append(d)
    nb = len(bounds)
    return Counter(source_degree[p - nb] for p in pivot_columns([*bounds, *images], len(degrees))
                   if p >= nb)


def les_with_vector_checks(s: SplitS1Complex, degrees: range | None = None) -> LesReport:
    """`dilation.tautological_les` that checks each fact on the vectors
    instead of on the operators: a mat-vec shows every boundary of F^N(C_0),
    F^N(C) and F^N(C_+) a cycle, and every pushed cycle a cycle of its
    target in the right degree.  ValueError when one is not."""
    if degrees is not None:
        check_degree_window(degrees)
    if s.outside:
        raise ValueError("not a split complex")
    n_tr = s.truncation
    f_zero, f_plus = (build_filtered_plus(x, n_tr) for x in (s.zero_part, s.plus_part))
    conn = lift_family(s.connecting, n_tr)
    d_zero, d_plus = f_zero.differential, f_plus.differential
    nz, deg_full = d_zero.rows, f_zero.degrees + f_plus.degrees
    d_full = SparseMatrix.from_entries(len(deg_full), len(deg_full), [
        *d_zero.entries, *((i, nz + j, v) for i, j, v in conn.entries),
        *((nz + i, nz + j, v) for i, j, v in d_plus.entries)])
    cyc_zero, b_zero, dims_zero = _checked_homology(d_zero, f_zero.degrees)
    cyc_full, b_full, dims_full = _checked_homology(d_full, deg_full)
    cyc_plus, b_plus, dims_plus = _checked_homology(d_plus, f_plus.degrees)
    if degrees is None:
        all_deg = sorted(dims_full.keys() | dims_zero.keys() | dims_plus.keys())
        degrees = range(min(all_deg), max(all_deg) + 2) if all_deg else range(0, 1)
        check_degree_window(degrees)

    def project(v: Vector) -> Vector:
        return {i - nz: x for i, x in v.items() if i >= nz}

    r_iota = _checked_ranks(cyc_zero, dict, d_full, deg_full, b_full, 0)
    r_pi = _checked_ranks(cyc_full, project, d_plus, f_plus.degrees, b_plus, 0)
    r_conn = _checked_ranks(cyc_plus, conn.apply, d_zero, f_zero.degrees, b_zero, 1)
    nodes = []
    for d in degrees:
        nodes.append(LesNode(d, "full", r_iota[d], dims_full.get(d, 0) - r_pi[d]))
        nodes.append(LesNode(d, "plus", r_pi[d], dims_plus.get(d, 0) - r_conn[d]))
        nodes.append(LesNode(d, "zero", r_conn[d - 1], dims_zero.get(d, 0) - r_iota[d]))
    return LesReport(n_tr, dims_zero, dims_full, dims_plus, tuple(nodes))


def oracle_rref_rows(rows: list[dict[int, Fraction]], cols: int
                     ) -> tuple[list[dict[int, Fraction]], list[int]]:
    """Plain leftmost-column, first-row Gauss-Jordan elimination of the
    rows, in place: the RREF rows, pivot rows first, and the pivots."""
    pivots = []
    r = 0
    nrows = len(rows)
    for c in range(cols):
        piv = None
        for i in range(r, nrows):
            if c in rows[i]:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        prow = rows[r]
        pval = prow[c]
        if pval != 1:
            inv = Fraction(1) / pval
            for k in prow:
                prow[k] *= inv
        for i in range(nrows):
            if i == r:
                continue
            row = rows[i]
            f = row.get(c)
            if f is None:
                continue
            for k, v in prow.items():
                s = row.get(k, Fraction(0)) - f * v
                if s:
                    row[k] = s
                else:
                    row.pop(k, None)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def _primitive(row: dict[int, Fraction]) -> dict[int, int]:
    """The primitive integer row on the line of a rational row."""
    d = lcm(*(x.denominator for x in row.values()))
    out = {k: int(x * d) for k, x in row.items() if x}
    g = gcd(*out.values())
    return {k: v // g for k, v in out.items()}


def oracle_echelon(rows: list[dict[int, int]]) -> tuple[list[int], list[int], list[int]]:
    """The oracle in the forward kernel's place: Gauss-Jordan over Fraction
    copies of the integer rows, written back as the kernel leaves them,
    primitive and with each pivot entry set aside as the pivot value.  The
    rows are then already reduced, so the back-substitution finds nothing
    to clear."""
    cols = 1 + max((k for row in rows for k in row), default=-1)
    reduced, pivots = oracle_rref_rows([{k: Fraction(v) for k, v in row.items()} for row in rows],
                                       cols)
    rows[:] = [_primitive(row) for row in reduced]
    pvals = [rows[r].pop(c) for r, c in enumerate(pivots)]
    return pivots, list(range(len(pivots))), pvals


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def perfbench_workloads():
    """`perfbench/workloads.py`, imported once and only read."""
    name = "perfbench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, PERFBENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # dataclasses look their module up while defined
        spec.loader.exec_module(module)
    return sys.modules[name]


@cache
def corpus_documents() -> tuple[str, ...]:
    """The documents of the benchmark's 215 seed-10 `random_corpus` inputs,
    built once per session; strings, so no caller can change them."""
    W = perfbench_workloads()
    _, inputs = W.setup("random_corpus", W.DEFAULT_SEED)
    return tuple(inputs.documents)


def corpus_splits() -> list[SplitS1Complex]:
    """The benchmark's 215 seed-10 `random_corpus` inputs, each caller
    reading its own complexes from the documents, so that no patched or
    counting test shares one."""
    return [loads(text) for text in corpus_documents()]
