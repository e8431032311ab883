"""Test oracles and constructors that the package does not need.

Each is a plain reference that the tests build inputs with or compare the
package against: a sparse vector from a mapping, dense and per-row views
of a matrix, a slice of a matrix, the RREF as a matrix, a second
witness family for a leading term, and the semi-dilation route's H^0 of
the zero part and level system over every generator and every column; and
the benchmark's workload module, whose inputs the tests reuse.  The file name has no `test_` prefix, so
pytest does not collect it; the test modules import it by name.
"""

import importlib.util
import sys
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from pathlib import Path

from s1cochain import linalg
from s1cochain.complexes import cycles_and_boundaries, lift_degree
from s1cochain.dilation import SplitS1Complex
from s1cochain.linalg import SparseMatrix, Subquotient, Vector, as_q, solve, vadd
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
    rows, pivots = linalg._rref_rows(linalg._matrix_rows(m))
    ent = tuple((r, c, row[c]) for r, row in enumerate(rows) for c in sorted(row))
    return SparseMatrix(m.rows, m.cols, ent), tuple(pivots)


def perturbed_witness(t: FiltrationTower, w: WitnessedCycle, kernel_index: int = 0
                      ) -> WitnessedCycle:
    """Another witness family for the same leading term, if one exists.

    Adds a closed element of F^{level} with zero leading block, a closed
    vector of `t` below that level; used to test that Delta^k and Phi^k do
    not depend on the witness choice.  Those vectors are the same, in the
    same order, in every tower of level >= w.level.
    """
    t._check(w.level)
    candidates = [v for lv, v in t._closed if lv < w.level]
    if not candidates:
        return w
    extra = candidates[kernel_index % len(candidates)]
    return WitnessedCycle(w.level, vadd(w.chain, extra), w.n, boundary_value=w.boundary_value)


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
