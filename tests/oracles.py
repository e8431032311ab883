"""Test oracles and constructors that the package does not need.

Each is a plain reference that the tests build inputs with or compare the
package against: a sparse vector from a mapping, dense and per-row views
of a matrix, a slice of a matrix, the RREF as a matrix, and a second
witness family for a leading term; and the benchmark's workload module,
whose inputs the tests reuse.  The file name has no `test_` prefix, so
pytest does not collect it; the test modules import it by name.
"""

import importlib.util
import sys
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from pathlib import Path

from s1cochain import linalg
from s1cochain.linalg import SparseMatrix, Vector, as_q, vadd
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
