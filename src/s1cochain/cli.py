"""Command-line front end.

Results go to standard output as JSON; diagnostics go to standard error.
Exit codes: 0 success, 1 property failure, 2 input error.  Complex documents
are read from a file argument, with `-` (the default) meaning standard
input, so commands compose in pipes:

    s1cochain milnor --k 2 --m 2 | s1cochain dilation --max-k 3
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager

import click

from . import brieskorn as bk
from .complexes import (
    MAX_TRUNCATION,
    build_filtered_plus,
    check_degree_window,
    cohomology,
    truncate,
    verify_s1_relations,
)
from .dilation import (
    SplitS1Complex,
    order_of_dilation,
    order_of_semidilation,
    tautological_les,
    verify_splitting,
)
from .io_json import (
    chain_terms,
    dumps,
    filtered_chain_terms,
    loads,
)
from .spectral import delta_k, filtration_tower, leray_pages
from .tensor import tensor_split

EXIT_PROPERTY_FAILURE = 1
EXIT_INPUT_ERROR = 2

# The largest n `reproduce corollary-1dilation` accepts: its period scan
# grows like an lcm of 2, ..., n, taking about 5 s at n = 12 and 68 s at 13.
MAX_ONE_DILATION_N = 12


def _emit(data) -> None:
    click.echo(json.dumps(data, indent=2, sort_keys=True))


def _diag(message: str) -> None:
    click.echo(message, err=True)


def _write_output(text: str, output: str) -> None:
    """Write a document to the file `output`, or to standard output for `-`."""
    if output == "-":
        click.echo(text, nl=False)
        return
    try:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        _diag(f"cannot write {output}: {exc}")
        raise SystemExit(EXIT_INPUT_ERROR)
    _diag(f"wrote {output}")


@contextmanager
def _refused(prefix: str = ""):
    """Exit 2 with `prefix` and the message when the library refuses an
    input by raising ValueError (a DocumentError or TruncationError too)."""
    try:
        yield
    except ValueError as exc:
        _diag(prefix + str(exc))
        raise SystemExit(EXIT_INPUT_ERROR) from None


def _read_document(path: str) -> SplitS1Complex:
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeError) as exc:
        _diag(f"cannot read {path}: {exc}")
        raise SystemExit(EXIT_INPUT_ERROR)
    with _refused("parse error at "):
        return loads(text)


def _load_valid(path: str) -> SplitS1Complex:
    s = _read_document(path)
    rel = verify_s1_relations(s.complex)
    spl = verify_splitting(s)
    if not rel.valid or not spl.valid:
        _diag("document parsed but the complex is not valid:")
        for line in rel.violations() + spl.violations():
            _diag("  " + line)
        raise SystemExit(EXIT_PROPERTY_FAILURE)
    return s


def _window(ctx: click.Context, param: click.Parameter, text: str | None) -> range | None:
    """Parse a LO..HI option into a range.  A malformed, empty (HI < LO) or
    overlong window is refused with exit 2, and click names the option in
    the message."""
    if text is None:
        return None
    try:
        lo, hi = text.split("..")
        window = range(int(lo), int(hi) + 1)
    except ValueError:
        raise click.BadParameter(f"bad window {text!r}; expected LO..HI") from None
    if not window:
        raise click.BadParameter(f"empty window {text!r}: HI is below LO")
    try:
        check_degree_window(window)
    except ValueError as exc:
        raise click.BadParameter(str(exc)) from None
    return window


def _parse_exponents(text: str) -> list[int]:
    with _refused(f"bad exponent list {text!r}: "):
        exps = [int(x) for x in text.split(",")]
        bk.BrieskornData(tuple(exps))
        return exps


def _bounded(fn, exps: list[int], bound: int | None):
    """fn(exps, bound), exiting 2 when fn rejects the bound, explicit or
    default, such as one below the minimal principal period or one above
    MAX_PERIOD_BOUND."""
    with _refused(f"--bound {'(default)' if bound is None else bound}: "):
        return fn(exps, bound)


@click.group()
def main() -> None:
    """Exact calculus of truncated circle-equivariant cochain complexes."""


@main.command()
@click.argument("file", default="-")
def check(file: str) -> None:
    """Validate a complex document; exit 0 valid, 1 invalid, 2 parse error."""
    s = _read_document(file)
    rel = verify_s1_relations(s.complex)
    spl = verify_splitting(s)
    report = {
        "valid": rel.valid and spl.valid,
        "relations": [
            {"k": c.order, "ok": c.ok,
             "violations": [{"from": f, "to": t, "residual": str(v)}
                            for f, t, v in c.entries]}
            for c in rel.relation_checks],
        "degree_shifts": [
            {"r": c.order, "ok": c.ok,
             "violations": [{"from": f, "to": t} for f, t in c.entries]}
            for c in rel.degree_checks],
        "splitting": {"ok": spl.valid, "violations": spl.violations()},
    }
    _emit(report)
    if not report["valid"]:
        raise SystemExit(EXIT_PROPERTY_FAILURE)


@main.command("cohomology")
@click.argument("file", default="-")
@click.option("--level", type=int, default=0, show_default=True,
              help="Filtration level k: cohomology of F^k.")
@click.option("--degrees", "window", type=str, default=None, callback=_window,
              help="Degree window LO..HI.")
def cohomology_cmd(file: str, level: int, window: range | None) -> None:
    """Per-degree cohomology dimensions and representative cycles."""
    s = _load_valid(file)
    with _refused("--level: "):
        f = build_filtered_plus(s.complex, level)
    groups = cohomology(f, window)
    out = {}
    for d, g in sorted(groups.items()):
        out[str(d)] = {
            "dim": g.dim,
            "representatives": [filtered_chain_terms(s.complex, rep)
                                for rep in g.basis],
        }
    _emit({"level": level, "cohomology": out})


@main.command()
@click.argument("file", default="-")
@click.option("--k", "k", type=int, required=True)
def zb(file: str, k: int) -> None:
    """Dimensions and witnesses of the filtration spaces Z_k and B_k."""
    s = _load_valid(file)
    c = s.complex
    with _refused("--k: "):
        tower = filtration_tower(c, k)
    zs = tower.z(k)
    bs = tower.b(k)
    _emit({
        "k": k,
        "z_dim": len(zs),
        "b_dim": len(bs),
        "z_generators": [{
            "leading": chain_terms(c, w.leading),
            "witness": filtered_chain_terms(c, w.chain),
        } for w in zs],
        "b_generators": [{
            "value": chain_terms(c, w.boundary_value or {}),
            "primitive": filtered_chain_terms(c, w.chain),
        } for w in bs],
    })


@main.command("delta")
@click.argument("file", default="-")
@click.option("--k", "k", type=int, required=True)
def delta_cmd(file: str, k: int) -> None:
    """The structural map Delta^k with kernel/image/cokernel dimensions."""
    s = _load_valid(file)
    with _refused("--k: "):
        dk = delta_k(s.complex, k)
    _emit({
        "k": k,
        "domain_dim": dk.domain.dim,
        "codomain_dim": dk.codomain.dim,
        "matrix": [{"row": i, "col": j, "coeff": str(v)}
                   for i, j, v in dk.matrix.entries],
        "kernel_dim": dk.kernel_dim,
        "rank": dk.rank,
        "cokernel_dim": dk.coker_dim,
    })


@main.command()
@click.argument("file", default="-")
@click.option("--n", "--N", "level", type=click.IntRange(0), default=None,
              help="Truncation to use (defaults to the document's).")
def pages(file: str, level: int | None) -> None:
    """All Leray pages of the u-power filtration."""
    s = _load_valid(file)
    c = s.complex
    if level is not None:
        with _refused("--n: "):
            c = truncate(c, level)
    out = []
    for k, page in enumerate(leray_pages(c)):
        entry = {
            "page": page.page_number,
            "columns": [{
                "u_power": col.u_power,
                "dims_by_total_degree": {
                    str(d): m for d, m in
                    sorted(col.dims_by_total_degree(c.degrees).items())},
            } for col in page.columns],
            "total_dims_by_degree": {
                str(d): m for d, m in page.dims_by_total_degree(c.degrees).items()},
        }
        if page.differentials:
            entry["differentials"] = [{
                "from_column": i + k + 1,
                "to_column": i,
                "matrix": [{"row": r, "col": cc, "coeff": str(v)}
                           for r, cc, v in mat.entries],
            } for i, mat in sorted(page.differentials.items())]
        out.append(entry)
    _emit({"truncation": c.truncation, "pages": out})


def _dilation_common(file: str, max_k: int | None, semi: bool) -> None:
    s = _load_valid(file)
    scan = order_of_semidilation if semi else order_of_dilation
    report = scan(s, max_k=max_k)
    payload = {
        "kind": report.kind,
        "truncation": report.truncation,
        "max_k": s.truncation if max_k is None else min(max_k, s.truncation),
        "order": report.order,
        "found": report.found,
    }
    if report.found and report.witness is not None:
        if semi:
            payload["witness"] = {"closed_class": filtered_chain_terms(s.plus_part, report.witness)}
        else:
            payload["witness"] = {"primitive": filtered_chain_terms(s.complex, report.witness)}
    _emit(payload)


@main.command()
@click.argument("file", default="-")
@click.option("--max-k", type=click.IntRange(0), default=None, help="Scan bound (defaults to N).")
def dilation(file: str, max_k: int | None) -> None:
    """Order of dilation: minimal k with the unit exact in F^k."""
    _dilation_common(file, max_k, semi=False)


@main.command()
@click.argument("file", default="-")
@click.option("--max-k", type=click.IntRange(0), default=None, help="Scan bound (defaults to N).")
def semidilation(file: str, max_k: int | None) -> None:
    """Order of semi-dilation: minimal k reaching the unit through pi_0."""
    _dilation_common(file, max_k, semi=True)


@main.command()
@click.argument("file", default="-")
@click.option("--degrees", "window", type=str, default=None, callback=_window,
              help="Degree window LO..HI.")
def les(file: str, window: range | None) -> None:
    """Exactness report for the tautological long exact sequence."""
    s = _load_valid(file)
    with _refused():
        report = tautological_les(s, window)
    _emit({
        "level": report.level,
        "exact": report.exact,
        "dims": {
            "zero": {str(d): m for d, m in report.dims_zero.items()},
            "full": {str(d): m for d, m in report.dims_full.items()},
            "plus": {str(d): m for d, m in report.dims_plus.items()},
        },
        "nodes": [{
            "degree": n.degree, "position": n.position,
            "incoming_rank": n.incoming_rank, "kernel_dim": n.kernel_dim,
            "exact": n.exact,
        } for n in report.nodes],
    })
    if not report.exact:
        raise SystemExit(EXIT_PROPERTY_FAILURE)


@main.command("tensor")
@click.argument("file_a")
@click.argument("file_b")
@click.option("-o", "--output", type=str, default="-")
def tensor_cmd(file_a: str, file_b: str, output: str) -> None:
    """Koszul tensor product of two split complexes."""
    a = _load_valid(file_a)
    b = _load_valid(file_b)
    with _refused():
        prod = tensor_split(a, b)
    _write_output(dumps(prod), output)


@main.command()
@click.option("--k", "k", type=int, required=True)
@click.option("--m", "m", type=int, required=True)
@click.option("--truncation", type=int, default=None,
              help="Operator truncation (default 2k).")
@click.option("--spheres/--no-spheres", default=True, show_default=True,
              help="Include the middle-dimensional sphere classes "
                   "(they never change a dilation rank).")
@click.option("-o", "--output", type=str, default="-")
def milnor(k: int, m: int, truncation: int | None, spheres: bool, output: str) -> None:
    """The split model complex of the degree-k Fermat hypersurface."""
    with _refused():
        s = bk.milnor_model(k, m, truncation=truncation, include_spheres=spheres)
    _write_output(dumps(s), output)


# ---------------------------------------------------------------------------
# brieskorn subcommands


@main.group()
def brieskorn() -> None:
    """Reeb-orbit combinatorics of Brieskorn links."""


@brieskorn.command()
@click.argument("exponents")
def periods(exponents: str) -> None:
    """Principal periods of the exponent vector (comma-separated)."""
    exps = _parse_exponents(exponents)
    _emit({"exponents": exps,
           "principal_periods": [
               {"period": p.period, "indices": list(p.indices)}
               for p in bk.principal_periods(exps)]})


@brieskorn.command()
@click.argument("exponents")
@click.option("--bound", type=click.IntRange(1), default=None,
              help="Total-period bound (default: 4x the largest principal period).")
def cz(exponents: str, bound: int | None) -> None:
    """Minimal Conley-Zehnder indices of all orbit families within a bound."""
    exps = _parse_exponents(exponents)
    g = _bounded(bk.global_min_cz, exps, bound)
    _emit({
        "exponents": exps,
        "period_bound": g.period_bound,
        "families": [{
            "principal_period": f.principal.period,
            "count": f.count,
            "total_period": f.total_period,
            "parametrized_dimension": f.parametrized_dimension,
            "min_cz": v,
        } for f, v in g.families],
        "global_min_cz": g.minimum,
        "attained_at_total_period": g.attained.total_period,
        "min_attained_at_minimal_period": g.min_attained_at_minimal_period,
    })


@brieskorn.command()
@click.argument("exponents")
@click.option("--bound", type=click.IntRange(1), default=None)
def adc(exponents: str, bound: int | None) -> None:
    """Bounded-period certificate of positive SFT degrees."""
    exps = _parse_exponents(exponents)
    cert = _bounded(bk.is_adc_certified, exps, bound)
    _emit({
        "exponents": exps,
        "period_bound": cert.period_bound,
        "certified_within_bound": cert.certified,
        "minimal_sft_degree": cert.minimal_sft_degree,
        "families": [{"principal_period": t, "count": n, "sft_degree": d}
                     for t, n, d in cert.sft_degrees],
        "note": "bounded-period certificate, not a proof",
    })


@brieskorn.command()
@click.argument("exponents")
@click.option("--bound", type=click.IntRange(1), default=None)
def predict(exponents: str, bound: int | None) -> None:
    """Predicted (semi-)dilation order (n - mu_min + 1)/2, with hypothesis flags."""
    exps = _parse_exponents(exponents)
    p = _bounded(bk.predicted_order, exps, bound)
    _emit({
        "exponents": exps,
        "period_bound": p.period_bound,
        "mu_min": p.mu_min,
        "predicted_order": p.predicted_order,
        "min_attained_at_minimal_period": p.min_attained_at_minimal_period,
        "parity_ok": p.parity_ok,
        "kodaira_obstruction": p.kodaira_obstruction,
        "existence_assumed": p.existence_assumed,
    })


# ---------------------------------------------------------------------------
# reproduction scripts


@main.group()
def reproduce() -> None:
    """Deterministic recomputation of the known desk-scale results."""


@reproduce.command("theorem-a")
@click.option("--max", "max_m", type=click.IntRange(1, MAX_TRUNCATION // 2), default=6,
              show_default=True, help="Largest m; the models of m+1 variables have N = 2k <= 2m.")
def theorem_a(max_m: int) -> None:
    """Dilation and semi-dilation orders of the Fermat models equal k-1."""
    rows = []
    ok_all = True
    for m in range(1, max_m + 1):
        for k in range(1, m + 1):
            s = bk.milnor_model(k, m, include_spheres=False)
            d = order_of_dilation(s)
            sd = order_of_semidilation(s)
            ok = d.order == k - 1 and sd.order == k - 1
            ok_all = ok_all and ok
            rows.append({"k": k, "m": m, "expected": k - 1,
                         "dilation": d.order, "semidilation": sd.order,
                         "pass": ok})
            _diag(f"(k={k}, m={m}) expected {k-1} "
                  f"dilation={d.order} semidilation={sd.order} "
                  f"{'PASS' if ok else 'FAIL'}")
    _emit({"rows": rows, "pass": ok_all})
    if not ok_all:
        raise SystemExit(EXIT_PROPERTY_FAILURE)


def _one_dilation_exponents(n: int) -> list[int]:
    return [i + 2 for i in range(n - 1)] + [n, n]


@reproduce.command("corollary-1dilation")
@click.option("--n-range", "window", type=str, default="3..10", show_default=True,
              callback=_window)
def corollary_1dilation(window: range) -> None:
    """Minimal-index certification of the one-dilation exponent family.

    Checks, per n: the index-growth value f at the minimal principal period
    equals n-1, f never dips below it, and the predicted order is 1.
    """
    ns = range(max(window.start, 3), window.stop)
    if not ns:
        _diag(f"--n-range {window.start}..{window.stop - 1}: holds no n >= 3")
        raise SystemExit(EXIT_INPUT_ERROR)
    if ns[-1] > MAX_ONE_DILATION_N:
        _diag(f"--n-range {window.start}..{ns[-1]}: n above the limit "
              f"{MAX_ONE_DILATION_N}")
        raise SystemExit(EXIT_INPUT_ERROR)
    rows = []
    ok_all = True
    for n in ns:
        exps = _one_dilation_exponents(n)
        tmin = min(p.period for p in bk.principal_periods(exps))
        f_min = bk.f_of_t(exps, tmin)
        lcm_bound = 10 * max(p.period for p in bk.principal_periods(exps))
        dips = [t for t in range(tmin, lcm_bound + 1)
                if bk.f_of_t(exps, t) < f_min]
        pred = bk.predicted_order(exps)
        ok = (f_min == n - 1) and not dips and pred.predicted_order == 1
        ok_all = ok_all and ok
        rows.append({"n": n, "exponents": exps, "minimal_period": tmin,
                     "f_at_minimal_period": f_min, "expected": n - 1,
                     "f_dips_below": len(dips), "predicted_order": pred.predicted_order,
                     "pass": ok})
        _diag(f"n={n} minimal period {tmin}: f={f_min} (expect {n-1}), "
              f"predicted order {pred.predicted_order} (expect 1) "
              f"{'PASS' if ok else 'FAIL'}")
    _emit({"rows": rows, "pass": ok_all})
    if not ok_all:
        raise SystemExit(EXIT_PROPERTY_FAILURE)


if __name__ == "__main__":  # pragma: no cover
    main()
