"""The benchmark's workloads: inputs, operations, and the check of every answer.

A workload's inputs are complex documents (the JSON text a CLI user feeds
the program).  Every pass starts each input with its `load` operation,
which parses and validates the document the way every CLI command does, and
later operations on that input use the complex it returned.

Every operation's answer is checked twice over:

* a property that holds at any seed (route agreement, known orders, LES
  exactness, page convergence, functoriality, canonical round trips);
* a digest of the whole answer (orders, witnesses, page dims and
  differentials, Delta^k matrices, LES nodes) against `golden.json`, when
  the golden file holds digests for exactly these inputs.  That is every run
  of the deterministic workloads, and `random_corpus` at the default seed.

The reasons for each workload's choice are in README.md beside this file.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import astuple, dataclass, field
from typing import Any, Callable

# Seed 10 gives the per-complex seeds 10_000 + i of acceptance criterion 5.
DEFAULT_SEED = 10
HOLDOUT_SEED = 11
# the workloads whose inputs depend on the seed; the others ignore it
SEEDED = ("random_corpus",)

NO_SUBJECT = -1

# An operation's time is summed into exactly one bucket; the report line has
# `<bucket>_s` for every bucket but "other".
BUCKETS = ("dilation", "semidilation", "torsion", "pages", "delta", "les",
           "morphisms", "load", "other")


@dataclass
class Op:
    key: str                               # golden key, unique in the workload
    bucket: str                            # one of BUCKETS
    subject: int                           # index of its input, or NO_SUBJECT
    run: Callable[[dict], Any]             # the timed call; gets the subject's context
    check: Callable[[Any, dict], bool]     # property check, untimed
    canon: Callable[[Any], Any]            # canonical form of the answer, untimed
    span: str = "bench.op"                 # span name of the call in a traced pass


@dataclass
class Inputs:
    workload: str
    seed: int
    names: list[str]
    documents: list[str]
    ops: list[Op] = field(default_factory=list)

    @property
    def sha256(self) -> str:
        h = hashlib.sha256()
        for name, text in zip(self.names, self.documents):
            h.update(name.encode() + b"\0" + text.encode() + b"\0")
        return h.hexdigest()


# ---------------------------------------------------------------------------
# canonical forms of answers (everything a later change must not alter)


def _vec(v) -> tuple:
    return tuple(sorted((i, str(x)) for i, x in v.items())) if v is not None else None


def _mat(m) -> tuple:
    return (m.rows, m.cols, tuple((r, c, str(v)) for r, c, v in m.entries))


def _sq(sq) -> tuple:
    return (sq.dim, tuple(_vec(b) for b in sq.basis))


def canon_report(rep) -> tuple:
    return (rep.kind, rep.truncation, rep.order, rep.route, _vec(rep.witness))


def canon_page(page) -> tuple:
    return (page.index, page.truncation,
            tuple((col.u_power, _sq(col.subquotient),
                   tuple(tuple(_vec(a) for a in w.alphas) for w in col.witnesses))
                  for col in page.columns),
            tuple((i, _mat(m)) for i, m in sorted(page.differentials.items())))


def canon_delta(dk) -> tuple:
    return (dk.k, _sq(dk.domain), _sq(dk.codomain), _mat(dk.matrix))


def canon_les(rep) -> tuple:
    return (rep.level, tuple(sorted(rep.dims_zero.items())),
            tuple(sorted(rep.dims_full.items())),
            tuple(sorted(rep.dims_plus.items())),
            tuple((n.degree, n.position, n.incoming_rank, n.kernel_dim)
                  for n in rep.nodes))


def canon_load(ans) -> tuple:
    _, text, rel_ok, spl_ok = ans
    return (hashlib.sha256(text.encode()).hexdigest(), rel_ok, spl_ok)


def canon_morphisms(ans) -> tuple:
    morphism_ok, report, equal, induced = ans
    return (morphism_ok, report.z_containments, report.b_containments,
            report.squares, equal,
            tuple((d, _mat(m)) for d, m in sorted(induced.items())))


def digest(value: Any) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# operations shared by the workloads


def _load_op(lib, subject: int, prefix: str, text: str) -> Op:
    def run(ctx):
        s = lib.io_json.loads(text)
        rel = lib.complexes.verify_s1_relations(s.complex)
        spl = lib.dilation.verify_splitting(s)
        ctx["s"] = s
        return s, lib.io_json.dumps(s), rel.valid, spl.valid

    def check(ans, ctx):
        _, out, rel_ok, spl_ok = ans
        return rel_ok and spl_ok and out == text

    return Op(f"{prefix}/load", "load", subject, run, check, canon_load)


def _order_ops(lib, subject: int, prefix: str, expected: int | None) -> list[Op]:
    """Both scans and both torsion routes.  A known order (None: unknown) must
    be met by both kinds, the routes must agree, and a k-dilation is a
    k-semi-dilation."""
    d = lib.dilation

    def scan(kind):
        def check(rep, ctx):
            ctx[kind] = rep.order
            if expected is not None and rep.order != expected:
                return False
            if kind == "semidilation" and ctx["dilation"] is not None:
                return rep.order is not None and rep.order <= ctx["dilation"]
            return True
        return check

    def agrees(kind):
        return lambda rep, ctx: rep.route == "torsion" and rep.order == ctx[kind]

    return [
        Op(f"{prefix}/dilation", "dilation", subject,
           lambda ctx: d.order_of_dilation(ctx["s"]), scan("dilation"),
           canon_report),
        Op(f"{prefix}/semidilation", "semidilation", subject,
           lambda ctx: d.order_of_semidilation(ctx["s"]), scan("semidilation"),
           canon_report),
        Op(f"{prefix}/torsion", "torsion", subject,
           lambda ctx: d.order_via_torsion(ctx["s"]), agrees("dilation"),
           canon_report),
        Op(f"{prefix}/torsion_semi", "torsion", subject,
           lambda ctx: d.order_via_torsion(ctx["s"], semi=True),
           agrees("semidilation"), canon_report),
    ]


def _les_op(lib, subject: int, prefix: str) -> Op:
    return Op(f"{prefix}/les", "les", subject,
              lambda ctx: lib.dilation.tautological_les(ctx["s"]),
              lambda rep, ctx: rep.exact, canon_les)


# ---------------------------------------------------------------------------
# fermat_spheres


FERMAT_MODELS = ((3, 6), (4, 4))


def _fermat(lib, inputs: Inputs) -> None:
    for k, m in FERMAT_MODELS:
        s = lib.brieskorn.milnor_model(k, m)
        inputs.names.append(f"milnor({k},{m})")
        inputs.documents.append(lib.io_json.dumps(s))
    for subject, (k, m) in enumerate(FERMAT_MODELS):
        prefix = inputs.names[subject]
        inputs.ops.append(_load_op(lib, subject, prefix, inputs.documents[subject]))
        inputs.ops.extend(_order_ops(lib, subject, prefix, k - 1))
        inputs.ops.append(Op(
            f"{prefix}/predicted_order", "other", subject,
            lambda ctx, k=k, m=m: lib.brieskorn.predicted_order([k] * (m + 1)),
            lambda p, ctx, k=k: p.predicted_order == k - 1 and not p.kodaira_obstruction,
            astuple))
    args = ["reproduce", "theorem-a", "--max", "6"]

    def cli(ctx):
        result = lib.CliRunner().invoke(lib.cli.main, args)
        return result.exit_code, result.stdout

    def cli_check(ans, ctx):
        code, out = ans
        return code == 0 and json.loads(out)["pass"] is True

    # the span of the whole in-process invocation gives the CLI's own time
    inputs.ops.append(Op("cli/reproduce-theorem-a", "other", NO_SUBJECT,
                         cli, cli_check, lambda ans: ans, span="cli.invoke"))


# ---------------------------------------------------------------------------
# product_pages


def _product(lib, inputs: Inputs) -> None:
    a = lib.brieskorn.milnor_model(3, 4, include_spheres=False)
    b = lib.brieskorn.milnor_model(4, 5, include_spheres=False)
    s = lib.tensor.tensor_split(a, b)
    prefix = "milnor(3,4)(x)milnor(4,5)"
    inputs.names.append(prefix)
    inputs.documents.append(lib.io_json.dumps(s))
    n_tr = s.truncation
    sp = lib.spectral
    ops = [_load_op(lib, 0, prefix, inputs.documents[0])]
    for k in range(n_tr + 1):
        ops.append(Op(f"{prefix}/page{k}", "pages", 0,
                      lambda ctx, k=k: sp.leray_page(ctx["s"].complex, k),
                      lambda page, ctx, k=k: page.index == k, canon_page))
    for k in range(1, n_tr // 2 + 1):
        ops.append(Op(f"{prefix}/delta{k}", "delta", 0,
                      lambda ctx, k=k: sp.delta_k(ctx["s"].complex, k),
                      lambda dk, ctx: dk.kernel_dim + dk.rank == dk.domain.dim,
                      canon_delta))
    ops.append(_les_op(lib, 0, prefix))
    # the dilation order of a product is the minimum of the factor orders
    ops.append(Op(f"{prefix}/dilation", "dilation", 0,
                  lambda ctx: lib.dilation.order_of_dilation(ctx["s"]),
                  lambda rep, ctx: rep.order == 2, canon_report))
    inputs.ops.extend(ops)


# ---------------------------------------------------------------------------
# random_corpus


def _corpus_subjects(lib, seed: int) -> list[tuple[str, Any, int | None]]:
    """The seeded recipe of acceptance criterion 5, then the sphere-free
    Milnor models with k <= m <= 4: (name, split complex, known order)."""
    base = seed * 1000
    out = []
    for i in range(205):
        rng = random.Random(base + i)
        n_plus, n_zero_extra, n_tr = 3 + i % 9, i % 4, 2 + i % 5
        if i % 41 == 0:
            n_plus, n_zero_extra, n_tr = 13, 4, 6   # the ceiling: 19 generators
        s = lib.randomized.random_split_complex(
            rng, n_plus, n_zero_extra, n_tr, with_unit_killer=(i % 7 == 0))
        out.append((f"random{i}", s, None))
    for m in range(1, 5):
        for k in range(1, m + 1):
            out.append((f"milnor({k},{m})",
                        lib.brieskorn.milnor_model(k, m, include_spheres=False), k - 1))
    return out


def _morphism_op(lib, subject: int, prefix: str, rng_seed: int) -> Op:
    mor = lib.morphisms

    def run(ctx):
        c = ctx["s"].complex
        base, deformed, _ = lib.randomized.random_endomorphism_pair(
            random.Random(rng_seed), c)
        ok = mor.verify_morphism(deformed).valid
        report = mor.verify_functoriality(deformed)
        induced = mor.induced_cohomology_map(base, c.truncation)
        equal = induced == mor.induced_cohomology_map(deformed, c.truncation)
        return ok, report, equal, induced

    def check(ans, ctx):
        ok, report, equal, _ = ans
        return ok and report.valid and equal

    return Op(f"{prefix}/morphisms", "morphisms", subject, run, check, canon_morphisms)


def _converges(lib, page, ctx) -> bool:
    """E_infinity has the dimensions of H(F^N), degree by degree."""
    c = ctx["s"].complex
    f = lib.complexes.build_filtered_plus(c, c.truncation)
    target = {d: g.dim for d, g in lib.complexes.cohomology(f).items() if g.dim}
    return page.dims_by_total_degree(c.degrees) == target


def _random(lib, inputs: Inputs) -> None:
    subjects = _corpus_subjects(lib, inputs.seed)
    for name, s, _ in subjects:
        inputs.names.append(name)
        inputs.documents.append(lib.io_json.dumps(s))
    for idx, (name, _, expected) in enumerate(subjects):
        text = inputs.documents[idx]
        inputs.ops.append(_load_op(lib, idx, name, text))
        inputs.ops.extend(_order_ops(lib, idx, name, expected))
        inputs.ops.append(_les_op(lib, idx, name))
        inputs.ops.append(Op(f"{name}/e_infinity", "pages", idx,
                             lambda ctx: lib.spectral.e_infinity(ctx["s"].complex),
                             lambda page, ctx: _converges(lib, page, ctx), canon_page))
        if idx % 5 == 0:
            inputs.ops.append(_morphism_op(lib, idx, name,
                                           inputs.seed * 1000 + 40_000 + idx))


# ---------------------------------------------------------------------------


class Lib:
    """The package's modules, looked up at call time so tracing can patch them."""

    def __init__(self):
        import importlib

        from click.testing import CliRunner

        for m in ("brieskorn", "cli", "complexes", "dilation", "io_json",
                  "morphisms", "randomized", "spectral", "tensor"):
            setattr(self, m, importlib.import_module(f"s1cochain.{m}"))
        self.CliRunner = CliRunner


BUILDERS = {"fermat_spheres": _fermat, "product_pages": _product,
            "random_corpus": _random}
WORKLOADS = tuple(BUILDERS)


def setup(workload: str, seed: int, lib: Lib | None = None) -> tuple[Lib, Inputs]:
    """Import the package (unless given) and build the workload's inputs."""
    lib = lib or Lib()
    inputs = Inputs(workload, seed, [], [])
    BUILDERS[workload](lib, inputs)
    return lib, inputs
