"""The JSON document format for split complexes.

Documents are small and meant to be audited by hand, so coefficients are
rational strings ("3", "-1/2"), never numbers: a float can survive a JSON
round-trip only approximately, which would silently corrupt exact ranks.

Canonical form: generators sorted by name, operators sorted by order with
entries sorted by (from, to) name and only nonzero orders present, the unit
always in chain form sorted by generator.  Parsing canonicalizes, so
parse . emit . parse == parse and emitted bytes are stable.  The
`operators` of a complex and the `components` of a morphism are both
operator families and share one parser and one writer.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Any, Iterator

from .complexes import (
    MAX_FILTERED_DIM,
    MAX_GENERATORS,
    MAX_TRUNCATION,
    Generator,
    S1Complex,
)
from .dilation import PLUS_PART, ZERO_PART, SplitS1Complex
from .linalg import SparseMatrix, Vector
from .morphisms import S1Morphism

SCHEMA_VERSION = "1"

# Most decimal digits in a coefficient's numerator or denominator.  Far more
# than any construction here produces; it bounds the work one literal costs.
MAX_COEFF_DIGITS = 1000
_COEFF_LITERAL = re.compile(
    rf"-?[0-9]{{1,{MAX_COEFF_DIGITS}}}(?:/[0-9]{{1,{MAX_COEFF_DIGITS}}})?")


class DocumentError(ValueError):
    """A structural problem in a complex document, with a JSON-path position."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")


def _expect(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise DocumentError(path, message)


def _parse_coeff(x: Any, path: str) -> Fraction:
    """A coefficient literal: `-?digits` or `-?digits/digits`, as `dumps` emits."""
    _expect(isinstance(x, str), path, "coefficient must be a rational string, not a number")
    _expect(_COEFF_LITERAL.fullmatch(x) is not None, path,
            f"bad rational literal {x[:40]!r}: expected -?digits[/digits], "
            f"at most {MAX_COEFF_DIGITS} digits each")
    try:
        return Fraction(x)
    except ZeroDivisionError as exc:
        raise DocumentError(path, f"bad rational literal {x!r}: zero denominator") from exc


def _entries(container: dict, path: str) -> Iterator[tuple[str, dict]]:
    """(JSON path, entry object) for each item of `container["entries"]`."""
    raw = container.get("entries", [])
    _expect(isinstance(raw, list), f"{path}.entries", "expected an array")
    for j, e in enumerate(raw):
        epath = f"{path}.entries[{j}]"
        _expect(isinstance(e, dict), epath, "expected an object")
        yield epath, e


def _parse_family(doc: dict, key: str, n_tr: int, src: tuple[Generator, ...],
                  dst: tuple[Generator, ...], src_label: str,
                  dst_label: str) -> tuple[SparseMatrix, ...]:
    """The family (M^0, ..., M^N) listed under doc[key]: each listed order
    once, with entries from a source to a target generator; an order not
    listed is zero.  `operators` and `components` share this schema."""
    src_index = {g.name: i for i, g in enumerate(src)}
    dst_index = {g.name: i for i, g in enumerate(dst)}
    raw = doc.get(key, [])
    _expect(isinstance(raw, list), f"$.{key}", "expected an array")
    mats: dict[int, list] = {}
    for i, item in enumerate(raw):
        path = f"$.{key}[{i}]"
        _expect(isinstance(item, dict), path, "expected an object")
        r = item.get("order")
        _expect(isinstance(r, int) and not isinstance(r, bool) and 0 <= r <= n_tr,
                f"{path}.order", f"expected an integer in [0, {n_tr}]")
        _expect(r not in mats, f"{path}.order", f"duplicate {key[:-1]} order {r}")
        mats[r] = []
        for epath, e in _entries(item, path):
            frm, to = e.get("from"), e.get("to")
            _expect(isinstance(frm, str) and frm in src_index, f"{epath}.from",
                    f"unknown {src_label} {frm!r}")
            _expect(isinstance(to, str) and to in dst_index, f"{epath}.to",
                    f"unknown {dst_label} {to!r}")
            coeff = _parse_coeff(e.get("coeff"), f"{epath}.coeff")
            mats[r].append((dst_index[to], src_index[frm], coeff))
    return tuple(SparseMatrix.from_entries(len(dst), len(src), mats.get(r, []))
                 for r in range(n_tr + 1))


def _family_document(mats: tuple[SparseMatrix, ...], src: S1Complex,
                     dst: S1Complex) -> list[dict]:
    """The canonical form of a family: nonzero orders only, each with its
    entries sorted by (from, to) name."""
    out = []
    for r, m in enumerate(mats):
        ent = [{"from": src.generators[j].name, "to": dst.generators[i].name,
                "coeff": str(v)} for i, j, v in m.entries]
        if ent:
            ent.sort(key=lambda e: (e["from"], e["to"]))
            out.append({"order": r, "entries": ent})
    return out


def document_to_split_complex(doc: Any) -> SplitS1Complex:
    """Parse a document dict into a split complex (structural checks only).

    Graded relations and the splitting axioms are verified separately by
    `verify_s1_relations` / `verify_splitting` so that a structurally sound
    but mathematically invalid document can be reported rather than rejected.
    """
    _expect(isinstance(doc, dict), "$", "document must be a JSON object")
    _expect(doc.get("schema_version") == SCHEMA_VERSION,
            "$.schema_version", f"expected {SCHEMA_VERSION!r}")
    n_tr = doc.get("truncation")
    _expect(isinstance(n_tr, int) and not isinstance(n_tr, bool) and n_tr >= 0,
            "$.truncation", "expected a non-negative integer")
    _expect(n_tr <= MAX_TRUNCATION, "$.truncation",
            f"truncation {n_tr} exceeds the limit {MAX_TRUNCATION}")

    raw_gens = doc.get("generators")
    _expect(isinstance(raw_gens, list) and raw_gens,
            "$.generators", "expected a non-empty array")
    _expect(len(raw_gens) <= MAX_GENERATORS, "$.generators",
            f"{len(raw_gens)} generators exceed the limit {MAX_GENERATORS}")
    _expect((n_tr + 1) * len(raw_gens) <= MAX_FILTERED_DIM, "$.truncation",
            f"filtered dimension (N+1)*n = {(n_tr + 1) * len(raw_gens)} exceeds "
            f"the limit {MAX_FILTERED_DIM}")
    seen = set()
    parsed = []
    for i, g in enumerate(raw_gens):
        path = f"$.generators[{i}]"
        _expect(isinstance(g, dict), path, "expected an object")
        name = g.get("name")
        _expect(isinstance(name, str) and name, f"{path}.name", "expected a non-empty string")
        _expect(name not in seen, f"{path}.name", f"duplicate generator {name!r}")
        seen.add(name)
        deg = g.get("degree")
        _expect(isinstance(deg, int) and not isinstance(deg, bool),
                f"{path}.degree", "expected an integer")
        part = g.get("part")
        _expect(part in (ZERO_PART, PLUS_PART), f"{path}.part",
                f"expected '{ZERO_PART}' or '{PLUS_PART}'")
        parsed.append((name, deg, part))
    parsed.sort(key=lambda t: t[0])
    gens = tuple(Generator(n, d) for n, d, _ in parsed)
    parts = tuple(p for _, _, p in parsed)
    index = {g.name: i for i, g in enumerate(gens)}
    deltas = _parse_family(doc, "operators", n_tr, gens, gens, "generator", "generator")

    raw_unit = doc.get("unit")
    unit: Vector = {}
    if isinstance(raw_unit, str):
        _expect(raw_unit in index, "$.unit", f"unknown generator {raw_unit!r}")
        unit = {index[raw_unit]: Fraction(1)}
    elif isinstance(raw_unit, list):
        _expect(bool(raw_unit), "$.unit", "unit chain must be non-empty")
        for j, term in enumerate(raw_unit):
            path = f"$.unit[{j}]"
            _expect(isinstance(term, dict), path, "expected an object")
            gname = term.get("gen")
            _expect(isinstance(gname, str) and gname in index, f"{path}.gen",
                    f"unknown generator {gname!r}")
            coeff = _parse_coeff(term.get("coeff"), f"{path}.coeff")
            if coeff:
                unit[index[gname]] = unit.get(index[gname], Fraction(0)) + coeff
        unit = {i: x for i, x in unit.items() if x}
        _expect(bool(unit), "$.unit", "unit chain sums to zero")
    else:
        raise DocumentError("$.unit", "expected a generator name or a chain array")

    cplx = S1Complex(gens, n_tr, deltas)
    return SplitS1Complex(cplx, parts, unit)


def split_complex_to_document(s: SplitS1Complex) -> dict:
    """Emit the canonical document of a split complex."""
    c = s.complex
    order = sorted(range(c.n), key=lambda i: c.generators[i].name)
    gens = [{"name": c.generators[i].name,
             "degree": c.generators[i].degree,
             "part": s.parts[i]} for i in order]
    unit = [{"gen": c.generators[i].name, "coeff": str(x)}
            for i, x in sorted(s.unit.items(),
                               key=lambda t: c.generators[t[0]].name)]
    return {
        "schema_version": SCHEMA_VERSION,
        "truncation": c.truncation,
        "generators": gens,
        "operators": _family_document(c.deltas, c, c),
        "unit": unit,
    }


def dumps(s: SplitS1Complex) -> str:
    return json.dumps(split_complex_to_document(s), indent=2, sort_keys=True) + "\n"


def loads(text: str) -> SplitS1Complex:
    """Parse a document from text.  Text that is not JSON, nests deeper than
    the parser recurses, or holds an integer literal beyond CPython's
    digit limit raises DocumentError at "$"."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise DocumentError("$", f"not valid JSON: {exc}") from exc
    return document_to_split_complex(doc)


# ---------------------------------------------------------------------------
# morphism documents (component schema mirrors the operator schema)


def document_to_morphism(doc: Any) -> tuple[SplitS1Complex, SplitS1Complex, S1Morphism]:
    """Parse a morphism document into (source, target, morphism): the
    embedded split complexes and the morphism between them."""
    _expect(isinstance(doc, dict), "$", "document must be a JSON object")
    _expect(doc.get("schema_version") == SCHEMA_VERSION,
            "$.schema_version", f"expected {SCHEMA_VERSION!r}")
    _expect(doc.get("kind") == "morphism", "$.kind", "expected 'morphism'")
    src = document_to_split_complex(_field(doc, "source"))
    dst = document_to_split_complex(_field(doc, "target"))
    n_tr = src.truncation
    _expect(dst.truncation == n_tr, "$.target.truncation",
            "source and target truncations differ")
    phis = _parse_family(doc, "components", n_tr, src.complex.generators,
                         dst.complex.generators, "source generator", "target generator")
    return src, dst, S1Morphism(src.complex, dst.complex, phis)


def _field(doc: dict, key: str) -> Any:
    _expect(key in doc, f"$.{key}", "missing field")
    return doc[key]


def morphism_to_document(source: SplitS1Complex, target: SplitS1Complex,
                         morphism: S1Morphism) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "morphism",
        "source": split_complex_to_document(source),
        "target": split_complex_to_document(target),
        "components": _family_document(morphism.phis, morphism.source, morphism.target),
    }


# ---------------------------------------------------------------------------
# result serialization helpers


def chain_terms(c: S1Complex, v: Vector) -> list[dict]:
    return [{"gen": c.generators[i].name, "coeff": str(x)}
            for i, x in sorted(v.items())]


def filtered_chain_terms(c: S1Complex, v: Vector) -> list[dict]:
    """The terms of a chain of F^k(c), index p * n + g naming generator g at u^-p."""
    out = []
    for idx, x in sorted(v.items()):
        p, g = divmod(idx, c.n)
        out.append({"gen": c.generators[g].name, "power": p, "coeff": str(x)})
    return out
