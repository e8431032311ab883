"""The JSON document format for split complexes.

Documents are small and meant to be audited by hand, so coefficients are
rational strings ("3", "-1/2"), never numbers: a float can survive a JSON
round-trip only approximately, which would silently corrupt exact ranks.

Canonical form: generators sorted by name, operators sorted by order with
entries sorted by (from, to) name and only nonzero orders present, the unit
always in chain form sorted by generator.  Parsing canonicalizes, so
parse . emit . parse == parse and emitted bytes are stable.  The
`operators` of a complex and the `components` of a morphism are both
operator families and share one parser and one document form.

`dumps` writes a complex's text directly, joining fixed fragments in the
document's shape, with names escaped by `json`'s own ASCII escaper.  Its
bytes are those of `json.dumps(split_complex_to_document(s), indent=2,
sort_keys=True)` and a newline, for every complex whose document the
reader accepts; CPython runs `json.dumps` with an indent through its
pure-Python encoder, which costs about ten times as much.

The reader checks every field with a plain conditional, in a fixed order,
and formats an error's JSON path and message only when it raises, so a
valid document builds no message.  A coefficient's value is read from the
digit groups of the literal that the grammar matched.  The complex is built
through `S1Complex.from_checked`, and its split's parts likewise, so a load
checks each generator's name and degree once, here.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from typing import Any

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
    rf"(-?[0-9]{{1,{MAX_COEFF_DIGITS}}})(?:/([0-9]{{1,{MAX_COEFF_DIGITS}}}))?")


class DocumentError(ValueError):
    """A structural problem in a complex document, with a JSON-path position."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")


def _parse_coeff(x: Any) -> Fraction | None:
    """The value of a coefficient literal `-?digits` or `-?digits/digits`,
    as `dumps` emits it, read from the literal's digit groups; None when x
    is not one, and `_coeff_error` says why."""
    m = _COEFF_LITERAL.fullmatch(x) if isinstance(x, str) else None
    if m is None:
        return None
    num, den = m.groups()
    if den is None:
        return Fraction(int(num))
    d = int(den)
    return Fraction(int(num), d) if d else None


def _coeff_error(x: Any) -> str:
    """Why `_parse_coeff` refused x."""
    if not isinstance(x, str):
        return "coefficient must be a rational string, not a number"
    if _COEFF_LITERAL.fullmatch(x) is None:
        return (f"bad rational literal {x[:40]!r}: expected -?digits[/digits], "
                f"at most {MAX_COEFF_DIGITS} digits each")
    return f"bad rational literal {x!r}: zero denominator"


def _parse_family(doc: dict, key: str, n_tr: int, src: tuple[Generator, ...],
                  dst: tuple[Generator, ...], src_label: str,
                  dst_label: str) -> tuple[SparseMatrix, ...]:
    """The family (M^0, ..., M^N) listed under doc[key]: each listed order
    once, with entries from a source to a target generator; an order not
    listed is zero.  `operators` and `components` share this schema."""
    src_index = {g.name: i for i, g in enumerate(src)}
    dst_index = {g.name: i for i, g in enumerate(dst)}
    raw = doc.get(key, [])
    if not isinstance(raw, list):
        raise DocumentError(f"$.{key}", "expected an array")
    mats: dict[int, list] = {}
    for i, item in enumerate(raw):
        path = f"$.{key}[{i}]"
        if not isinstance(item, dict):
            raise DocumentError(path, "expected an object")
        r = item.get("order")
        if not (isinstance(r, int) and not isinstance(r, bool) and 0 <= r <= n_tr):
            raise DocumentError(f"{path}.order", f"expected an integer in [0, {n_tr}]")
        if r in mats:
            raise DocumentError(f"{path}.order", f"duplicate {key[:-1]} order {r}")
        mats[r] = ent = []
        entries = item.get("entries", [])
        if not isinstance(entries, list):
            raise DocumentError(f"{path}.entries", "expected an array")
        for j, e in enumerate(entries):
            if not isinstance(e, dict):
                raise DocumentError(f"{path}.entries[{j}]", "expected an object")
            frm, to = e.get("from"), e.get("to")
            if not (isinstance(frm, str) and frm in src_index):
                raise DocumentError(f"{path}.entries[{j}].from", f"unknown {src_label} {frm!r}")
            if not (isinstance(to, str) and to in dst_index):
                raise DocumentError(f"{path}.entries[{j}].to", f"unknown {dst_label} {to!r}")
            coeff = _parse_coeff(e.get("coeff"))
            if coeff is None:
                raise DocumentError(f"{path}.entries[{j}].coeff", _coeff_error(e.get("coeff")))
            ent.append((dst_index[to], src_index[frm], coeff))
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


def _check_header(doc: Any) -> None:
    """The checks every document opens with: an object of this schema version."""
    if not isinstance(doc, dict):
        raise DocumentError("$", "document must be a JSON object")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise DocumentError("$.schema_version", f"expected {SCHEMA_VERSION!r}")


def document_to_split_complex(doc: Any) -> SplitS1Complex:
    """Parse a document dict into a split complex (structural checks only).

    Graded relations and the splitting axioms are verified separately by
    `verify_s1_relations` / `verify_splitting` so that a structurally sound
    but mathematically invalid document can be reported rather than rejected.
    """
    _check_header(doc)
    n_tr = doc.get("truncation")
    if not (isinstance(n_tr, int) and not isinstance(n_tr, bool) and n_tr >= 0):
        raise DocumentError("$.truncation", "expected a non-negative integer")
    if n_tr > MAX_TRUNCATION:
        raise DocumentError("$.truncation",
                            f"truncation {n_tr} exceeds the limit {MAX_TRUNCATION}")

    raw_gens = doc.get("generators")
    if not (isinstance(raw_gens, list) and raw_gens):
        raise DocumentError("$.generators", "expected a non-empty array")
    if len(raw_gens) > MAX_GENERATORS:
        raise DocumentError("$.generators",
                            f"{len(raw_gens)} generators exceed the limit {MAX_GENERATORS}")
    if (n_tr + 1) * len(raw_gens) > MAX_FILTERED_DIM:
        raise DocumentError("$.truncation",
                            f"filtered dimension (N+1)*n = {(n_tr + 1) * len(raw_gens)} "
                            f"exceeds the limit {MAX_FILTERED_DIM}")
    seen = set()
    parsed = []
    for i, g in enumerate(raw_gens):
        if not isinstance(g, dict):
            raise DocumentError(f"$.generators[{i}]", "expected an object")
        name = g.get("name")
        # exact types, as `S1Complex.__post_init__` requires them
        if not (type(name) is str and name):
            raise DocumentError(f"$.generators[{i}].name", "expected a non-empty string")
        if name in seen:
            raise DocumentError(f"$.generators[{i}].name", f"duplicate generator {name!r}")
        seen.add(name)
        deg = g.get("degree")
        if type(deg) is not int:
            raise DocumentError(f"$.generators[{i}].degree", "expected an integer")
        part = g.get("part")
        if part not in (ZERO_PART, PLUS_PART):
            raise DocumentError(f"$.generators[{i}].part",
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
        if raw_unit not in index:
            raise DocumentError("$.unit", f"unknown generator {raw_unit!r}")
        unit = {index[raw_unit]: Fraction(1)}
    elif isinstance(raw_unit, list):
        if not raw_unit:
            raise DocumentError("$.unit", "unit chain must be non-empty")
        for j, term in enumerate(raw_unit):
            if not isinstance(term, dict):
                raise DocumentError(f"$.unit[{j}]", "expected an object")
            gname = term.get("gen")
            if not (isinstance(gname, str) and gname in index):
                raise DocumentError(f"$.unit[{j}].gen", f"unknown generator {gname!r}")
            coeff = _parse_coeff(term.get("coeff"))
            if coeff is None:
                raise DocumentError(f"$.unit[{j}].coeff", _coeff_error(term.get("coeff")))
            if coeff:
                unit[index[gname]] = unit.get(index[gname], Fraction(0)) + coeff
        unit = {i: x for i, x in unit.items() if x}
        if not unit:
            raise DocumentError("$.unit", "unit chain sums to zero")
    else:
        raise DocumentError("$.unit", "expected a generator name or a chain array")

    # every name and degree was checked above, where its path is known
    cplx = S1Complex.from_checked(gens, n_tr, deltas)
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


def _array(items: list[str], indent: str) -> str:
    """A JSON array of already written items, as `json.dumps(indent=2)`
    lays it out when its closing bracket sits at `indent`."""
    if not items:
        return "[]"
    return "[\n" + ",\n".join(items) + "\n" + indent + "]"


def dumps(s: SplitS1Complex) -> str:
    """The canonical document's text: byte for byte
    `json.dumps(split_complex_to_document(s), indent=2, sort_keys=True)`
    and a newline, written from fixed fragments in the document's shape."""
    c = s.complex
    names = [g.name for g in c.generators]
    quoted = [_quote(x) for x in names]
    # every fragment sits at the depth json.dumps(indent=2) gives it: a
    # generator, an operator and a unit term 4 spaces deep, an entry 8
    gens = [f'    {{\n      "degree": {c.generators[i].degree},\n'
            f'      "name": {quoted[i]},\n'
            f'      "part": {_quote(s.parts[i])}\n    }}'
            for i in sorted(range(c.n), key=names.__getitem__)]
    ops = []
    for r, m in enumerate(c.deltas):
        if m.entries:
            entries = [f'        {{\n          "coeff": "{v}",\n'
                       f'          "from": {quoted[j]},\n'
                       f'          "to": {quoted[i]}\n        }}'
                       for i, j, v in sorted(m.entries, key=lambda e: (names[e[1]], names[e[0]]))]
            ops.append(f'    {{\n      "entries": {_array(entries, "      ")},\n'
                       f'      "order": {r}\n    }}')
    unit = [f'    {{\n      "coeff": "{x}",\n      "gen": {quoted[i]}\n    }}'
            for i, x in sorted(s.unit.items(), key=lambda t: names[t[0]])]
    return (f'{{\n  "generators": {_array(gens, "  ")},\n'
            f'  "operators": {_array(ops, "  ")},\n'
            f'  "schema_version": {_quote(SCHEMA_VERSION)},\n'
            f'  "truncation": {c.truncation},\n'
            f'  "unit": {_array(unit, "  ")}\n}}\n')


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
    _check_header(doc)
    if doc.get("kind") != "morphism":
        raise DocumentError("$.kind", "expected 'morphism'")
    src = document_to_split_complex(_field(doc, "source"))
    dst = document_to_split_complex(_field(doc, "target"))
    n_tr = src.truncation
    if dst.truncation != n_tr:
        raise DocumentError("$.target.truncation", "source and target truncations differ")
    phis = _parse_family(doc, "components", n_tr, src.complex.generators,
                         dst.complex.generators, "source generator", "target generator")
    return src, dst, S1Morphism(src.complex, dst.complex, phis)


def _field(doc: dict, key: str) -> Any:
    if key not in doc:
        raise DocumentError(f"$.{key}", "missing field")
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
