"""The document writer and reader against the code they replaced.

`dumps` writes the canonical text from fixed fragments; its oracle is the
expression it replaced, `json.dumps(split_complex_to_document(s), indent=2,
sort_keys=True)` and a newline, compared byte for byte.  The reader checks
each field with plain conditionals and formats a path and a message only
when it raises; its oracle is the `_expect`-based reader it replaced, kept
below verbatim, and every single-field mutation of a valid document must
get the same outcome from both: the same `DocumentError` path and message,
or the same complex.  Every valid document committed as a CLI fixture, and
the Milnor and seeded random models, must survive `dumps(loads(text))`
byte for byte.
"""

import copy
import json
import random
import re
from datetime import timedelta
from fractions import Fraction
from pathlib import Path
from typing import Any, Iterator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from s1cochain.brieskorn import milnor_model
from s1cochain.complexes import (
    MAX_FILTERED_DIM,
    MAX_GENERATORS,
    MAX_TRUNCATION,
    Generator,
    S1Complex,
    verify_s1_relations,
)
from s1cochain.dilation import PLUS_PART, ZERO_PART, SplitS1Complex, verify_splitting
from s1cochain.io_json import (
    _COEFF_LITERAL,
    MAX_COEFF_DIGITS,
    SCHEMA_VERSION,
    DocumentError,
    document_to_morphism,
    document_to_split_complex,
    dumps,
    loads,
    morphism_to_document,
    split_complex_to_document,
)
from s1cochain.linalg import SparseMatrix, Vector
from s1cochain.morphisms import S1Morphism
from s1cochain.randomized import random_endomorphism_pair, random_split_complex

FIXTURES = Path(__file__).parent / "cli_fixtures"


def _oracle_dumps(s):
    return json.dumps(split_complex_to_document(s), indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# the writer


# names that need escaping: quotes, backslashes, control characters,
# non-ASCII text inside and outside the basic plane
_NAME_CHARS = st.sampled_from(['"', "\\", "/", "\x00", "\x1f", "\n", "\t", "\x7f",
                               "é", " ", "𝔽", "a", "b", "Z", "0", " "])


@st.composite
def _split_complexes(draw, in_name_order=False):
    """A structurally sound split complex: odd names, any operator entries
    (relations unchecked, as the reader leaves them), orders left empty at
    random, and a unit of one or more terms, each an int or a Fraction.
    `in_name_order` sorts the generators by name, the reader's order."""
    names = draw(st.lists(st.text(_NAME_CHARS, min_size=1, max_size=4),
                          min_size=1, max_size=6, unique=True))
    if in_name_order:
        names.sort()
    n = len(names)
    gens = tuple(Generator(x, draw(st.integers(-3, 3))) for x in names)
    parts = tuple(draw(st.sampled_from([ZERO_PART, PLUS_PART])) for _ in names)
    coeffs = st.one_of(st.integers(-5, 5),
                       st.fractions(min_value=-5, max_value=5, max_denominator=7)).filter(bool)
    n_tr = draw(st.integers(0, 3))
    deltas = []
    for _ in range(n_tr + 1):
        if draw(st.booleans()):
            deltas.append(SparseMatrix.zero(n, n))
            continue
        entries = draw(st.dictionaries(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                       coeffs, max_size=2 * n))
        deltas.append(SparseMatrix(n, n, tuple((i, j, v) for (i, j), v in sorted(entries.items()))))
    unit = draw(st.dictionaries(st.integers(0, n - 1), coeffs, min_size=1, max_size=3))
    return SplitS1Complex(S1Complex(gens, n_tr, tuple(deltas)), parts, unit)


@settings(max_examples=300, deadline=timedelta(milliseconds=500))
@given(s=_split_complexes())
def test_dumps_matches_the_json_oracle(s):
    text = dumps(s)
    assert text == _oracle_dumps(s)
    assert dumps(loads(text)) == text


@settings(max_examples=200, deadline=timedelta(milliseconds=500))
@given(s=_split_complexes(in_name_order=True))
def test_every_split_the_constructors_accept_survives_the_round_trip(s):
    assert loads(dumps(s)) == s


@pytest.mark.parametrize("generator, message", [
    (Generator("a", True), "degree True, not an int"),
    (Generator("a", 1.5), "degree 1.5, not an int"),
    (Generator("", 0), "name '' is not a non-empty string"),
    (Generator(5, 0), "name 5 is not a non-empty string"),
], ids=["bool-degree", "float-degree", "empty-name", "int-name"])
def test_a_complex_refuses_a_name_or_degree_that_no_document_holds(generator, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        S1Complex((Generator("e", 0), generator), 0, (SparseMatrix.zero(2, 2),))


def _hand_complex(names, ops, unit):
    """Generators of degree 0 on the zero part, ops[r] as (from, to, coeff)."""
    gens = tuple(Generator(x, 0) for x in names)
    index = {x: i for i, x in enumerate(names)}
    deltas = tuple(SparseMatrix.from_entries(len(names), len(names),
                                             [(index[t], index[f], c) for f, t, c in op])
                   for op in ops)
    return SplitS1Complex(S1Complex(gens, len(ops) - 1, deltas), (ZERO_PART,) * len(names),
                          {index[x]: c for x, c in unit})


@pytest.mark.parametrize("s", [
    pytest.param(_hand_complex(['q"uote', "back\\slash", "ctl\x01\n", "żółw", "𝔽_p"],
                               [[("żółw", 'q"uote', Fraction(-3, 4))], [],
                                [("𝔽_p", "ctl\x01\n", 2), ("back\\slash", "ctl\x01\n", 5)]],
                               [('q"uote', Fraction(1, 2)), ("𝔽_p", Fraction(-7, 3))]),
                 id="escapes"),
    pytest.param(_hand_complex(["e", "f"], [[], [], []], [("e", 1)]), id="no-operators"),
    pytest.param(_hand_complex(["b", "a", "c"],
                               [[("c", "a", Fraction(5, 6)), ("a", "c", 1), ("a", "b", -2)]],
                               [("c", Fraction(2, 9)), ("a", Fraction(-1, 4)), ("b", 3)]),
                 id="multi-term-unit"),
])
def test_dumps_matches_the_json_oracle_on_hand_cases(s):
    text = dumps(s)
    assert text == _oracle_dumps(s)
    assert dumps(loads(text)) == text
    assert ('"operators": []' in text) == all(m.is_zero() for m in s.complex.deltas)


# ---------------------------------------------------------------------------
# round trips of committed and generated documents


_COMMITTED = sorted(p for p in FIXTURES.rglob("*.json") if p.name != "broken.json")


def test_the_committed_documents_are_found():
    assert [p.stem for p in _COMMITTED] == ["corpus10_15", "corpus10_24", "corpus10_3",
                                            "milnor_3_3"]


@pytest.mark.parametrize("path", _COMMITTED, ids=lambda p: p.stem)
def test_committed_document_round_trips_byte_for_byte(path):
    text = path.read_text()
    s = loads(text)
    assert verify_s1_relations(s.complex).valid and verify_splitting(s).valid
    assert dumps(s) == text


@pytest.mark.parametrize("k, m", [(k, m) for m in range(1, 5) for k in range(1, m + 1)])
def test_milnor_document_round_trips_byte_for_byte(k, m):
    s = milnor_model(k, m)
    text = dumps(s)
    assert text == _oracle_dumps(s)
    assert dumps(loads(text)) == text


@pytest.mark.parametrize("seed", range(12))
def test_random_document_round_trips_byte_for_byte(seed):
    s = random_split_complex(random.Random(seed), 3 + seed % 5, seed % 3, 2 + seed % 3,
                             with_unit_killer=seed % 4 == 0)
    text = dumps(s)
    assert text == _oracle_dumps(s)
    assert dumps(loads(text)) == text


# ---------------------------------------------------------------------------
# the reader replaced, kept verbatim as the oracle


def _expect(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise DocumentError(path, message)


def _oracle_parse_coeff(x: Any, path: str) -> Fraction:
    _expect(isinstance(x, str), path, "coefficient must be a rational string, not a number")
    _expect(_COEFF_LITERAL.fullmatch(x) is not None, path,
            f"bad rational literal {x[:40]!r}: expected -?digits[/digits], "
            f"at most {MAX_COEFF_DIGITS} digits each")
    try:
        return Fraction(x)
    except ZeroDivisionError as exc:
        raise DocumentError(path, f"bad rational literal {x!r}: zero denominator") from exc


def _oracle_entries(container: dict, path: str) -> Iterator[tuple[str, dict]]:
    raw = container.get("entries", [])
    _expect(isinstance(raw, list), f"{path}.entries", "expected an array")
    for j, e in enumerate(raw):
        epath = f"{path}.entries[{j}]"
        _expect(isinstance(e, dict), epath, "expected an object")
        yield epath, e


def _oracle_parse_family(doc, key, n_tr, src, dst, src_label, dst_label):
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
        for epath, e in _oracle_entries(item, path):
            frm, to = e.get("from"), e.get("to")
            _expect(isinstance(frm, str) and frm in src_index, f"{epath}.from",
                    f"unknown {src_label} {frm!r}")
            _expect(isinstance(to, str) and to in dst_index, f"{epath}.to",
                    f"unknown {dst_label} {to!r}")
            coeff = _oracle_parse_coeff(e.get("coeff"), f"{epath}.coeff")
            mats[r].append((dst_index[to], src_index[frm], coeff))
    return tuple(SparseMatrix.from_entries(len(dst), len(src), mats.get(r, []))
                 for r in range(n_tr + 1))


def _oracle_document_to_split_complex(doc: Any) -> SplitS1Complex:
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
    deltas = _oracle_parse_family(doc, "operators", n_tr, gens, gens, "generator", "generator")

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
            coeff = _oracle_parse_coeff(term.get("coeff"), f"{path}.coeff")
            if coeff:
                unit[index[gname]] = unit.get(index[gname], Fraction(0)) + coeff
        unit = {i: x for i, x in unit.items() if x}
        _expect(bool(unit), "$.unit", "unit chain sums to zero")
    else:
        raise DocumentError("$.unit", "expected a generator name or a chain array")

    cplx = S1Complex(gens, n_tr, deltas)
    return SplitS1Complex(cplx, parts, unit)


def _oracle_field(doc: dict, key: str) -> Any:
    _expect(key in doc, f"$.{key}", "missing field")
    return doc[key]


def _oracle_document_to_morphism(doc: Any):
    _expect(isinstance(doc, dict), "$", "document must be a JSON object")
    _expect(doc.get("schema_version") == SCHEMA_VERSION,
            "$.schema_version", f"expected {SCHEMA_VERSION!r}")
    _expect(doc.get("kind") == "morphism", "$.kind", "expected 'morphism'")
    src = _oracle_document_to_split_complex(_oracle_field(doc, "source"))
    dst = _oracle_document_to_split_complex(_oracle_field(doc, "target"))
    n_tr = src.truncation
    _expect(dst.truncation == n_tr, "$.target.truncation",
            "source and target truncations differ")
    phis = _oracle_parse_family(doc, "components", n_tr, src.complex.generators,
                                dst.complex.generators, "source generator", "target generator")
    return src, dst, S1Morphism(src.complex, dst.complex, phis)


# ---------------------------------------------------------------------------
# the reader against the oracle, on every single-field mutation


def _outcome(parse, doc):
    """What a reader makes of doc: its result by repr, or the exception."""
    try:
        return ("parsed", repr(parse(copy.deepcopy(doc))))
    except DocumentError as exc:
        return ("refused", exc.path, exc.message)
    except Exception as exc:  # the two readers must fail alike
        return ("raised", type(exc).__name__, str(exc))


def _sample_complex_doc():
    """A valid document with every kind of field: rational and integer
    coefficients, three orders (one listed empty) and a multi-term unit."""
    return {
        "schema_version": "1",
        "truncation": 2,
        "generators": [
            {"name": "x", "degree": -1, "part": "plus"},
            {"name": "e", "degree": 0, "part": "zero"},
            {"name": "y", "degree": 1, "part": "plus"},
            {"name": "z", "degree": 0, "part": "zero"},
        ],
        "operators": [
            {"order": 0, "entries": [{"from": "x", "to": "e", "coeff": "2"},
                                     {"from": "x", "to": "z", "coeff": "-1/2"}]},
            {"order": 2, "entries": []},
            {"order": 1, "entries": [{"from": "y", "to": "x", "coeff": "3/4"}]},
        ],
        "unit": [{"gen": "e", "coeff": "1"}, {"gen": "z", "coeff": "-2/3"}],
    }


def _sample_morphism_doc():
    rng = random.Random(5)
    s = random_split_complex(rng, 4, 1, 2)
    _, deformed, _ = random_endomorphism_pair(rng, s.complex)
    return morphism_to_document(s, s, deformed)


def _nodes(node, path=()):
    """(path, value) of every node below `node`."""
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield path + (key,), child
        yield from _nodes(child, path + (key,))


# wrong types, unknown names, bad literals, zero denominators, a name and an
# order already taken, and non-array entries
_REPLACEMENTS = (None, True, False, 0, 1, -1, 7, 101, 1.5, "", "1", "2", "zero", "plus",
                 "x", "e", "ghost", "1/", "--1", "1.5", "1e3", " 1", "1/0", "-3/00", "0",
                 "4/6", "-1000001", "12345678901234567890/36", "9" * MAX_COEFF_DIGITS,
                 "9" * (MAX_COEFF_DIGITS + 1), [], [1], [{}], {}, {"a": 1})
_DELETE, _DUPLICATE = object(), object()


def _mutations(doc) -> Iterator[tuple[str, Any]]:
    """Every doc with one field replaced, deleted, or its container's item
    duplicated, named by a label."""
    for path, value in _nodes(doc):
        *parents, key = path
        for new in (*_REPLACEMENTS, _DELETE, _DUPLICATE):
            mutated = copy.deepcopy(doc)
            node = mutated
            for k in parents:
                node = node[k]
            if new is _DELETE:
                if isinstance(node, dict):
                    del node[key]
                else:
                    node.pop(key)
            elif new is _DUPLICATE:
                if not isinstance(node, list):
                    continue
                node.insert(key, copy.deepcopy(node[key]))
            else:
                node[key] = copy.deepcopy(new)
            yield f"{path} <- {new!r}"[:80], mutated


@pytest.mark.parametrize("parse, oracle, sample", [
    pytest.param(document_to_split_complex, _oracle_document_to_split_complex,
                 _sample_complex_doc, id="complex"),
    pytest.param(document_to_split_complex, _oracle_document_to_split_complex,
                 lambda: json.loads((FIXTURES / "corpus10_24.json").read_text()),
                 id="corpus10_24"),
    pytest.param(document_to_morphism, _oracle_document_to_morphism,
                 _sample_morphism_doc, id="morphism"),
])
def test_every_single_field_mutation_gets_the_oracle_outcome(parse, oracle, sample):
    doc = sample()
    assert _outcome(parse, doc)[0] == "parsed"
    kinds = set()
    for label, mutated in _mutations(doc):
        expected = _outcome(oracle, mutated)
        assert _outcome(parse, mutated) == expected, label
        kinds.add(expected[0] if expected[0] != "refused" else expected[2][:12])
    # the mutations reach refusals of many kinds, and documents still valid
    assert "parsed" in kinds and len(kinds) > 12


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=4)
    | st.sampled_from(["1", "-1/2", "1/0", "x", "e", "z", "plus", "zero"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["name", "degree", "part", "order", "entries", "from", "to",
                         "coeff", "gen"]), inner, max_size=4),
    max_leaves=8)


@settings(max_examples=200, deadline=timedelta(milliseconds=500))
@given(data=st.data())
def test_random_replacements_get_the_oracle_outcome(data):
    doc = _sample_complex_doc()
    *parents, key = data.draw(st.sampled_from([p for p, _ in _nodes(doc)]))
    node = doc
    for k in parents:
        node = node[k]
    node[key] = data.draw(_json_values)
    assert _outcome(document_to_split_complex, doc) == _outcome(
        _oracle_document_to_split_complex, doc)
