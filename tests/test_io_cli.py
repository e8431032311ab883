import json
import time
from datetime import timedelta
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from s1cochain.brieskorn import MAX_DISTINCT_EXPONENTS, MAX_PERIOD_BOUND, milnor_model
from s1cochain.cli import MAX_ONE_DILATION_N, main
from s1cochain.complexes import (
    MAX_DEGREE_WINDOW,
    MAX_FILTERED_DIM,
    MAX_GENERATORS,
    MAX_TRUNCATION,
)
from s1cochain.io_json import (
    DocumentError,
    document_to_morphism,
    document_to_split_complex,
    dumps,
    loads,
    morphism_to_document,
    split_complex_to_document,
)
from s1cochain.morphisms import identity_morphism
from s1cochain.randomized import random_split_complex

import random


def flat_doc(n, truncation):
    """n degree-0 generators of the zero part, no operators, unit g0."""
    return {"schema_version": "1", "truncation": truncation,
            "generators": [{"name": f"g{i}", "degree": 0, "part": "zero"}
                           for i in range(n)],
            "operators": [], "unit": "g0"}


def sample_doc():
    return {
        "schema_version": "1",
        "truncation": 1,
        "generators": [
            {"name": "x", "degree": -1, "part": "plus"},
            {"name": "e", "degree": 0, "part": "zero"},
        ],
        "operators": [
            {"order": 0, "entries": [{"from": "x", "to": "e", "coeff": "2"}]},
        ],
        "unit": "e",
    }


class TestDocumentRoundTrip:
    def test_parse_emit_parse_is_parse(self):
        s1_parsed = document_to_split_complex(sample_doc())
        again = document_to_split_complex(split_complex_to_document(s1_parsed))
        assert again == s1_parsed

    def test_emit_is_byte_stable(self):
        s = milnor_model(2, 2)
        text = dumps(s)
        assert dumps(loads(text)) == text

    def test_canonicalization_sorts_generators(self):
        s = document_to_split_complex(sample_doc())
        names = [g.name for g in s.complex.generators]
        assert names == sorted(names)

    def test_random_complex_round_trips(self):
        rng = random.Random(7)
        for _ in range(5):
            s = random_split_complex(rng, 5, 2, 3)
            assert loads(dumps(s)) == loads(dumps(loads(dumps(s))))

    def test_unit_chain_form(self):
        doc = sample_doc()
        doc["unit"] = [{"gen": "e", "coeff": "2/3"}]
        s = document_to_split_complex(doc)
        assert s.unit == {s.complex.index_of("e"): __import__("fractions").Fraction(2, 3)}


class TestDocumentErrors:
    def test_numeric_coefficient_rejected(self):
        doc = sample_doc()
        doc["operators"][0]["entries"][0]["coeff"] = 2
        with pytest.raises(DocumentError) as exc:
            document_to_split_complex(doc)
        assert "coeff" in exc.value.path

    def test_unknown_generator_positioned(self):
        doc = sample_doc()
        doc["operators"][0]["entries"][0]["to"] = "nope"
        with pytest.raises(DocumentError) as exc:
            document_to_split_complex(doc)
        assert exc.value.path == "$.operators[0].entries[0].to"

    def test_duplicate_name(self):
        doc = sample_doc()
        doc["generators"].append({"name": "x", "degree": 2, "part": "plus"})
        with pytest.raises(DocumentError) as exc:
            document_to_split_complex(doc)
        assert "duplicate" in exc.value.message

    def test_bad_schema_version(self):
        doc = sample_doc()
        doc["schema_version"] = "2"
        with pytest.raises(DocumentError):
            document_to_split_complex(doc)

    def test_bad_part(self):
        doc = sample_doc()
        doc["generators"][0]["part"] = "middle"
        with pytest.raises(DocumentError) as exc:
            document_to_split_complex(doc)
        assert "part" in exc.value.path

    def test_not_json(self):
        with pytest.raises(DocumentError):
            loads("{not json")

    @pytest.mark.parametrize("literal", [
        "1e400", " 3 ", "1_000", "0.5", "+1", "1/-2", "\u0663", "1/0", "",
        pytest.param("1" * 1001, id="1001-digit-numerator"),
        pytest.param("1/" + "1" * 1001, id="1001-digit-denominator")])
    def test_coefficient_outside_the_grammar_rejected(self, literal):
        doc = sample_doc()
        doc["operators"][0]["entries"][0]["coeff"] = literal
        with pytest.raises(DocumentError) as exc:
            document_to_split_complex(doc)
        assert exc.value.path == "$.operators[0].entries[0].coeff"

    def test_huge_exponent_rejected_fast(self):
        doc = sample_doc()
        doc["unit"] = [{"gen": "e", "coeff": "1e999999999"}]
        start = time.perf_counter()
        with pytest.raises(DocumentError) as exc:
            document_to_split_complex(doc)
        assert time.perf_counter() - start < 0.5
        assert exc.value.path == "$.unit[0].coeff"

    def test_truncation_limit(self):
        doc = sample_doc()
        doc["truncation"] = MAX_TRUNCATION
        assert document_to_split_complex(doc).truncation == MAX_TRUNCATION
        doc["truncation"] = MAX_TRUNCATION + 1
        with pytest.raises(DocumentError) as exc:
            document_to_split_complex(doc)
        assert exc.value.path == "$.truncation"

    def test_generator_limit(self):
        doc = sample_doc()
        doc["generators"] += [{"name": f"g{i}", "degree": 3, "part": "zero"}
                              for i in range(MAX_GENERATORS - 2)]
        assert document_to_split_complex(doc).complex.n == MAX_GENERATORS
        doc["generators"].append({"name": "one_more", "degree": 3, "part": "zero"})
        start = time.perf_counter()
        with pytest.raises(DocumentError) as exc:
            document_to_split_complex(doc)
        assert time.perf_counter() - start < 0.5
        assert exc.value.path == "$.generators"

    def test_filtered_dimension_limit(self):
        # (N+1)*n at the limit is admitted, one generator more is not
        n = MAX_FILTERED_DIM // 100
        doc = flat_doc(n, 99)
        assert document_to_split_complex(doc).complex.n == n
        doc["generators"].append({"name": "one_more", "degree": 0, "part": "zero"})
        with pytest.raises(DocumentError) as exc:
            document_to_split_complex(doc)
        assert exc.value.path == "$.truncation"
        assert str(MAX_FILTERED_DIM) in exc.value.message

    def test_limits_admit_the_largest_milnor_model(self):
        s = milnor_model(4, 5)
        assert (s.complex.n, s.truncation) == (738, 8)
        assert loads(dumps(s)).complex.n == 738

    @pytest.mark.parametrize("literal, value", [
        ("-3", Fraction(-3)), ("0012/8", Fraction(3, 2)),
        pytest.param("1" * 1000, Fraction(int("1" * 1000)), id="1000-digits")])
    def test_coefficient_grammar_accepts(self, literal, value):
        doc = sample_doc()
        doc["operators"][0]["entries"][0]["coeff"] = literal
        s = document_to_split_complex(doc)
        assert s.complex.deltas[0].entries[0][2] == value


class TestMorphismDocuments:
    def _sample(self):
        from s1cochain.io_json import morphism_to_document
        from s1cochain.morphisms import identity_morphism

        s = milnor_model(2, 2, include_spheres=False)
        return morphism_to_document(s, s, identity_morphism(s.complex))

    def test_round_trip_and_validity(self):
        from s1cochain.io_json import document_to_morphism, morphism_to_document
        from s1cochain.morphisms import verify_morphism

        doc = self._sample()
        source, target, morphism = document_to_morphism(doc)
        assert verify_morphism(morphism).valid
        again = morphism_to_document(source, target, morphism)
        assert again == doc

    def test_positioned_error_in_component(self):
        from s1cochain.io_json import document_to_morphism

        doc = self._sample()
        doc["components"][0]["entries"][0]["from"] = "ghost"
        with pytest.raises(DocumentError) as exc:
            document_to_morphism(doc)
        assert "components[0]" in exc.value.path

    @pytest.mark.parametrize("entries, path", [
        ([5], "$.components[0].entries[0]"),
        ({"a": 1}, "$.components[0].entries"),
    ])
    def test_malformed_component_entries_positioned(self, entries, path):
        from s1cochain.io_json import document_to_morphism

        doc = self._sample()
        doc["components"][0]["entries"] = entries
        with pytest.raises(DocumentError) as exc:
            document_to_morphism(doc)
        assert exc.value.path == path

    def test_truncation_mismatch_rejected(self):
        from s1cochain.io_json import document_to_morphism

        doc = self._sample()
        doc["target"] = split_complex_to_document(milnor_model(1, 1))
        with pytest.raises(DocumentError):
            document_to_morphism(doc)

    def test_nontrivial_morphism_survives(self):
        from s1cochain.io_json import document_to_morphism, morphism_to_document
        from s1cochain.morphisms import verify_morphism
        from s1cochain.randomized import random_endomorphism_pair

        rng = random.Random(3)
        s = random_split_complex(rng, 5, 2, 3)
        _, deformed, _ = random_endomorphism_pair(rng, s.complex)
        doc = morphism_to_document(s, s, deformed)
        _, _, morphism = document_to_morphism(doc)
        assert verify_morphism(morphism).valid
        assert any(not m.is_zero() for m in morphism.phis[1:])


# ---------------------------------------------------------------------------
# fuzzing the parsers: arbitrary JSON gets a DocumentError, never a crash

_SCHEMA_KEYS = ("schema_version", "kind", "truncation", "generators", "name",
                "degree", "part", "operators", "components", "order", "entries",
                "from", "to", "coeff", "unit", "gen", "source", "target")
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.sampled_from(["1", "0", "-1/2", "1/0", "x", "e", "plus", "zero", "morphism"]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(_SCHEMA_KEYS) | st.text(max_size=4), inner, max_size=5),
    max_leaves=16)


def _morphism_sample():
    s = document_to_split_complex(sample_doc())
    return morphism_to_document(s, s, identity_morphism(s.complex))


def _paths(node, path=()):
    """The JSON path of every node below `node`."""
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield path + (key,)
        yield from _paths(child, path + (key,))


@st.composite
def _documents(draw, sample):
    """Arbitrary JSON, or a valid document with one node, drawn uniformly,
    replaced by arbitrary JSON."""
    if draw(st.booleans()):
        return draw(_json_values)
    doc = sample()
    *parents, key = draw(st.sampled_from(list(_paths(doc))))
    node = doc
    for k in parents:
        node = node[k]
    node[key] = draw(_json_values)
    return doc


@pytest.mark.parametrize("parse, sample", [
    pytest.param(document_to_split_complex, sample_doc, id="complex"),
    pytest.param(document_to_morphism, _morphism_sample, id="morphism")])
@settings(max_examples=200, deadline=timedelta(milliseconds=500))
@given(data=st.data())
def test_parsers_raise_only_document_errors(parse, sample, data):
    doc = data.draw(_documents(sample))
    try:
        parse(doc)
    except DocumentError:
        pass


@settings(max_examples=200, deadline=timedelta(milliseconds=500))
@given(text=st.text(alphabet='[]{}",:0123456789-e ', max_size=60)
       # deep nesting, and integer literals past the interpreter's digit limit
       | st.builds(str.__mul__, st.sampled_from(["[", '{"a":', '[{"x":']),
                   st.integers(0, 100_000))
       | st.builds(lambda n: '{"truncation": ' + "9" * n + "}", st.integers(1, 6000))
       | st.builds(lambda doc, cut: doc[:cut], st.just(json.dumps(sample_doc())),
                   st.integers(0, 400)))
def test_loads_raises_only_document_errors_on_text(text):
    try:
        loads(text)
    except DocumentError as exc:
        assert exc.path.startswith("$")


# The stderr of a command on `cli_fixtures/broken.json`, whose operators
# violate degree shifts at two orders and relations at every k.
BROKEN_STDERR = """\
document parsed but the complex is not valid:
  degree shift of delta^1 (1-2r): VIOLATED (('x', 'z'),)
  degree shift of delta^2 (1-2r): VIOLATED (('z', 'x'),)
  relation sum_(i+j=0) delta^i delta^j = 0: VIOLATED (('x', 'z', Fraction(-2, 3)),)
  relation sum_(i+j=1) delta^i delta^j = 0: VIOLATED (('x', 'x', Fraction(10, 1)), \
('y', 'y', Fraction(29, 3)), ('z', 'z', Fraction(-1, 3)))
  relation sum_(i+j=2) delta^i delta^j = 0: VIOLATED (('y', 'x', Fraction(7, 12)), \
('z', 'x', Fraction(5, 1)), ('x', 'y', Fraction(1, 2)))
"""


def run_cli(*args, stdin=None):
    # click >= 8.2 separates stderr by default
    return CliRunner().invoke(main, list(args), input=stdin)


class TestCli:
    def test_milnor_pipe_dilation(self):
        doc = run_cli("milnor", "--k", "2", "--m", "2")
        assert doc.exit_code == 0
        res = run_cli("dilation", "--max-k", "3", stdin=doc.output)
        assert res.exit_code == 0
        payload = json.loads(res.stdout)
        assert payload["order"] == 1
        assert payload["witness"]["primitive"]

    def test_check_valid_document(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(dumps(milnor_model(2, 3)))
        res = run_cli("check", str(path))
        assert res.exit_code == 0
        assert json.loads(res.stdout)["valid"]

    def test_check_degree_violation_exit_1(self, tmp_path):
        doc = sample_doc()
        # x has degree -1 and e degree 0; an order-1 entry x -> e violates
        # the shift 1 - 2r = -1
        doc["operators"].append(
            {"order": 1, "entries": [{"from": "x", "to": "e", "coeff": "1"}]})
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        res = run_cli("check", str(path))
        assert res.exit_code == 1
        payload = json.loads(res.stdout)
        assert not payload["valid"]
        shifts = {c["r"]: c for c in payload["degree_shifts"]}
        assert {"from": "x", "to": "e"} in shifts[1]["violations"]

    def test_check_parse_error_exit_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{")
        res = run_cli("check", str(path))
        assert res.exit_code == 2

    def test_cohomology_command(self):
        doc = run_cli("milnor", "--k", "2", "--m", "2").output
        res = run_cli("cohomology", "--level", "0", "--degrees", "-2..2", stdin=doc)
        assert res.exit_code == 0
        payload = json.loads(res.stdout)
        assert payload["cohomology"]["0"]["dim"] == 1
        assert payload["cohomology"]["-1"]["dim"] == 0

    def test_zb_command(self):
        doc = run_cli("milnor", "--k", "2", "--m", "2", "--no-spheres").output
        res = run_cli("zb", "--k", "1", stdin=doc)
        assert res.exit_code == 0
        payload = json.loads(res.stdout)
        assert payload["b_dim"] == 2
        assert all("primitive" in b for b in payload["b_generators"])

    def test_delta_command(self):
        doc = run_cli("milnor", "--k", "2", "--m", "2", "--no-spheres").output
        res = run_cli("delta", "--k", "1", stdin=doc)
        payload = json.loads(res.stdout)
        assert payload["rank"] == 1
        assert payload["kernel_dim"] + payload["rank"] == payload["domain_dim"]

    def test_pages_command(self):
        doc = run_cli("milnor", "--k", "2", "--m", "2", "--truncation", "2").output
        res = run_cli("pages", stdin=doc)
        payload = json.loads(res.stdout)
        assert payload["truncation"] == 2
        assert len(payload["pages"]) == 3

    def test_semidilation_command(self):
        doc = run_cli("milnor", "--k", "3", "--m", "3", "--no-spheres").output
        res = run_cli("semidilation", stdin=doc)
        payload = json.loads(res.stdout)
        assert payload["order"] == 2

    def test_les_command(self):
        doc = run_cli("milnor", "--k", "2", "--m", "2").output
        res = run_cli("les", "--degrees", "-4..4", stdin=doc)
        assert res.exit_code == 0
        assert json.loads(res.stdout)["exact"]

    def test_tensor_command(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(dumps(milnor_model(1, 1)))
        b.write_text(dumps(milnor_model(2, 2, include_spheres=False)))
        out = tmp_path / "prod.json"
        res = run_cli("tensor", str(a), str(b), "-o", str(out))
        assert res.exit_code == 0
        res2 = run_cli("dilation", str(out))
        assert json.loads(res2.stdout)["order"] == 0

    def test_milnor_output_file_holds_the_stdout_bytes(self, tmp_path):
        out = tmp_path / "m.json"
        res = run_cli("milnor", "--k", "2", "--m", "2", "-o", str(out))
        assert res.exit_code == 0 and res.stdout == ""
        assert out.read_text() == run_cli("milnor", "--k", "2", "--m", "2").stdout

    @pytest.mark.parametrize("args", [
        ("check", "BAD"), ("cohomology", "BAD"), ("zb", "--k", "1", "BAD"),
        ("delta", "--k", "1", "BAD"), ("pages", "BAD"), ("dilation", "BAD"),
        ("semidilation", "BAD"), ("les", "BAD"), ("tensor", "BAD", "GOOD"),
        ("tensor", "GOOD", "BAD")], ids=lambda args: "-".join(args))
    def test_non_utf8_document_exit_2_with_one_line(self, tmp_path, args):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'\xff\xfe{"a":1}')
        good = tmp_path / "good.json"
        good.write_text(dumps(milnor_model(1, 1)))
        res = run_cli(*[{"BAD": str(bad), "GOOD": str(good)}.get(a, a) for a in args])
        assert res.exit_code == 2 and res.stdout == ""
        assert res.stderr.startswith(f"cannot read {bad}: ") and res.stderr.count("\n") == 1

    @pytest.mark.parametrize("target", ["missing", "directory"])
    @pytest.mark.parametrize("command", ["milnor", "tensor"])
    def test_unwritable_output_exit_2_with_one_line(self, tmp_path, command, target):
        doc = tmp_path / "m.json"
        doc.write_text(dumps(milnor_model(1, 1)))
        out = tmp_path / "no" / "x.json" if target == "missing" else tmp_path
        argv = (["milnor", "--k", "2", "--m", "2"] if command == "milnor"
                else ["tensor", str(doc), str(doc)])
        res = run_cli(*argv, "-o", str(out))
        assert res.exit_code == 2 and res.stdout == ""
        assert res.stderr.startswith(f"cannot write {out}: ") and res.stderr.count("\n") == 1

    def test_brieskorn_periods(self):
        res = run_cli("brieskorn", "periods", "2,3,3,3")
        payload = json.loads(res.stdout)
        assert [p["period"] for p in payload["principal_periods"]] == [3, 6]

    def test_brieskorn_cz_paper_value(self):
        res = run_cli("brieskorn", "cz", "2,3,3,3", "--bound", "12")
        payload = json.loads(res.stdout)
        assert payload["global_min_cz"] == 2
        assert payload["attained_at_total_period"] == 3

    def test_brieskorn_adc(self):
        res = run_cli("brieskorn", "adc", "2,2,2,3", "--bound", "12")
        payload = json.loads(res.stdout)
        assert payload["certified_within_bound"]
        assert payload["minimal_sft_degree"] == 2

    def test_brieskorn_predict(self):
        res = run_cli("brieskorn", "predict", "3,3,3,3", "--bound", "12")
        payload = json.loads(res.stdout)
        assert payload["predicted_order"] == 2

    def test_brieskorn_bad_exponents_exit_2(self):
        res = run_cli("brieskorn", "periods", "2,x")
        assert res.exit_code == 2

    def test_brieskorn_too_many_distinct_exponents_exit_2_fast(self):
        primes = [p for p in range(2, 100) if all(p % q for q in range(2, p))]
        start = time.perf_counter()
        res = run_cli("brieskorn", "periods", ",".join(map(str, primes[:MAX_DISTINCT_EXPONENTS + 1])))
        assert time.perf_counter() - start < 1.0
        assert res.exit_code == 2
        assert f"exceed the limit {MAX_DISTINCT_EXPONENTS}" in res.stderr

    def test_milnor_monotonicity_exit_2(self):
        res = run_cli("milnor", "--k", "3", "--m", "2")
        assert res.exit_code == 2

    def test_reproduce_theorem_a_small(self):
        res = run_cli("reproduce", "theorem-a", "--max", "3")
        assert res.exit_code == 0
        payload = json.loads(res.stdout)
        assert payload["pass"]
        assert len(payload["rows"]) == 6
        assert "PASS" in res.stderr

    def test_reproduce_corollary_small(self):
        res = run_cli("reproduce", "corollary-1dilation", "--n-range", "3..5")
        assert res.exit_code == 0
        payload = json.loads(res.stdout)
        assert payload["pass"]
        assert [r["n"] for r in payload["rows"]] == [3, 4, 5]

    def test_reproduce_corollary_bad_range_names_the_option(self):
        res = run_cli("reproduce", "corollary-1dilation", "--n-range", "3-5")
        assert res.exit_code == 2
        assert "--n-range" in res.stderr and "degree window" not in res.stderr

    def test_threads_flag_removed(self):
        res = run_cli("--threads", "2", "brieskorn", "periods", "2,2")
        assert res.exit_code == 2
        assert "--threads" in res.stderr

    @pytest.mark.parametrize("text", [
        pytest.param("[" * 100_000, id="nested-100000"),
        pytest.param(json.dumps(sample_doc()).replace('"degree": 0', '"degree": ' + "9" * 5000, 1),
                     id="5000-digit-degree")])
    def test_malformed_json_exit_2_fast(self, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        for args in (("check", str(path)), ("check",)):
            start = time.perf_counter()
            res = run_cli(*args, stdin=text)
            assert time.perf_counter() - start < 1.0
            assert res.exit_code == 2
            assert "parse error at $: not valid JSON" in res.stderr

    def test_oversized_truncation_exit_2_fast(self, tmp_path):
        doc = {"schema_version": "1", "truncation": 100_000_000,
               "generators": [{"name": "e", "degree": 0, "part": "zero"}],
               "operators": [], "unit": "e"}
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        res = run_cli("check", str(path))
        assert time.perf_counter() - start < 1.0
        assert res.exit_code == 2
        assert "$.truncation" in res.stderr

    def test_oversized_milnor_exit_2_fast(self):
        start = time.perf_counter()
        res = run_cli("milnor", "--k", "9", "--m", "12")
        assert time.perf_counter() - start < 1.0
        assert res.exit_code == 2
        assert str(MAX_GENERATORS) in res.stderr
        res = run_cli("milnor", "--k", "2", "--m", "2", "--truncation", "100000000")
        assert res.exit_code == 2
        assert str(MAX_TRUNCATION) in res.stderr

    def test_negative_max_k_exit_2_fast(self):
        doc = run_cli("milnor", "--k", "2", "--m", "2").output
        for command in ("dilation", "semidilation"):
            start = time.perf_counter()
            res = run_cli(command, "--max-k", "-1", stdin=doc)
            assert time.perf_counter() - start < 1.0
            assert res.exit_code == 2
            assert "--max-k" in res.stderr

    def test_oversized_filtered_dimension_exit_2_fast(self, tmp_path):
        # 10,000 generators are within the generator limit, but F^100 of
        # them would have dimension 1,010,000
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(flat_doc(MAX_GENERATORS, 100)))
        for command in ("dilation", "les", "pages"):
            start = time.perf_counter()
            res = run_cli(command, str(path))
            assert time.perf_counter() - start < 1.0
            assert res.exit_code == 2
            assert "$.truncation" in res.stderr
        res = run_cli("milnor", "--k", "4", "--m", "5", "--truncation", "100")
        assert res.exit_code == 2
        assert str(MAX_FILTERED_DIM) in res.stderr

    def test_oversized_tensor_exit_2_fast(self, tmp_path):
        # each factor is valid; the product would have 25,000,000 generators
        path = tmp_path / "a.json"
        path.write_text(json.dumps(flat_doc(5000, 0)))
        start = time.perf_counter()
        res = run_cli("tensor", str(path), str(path))
        assert time.perf_counter() - start < 1.0
        assert res.exit_code == 2
        assert str(MAX_GENERATORS) in res.stderr

    def test_out_of_range_levels_exit_2(self):
        # the library's refusal, after the flag's name
        doc = run_cli("milnor", "--k", "2", "--m", "2").output
        for args in (("cohomology", "--level", "-1"), ("cohomology", "--level", "99"),
                     ("zb", "--k", "-1"), ("zb", "--k", "9"), ("delta", "--k", "0"),
                     ("delta", "--k", "3"), ("delta", "--k", "7"), ("pages", "--n", "9")):
            res = run_cli(*args, stdin=doc)
            assert res.exit_code == 2
            assert res.stderr.startswith(args[1] + ": ")
            assert res.stdout == ""
        res = run_cli("delta", "--k", "3", stdin=doc)
        assert res.stderr == "--k: Delta^3 needs truncation >= 6 (have 4)\n"
        res = run_cli("pages", "--n", "9", stdin=doc)
        assert res.stderr == "--n: truncation 9 exceeds the complex's 4\n"

    def test_invalid_document_stderr_is_pinned(self):
        broken = Path(__file__).parent / "cli_fixtures" / "broken.json"
        res = run_cli("dilation", str(broken))
        assert res.exit_code == 1
        assert res.stderr == BROKEN_STDERR

    def test_pages_out_of_range_n_exit_2_fast(self):
        doc = run_cli("milnor", "--k", "2", "--m", "2").output
        for n, message in (("-1", "--n"), ("5", "exceeds")):
            start = time.perf_counter()
            res = run_cli("pages", "--n", n, stdin=doc)
            assert time.perf_counter() - start < 1.0
            assert res.exit_code == 2
            assert message in res.stderr
        assert run_cli("pages", "--n", "0", stdin=doc).exit_code == 0

    def test_oversized_degree_window_exit_2_fast(self):
        doc = run_cli("milnor", "--k", "2", "--m", "2").output
        half = MAX_DEGREE_WINDOW // 2
        for command in ("cohomology", "les"):
            for window in ("-100000000..100000000", f"{-half}..{half}",
                           "-100000000000000000000..100000000000000000000"):
                start = time.perf_counter()
                res = run_cli(command, f"--degrees={window}", stdin=doc)
                assert time.perf_counter() - start < 1.0
                assert res.exit_code == 2
                assert str(MAX_DEGREE_WINDOW) in res.stderr
        # the largest window is accepted
        res = run_cli("cohomology", f"--degrees={-half}..{half - 1}", stdin=doc)
        assert res.exit_code == 0
        assert len(json.loads(res.stdout)["cohomology"]) == MAX_DEGREE_WINDOW

    def test_empty_degree_window_exit_2_fast(self):
        # HI < LO holds no degree, so an LES over it would read as exact
        doc = str(Path(__file__).parent / "cli_fixtures" / "milnor_3_3.json")
        for command in ("les", "cohomology"):
            start = time.perf_counter()
            res = run_cli(command, "--degrees", "5..1", doc)
            assert time.perf_counter() - start < 1.0
            assert res.exit_code == 2
            assert "--degrees" in res.stderr and "empty window" in res.stderr

    def test_far_degree_les_exit_2_fast(self, tmp_path):
        # valid, but the default LES window spans the degrees 0..10^9
        doc = flat_doc(24, 2)
        doc["generators"][23].update(degree=10**9, part="plus")
        path = tmp_path / "far.json"
        path.write_text(json.dumps(doc))
        assert run_cli("check", str(path)).exit_code == 0
        start = time.perf_counter()
        res = run_cli("les", str(path))
        assert time.perf_counter() - start < 1.0
        assert res.exit_code == 2
        assert str(MAX_DEGREE_WINDOW) in res.stderr
        assert run_cli("les", "--degrees", "-2..2", str(path)).exit_code == 0

    @pytest.mark.parametrize("command", ["cz", "adc", "predict"])
    def test_brieskorn_nonpositive_bound_exit_2_fast(self, command):
        for bound in ("-5", "0"):
            start = time.perf_counter()
            res = run_cli("brieskorn", command, "2,3,3,3", "--bound", bound)
            assert time.perf_counter() - start < 1.0
            assert res.exit_code == 2
            assert "--bound" in res.stderr

    @pytest.mark.parametrize("command", ["cz", "adc", "predict"])
    def test_brieskorn_bound_above_the_cap_exit_2_fast(self, command):
        # an explicit bound, and the default 4 * 716,539 of (97, 89, 83)
        for args in (("2,3,3,3", "--bound", str(MAX_PERIOD_BOUND + 1)), ("97,89,83",)):
            start = time.perf_counter()
            res = run_cli("brieskorn", command, *args)
            assert time.perf_counter() - start < 1.0
            assert res.exit_code == 2
            assert str(MAX_PERIOD_BOUND) in res.stderr and "--bound" in res.stderr
        assert run_cli("brieskorn", command, "2,3,3,3", "--bound", "24").exit_code == 0

    def test_reproduce_bounds_exit_2_fast(self):
        for args in (("theorem-a", "--max", str(MAX_TRUNCATION // 2 + 1)),
                     ("theorem-a", "--max", "0"),
                     ("corollary-1dilation", "--n-range", f"3..{MAX_ONE_DILATION_N + 1}"),
                     # windows that hold no n >= 3 would certify nothing
                     ("corollary-1dilation", "--n-range", "1..2"),
                     ("corollary-1dilation", "--n-range", "5..3")):
            start = time.perf_counter()
            res = run_cli("reproduce", *args)
            assert time.perf_counter() - start < 1.0
            assert res.exit_code == 2
            assert args[1] in res.stderr

    def test_brieskorn_bound_below_minimal_period_exit_2(self):
        # the minimal principal period of (2,3,3,3) is 3
        for command in ("cz", "adc", "predict"):
            res = run_cli("brieskorn", command, "2,3,3,3", "--bound", "2")
            assert res.exit_code == 2
            assert "minimal principal period" in res.stderr
