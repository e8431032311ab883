"""Byte fixtures of the CLI's JSON output.

`tests/cli_fixtures/` holds four input documents, `milnor_model(3, 3)` and
three complexes of the seed-10 corpus of acceptance criterion 5, and the
exact stdout of `pages`, `semidilation`, `dilation`, `zb`, `delta`, `les`
and `cohomology` on each.  It also holds the stdout of `check` on
`milnor_3_3` and on `broken.json`, a hand-written document whose operators
violate relations at every k and degree shifts at two orders, so the
residual entries are pinned too.  `cli_fixtures/commands/` holds the stdout
(`.out`) and the stderr (`.err`) of the commands that read no document:
`brieskorn periods`, `cz`, `adc` and `predict` on three exponent vectors,
which write nothing to stderr, `reproduce theorem-a` at `--max` 3 and 6
(the benchmark's argument) and `reproduce corollary-1dilation --n-range
3..5`, whose per-row diagnostic lines the `.err` files pin.
Every test compares bytes, so a change to any basis, witness, order,
residual, index, key order or diagnostic line fails here.

To regenerate after an intended change of the output, run

    PYTHONPATH=src python tests/test_cli_fixtures.py

and say in the change why the bytes moved.
"""

from pathlib import Path

import pytest
from click.testing import CliRunner

from s1cochain.cli import main

FIXTURES = Path(__file__).parent / "cli_fixtures"

# document name -> truncation N
DOCUMENTS = {"milnor_3_3": 6, "corpus10_3": 5, "corpus10_15": 2, "corpus10_24": 6}


def _commands(n_tr: int) -> list[tuple[str, ...]]:
    out = [("pages",), ("semidilation",), ("semidilation", "--max-k", "1"),
           ("dilation",), ("dilation", "--max-k", "1"), ("les",)]
    out += [("zb", "--k", str(k)) for k in sorted({0, 1, n_tr})]
    out += [("delta", "--k", str(k)) for k in sorted({1, n_tr // 2})]
    out += [("cohomology", "--level", str(k)) for k in (0, n_tr)]
    return out


# document -> exit code of `check`; `broken.json` is written by hand
CHECKS = {"milnor_3_3": 0, "broken": 1}

CASES = [(doc, args) for doc, n_tr in DOCUMENTS.items() for args in _commands(n_tr)]

# exponents -> the --bound arguments of `cz`, `adc` and `predict`
BRIESKORN = {"2,3,3,3": ("--bound", "60"), "3,3,3,3": (), "2,3,5": ()}

COMMANDS = [("brieskorn", "periods", e) for e in BRIESKORN]
COMMANDS += [("brieskorn", c, e, *bound) for c in ("cz", "adc", "predict")
             for e, bound in BRIESKORN.items()]
COMMANDS += [("reproduce", "theorem-a", "--max", "3"),
             ("reproduce", "theorem-a", "--max", "6"),
             ("reproduce", "corollary-1dilation", "--n-range", "3..5")]


def _fixture_path(doc: str, args: tuple[str, ...], stream: str = "out") -> Path:
    return FIXTURES / doc / ("_".join(a.lstrip("-") for a in args) + "." + stream)


def _run(doc: str, args: tuple[str, ...]):
    return CliRunner().invoke(main, [*args, str(FIXTURES / f"{doc}.json")])


@pytest.mark.parametrize("doc,args", CASES, ids=[f"{d}-{'_'.join(a)}" for d, a in CASES])
def test_cli_output_matches_fixture(doc, args):
    res = _run(doc, args)
    assert res.exit_code == 0, res.stderr
    assert res.stdout == _fixture_path(doc, args).read_text(encoding="utf-8")


@pytest.mark.parametrize("doc,code", CHECKS.items())
def test_check_output_matches_fixture(doc, code):
    res = _run(doc, ("check",))
    assert res.exit_code == code, res.stderr
    assert res.stdout == _fixture_path(doc, ("check",)).read_text(encoding="utf-8")


@pytest.mark.parametrize("args", COMMANDS, ids=["_".join(a) for a in COMMANDS])
def test_command_output_matches_fixture(args):
    res = CliRunner().invoke(main, list(args))
    assert res.exit_code == 0, res.stderr
    assert res.stdout == _fixture_path("commands", args).read_text(encoding="utf-8")
    assert res.stderr == _fixture_path("commands", args, "err").read_text(encoding="utf-8")


def _write_fixtures() -> None:
    import random

    from s1cochain.brieskorn import milnor_model
    from s1cochain.io_json import dumps
    from s1cochain.randomized import random_split_complex

    # the recipe of acceptance criterion 5 at seed 10
    subjects = {"milnor_3_3": milnor_model(3, 3)}
    for i in (3, 15, 24):
        rng = random.Random(10_000 + i)
        subjects[f"corpus10_{i}"] = random_split_complex(
            rng, 3 + i % 9, i % 4, 2 + i % 5, with_unit_killer=(i % 7 == 0))
    for doc, s in subjects.items():
        assert s.truncation == DOCUMENTS[doc]
        (FIXTURES / doc).mkdir(parents=True, exist_ok=True)
        (FIXTURES / f"{doc}.json").write_text(dumps(s), encoding="utf-8")
    for doc, args in CASES:
        res = _run(doc, args)
        assert res.exit_code == 0, (doc, args, res.stderr)
        _fixture_path(doc, args).write_text(res.stdout, encoding="utf-8")
    for doc, code in CHECKS.items():
        res = _run(doc, ("check",))
        assert res.exit_code == code, (doc, res.stderr)
        (FIXTURES / doc).mkdir(exist_ok=True)
        _fixture_path(doc, ("check",)).write_text(res.stdout, encoding="utf-8")
    (FIXTURES / "commands").mkdir(exist_ok=True)
    for args in COMMANDS:
        res = CliRunner().invoke(main, list(args))
        assert res.exit_code == 0, (args, res.stderr)
        _fixture_path("commands", args).write_text(res.stdout, encoding="utf-8")
        _fixture_path("commands", args, "err").write_text(res.stderr, encoding="utf-8")


if __name__ == "__main__":
    _write_fixtures()
