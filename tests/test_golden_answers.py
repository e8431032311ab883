"""Benchmark answers equal their golden digests.

One pass of the `fermat_spheres` and `product_pages` operations defined in
`perfbench/workloads.py`, and of the `random_corpus` operations on every
fifth input at the default seed (344 operations: every morphism operation,
and the order, LES and E_infinity operations of 43 inputs), each answer's
digest checked against `perfbench/golden.json`; then the LES, and the four
order answers (dilation, semi-dilation and both torsion routes), of every
one of the 215 `random_corpus` inputs, each after its `load`.  Both files are
only read.  A change that alters any basis, witness, page, order or LES
rank fails here.
"""

from __future__ import annotations

import json

import pytest

from oracles import PERFBENCH, perfbench_workloads


# workload -> run the operations of the inputs whose index is 0 mod this
# (the random corpus's morphism operations run on exactly these inputs)
EVERY = {"fermat_spheres": 1, "product_pages": 1, "random_corpus": 5}


@pytest.mark.parametrize("workload", list(EVERY))
def test_answers_match_golden_digests(workload):
    W = perfbench_workloads()
    golden = json.loads((PERFBENCH / "golden.json").read_text())[workload]
    _, inputs = W.setup(workload, W.DEFAULT_SEED)
    assert inputs.sha256 == golden["inputs_sha256"]
    every = EVERY[workload]
    contexts: dict[int, dict] = {}
    digests = {}
    for op in inputs.ops:
        if op.subject % every:
            continue
        ctx = contexts.setdefault(op.subject, {})
        answer = op.run(ctx)
        assert op.check(answer, ctx), op.key
        digests[op.key] = W.digest(op.canon(answer))
    if every == 1:
        assert digests == golden["ops"]
    else:
        assert digests == {key: golden["ops"].get(key) for key in digests}


def _every_corpus_digest(buckets):
    """The digest of every `random_corpus` operation in `buckets`, on all
    215 inputs, each after its input's `load`, and the golden ones."""
    W = perfbench_workloads()
    golden = json.loads((PERFBENCH / "golden.json").read_text())["random_corpus"]
    _, inputs = W.setup("random_corpus", W.DEFAULT_SEED)
    assert inputs.sha256 == golden["inputs_sha256"]
    assert len(inputs.documents) == 215
    contexts: dict[int, dict] = {}
    digests = {}
    for op in inputs.ops:
        if op.bucket != "load" and op.bucket not in buckets:
            continue
        ctx = contexts.setdefault(op.subject, {})
        answer = op.run(ctx)
        assert op.check(answer, ctx), op.key
        if op.bucket in buckets:
            digests[op.key] = W.digest(op.canon(answer))
    return digests, {key: golden["ops"][key] for key in digests}


def test_every_corpus_les_matches_golden_digest():
    digests, golden = _every_corpus_digest({"les"})
    assert len(digests) == 215
    assert digests == golden


def test_every_corpus_order_matches_golden_digest():
    # dilation, semidilation and both torsion routes of every input
    digests, golden = _every_corpus_digest({"dilation", "semidilation", "torsion"})
    assert len(digests) == 4 * 215
    assert [key for key in digests if digests[key] != golden[key]] == []
