"""Every answer of the deterministic benchmark workloads equals its golden digest.

One pass of the `fermat_spheres` and `product_pages` operations defined in
`perfbench/workloads.py`, each answer's digest checked against
`perfbench/golden.json`.  Both files are only read.  A change that alters
any basis, witness, page or order fails here.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _workloads():
    name = "perfbench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, PERFBENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # dataclasses look their module up while defined
        spec.loader.exec_module(module)
    return sys.modules[name]


@pytest.mark.parametrize("workload", ["fermat_spheres", "product_pages"])
def test_answers_match_golden_digests(workload):
    W = _workloads()
    golden = json.loads((PERFBENCH / "golden.json").read_text())[workload]
    _, inputs = W.setup(workload, W.DEFAULT_SEED)
    assert inputs.sha256 == golden["inputs_sha256"]
    contexts: dict[int, dict] = {}
    digests = {}
    for op in inputs.ops:
        ctx = contexts.setdefault(op.subject, {})
        answer = op.run(ctx)
        assert op.check(answer, ctx), op.key
        digests[op.key] = W.digest(op.canon(answer))
    assert digests == golden["ops"]
