"""Tests of the benchmark itself:  python3 -m pytest perfbench"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import tracer as T

W = run.import_package()


def test_self_times_on_a_nested_trace():
    #  a [0, 10]
    #  +- b [1, 4]
    #  |  +- c [2, 3]
    #  +- d [5, 9]
    #  e [11, 12]
    parents = [T.NO_PARENT, 0, 1, 0, T.NO_PARENT]
    starts = [0.0, 1.0, 2.0, 5.0, 11.0]
    ends = [10.0, 4.0, 3.0, 9.0, 12.0]
    assert T.self_times(parents, starts, ends) == [3.0, 2.0, 1.0, 4.0, 1.0]


def test_self_times_merge_overlapping_children_and_clip_to_the_parent():
    # children [1, 5] and [3, 7] cover [1, 7]; a child reaching past its
    # parent's end covers only up to it
    parents = [T.NO_PARENT, 0, 0, T.NO_PARENT, 3]
    starts = [0.0, 1.0, 3.0, 20.0, 22.0]
    ends = [10.0, 5.0, 7.0, 24.0, 30.0]
    assert T.self_times(parents, starts, ends)[0] == 4.0
    assert T.self_times(parents, starts, ends)[3] == 2.0


def test_tracer_spans_with_a_fake_clock():
    ticks = iter(range(100))
    tr = T.Tracer(clock=lambda: float(next(ticks)))

    def inner():
        return 7

    def outer():
        return tr.span("m.inner", inner) + tr.span("m.inner", inner)

    assert tr.span("m.outer", outer) == 14
    # outer [0, 5], inner [1, 2] and [3, 4]
    table = tr.by_name()
    assert table["m.outer"] == {"calls": 1, "total_s": 5.0, "self_s": 3.0}
    assert table["m.inner"] == {"calls": 2, "total_s": 2.0, "self_s": 2.0}


def test_a_hooks_time_is_a_child_span_outside_every_module():
    ticks = iter(range(100))
    tr = T.Tracer(clock=lambda: float(next(ticks)))
    seen = []
    inner = tr._wrap("linalg.inner", lambda: 7, lambda t, args, kwargs, result: seen.append(result))
    assert tr.span("linalg.outer", inner) == 7 and seen == [7]
    # outer [0, 5], inner [1, 2], its hook [3, 4]
    table = tr.by_name()
    assert table[T.HOOK_SPAN] == {"calls": 1, "total_s": 1.0, "self_s": 1.0}
    assert table["linalg.outer"]["self_s"] == 3.0
    assert tr.layer_metrics()["linalg.self_s"] == 4.0


def test_noted_work_leaves_the_self_time_of_its_span():
    ticks = iter(range(100))
    tr = T.Tracer(clock=lambda: float(next(ticks)))

    def body():
        tr.note("trace.calibrate", 0.25, 0.75)
        return 1

    tr.span("linalg.outer", body)          # [0, 1]
    tr.note("trace.calibrate", 2.0, 3.0)   # outside every span: not recorded
    table = tr.by_name()
    assert table["linalg.outer"]["self_s"] == 0.5
    assert table["trace.calibrate"] == {"calls": 1, "total_s": 0.5, "self_s": 0.5}


def test_install_patches_imported_names_and_uninstall_restores_them():
    from s1cochain import brieskorn, dilation, linalg

    original = linalg.solve
    assert dilation.solve is original          # `from .linalg import solve`
    tr = T.Tracer()
    with tr:
        assert linalg.solve is not original
        assert dilation.solve is linalg.solve
        s = brieskorn.milnor_model(2, 2)
        assert dilation.order_of_dilation(s).order == 1    # outside any span
        assert len(tr.starts) == 0
        assert tr.span("bench.op", dilation.order_of_dilation, s).order == 1
    assert linalg.solve is original and dilation.solve is original
    m = tr.layer_metrics()
    assert m["linalg.elim.count"] >= 1 and m["dilation.scan.count"] == 1
    assert m["dilation.level_tests.count"] >= 2   # levels 0 and 1, then monotone checks


def test_a_perturbed_golden_digest_counts_as_a_failed_operation(tmp_path, monkeypatch, capsys):
    golden = json.loads(run.GOLDEN.read_text())
    ops = golden["product_pages"]["ops"]
    key = sorted(ops)[0]
    ops[key] = "0" * 16 if ops[key] != "0" * 16 else "1" * 16
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(golden))
    monkeypatch.setattr(run, "GOLDEN", path)
    run.main(["--workload", "product_pages", "--seed", "1", "--seconds", "0.1",
              "--trace", "0"])
    lines = capsys.readouterr().out.strip().splitlines()
    report = json.loads(lines[-2])["report"]
    result = json.loads(lines[-1])
    # the one operation fails in each of the run's passes, and nothing else
    assert report["golden_checked"] and report["passes"] >= 1
    assert report["metrics"]["ops_failed"]["value"] == report["passes"]
    assert result["failed"] == report["passes"] and result["correct"] is False
    assert "golden" in report["failures"][0] and report["failures"][0].startswith(key)


def test_changed_inputs_of_a_pinned_run_count_as_a_failed_operation(tmp_path, monkeypatch,
                                                                      capsys):
    # product_pages ignores the seed, so its golden digests always apply
    golden = json.loads(run.GOLDEN.read_text())
    golden["product_pages"]["inputs_sha256"] = "0" * 64
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(golden))
    monkeypatch.setattr(run, "GOLDEN", path)
    run.main(["--workload", "product_pages", "--seed", "1", "--seconds", "0.1",
              "--trace", "0"])
    lines = capsys.readouterr().out.strip().splitlines()
    report = json.loads(lines[-2])["report"]
    result = json.loads(lines[-1])
    assert not report["golden_checked"]
    assert result["failed"] == 1 and result["correct"] is False
    assert report["failures"][0].startswith("inputs: ")


def test_result_units_are_the_declared_ones(capsys):
    run.main(["--workload", "product_pages", "--seed", "1", "--seconds", "0.1",
              "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    declared = json.loads(run.DECLARATION.read_text())["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}


def test_speed_rescales_an_interval_less_the_calibrations_inside_it():
    ref = run.REFERENCE_CALIBRATION_S
    speed = run.Speed()
    speed.starts, speed.ends = [0.0, 2.0, 4.0], [1.0, 3.0, 5.0]
    speed.values = [ref, 2 * ref, 3 * ref]
    # between calibrations 0 and 1: 0.3 s at a mean of 1.5 times the reference
    assert speed.reference_s(1.5, 1.8) == pytest.approx(0.3 / 1.5)
    # holds calibration 1, which is taken out; from 0 to 2 the mean is 2 ref
    assert speed.reference_s(1.0, 4.0) == pytest.approx(2.0 / 2.0)


def test_speed_calibrates_during_a_long_operation():
    with run.Speed() as speed:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 3 * run.CALIBRATE_EVERY_S:
            pass
        t1 = time.perf_counter()
    assert len(speed.values) >= 4          # entry, two or more from the timer, exit
    assert 0 < speed.reference_s(t0, t1)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL


def test_without_the_package_source_the_run_fails_without_a_result(tmp_path):
    # the benchmark's own files only: BENCHMARK.json and perfbench/
    shutil.copytree(Path(run.HERE), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.DECLARATION, tmp_path / "BENCHMARK.json")
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "product_pages",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == "" and "no package source" in out.stderr


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_golden_covers_every_operation(workload):
    golden = json.loads(run.GOLDEN.read_text())[workload]
    _, inputs = W.setup(workload, W.DEFAULT_SEED)
    assert golden["inputs_sha256"] == inputs.sha256
    assert sorted(golden["ops"]) == sorted(op.key for op in inputs.ops)
