"""Every script in `demos/` runs to completion with exit status 0, and its
stdout matches `tests/demo_fixtures/<stem>.out` byte for byte.

The demos print bases, witnesses, orders and indices, so a change to any
of them fails here.  To regenerate after an intended change of the output,
run

    PYTHONPATH=src python tests/test_demos.py

and say in the change why the bytes moved.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
FIXTURES = Path(__file__).parent / "demo_fixtures"


def _run(demo: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    res = _run(demo)
    assert res.returncode == 0, res.stderr
    assert res.stdout == (FIXTURES / f"{demo.stem}.out").read_text(encoding="utf-8")


def _write_fixtures() -> None:
    FIXTURES.mkdir(exist_ok=True)
    for demo in DEMOS:
        res = _run(demo)
        assert res.returncode == 0, (demo.stem, res.stderr)
        (FIXTURES / f"{demo.stem}.out").write_text(res.stdout, encoding="utf-8")


if __name__ == "__main__":
    _write_fixtures()
