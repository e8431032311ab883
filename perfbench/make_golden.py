"""Regenerate golden.json: the answer digests of every workload's operations.

    python3 perfbench/make_golden.py

Run it only when a change of answers is intended and explained; the digests
are taken at the default seed, with one untraced pass per workload.
"""

from __future__ import annotations

import json

import run


def main() -> None:
    W = run.import_package()
    golden = {}
    for workload in W.WORKLOADS:
        _, inputs = W.setup(workload, W.DEFAULT_SEED)
        result = run.run_pass(W, inputs, None, run.memo_clearers(), run.Speed())
        if result["failures"]:
            raise SystemExit(f"{workload}: {result['failures'][:5]}")
        golden[workload] = {"seed": W.DEFAULT_SEED, "inputs_sha256": inputs.sha256,
                            "ops": result["digests"]}
        print(f"{workload}: {len(result['digests'])} digests")
    run.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
