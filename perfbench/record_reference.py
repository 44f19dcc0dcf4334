"""Record ``reference.json``: the expected outputs of every workload instance.

Run from the root of a checkout, at the commit whose outputs are the
reference::

    python3 perfbench/record_reference.py

Each instance is solved by one untraced cold pass in a pinned
environment, exactly as a benchmark run solves it.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import checks
import run
import spans


def main() -> int:
    scratch = run.WORK_DIR / f"reference-{os.getpid()}"
    run.pin_environment(scratch)
    workloads = run.import_program()
    tables: dict[str, dict] = {}
    try:
        for name, workload in workloads.WORKLOADS.items():
            labels = range(workloads.INSTANCES) if workload.seeded else [0]
            for instance in labels:
                outcome = workload.run_pass(
                    workload.prepare(instance), scratch / f"{name}-{instance}", spans.OBSERVE
                )
                if outcome.errors:
                    raise SystemExit(f"{name} instance {instance} failed: {outcome.errors}")
                label = str(instance) if workload.seeded else "-"
                tables.setdefault(name, {})[label] = outcome.rows
                print(f"{name} {label}: {outcome.wall_s:.2f}s", file=sys.stderr, flush=True)
    finally:
        spans.uninstall()
        shutil.rmtree(scratch, ignore_errors=True)
    payload = {
        "solver": repr(workloads.BENCH_SOLVER),
        "instances": workloads.INSTANCES,
        "workloads": tables,
    }
    checks.REFERENCE_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
