"""Choose the demand seeds of the ``whatif`` pool: equal work per seed.

The cost of the worst-case LPs depends on the bimodal matrix, by about
±20% between demand seeds on Geant.  Since ``--seed`` picks the input,
that variation would show as run-to-run spread of ``wall_s``.  This
script times each candidate seed against a fixed anchor seed, pass for
pass, so host speed drifting during the survey cancels out, and prints
the ``POOL`` seeds whose relative cost is closest to the candidates'
median::

    python3 perfbench/select_seeds.py 48

The seeds it printed are ``workloads.WHATIF_SEEDS``; rerun
``record_reference.py`` after changing them.
"""

from __future__ import annotations

import json
import shutil
import statistics
import sys

import run
import spans

POOL = 16
ANCHOR = 0


def main(candidates: int) -> int:
    scratch = run.WORK_DIR / "select-seeds"
    run.pin_environment(scratch)
    workloads = run.import_program()
    whatif = workloads.WORKLOADS["whatif"]
    relative: dict[int, float] = {}
    try:
        for seed in range(candidates):
            walls = []
            for demand_seed in (ANCHOR, seed):
                root = scratch / str(demand_seed)
                walls.append(whatif.run_pass(demand_seed, root, spans.OBSERVE).wall_s)
                shutil.rmtree(root, ignore_errors=True)
            relative[seed] = walls[1] / walls[0]
            print(json.dumps({"seed": seed, "relative_cost": relative[seed]}), flush=True)
    finally:
        spans.uninstall()
        shutil.rmtree(scratch, ignore_errors=True)
    median = statistics.median(relative.values())
    pool = sorted(sorted(relative, key=lambda seed: abs(relative[seed] - median))[:POOL])
    print(json.dumps({"median": median, "pool": pool}))
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else 48))
