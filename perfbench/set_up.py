"""One set-up and preload of a workload, in a fresh interpreter.

    python3 perfbench/set_up.py '<workload parameters as JSON>' <seed>

Builds the workload's preload from the seed, then times the construction of
``LevelStructure`` and the preload exactly as an untraced run does. Prints
one JSON object with ``setup_s`` and ``load_us_per_edge``. ``run.py`` starts
this script for the repetitions of set-up it reports the median of.
"""

from __future__ import annotations

import json
import sys

from run import _import_program


def main() -> int:
    _import_program()
    import bench_harness
    from bench_workloads import Workload, generate

    params, seed = sys.argv[1:]
    workload, seed = Workload(**json.loads(params)), int(seed)
    inputs = generate(workload, seed, 0)
    bench_harness._freeze_inputs()
    with bench_harness.GcMeter() as meter:
        _, setup_s, load = bench_harness.set_up(workload, seed, inputs.preload, meter)
    print(json.dumps({"setup_s": setup_s, "load_us_per_edge": 1e6 * load.total() / load.elements}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
