"""Write perfbench/reference/<workload>.json: the outputs of each workload at
its default seed, which later runs at that seed must reproduce.

    python3 perfbench/make_reference.py [workload ...]

Regenerate only in a change whose purpose is to alter those outputs, and say
so in that change.
"""

from __future__ import annotations

import json
import os
import sys

import run


def main(names: list[str]) -> int:
    run.bootstrap()
    import workloads

    os.makedirs(workloads.REFERENCE_DIR, exist_ok=True)
    for name in names or list(workloads.WORKLOADS):
        workload = workloads.WORKLOADS[name]
        attempts = workloads.Attempts()
        with run.work_dir() as workdir:
            state = workload.setup(workload.default_seed, workdir, 1.0)
            _, outputs = run.timed_op(workload, state, workdir, attempts, compare=False)
        if attempts.failed:
            print(f"{name}: not written, failed: {attempts.failures}", file=sys.stderr)
            return 1
        with open(workloads.reference_path(name), "w", encoding="utf-8") as f:
            json.dump({"workload": name, "seed": workload.default_seed, "outputs": outputs},
                      f, sort_keys=True, separators=(",", ":"))
            f.write("\n")
        print(f"wrote {workloads.reference_path(name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
