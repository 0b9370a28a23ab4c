"""Fresh-process helpers for the benchmark; each prints one JSON line.

    python3 perfbench/child.py setup <cli|census-warm|volume> <seed>
    python3 perfbench/child.py hasse <case> <seed>

`setup` times what a fresh process pays before its first result (for `cli`,
the import of the command line module), at nominal host speed (see
hostspeed.py); `hasse` runs one cold/warm hasse_invariant kernel.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
KERNEL_SAMPLES = 5  # host-speed kernel runs before and after a short set-up


def setup(workload: str, seed: int) -> dict:
    failed = 0
    if workload == "census-warm":
        import census
        import reference
        import run
        ref = reference.load()
        checks = run.Checks()
        seconds, _reports = run.cold_pass(census.census(seed, ref["pool"]), ref, checks)
        return {"setup_s": seconds, "attempted": checks.attempted, "failed": checks.failed}
    kernels = [hostspeed.sample() for _ in range(KERNEL_SAMPLES)]
    t0 = time.perf_counter()
    if workload == "volume":
        from coxarith import lvalues
        failed += not lvalues.delta5_volume_check(60)["match"]
    else:
        import coxarith.cli  # noqa: F401
    seconds = time.perf_counter() - t0
    kernels += [hostspeed.sample() for _ in range(KERNEL_SAMPLES)]
    return {"setup_s": seconds * hostspeed.NOMINAL_S / statistics.median(kernels),
            "attempted": 1, "failed": failed}


def main(argv: list[str]) -> int:
    cmd = argv[0]
    if cmd == "setup":
        print(json.dumps(setup(argv[1], int(argv[2]))))
        return 0
    if cmd == "hasse":
        import kernels
        print(json.dumps(kernels.hasse_case(argv[1], int(argv[2]))))
        return 0
    raise SystemExit(f"unknown child command {cmd!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
