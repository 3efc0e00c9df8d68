"""Print the seconds this fresh process takes to reach a built workload.

    python3 perfbench/setup_probe.py <workload> <seed> <scratch dir>

The clock starts before numpy and the package are imported, as in ``run.py``.
"""

import time

_STARTED = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

if __name__ == "__main__":
    name, seed, scratch = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    workloads.import_program(Path(__file__).resolve().parent.parent)
    workloads.build(name, seed, scratch)
    print(time.perf_counter() - _STARTED)
