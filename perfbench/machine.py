"""Facts about the machine a run measured on, read from the running process."""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _blas() -> dict[str, object]:
    import numpy as np

    info: dict[str, object] = {"name": "unknown", "version": "unknown", "threads": "unknown"}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name", "unknown"), version=blas.get("version", "unknown"))
    except (KeyError, TypeError):
        pass
    # the thread cap is only known to the loaded library itself
    maps = Path("/proc/self/maps")
    libs = set()
    if maps.exists():
        libs = {line.split()[-1] for line in maps.read_text().splitlines()
                if "blas" in line.lower() and line.split()[-1].startswith("/")}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in _THREAD_SYMBOLS:
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def _l3_bytes() -> int | None:
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "level").read_text().strip() != "3":
                continue
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1], 1)
        return int(size.rstrip("KMG")) * scale
    return None


def facts(working_set: dict[str, int]) -> dict[str, object]:
    """nproc, versions, BLAS and its thread cap, L3 size and the working sets.

    ``working_set`` maps a name to a byte count computed from the grid sizes,
    not measured; the note says whether they all fit in L3.
    """
    import numpy as np

    l3 = _l3_bytes()
    largest = max(working_set.values(), default=0)
    if l3 is None:
        note = "L3 size unknown"
    elif largest <= l3:
        note = ("computed working sets fit in L3, so no memory-bandwidth claim can be made; "
                "byte counts are computed, not measured")
    else:
        note = "the largest computed working set exceeds L3; byte counts are computed, not measured"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "l3_bytes": l3,
        "working_set_bytes_computed": working_set,
        "note": note,
    }
