"""The machine block every benchmark result carries.

CPU count, Python and NumPy versions, L3 size and a measured copy
bandwidth (``np.copyto`` between two arrays each at least four times the
L3 size, so the copy streams from memory).  The copy runs in a child
process, so its large arrays never count towards the benchmark's own
peak RSS; run this file directly to print the block as JSON.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

MIB = 1 << 20
#: Copy-array floor when the L3 size cannot be read.
MIN_COPY_BYTES = 420 * MIB
#: Timed copies; the bandwidth is their median.
COPY_REPEATS = 5


def l3_bytes() -> int | None:
    """Size of the last-level (L3) cache of CPU 0, from sysfs."""
    path = Path("/sys/devices/system/cpu/cpu0/cache/index3/size")
    try:
        text = path.read_text(encoding="ascii").strip()
    except OSError:
        return None
    scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
    digits = text.rstrip("KMG")
    return int(digits) * scale if digits.isdigit() else None


def copy_gbps(nbytes: int) -> float:
    """Median ``np.copyto`` bandwidth in GB/s, counting the bytes read
    plus the bytes written (the STREAM "copy" convention)."""
    n = nbytes // 8
    src = np.ones(n, dtype=np.float64)
    dst = np.zeros(n, dtype=np.float64)
    np.copyto(dst, src)  # fault in both arrays before timing
    times = []
    for _ in range(COPY_REPEATS):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        times.append(time.perf_counter() - t0)
    return 2 * n * 8 / float(np.median(times)) / 1e9


def machine_block() -> dict:
    """Describe this machine; the copy bandwidth comes from a child
    process that is waited for before returning."""
    l3 = l3_bytes()
    nbytes = max(MIN_COPY_BYTES, 4 * l3) if l3 else MIN_COPY_BYTES
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--copy-bytes", str(nbytes)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "l3_mib": None if l3 is None else l3 / MIB,
        "copy_array_mib": nbytes / MIB,
        "copy_arrays": 2,
        "copy_gbps": float(json.loads(out.stdout)["copy_gbps"]),
        "copy_bytes_counted": "read + write",
    }


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "--copy-bytes":
        print(json.dumps({"copy_gbps": copy_gbps(int(sys.argv[2]))}))
    else:
        print(json.dumps(machine_block()))
