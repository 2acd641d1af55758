"""Machine and run facts, and the numpy copy-bandwidth probe."""

from __future__ import annotations

import os
import platform
import shutil
import subprocess
import time
from pathlib import Path

import numpy as np
import scipy


def facts(root: Path) -> dict:
    """Revision, CPU, caches, memory and library versions of this run."""
    return {
        "git_revision": _git_revision(root),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpuinfo_field("model name"),
        "cpuinfo_cache_size": _cpuinfo_field("cache size"),
        "caches_bytes": caches(),
        "mem_available_bytes": mem_available(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def _git_revision(root: Path) -> str:
    # only ask git inside a real checkout, so it never walks up to a parent repo
    if not (root / ".git").exists() or shutil.which("git") is None:
        return "unknown (not a git checkout)"
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                         text=True, timeout=30)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _cpuinfo_field(key: str) -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                name, _, value = line.partition(":")
                if name.strip() == key:
                    return value.strip()
    except OSError:
        pass
    return "unknown"


def caches() -> dict:
    """Total size of each cache level in bytes, as lscpu reports it."""
    if shutil.which("lscpu") is None:
        return {}
    out = subprocess.run(["lscpu", "--bytes", "--caches=NAME,ALL-SIZE"],
                         capture_output=True, text=True, timeout=30)
    sizes = {}
    for line in out.stdout.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[1].isdigit():
            sizes[parts[0]] = int(parts[1])
    return sizes


def last_level_cache_bytes() -> int:
    sizes = caches()
    for name in ("L4", "L3", "L2"):
        if name in sizes:
            return sizes[name]
    kb = _cpuinfo_field("cache size").split()
    return int(kb[0]) * 1024 if kb and kb[0].isdigit() else 0


def mem_available() -> int:
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return 0


def cpu_jiffies():
    """(steal, total) jiffies of all CPUs from /proc/stat, or None."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    # user nice system idle iowait irq softirq steal [guest guest_nice]
    return fields[7], sum(fields[:8])


def steal_share(before, after) -> float:
    """Share of all CPUs' time the hypervisor gave to other guests in between."""
    if before is None or after is None or after[1] == before[1]:
        return 0.0
    return (after[0] - before[0]) / (after[1] - before[1])


def copy_gbs(nbytes: int, repeats: int = 10) -> float:
    """Best GB/s of np.copyto between two float64 arrays of nbytes each.

    Counts one read and one write of the array per copy (no write-allocate).
    """
    n = max(nbytes // 8, 1)
    src = np.ones(n)
    dst = np.zeros(n)
    np.copyto(dst, src)  # fault in the pages before timing
    rates = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        rates.append(2.0 * n * 8 / (time.perf_counter() - t0) / 1e9)
    return max(rates)
