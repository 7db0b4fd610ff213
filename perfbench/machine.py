"""Description of the machine and code a run measured.

Numbers from different machines are not comparable; every run prints this
record so a reader can tell.  Call after numpy is imported, so the BLAS
library is loaded and its thread count can be read.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
from pathlib import Path


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read().strip()
    except OSError:
        return ""


def cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def caches() -> dict:
    """Cache sizes of cpu0 by level and type, as the kernel reports them."""
    out = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level, kind = _read(f"{index}/level"), _read(f"{index}/type")
        size = _read(f"{index}/size")
        if level and size:
            suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
            out[f"L{level}{suffix}"] = size
    return out


def blas() -> dict:
    """Build-time BLAS of numpy, and the thread count and configuration of
    every OpenBLAS library loaded in this process (numpy and scipy each
    bring their own)."""
    import numpy as np
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = {"numpy_build": f"{info.get('name')} {info.get('version')}",
              "env": {k: os.environ[k] for k in
                      ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                       "MKL_NUM_THREADS") if k in os.environ},
              "loaded": {}}
    paths = {line.split()[-1] for line in _read("/proc/self/maps").splitlines()
             if "openblas" in line.lower() and line.split()[-1].startswith("/")}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and config is not None:
                    threads.restype = ctypes.c_int
                    config.restype = ctypes.c_char_p
                    record["loaded"][os.path.basename(path)] = {
                        "threads": threads(), "config": config().decode()}
                    break
            else:
                continue
            break
    return record


def git_rev(root: Path) -> str:
    """Commit of a git checkout, read from .git without running git (which
    would search parent directories when there is no checkout)."""
    head = _read(str(root / ".git" / "HEAD"))
    if not head.startswith("ref: "):
        return head or "unknown (not a git checkout)"
    ref = head[5:]
    rev = _read(str(root / ".git" / ref))
    if rev:
        return rev
    for line in _read(str(root / ".git" / "packed-refs")).splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def record(root: Path) -> dict:
    import numpy
    import scipy
    return {
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "caches": caches(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas(),
        "fbns_threads": os.environ.get("FBNS_THREADS"),
        "git_rev": git_rev(root),
        "src_sha256": source_digest(root / "src"),
    }
