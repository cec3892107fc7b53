"""Statistics, host fingerprint, memory and reference-cache helpers."""

from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import subprocess
import sys
import time
from typing import Dict, Iterable, List, Optional, Sequence

#: Root of the checkout (the directory holding ``src/`` and ``perfbench/``).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Everything the benchmark writes: results, span dumps, scratch journals
#: and the reference cache. Ignored by git.
OUT = os.path.join(ROOT, "perfbench", "out")

#: Fingerprint keys that must match before two results may be compared.
HOST_KEYS = ("nproc", "cpu_model", "python", "numpy")


# -- statistics -------------------------------------------------------------


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q`` quantile (numpy's default method)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("quantile of no samples")
    pos = (len(xs) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)


def geomean(values: Iterable[float]) -> float:
    xs = list(values)
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


def tail_percentile(n: int) -> Optional[int]:
    """Highest whole percentile (from p50 up) with at least ten samples
    beyond it, or None when there are fewer than twenty samples."""
    ok = [p for p in range(50, 100) if n * (100 - p) / 100.0 >= 10]
    return max(ok) if ok else None


def summarize(values: Sequence[float]) -> Dict[str, object]:
    """Median, the highest well-supported tail percentile, and the count."""
    out: Dict[str, object] = {"p50": median(values), "n": len(values)}
    p = tail_percentile(len(values))
    if p is not None:
        out[f"p{p}"] = quantile(values, p / 100.0)
    return out


def peak_rss_mb() -> float:
    """Peak resident set of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- host speed -------------------------------------------------------------

#: Median seconds of one :func:`probe_pass` on the reference host (a shared
#: two-vCPU Intel Xeon VM, Python 3.11, numpy 2.4) while it ran at full
#: speed. It defines the reference-host second the gated times are in.
PROBE_REF_S = 0.0105


def probe_pass() -> float:
    """Seconds one fixed piece of work takes: interpreted loops, dict
    stores and small numpy calls, the mix the DP runtime and kernels
    spend their time in. It runs none of the program's code."""
    import numpy as np

    t0 = time.perf_counter()
    grid = np.zeros((17, 17))
    seen: Dict[int, int] = {}
    acc = 0
    for i in range(1200):
        idx = np.arange(i % 16 + 1)
        grid[idx + 1, idx] = np.minimum(grid[idx, idx] + 1, grid[idx, 0] + 1)
        for j in range(24):
            acc += (i * j) % 7
            seen[j] = acc
    return time.perf_counter() - t0


class SpeedMeter:
    """Converts wall seconds into reference-host seconds.

    The shared host this benchmark was written on ran from 1x to 2.5x
    slower for seconds to hours at a time, and every CPU-bound time moved
    with it. The meter times :func:`probe_pass` around each operation and
    scales the operation's wall time by ``PROBE_REF_S`` over the mean of
    the probes on either side of it. A change to the program moves the
    operation and not the probe, so it still shows in full; a change in
    host speed moves both, and cancels.
    """

    def __init__(self, passes: int = 3) -> None:
        self.passes = passes
        self.probes: List[float] = []
        self.last = self._probe()

    def _probe(self) -> float:
        seconds = median([probe_pass() for _ in range(self.passes)])
        self.probes.append(seconds)
        return seconds

    def scale(self, wall: float) -> float:
        """Reference-host seconds of the operation that just took ``wall``
        wall seconds (call it straight after the operation)."""
        after = self._probe()
        before, self.last = self.last, after
        return wall * PROBE_REF_S * 2.0 / (before + after)


# -- host fingerprint -------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> Optional[str]:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def tree_digest(path: str) -> str:
    """Content digest of every ``.py`` file under ``path`` (stable order)."""
    h = hashlib.blake2b(digest_size=8)
    for dirpath, dirnames, filenames in os.walk(path):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                full = os.path.join(dirpath, name)
                h.update(os.path.relpath(full, path).encode())
                with open(full, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def host_fingerprint() -> Dict[str, object]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "src_digest": tree_digest(SRC),
    }


def unlike_hosts(a: Dict[str, object], b: Dict[str, object]) -> List[str]:
    """Fingerprint keys on which two results' hosts differ."""
    return [k for k in HOST_KEYS if a.get(k) != b.get(k)]


def child_env() -> Dict[str, str]:
    """Environment for a child interpreter that imports this checkout."""
    env = dict(os.environ)
    paths = [ROOT, SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def import_in_child() -> None:
    """Have a fresh interpreter import the entry points (set-up cost)."""
    code = (
        "import repro.runtime.system, repro.backends.serial, repro.backends.threads, "
        "repro.backends.processes, repro.backends.simulated, repro.serve.daemon"
    )
    subprocess.run([sys.executable, "-c", code], env=child_env(), check=True, timeout=120)
