"""What every workload shares: samples, the result line, run metadata.

A workload returns a :class:`Result`.  :func:`emit` prints its metrics by
name with unit (and sample counts where a metric summarizes samples),
then, as the last line, the one-line JSON object the benchmark contract
fixes: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
#: Scratch space inside the checkout (ledgers, stores); removed per run.
SCRATCH = ROOT / ".perfbench_tmp"

#: Percentiles the tail is chosen from: the highest one with at least
#: :data:`TAIL_MIN_BEYOND` samples beyond it.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of ``samples`` (non-empty)."""
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(min(rank, len(ordered))) - 1]


def tail(samples: Sequence[float]) -> Tuple[float, float]:
    """``(value, percentile)``: the highest ladder percentile with at
    least ten samples beyond it (the median when there are too few)."""
    n = len(samples)
    chosen = TAIL_LADDER[0]
    for pct in TAIL_LADDER:
        if n * (100.0 - pct) / 100.0 >= TAIL_MIN_BEYOND:
            chosen = pct
    return percentile(samples, chosen), chosen


def process_age() -> float:
    """Seconds since this process started (Linux: ``/proc/self/stat``).

    The start time is kept in clock ticks since boot (field 22), so the
    age is exact to one tick (10 ms at the usual 100 Hz).
    """
    fields = Path("/proc/self/stat").read_text().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def peak_rss_mib() -> float:
    """Peak resident set size of this process, MiB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Result:
    """One workload run: metrics, counts, verdict, notes."""

    workload: str
    seed: int
    attempted: int = 0
    failed: int = 0
    correct: bool = True
    #: ``name -> (value, unit, note)``; the note names percentile / samples.
    metrics: Dict[str, Tuple[float, str, str]] = field(default_factory=dict)
    #: Metrics of the final JSON (see :func:`contract_metrics`).
    reported: Tuple[str, ...] = ()
    problems: List[str] = field(default_factory=list)
    meta: Dict[str, Any] = field(default_factory=dict)

    def put(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.metrics[name] = (float(value), unit, note)

    def put_latency(self, prefix: str, samples_ms: Sequence[float], what: str) -> None:
        """``<prefix>_p50`` and ``<prefix>_tail`` of a latency sample."""
        if not samples_ms:
            self.problems.append(f"no {what} samples for {prefix}")
            return
        n = len(samples_ms)
        self.put(f"{prefix}_p50", statistics.median(samples_ms), "ms", f"p50 of {n} {what}")
        value, pct = tail(samples_ms)
        self.put(f"{prefix}_tail", value, "ms", f"p{pct:g} of {n} {what}")

    def fail(self, problem: str) -> None:
        self.correct = False
        self.problems.append(problem)


def contract_metrics(trace: bool) -> Tuple[str, ...]:
    """Names the JSON line carries: ``BENCHMARK.json``'s end-to-end
    metrics, or with tracing its per-layer metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return tuple(m["name"] for m in spec["per_layer" if trace else "end_to_end"])


def metadata(seed: int, **counts: Any) -> Dict[str, Any]:
    """Run metadata: resolved kernel, CPUs, versions, seed, counts."""
    import numpy
    import scipy

    from repro.perf.kernel import default_kernel

    return {
        "kernel": default_kernel(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
        **counts,
    }


def emit(result: Result, trace: bool) -> None:
    """Print the metric block, metadata, problems, then the JSON line."""
    out = sys.stdout
    print(f"== {result.workload} (seed {result.seed}, trace {int(trace)})", file=out)
    width = max((len(name) for name in result.metrics), default=10)
    for name, (value, unit, note) in result.metrics.items():
        suffix = f"  ({note})" if note else ""
        print(f"  {name:<{width}}  {value:.6g} {unit}{suffix}", file=out)
    print("meta " + json.dumps(result.meta, sort_keys=True), file=out)
    for problem in result.problems:
        print(f"problem: {problem}", file=out)
    metrics = {}
    for name in result.reported:
        if name not in result.metrics:
            result.fail(f"metric {name} was not measured")
            continue
        value, unit, _ = result.metrics[name]
        metrics[name] = {"value": value, "unit": unit}
    line = {
        "correct": result.correct,
        "attempted": int(result.attempted),
        "failed": int(result.failed),
        "metrics": metrics,
    }
    print(json.dumps(line, sort_keys=False), file=out)
    out.flush()


class Scratch:
    """A private directory under :data:`SCRATCH`, removed on exit."""

    def __init__(self, tag: str):
        self.tag = tag
        self.path: Optional[Path] = None

    def __enter__(self) -> Path:
        SCRATCH.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix=f"{self.tag}-", dir=SCRATCH))
        return self.path

    def __exit__(self, *exc_info: Any) -> None:
        if self.path is not None:
            shutil.rmtree(self.path, ignore_errors=True)
        try:
            SCRATCH.rmdir()  # only when no other run is using it
        except OSError:
            pass


def time_setups(workload: str, seed: int, times: int) -> List[float]:
    """``setup_s`` of ``times`` fresh processes that set up ``workload``
    as a run does (``run.py --setup-only``) and stop."""
    samples = []
    for _ in range(times):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            cwd=str(ROOT), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up of {workload} failed: {proc.stderr.strip()[-400:]}")
        samples.append(float(proc.stdout.split()[0]))
    return samples
