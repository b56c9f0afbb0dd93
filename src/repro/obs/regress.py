"""The perf-regression sentinel: gate CI on committed bench baselines.

The one comparator for pytest-benchmark JSON files.  It compares a
fresh run against the committed ``benchmarks/baselines`` files with
per-metric tolerance bands and exits non-zero on regression (CI gates on
some files, and runs the rest with ``--warn-only`` as an advisory 20%
timing band, ``--time-tolerance 1.2``):

* **timing** — ``stats.mean`` ratio beyond ``--time-tolerance`` (wide by
  default: CI machines differ from the baseline machine, so only gross
  slowdowns trip it);
* **extra-info ratios** — numeric ``extra_info`` entries (overhead
  ratios, speedup factors) compared by ratio against
  ``--info-tolerance``.  These are *machine-independent* — a ratio of
  two timings taken on the same box — so the band is tight.  Most are
  lower-is-better (fresh/baseline must stay below the band); a key
  ending in ``_per_s`` or ``speedup`` names a rate or a speedup, which is
  higher-is-better (baseline/fresh must stay below the band);
* **absolute limits** — ``--limit key=value`` caps an ``extra_info``
  entry outright (e.g. ``--limit disabled_overhead_ratio=1.05`` encodes
  the <5% disabled-path contract independent of any baseline);
* **coverage** — a baseline benchmark missing from the fresh run is a
  finding: a silently skipped benchmark must not read as a pass.

Usage (exit 0 clean, 1 on findings, 2 on malformed input)::

    python -m repro.obs regress BASELINE.json FRESH.json \
        [--time-tolerance 3.0] [--info-tolerance 1.25] \
        [--limit disabled_overhead_ratio=1.05 ...] [--warn-only]
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional

from ..errors import MetricsError


@dataclass
class RegressFinding:
    """One sentinel violation (rendered one per line by the CLI)."""

    benchmark: str
    metric: str
    kind: str  # "timing" | "extra_info" | "limit" | "coverage"
    baseline: Optional[float]
    fresh: Optional[float]
    bound: float
    detail: str = ""

    def render(self) -> str:
        def fmt(v: Optional[float]) -> str:
            return "-" if v is None else f"{v:.6g}"

        return (
            f"REGRESSION [{self.kind}] {self.benchmark} :: {self.metric}: "
            f"baseline={fmt(self.baseline)} fresh={fmt(self.fresh)} "
            f"bound={self.bound:.6g}{' — ' + self.detail if self.detail else ''}"
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "benchmark": self.benchmark,
            "metric": self.metric,
            "kind": self.kind,
            "baseline": self.baseline,
            "fresh": self.fresh,
            "bound": self.bound,
            "detail": self.detail,
        }


def load_bench_doc(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or not isinstance(
        data.get("benchmarks"), list
    ):
        raise MetricsError(f"{path}: not a pytest-benchmark JSON document")
    return data


def _index(doc: Mapping[str, Any]) -> Dict[str, Dict[str, Any]]:
    out: Dict[str, Dict[str, Any]] = {}
    for bench in doc.get("benchmarks", []):
        name = bench.get("fullname") or bench.get("name")
        if name:
            out[str(name)] = bench
    return out


#: ``extra_info`` key suffixes that name a rate or a speedup: for these a
#: larger fresh value is an improvement, not a regression.
HIGHER_IS_BETTER_SUFFIXES = ("_per_s", "speedup")


def higher_is_better(key: str) -> bool:
    """Whether a larger ``extra_info[key]`` is better (rates, speedups)."""
    return key.endswith(HIGHER_IS_BETTER_SUFFIXES)


def _numeric_extra_info(bench: Mapping[str, Any]) -> Dict[str, float]:
    info = bench.get("extra_info") or {}
    return {
        str(k): float(v)
        for k, v in info.items()
        if isinstance(v, (int, float)) and not isinstance(v, bool)
    }


def compare_benchmarks(
    baseline_doc: Mapping[str, Any],
    fresh_doc: Mapping[str, Any],
    time_tolerance: float = 3.0,
    info_tolerance: float = 1.25,
    limits: Optional[Mapping[str, float]] = None,
) -> List[RegressFinding]:
    """All sentinel findings (empty = the gate passes).

    ``time_tolerance`` / ``info_tolerance`` are *ratios* (fresh/baseline
    must stay **below** them, or baseline/fresh for a
    :func:`higher_is_better` key); ``limits`` maps an ``extra_info`` key
    to an absolute ceiling applied to every fresh benchmark carrying that
    key.
    """
    findings: List[RegressFinding] = []
    base_by_name = _index(baseline_doc)
    fresh_by_name = _index(fresh_doc)

    for name in sorted(base_by_name):
        base = base_by_name[name]
        fresh = fresh_by_name.get(name)
        if fresh is None:
            findings.append(
                RegressFinding(
                    benchmark=name,
                    metric="presence",
                    kind="coverage",
                    baseline=None,
                    fresh=None,
                    bound=1.0,
                    detail="baseline benchmark missing from the fresh run",
                )
            )
            continue
        base_mean = (base.get("stats") or {}).get("mean")
        fresh_mean = (fresh.get("stats") or {}).get("mean")
        if (
            isinstance(base_mean, (int, float))
            and isinstance(fresh_mean, (int, float))
            and base_mean > 0
        ):
            ratio = float(fresh_mean) / float(base_mean)
            if ratio > time_tolerance:
                findings.append(
                    RegressFinding(
                        benchmark=name,
                        metric="stats.mean",
                        kind="timing",
                        baseline=float(base_mean),
                        fresh=float(fresh_mean),
                        bound=time_tolerance,
                        detail=f"{ratio:.2f}x slower than baseline",
                    )
                )
        base_info = _numeric_extra_info(base)
        fresh_info = _numeric_extra_info(fresh)
        for key in sorted(set(base_info) & set(fresh_info)):
            base_value, fresh_value = base_info[key], fresh_info[key]
            if base_value <= 0:
                continue
            if not higher_is_better(key):
                ratio = fresh_value / base_value
            elif fresh_value > 0:
                ratio = base_value / fresh_value
            else:
                ratio = float("inf")
            if ratio > info_tolerance:
                findings.append(
                    RegressFinding(
                        benchmark=name,
                        metric=f"extra_info.{key}",
                        kind="extra_info",
                        baseline=base_info[key],
                        fresh=fresh_info[key],
                        bound=info_tolerance,
                        detail=f"{ratio:.2f}x worse than baseline",
                    )
                )

    if limits:
        for name in sorted(fresh_by_name):
            fresh_info = _numeric_extra_info(fresh_by_name[name])
            for key, ceiling in sorted(limits.items()):
                if key in fresh_info and fresh_info[key] > ceiling:
                    findings.append(
                        RegressFinding(
                            benchmark=name,
                            metric=f"extra_info.{key}",
                            kind="limit",
                            baseline=None,
                            fresh=fresh_info[key],
                            bound=float(ceiling),
                            detail="absolute ceiling exceeded",
                        )
                    )
    return findings


def parse_limits(pairs: List[str]) -> Dict[str, float]:
    """Parse repeated ``--limit key=value`` arguments."""
    limits: Dict[str, float] = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise MetricsError(f"--limit expects key=value, got {pair!r}")
        try:
            limits[key] = float(value)
        except ValueError:
            raise MetricsError(f"--limit {key}: {value!r} is not a number")
    return limits


def run_regress(
    baseline_path: str,
    fresh_path: str,
    time_tolerance: float = 3.0,
    info_tolerance: float = 1.25,
    limits: Optional[Mapping[str, float]] = None,
) -> List[RegressFinding]:
    """Load both documents and compare (the CLI body, importable)."""
    return compare_benchmarks(
        load_bench_doc(baseline_path),
        load_bench_doc(fresh_path),
        time_tolerance=time_tolerance,
        info_tolerance=info_tolerance,
        limits=limits,
    )
