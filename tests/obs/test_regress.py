"""The perf-regression sentinel: tolerance bands, limits, CLI exit codes."""

import json

import pytest

from repro.errors import MetricsError
from repro.obs.__main__ import main
from repro.obs.regress import (
    compare_benchmarks,
    load_bench_doc,
    parse_limits,
    run_regress,
)


def _doc(mean=0.01, extra_info=None, name="benchmarks/bench_x.py::test_x"):
    return {
        "benchmarks": [
            {
                "fullname": name,
                "name": "test_x",
                "stats": {"mean": mean},
                "extra_info": extra_info or {},
            }
        ]
    }


def _write(tmp_path, filename, doc):
    path = tmp_path / filename
    path.write_text(json.dumps(doc))
    return str(path)


class TestCompareBenchmarks:
    def test_identical_docs_pass(self):
        doc = _doc(extra_info={"overhead_ratio": 1.01})
        assert compare_benchmarks(doc, doc) == []

    def test_synthetic_2x_slowdown_is_a_timing_finding(self):
        findings = compare_benchmarks(_doc(mean=0.01), _doc(mean=0.02),
                                      time_tolerance=1.5)
        (finding,) = findings
        assert finding.kind == "timing"
        assert finding.metric == "stats.mean"
        assert "2.00x" in finding.detail
        assert "REGRESSION [timing]" in finding.render()

    def test_wide_default_band_tolerates_2x(self):
        # Timings are machine-dependent; the default band only trips on
        # gross slowdowns.
        assert compare_benchmarks(_doc(mean=0.01), _doc(mean=0.02)) == []

    def test_extra_info_band_is_tight(self):
        base = _doc(extra_info={"overhead_ratio": 1.0})
        fresh = _doc(extra_info={"overhead_ratio": 1.4})
        (finding,) = compare_benchmarks(base, fresh)
        assert finding.kind == "extra_info"
        assert finding.metric == "extra_info.overhead_ratio"

    def test_absolute_limit_needs_no_baseline_entry(self):
        base = _doc()
        fresh = _doc(extra_info={"disabled_overhead_ratio": 1.2})
        (finding,) = compare_benchmarks(
            base, fresh, limits={"disabled_overhead_ratio": 1.05}
        )
        assert finding.kind == "limit"
        assert finding.fresh == 1.2

    def test_missing_benchmark_is_a_coverage_finding(self):
        fresh = _doc(name="benchmarks/bench_y.py::test_y")
        (finding,) = compare_benchmarks(_doc(), fresh)
        assert finding.kind == "coverage"

    def test_booleans_are_not_numeric_extra_info(self):
        base = _doc(extra_info={"ok": True})
        fresh = _doc(extra_info={"ok": False})
        assert compare_benchmarks(base, fresh) == []

    @pytest.mark.parametrize(
        "key", ["warm_req_per_s", "cold_req_per_s", "speedup", "restart_speedup"]
    )
    def test_improved_rate_or_speedup_passes(self, key):
        base = _doc(extra_info={key: 10.0})
        fresh = _doc(extra_info={key: 20.0})
        assert compare_benchmarks(base, fresh, info_tolerance=1.5) == []

    @pytest.mark.parametrize(
        "key", ["warm_req_per_s", "cold_req_per_s", "speedup", "restart_speedup"]
    )
    def test_halved_rate_or_speedup_fails(self, key):
        base = _doc(extra_info={key: 10.0})
        fresh = _doc(extra_info={key: 5.0})
        (finding,) = compare_benchmarks(base, fresh, info_tolerance=1.5)
        assert finding.kind == "extra_info"
        assert finding.metric == f"extra_info.{key}"
        assert (finding.baseline, finding.fresh) == (10.0, 5.0)
        assert "2.00x worse than baseline" in finding.detail

    def test_rate_dropped_to_zero_fails(self):
        base = _doc(extra_info={"cases_per_s": 300.0})
        fresh = _doc(extra_info={"cases_per_s": 0.0})
        (finding,) = compare_benchmarks(base, fresh)
        assert finding.metric == "extra_info.cases_per_s"

    def test_lower_is_better_ratios_unchanged(self):
        base = _doc(extra_info={"parallel_over_serial": 1.0})
        halved = _doc(extra_info={"parallel_over_serial": 0.5})
        doubled = _doc(extra_info={"parallel_over_serial": 2.0})
        assert compare_benchmarks(base, halved, info_tolerance=1.5) == []
        (finding,) = compare_benchmarks(base, doubled, info_tolerance=1.5)
        assert finding.metric == "extra_info.parallel_over_serial"
        assert "2.00x worse than baseline" in finding.detail


class TestLoading:
    def test_load_rejects_non_benchmark_json(self, tmp_path):
        path = _write(tmp_path, "bad.json", {"not": "benchmarks"})
        with pytest.raises(MetricsError, match="not a pytest-benchmark"):
            load_bench_doc(path)

    def test_parse_limits(self):
        assert parse_limits(["a=1.05", "b=2"]) == {"a": 1.05, "b": 2.0}
        with pytest.raises(MetricsError):
            parse_limits(["nope"])
        with pytest.raises(MetricsError):
            parse_limits(["a=fast"])

    def test_run_regress_round_trips_files(self, tmp_path):
        base = _write(tmp_path, "base.json", _doc(mean=0.01))
        fresh = _write(tmp_path, "fresh.json", _doc(mean=0.05))
        findings = run_regress(base, fresh, time_tolerance=2.0)
        assert [f.kind for f in findings] == ["timing"]


class TestCli:
    def test_clean_exit_zero(self, tmp_path, capsys):
        base = _write(tmp_path, "base.json", _doc())
        fresh = _write(tmp_path, "fresh.json", _doc())
        assert main(["regress", base, fresh]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_synthetic_slowdown_exits_nonzero(self, tmp_path, capsys):
        base = _write(tmp_path, "base.json", _doc(mean=0.01))
        fresh = _write(tmp_path, "fresh.json", _doc(mean=0.02))
        code = main(["regress", base, fresh, "--time-tolerance", "1.5"])
        assert code == 1
        out = capsys.readouterr().out
        assert "REGRESSION [timing]" in out
        assert "1 regression finding(s)" in out

    def test_warn_only_downgrades_to_zero(self, tmp_path):
        base = _write(tmp_path, "base.json", _doc(mean=0.01))
        fresh = _write(tmp_path, "fresh.json", _doc(mean=0.02))
        assert (
            main(
                ["regress", base, fresh, "--time-tolerance", "1.5", "--warn-only"]
            )
            == 0
        )

    def test_limit_flag_enforces_ceiling(self, tmp_path):
        doc = _doc(extra_info={"disabled_overhead_ratio": 1.2})
        base = _write(tmp_path, "base.json", doc)
        fresh = _write(tmp_path, "fresh.json", doc)
        assert (
            main(
                ["regress", base, fresh, "--limit", "disabled_overhead_ratio=1.05"]
            )
            == 1
        )

    def test_malformed_input_exits_two(self, tmp_path):
        bad = _write(tmp_path, "bad.json", {"not": "benchmarks"})
        ok = _write(tmp_path, "ok.json", _doc())
        assert main(["regress", bad, ok]) == 2
