"""Tests for the perf-regression harness (``src/repro/perf``)."""

import json

import pytest

from repro.cli import main as cli_main
from repro.perf import (PROFILES, baseline_profile_section, check_regression,
                        run_benchmarks, time_callable)

EXPECTED_BENCHMARKS = {"serving_microbatch"}


@pytest.fixture(scope="module")
def smoke_results():
    return run_benchmarks("smoke")


class TestMicrobench:
    def test_time_callable_measures_positive_time(self):
        m = time_callable(lambda: sum(range(100)), min_runtime_s=0.001)
        assert m.per_call_s > 0
        assert m.inner_loops >= 1
        assert m.per_call_us == pytest.approx(m.per_call_s * 1e6)

    def test_inner_loop_calibration_scales_with_cheap_calls(self):
        cheap = time_callable(lambda: None, min_runtime_s=0.005)
        assert cheap.inner_loops > 1

    def test_inner_cap_still_times_at_the_capped_count(self):
        """When calibration hits max_inner, per_call_s must come from a
        block measured at that count, not a stale smaller one."""
        m = time_callable(lambda: None, min_runtime_s=10.0, repeats=1,
                          max_inner=64)
        assert m.inner_loops == 64
        # A no-op costs well under a microsecond but strictly more than
        # zero; a stale elapsed/inner mismatch shows up as a gross
        # under-estimate of 0 or an over-estimate from inner=1.
        assert 0 < m.per_call_s < 1e-4

    def test_repeats_validated(self):
        with pytest.raises(ValueError):
            time_callable(lambda: None, repeats=0)


class TestRunBenchmarks:
    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="profile"):
            run_benchmarks("warp")

    def test_smoke_profile_produces_all_benchmarks(self, smoke_results):
        assert smoke_results["profile"] == "smoke"
        assert set(smoke_results["benchmarks"]) == EXPECTED_BENCHMARKS
        for name, cells in smoke_results["benchmarks"].items():
            assert cells["speedup"] > 0, name

    def test_results_are_json_serialisable(self, smoke_results):
        parsed = json.loads(json.dumps(smoke_results))
        assert set(parsed["benchmarks"]) == EXPECTED_BENCHMARKS

    def test_profiles_cover_expected_scales(self):
        assert set(PROFILES) == {"full", "quick", "smoke", "mutate",
                                 "gateway"}
        assert (PROFILES["full"]["edges"]
                > PROFILES["quick"]["edges"]
                > PROFILES["smoke"]["edges"])


class TestCheckRegression:
    def _results(self, speedups):
        return {"benchmarks": {name: {"speedup": value}
                               for name, value in speedups.items()}}

    def test_no_failures_when_at_baseline(self):
        base = self._results({"a": 3.0, "b": 2.0})
        assert check_regression(base, base) == []

    def test_within_tolerance_passes(self):
        current = self._results({"a": 2.1})
        baseline = self._results({"a": 3.0})
        assert check_regression(current, baseline, tolerance=1.5) == []

    def test_regression_detected(self):
        current = self._results({"a": 1.0})
        baseline = self._results({"a": 3.0})
        failures = check_regression(current, baseline, tolerance=1.5)
        assert len(failures) == 1
        assert "a" in failures[0]

    def test_unknown_benchmarks_ignored(self):
        # A row found only in the run has no baseline yet.
        current = self._results({"new_one": 0.1})
        assert check_regression(current, self._results({})) == []

    def test_baseline_row_missing_from_run_fails(self):
        # A gated row the run no longer produces must not pass silently.
        current = self._results({"serving_microbatch": 1.2})
        baseline = self._results({"encoding_fast": 1.8,
                                  "serving_microbatch": 1.2})
        failures = check_regression(current, baseline)
        assert len(failures) == 1
        assert "encoding_fast" in failures[0]
        # Rows recorded without a speedup are not gated.
        baseline["benchmarks"]["mutation_compact"] = {"compact_s": 0.1}
        assert len(check_regression(current, baseline)) == 1

    def test_tolerance_validated(self):
        with pytest.raises(ValueError):
            check_regression(self._results({}), self._results({}),
                             tolerance=0.5)

    def test_baseline_profile_section_schemas(self):
        multi = {"schema": 2, "profiles": {"quick": {"benchmarks": {}}}}
        assert baseline_profile_section(multi, "quick") == {"benchmarks": {}}
        assert baseline_profile_section(multi, "full") is None
        flat = {"schema": 1, "profile": "quick", "benchmarks": {}}
        assert baseline_profile_section(flat, "quick") is flat
        assert baseline_profile_section(flat, "full") is None


class TestBenchCLI:
    def test_bench_writes_json_and_checks_baseline(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        assert cli_main(["bench", "--profile", "smoke",
                         "--output", str(out)]) == 0
        written = json.loads(out.read_text())
        assert set(written["profiles"]) == {"smoke"}
        assert (set(written["profiles"]["smoke"]["benchmarks"])
                == EXPECTED_BENCHMARKS)
        # Re-run against itself as baseline: identical machine, fresh
        # measurement — must pass the tolerance check.
        assert cli_main(["bench", "--profile", "smoke", "--no-write",
                         "--baseline", str(out),
                         "--tolerance", "4.0"]) == 0

    def test_bench_fails_on_regression(self, tmp_path, capsys):
        baseline = {"schema": 2, "profiles": {"smoke": {"benchmarks": {
            "serving_microbatch": {"speedup": 1e9}}}}}
        path = tmp_path / "impossible.json"
        path.write_text(json.dumps(baseline))
        code = cli_main(["bench", "--profile", "smoke", "--no-write",
                         "--baseline", str(path)])
        assert code == 1
        assert "PERF REGRESSION" in capsys.readouterr().err

    def test_bench_fails_when_baseline_lacks_profile(self, tmp_path, capsys):
        path = tmp_path / "other-profile.json"
        path.write_text(json.dumps(
            {"schema": 2, "profiles": {"full": {"benchmarks": {}}}}))
        code = cli_main(["bench", "--profile", "smoke", "--no-write",
                         "--baseline", str(path)])
        assert code == 1
        assert "no section" in capsys.readouterr().err

    def test_bench_never_overwrites_its_own_baseline(self, tmp_path, capsys):
        """output == baseline must not clobber the baseline (which would
        also turn the check into a self-comparison)."""
        baseline = {"schema": 2, "profiles": {"smoke": {"benchmarks": {
            "serving_microbatch": {"speedup": 1e9}}}}}
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps(baseline))
        code = cli_main(["bench", "--profile", "smoke",
                         "--output", str(path), "--baseline", str(path)])
        assert code == 1  # impossible baseline still detected...
        assert json.loads(path.read_text()) == baseline  # ...and kept

    def test_bench_floor_gate(self, tmp_path, capsys):
        # A floor far below any plausible measurement passes and says so.
        assert cli_main(["bench", "--profile", "smoke", "--no-write",
                         "--floor", "serving_microbatch=0.0001"]) == 0
        assert "floor" in capsys.readouterr().out
        # An impossible floor fails, naming the benchmark — unlike
        # --baseline, the gate cannot drift when baselines regenerate.
        assert cli_main(["bench", "--profile", "smoke", "--no-write",
                         "--floor", "serving_microbatch=1e9"]) == 1
        err = capsys.readouterr().err
        assert "PERF FLOOR" in err and "serving_microbatch" in err

    def test_bench_floor_rejects_bad_specs(self, capsys):
        # Malformed spec: usage error before any benchmark runs.
        assert cli_main(["bench", "--profile", "smoke", "--no-write",
                         "--floor", "serving_microbatch"]) == 2
        assert "NAME=VALUE" in capsys.readouterr().err
        assert cli_main(["bench", "--profile", "smoke", "--no-write",
                         "--floor", "serving_microbatch=fast"]) == 2
        assert "NAME=VALUE" in capsys.readouterr().err
        # A floor naming a benchmark that never ran is a failure, not a
        # silently green gate.
        assert cli_main(["bench", "--profile", "smoke", "--no-write",
                         "--floor", "no_such_bench=0.5"]) == 1
        assert "no such benchmark" in capsys.readouterr().err

    def test_bench_listed_in_cli_help(self, capsys):
        assert cli_main(["list"]) == 0
        assert "bench" in capsys.readouterr().out
