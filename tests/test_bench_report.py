"""Tests for the benchmark report's perf-regression gate.

This is the local demonstration the CI gate relies on: a deliberately
slowed bench must fail its baseline's gate, honest runs must pass, and
the noise-tolerance rules (median-of-rounds, sub-floor benches skipped,
unmatched benches never gating) must hold.  ``main`` gates through a
TOML manifest (``--gates``) that names each baseline with its policy.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_REPORT_PATH = (
    Path(__file__).resolve().parent.parent / "benchmarks" / "report.py"
)
_spec = importlib.util.spec_from_file_location("bench_report", _REPORT_PATH)
report = importlib.util.module_from_spec(_spec)
sys.modules["bench_report"] = report
_spec.loader.exec_module(report)


def _bench(name, median_ms, mean_ms=None, group="scaling"):
    return {
        "name": name,
        "group": group,
        "extra_info": {},
        "stats": {
            "median": median_ms / 1e3,
            "mean": (mean_ms if mean_ms is not None else median_ms) / 1e3,
        },
    }


def _write(tmp_path, filename, benchmarks, cpu_count=None):
    path = tmp_path / filename
    data = {"benchmarks": benchmarks}
    if cpu_count is not None:
        data["machine_info"] = {
            "hardware": {"cpu_count": cpu_count, "platform": "test"}
        }
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def _manifest(tmp_path, *baselines, max_regress=1.25, min_median_ms=1.0):
    """A gate manifest applying one policy to every given baseline."""
    path = tmp_path / "gates.toml"
    path.write_text(
        "".join(
            f"[{json.dumps(baseline)}]\n"
            f"max_regress = {max_regress}\n"
            f"min_median_ms = {min_median_ms}\n"
            f"exclude = []\n\n"
            for baseline in baselines
        ),
        encoding="utf-8",
    )
    return str(path)


@pytest.fixture()
def baseline(tmp_path):
    return _write(
        tmp_path,
        "baseline.json",
        [
            _bench("test_emptiness[512]", 6.0),
            _bench("test_minimize[512]", 1200.0),
            _bench("test_tiny[8]", 0.04),
            _bench("test_retired[1]", 3.0),
        ],
    )


class TestCompare:
    def test_honest_run_passes(self, tmp_path, baseline):
        run = _write(
            tmp_path,
            "run.json",
            [
                _bench("test_emptiness[512]", 2.0),   # 3× faster
                _bench("test_minimize[512]", 1300.0),  # +8%, inside 1.25
                _bench("test_tiny[8]", 0.09),          # noisy but sub-floor
            ],
        )
        table, regressions = report.compare(run, baseline)
        assert regressions == []
        assert "GATE PASSED" in table

    def test_deliberately_slowed_bench_fails(self, tmp_path, baseline):
        """The acceptance demonstration: slow one bench >25% → gate
        fails and names the offender."""
        run = _write(
            tmp_path,
            "slow.json",
            [
                _bench("test_emptiness[512]", 9.0),  # 1.5× the baseline
                _bench("test_minimize[512]", 1150.0),
            ],
        )
        table, regressions = report.compare(run, baseline)
        assert regressions == ["test_emptiness[512]"]
        assert "GATE FAILED" in table
        assert "REGRESSED" in table

    def test_median_not_mean_is_gated(self, tmp_path, baseline):
        """One garbage-collector outlier inflates the mean; the median
        gate must not care."""
        run = _write(
            tmp_path,
            "outlier.json",
            [_bench("test_emptiness[512]", 6.1, mean_ms=40.0)],
        )
        _, regressions = report.compare(run, baseline)
        assert regressions == []

    def test_noise_floor_skips_micro_benches(self, tmp_path, baseline):
        run = _write(
            tmp_path,
            "noise.json",
            # 3× "regression" on a 0.04 ms bench is timer jitter.
            [_bench("test_tiny[8]", 0.12)],
        )
        table, regressions = report.compare(run, baseline)
        assert regressions == []
        assert "below noise floor" in table

    def test_unmatched_benches_never_gate(self, tmp_path, baseline):
        run = _write(
            tmp_path,
            "new.json",
            [_bench("test_brand_new[2048]", 100.0)],
        )
        table, regressions = report.compare(run, baseline)
        assert regressions == []
        assert "new" in table
        assert "not in this run" in table

    def test_calibration_cancels_machine_speed(self, tmp_path, baseline):
        """A uniformly 2× slower machine plus one genuinely 3× slower
        bench: uncalibrated, everything fails; calibrated, only the
        real regression does."""
        run = _write(
            tmp_path,
            "other_machine.json",
            [
                _bench("test_emptiness[512]", 18.0),   # 3× (real regression)
                _bench("test_minimize[512]", 2400.0),  # 2× (machine factor)
                _bench("test_retired[1]", 6.0),        # 2× (machine factor)
            ],
        )
        _, uncalibrated = report.compare(run, baseline)
        assert set(uncalibrated) == {
            "test_emptiness[512]",
            "test_minimize[512]",
            "test_retired[1]",
        }
        _, calibrated = report.compare(run, baseline, calibrate=True)
        assert calibrated == ["test_emptiness[512]"]

    def test_calibration_never_tightens_on_broad_speedups(
        self, tmp_path, baseline
    ):
        """A PR that speeds up most benches must not turn untouched
        benches' 1.0× into failures (the scale is clamped to ≥1)."""
        run = _write(
            tmp_path,
            "speedups.json",
            [
                _bench("test_emptiness[512]", 2.4),    # 0.4×
                _bench("test_retired[1]", 1.2),        # 0.4×
                _bench("test_minimize[512]", 1200.0),  # untouched, 1.0×
            ],
        )
        _, regressions = report.compare(run, baseline, calibrate=True)
        assert regressions == []

    def test_threshold_is_configurable(self, tmp_path, baseline):
        run = _write(
            tmp_path,
            "mild.json",
            [_bench("test_emptiness[512]", 7.0)],  # ~1.17×
        )
        _, loose = report.compare(run, baseline, max_regress=1.25)
        assert loose == []
        _, strict = report.compare(run, baseline, max_regress=1.10)
        assert strict == ["test_emptiness[512]"]

    def test_excluded_rows_report_but_never_gate(self, tmp_path, baseline):
        """Environment-bound rows (e.g. cold pool-spawn measurements)
        can be exempted by pattern: reported, marked, not gated, and
        kept out of the calibration sample."""
        run = _write(
            tmp_path,
            "excluded.json",
            [
                _bench("test_emptiness[512]", 6.1),
                _bench("test_minimize[512]", 9000.0),  # 7.5× slower
            ],
        )
        table, failing = report.compare(
            run, baseline, exclude=["test_minimize*"]
        )
        assert failing == []
        assert "excluded from gate" in table
        # Without the pattern the same run fails.
        _, failing = report.compare(run, baseline)
        assert failing == ["test_minimize[512]"]
        # Excluded rows must not skew calibration either: the huge
        # ratio would otherwise become the median scale.
        _, failing = report.compare(
            run, baseline, calibrate=True, exclude=["test_minimize*"]
        )
        assert failing == []


class TestHardwareContext:
    """``compare`` sanity-checks the recorded CPU budget: mismatches
    and missing context warn in the table but never gate."""

    def test_cpu_count_mismatch_warns_but_never_gates(self, tmp_path):
        base = _write(
            tmp_path, "base.json",
            [_bench("test_emptiness[512]", 6.0)], cpu_count=8,
        )
        run = _write(
            tmp_path, "run.json",
            [_bench("test_emptiness[512]", 6.2)], cpu_count=1,
        )
        table, regressions = report.compare(run, base)
        assert regressions == []
        assert "CPU count differs (baseline 8, run 1)" in table
        assert "GATE PASSED" in table

    def test_matching_cpu_counts_stay_silent(self, tmp_path):
        base = _write(
            tmp_path, "base.json",
            [_bench("test_emptiness[512]", 6.0)], cpu_count=4,
        )
        run = _write(
            tmp_path, "run.json",
            [_bench("test_emptiness[512]", 6.2)], cpu_count=4,
        )
        table, _ = report.compare(run, base)
        assert "WARNING" not in table

    def test_missing_hardware_context_warns(self, tmp_path):
        base = _write(
            tmp_path, "base.json", [_bench("test_emptiness[512]", 6.0)]
        )
        run = _write(
            tmp_path, "run.json",
            [_bench("test_emptiness[512]", 6.2)], cpu_count=4,
        )
        table, regressions = report.compare(run, base)
        assert regressions == []
        assert "no hardware context in the baseline" in table

    def test_falls_back_to_pytest_benchmark_cpu_block(self, tmp_path):
        """The committed baselines predate the ``hardware`` block but
        carry pytest-benchmark's own ``cpu.count`` — that must count
        as context, not as missing."""
        path = tmp_path / "legacy.json"
        path.write_text(
            json.dumps(
                {
                    "machine_info": {"cpu": {"count": 1}},
                    "benchmarks": [_bench("test_emptiness[512]", 6.0)],
                }
            ),
            encoding="utf-8",
        )
        run = _write(
            tmp_path, "run.json",
            [_bench("test_emptiness[512]", 6.1)], cpu_count=1,
        )
        table, _ = report.compare(run, str(path))
        assert "WARNING" not in table


class TestMain:
    def test_main_exit_codes(self, tmp_path, baseline):
        # Gates always calibrate, so the untouched rows anchor the
        # machine factor at 1.0 and only the slowed bench moves.
        untouched = [
            _bench("test_minimize[512]", 1200.0),
            _bench("test_retired[1]", 3.0),
        ]
        slow = _write(
            tmp_path, "slow.json",
            [_bench("test_emptiness[512]", 9.0)] + untouched,
        )
        good = _write(
            tmp_path, "good.json",
            [_bench("test_emptiness[512]", 5.0)] + untouched,
        )
        gates = _manifest(tmp_path, baseline)
        assert report.main([good, "--gates", gates]) == 0
        assert report.main([slow, "--gates", gates]) == 1

    def test_manifest_names_the_regressed_baseline(self, tmp_path, capsys):
        """One of two baselines regressed: exit 1, and the verdict
        names that baseline and only that one."""
        untouched = [
            _bench("test_minimize[512]", 1200.0),
            _bench("test_retired[1]", 3.0),
        ]
        regressed = _write(
            tmp_path, "regressed.json",
            [_bench("test_emptiness[512]", 6.0)] + untouched,
        )
        matching = _write(
            tmp_path, "matching.json",
            [_bench("test_emptiness[512]", 9.0)] + untouched,
        )
        run = _write(
            tmp_path, "run.json",
            [_bench("test_emptiness[512]", 9.0)] + untouched,
        )
        gates = _manifest(tmp_path, matching, regressed)
        assert report.main([run, "--gates", gates, "--no-render"]) == 1
        out = capsys.readouterr().out
        verdict = out.strip().splitlines()[-1]
        assert "1 of 2 GATE(S) FAILED" in verdict
        assert regressed in verdict
        assert matching not in verdict

    def test_main_without_compare_still_renders(self, tmp_path, capsys):
        run = _write(
            tmp_path, "run.json", [_bench("test_emptiness[512]", 5.0)]
        )
        assert report.main([run]) == 0
        out = capsys.readouterr().out
        assert "Scaling series" in out

    def test_no_render_requires_compare(self, tmp_path):
        run = _write(
            tmp_path, "run.json", [_bench("test_emptiness[512]", 5.0)]
        )
        with pytest.raises(SystemExit):
            report.main([run, "--no-render"])

    def test_no_render_prints_only_the_gate_table(self, tmp_path, capsys):
        run = _write(
            tmp_path, "run.json", [_bench("test_emptiness[512]", 5.0)]
        )
        base = _write(
            tmp_path, "base.json", [_bench("test_emptiness[512]", 6.0)]
        )
        gates = _manifest(tmp_path, base)
        assert report.main([run, "--gates", gates, "--no-render"]) == 0
        out = capsys.readouterr().out
        assert "Scaling series" not in out
        assert "Regression gate" in out
        assert "ALL 1 GATES PASSED" in out
