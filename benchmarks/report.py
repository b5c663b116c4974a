#!/usr/bin/env python3
"""Render a paper-vs-measured report from pytest-benchmark JSON output,
and optionally gate it against the committed baselines.

Usage::

    pytest benchmarks/ --benchmark-only --benchmark-json=bench.json
    python benchmarks/report.py bench.json
    python benchmarks/report.py bench.json --gates benchmarks/gates.toml

Without ``--gates`` it prints the per-experiment verdict table (the
EXPERIMENTS.md record) and the scaling series grouped by sweep
parameter.  With ``--gates`` it additionally compares the run against
every baseline the TOML manifest lists, each under its own policy, and
**fails (exit code 1)** when any bench's median-of-rounds regressed by
more than its baseline's ``max_regress`` (a ratio: 1.25 = fail beyond
+25%).  Medians are used instead of means, benches whose medians sit
below ``min_median_ms`` on both sides are skipped, and every ratio is
machine-calibrated, so one garbage-collector hiccup, a sub-millisecond
timer-noise bench or a slower CI runner cannot fail the gate.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import sys
import tomllib


def _mean_ms(entry: dict) -> float:
    return entry["stats"]["mean"] * 1e3


def _cpu_count(data: dict):
    """The CPU count recorded in a benchmark JSON's machine info —
    from the ``hardware`` block our conftest hook stamps, falling back
    to pytest-benchmark's own ``cpu.count``; None when absent."""
    info = data.get("machine_info") or {}
    hardware = info.get("hardware") or {}
    if hardware.get("cpu_count") is not None:
        return hardware["cpu_count"]
    cpu = info.get("cpu")
    if isinstance(cpu, dict):
        return cpu.get("count")
    return None


def _median_ms(entry: dict) -> float:
    return entry["stats"]["median"] * 1e3


def render(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)

    verdict_rows = []
    series: dict[str, list[tuple[str, float, dict]]] = {}
    for entry in data["benchmarks"]:
        info = entry.get("extra_info", {})
        if "experiment" in info:
            verdict_rows.append(
                (
                    info["experiment"],
                    info["paper"],
                    info["measured"],
                    _mean_ms(entry),
                )
            )
        group = entry.get("group")
        if group:
            extras = {
                key: value
                for key, value in info.items()
                if key not in ("experiment", "paper", "measured")
            }
            series.setdefault(group, []).append(
                (entry["name"], _mean_ms(entry), extras)
            )

    lines = ["# Reproduction verdicts", ""]
    lines.append("| Experiment | Paper | Measured | Mean |")
    lines.append("|---|---|---|---:|")
    for experiment, paper, measured, mean in sorted(verdict_rows):
        status = "✅" if paper == measured else "❌"
        lines.append(
            f"| {experiment} {status} | {paper} | {measured} "
            f"| {mean:.2f} ms |"
        )

    if series:
        lines.append("")
        lines.append("# Scaling series")
        for group in sorted(series):
            lines.append("")
            lines.append(f"## {group}")
            for name, mean, extras in sorted(
                series[group], key=lambda row: row[1]
            ):
                rendered_extras = ", ".join(
                    f"{key}={value}" for key, value in extras.items()
                )
                lines.append(
                    f"- {name}: {mean:.2f} ms"
                    + (f"  ({rendered_extras})" if rendered_extras else "")
                )
    return "\n".join(lines)


def compare(
    run_path: str,
    baseline_path: str,
    max_regress: float = 1.25,
    min_median_ms: float = 1.0,
    calibrate: bool = False,
    exclude: list[str] | None = None,
) -> tuple[str, list[str]]:
    """Compare a benchmark run against a committed baseline.

    Benchmarks are matched by ``name`` (which includes the sweep
    parameter, e.g. ``test_scaling_emptiness[512]``); benches present
    on only one side are reported but never gate.  Returns the rendered
    comparison table and the list of regressed bench names.

    ``exclude`` holds :mod:`fnmatch` patterns of bench names that are
    reported but exempt from gating (and from the calibration sample):
    for rows whose cost is environment-bound rather than compute-bound
    — e.g. the cold-pool fan-out rows, which measure OS fork/teardown
    that scales with the parent's memory footprint — a static baseline
    ratio is noise, not signal.

    With ``calibrate=True`` every per-bench ratio is divided by the
    **median ratio across all compared benches** before gating, clamped
    to at least 1.0.  That cancels the constant machine-speed factor
    between the box that recorded the baseline and the box running the
    comparison (a CI runner is not the committer's laptop), so only
    benches that moved relative to the rest of the run fail the gate.
    The clamp means calibration can only ever *relax* a ratio, never
    tighten it: a PR that legitimately speeds up most benches (median
    ratio < 1) must not turn the untouched benches' 1.0× into failures.
    The tradeoffs are deliberate: a change that slows *every* bench by
    the same factor is indistinguishable from a slower machine and
    passes, and a faster machine can mask a small regression —
    per-bench regressions on comparable hardware are what the gate is
    for.
    """
    with open(run_path, encoding="utf-8") as handle:
        run = json.load(handle)
    with open(baseline_path, encoding="utf-8") as handle:
        baseline = json.load(handle)

    run_by_name = {entry["name"]: entry for entry in run["benchmarks"]}
    base_by_name = {
        entry["name"]: entry for entry in baseline["benchmarks"]
    }

    def excluded(name: str) -> bool:
        return any(
            fnmatch.fnmatch(name, pattern) for pattern in exclude or ()
        )

    # Pass 1: ratios of the gateable (common, above-floor) benches.
    ratios: dict[str, float] = {}
    for name, entry in run_by_name.items():
        base_entry = base_by_name.get(name)
        if base_entry is None or excluded(name):
            continue
        run_median = _median_ms(entry)
        base_median = _median_ms(base_entry)
        if run_median < min_median_ms and base_median < min_median_ms:
            continue
        ratios[name] = (
            run_median / base_median if base_median else float("inf")
        )

    scale = 1.0
    if calibrate and ratios:
        ordered = sorted(ratios.values())
        middle = len(ordered) // 2
        median_ratio = (
            ordered[middle]
            if len(ordered) % 2
            else (ordered[middle - 1] + ordered[middle]) / 2
        )
        # Only relax (slower machine), never tighten (broad speedups).
        scale = max(median_ratio, 1.0)

    lines = [
        "# Regression gate "
        f"(median-of-rounds, fail ratio > {max_regress:.2f}, "
        f"noise floor {min_median_ms:.2f} ms"
        + (f", machine calibration {scale:.2f}×" if calibrate else "")
        + ")",
        "",
    ]
    # Hardware-context sanity: a CPU-count mismatch makes the sharded
    # fan-out rows incomparable in ways calibration cannot cancel, but
    # it is an environment property, not a code regression — warn,
    # never gate.
    run_cpus = _cpu_count(run)
    base_cpus = _cpu_count(baseline)
    if run_cpus is None or base_cpus is None:
        missing = "baseline" if base_cpus is None else "run"
        lines += [
            f"WARNING: no hardware context in the {missing} JSON — "
            "CPU-count comparability unknown (warning only, not a "
            "gate).",
            "",
        ]
    elif run_cpus != base_cpus:
        lines += [
            f"WARNING: CPU count differs (baseline {base_cpus}, run "
            f"{run_cpus}) — ratios reflect hardware as well as code "
            "(warning only, not a gate).",
            "",
        ]
    lines += [
        "| Benchmark | Baseline | Run | Ratio | Status |",
        "|---|---:|---:|---:|---|",
    ]
    regressions: list[str] = []
    for name in sorted(run_by_name):
        run_median = _median_ms(run_by_name[name])
        base_entry = base_by_name.get(name)
        if base_entry is None:
            lines.append(
                f"| {name} | — | {run_median:.3f} ms | — | new |"
            )
            continue
        base_median = _median_ms(base_entry)
        if excluded(name):
            lines.append(
                f"| {name} | {base_median:.3f} ms | {run_median:.3f} ms "
                f"| — | excluded from gate |"
            )
            continue
        if name not in ratios:
            lines.append(
                f"| {name} | {base_median:.3f} ms | {run_median:.3f} ms "
                f"| — | below noise floor |"
            )
            continue
        ratio = ratios[name] / scale
        if ratio > max_regress:
            regressions.append(name)
            status = f"❌ REGRESSED (> {max_regress:.2f}×)"
        else:
            status = "✅ ok"
        lines.append(
            f"| {name} | {base_median:.3f} ms | {run_median:.3f} ms "
            f"| {ratio:.2f}× | {status} |"
        )
    for name in sorted(set(base_by_name) - set(run_by_name)):
        lines.append(f"| {name} | … | — | — | not in this run |")

    lines.append("")
    if regressions:
        lines.append(
            f"**GATE FAILED**: {len(regressions)} bench(es) regressed "
            f"beyond {max_regress:.2f}×: " + ", ".join(regressions)
        )
    else:
        lines.append("**GATE PASSED**: no bench regressed beyond the limit.")
    return "\n".join(lines), regressions


def gate(run_path: str, manifest_path: str) -> tuple[str, list[str]]:
    """Gate a run against every baseline of a TOML manifest.

    The manifest holds one table per committed baseline JSON (the
    table name is its path), each with ``max_regress``,
    ``min_median_ms`` and an ``exclude`` list of fnmatch patterns;
    every comparison is machine-calibrated (see :func:`compare`).
    Returns the concatenated comparison tables and the baselines that
    had at least one regressed bench.
    """
    with open(manifest_path, "rb") as handle:
        manifest = tomllib.load(handle)
    sections: list[str] = []
    failed: list[str] = []
    for baseline, policy in manifest.items():
        table, regressions = compare(
            run_path,
            baseline,
            max_regress=policy["max_regress"],
            min_median_ms=policy["min_median_ms"],
            calibrate=True,
            exclude=policy["exclude"],
        )
        sections.append(f"## vs {baseline}\n\n{table}")
        if regressions:
            failed.append(baseline)
    verdict = (
        f"**{len(failed)} of {len(manifest)} GATE(S) FAILED**: "
        + ", ".join(failed)
        if failed
        else f"**ALL {len(manifest)} GATES PASSED**"
    )
    return "\n\n".join(sections + [verdict]), failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("run", help="pytest-benchmark JSON of this run")
    parser.add_argument(
        "--gates",
        metavar="MANIFEST",
        help="TOML manifest of baselines to gate against, one table "
        "per baseline JSON with its max_regress, min_median_ms and "
        "exclude patterns (benchmarks/gates.toml)",
    )
    parser.add_argument(
        "--no-render",
        action="store_true",
        help="skip the paper-vs-measured report and print only the "
        "gate tables (for CI steps that publish the report "
        "separately)",
    )
    args = parser.parse_args(argv)
    if args.no_render and not args.gates:
        parser.error("--no-render without --gates would print nothing")

    if not args.no_render:
        print(render(args.run))
    if args.gates:
        tables, failed = gate(args.run, args.gates)
        if not args.no_render:
            print()
        print(tables)
        if failed:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
