#!/usr/bin/env python3
"""Compare two BENCH_sweep.json reports and gate on regressions.

CI usage (the bench-smoke perf gate):

    tools/bench_diff.py bench/baselines/BENCH_sweep.<machine-class>.json \
        BENCH_sweep.json --tolerance 25 --emit-headline headline.txt

The headline metric is pkts_per_sec_best (offered packets scanned per
wall-clock second on the best path over the k >= 1024 cells); the total and
SIMD speedup ratios are gated with the same band. Per-cell timings are much
noisier than the aggregate, so cells get a wider band (--cell-tolerance,
default 2x the headline tolerance) and only warn unless --strict-cells.

Reports from different machine classes (arch + SIMD variant), build types,
or sweep configurations are NOT comparable — a scalar container diffed
against an AVX2 baseline would "regress" by the whole SIMD speedup — so any
such mismatch refuses with exit 3 instead of reporting a bogus delta.

Exit codes: 0 ok, 1 regression beyond tolerance, 2 usage/IO/malformed
input, 3 reports not comparable.

Baseline update workflow: see docs/PERFORMANCE.md ("Updating the committed
baselines").
"""

import argparse
import json
import sys


def load_report(path):
    try:
        with open(path) as f:
            report = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: {path}: {e}", file=sys.stderr)
        sys.exit(2)
    for key in ("machine", "headline", "cells"):
        if key not in report:
            print(f"error: {path}: missing '{key}' "
                  "(pre-SIMD report?)", file=sys.stderr)
            sys.exit(2)
    return report


def refuse_if_incomparable(baseline, current):
    """Exit 3 unless the two reports measure the same thing."""
    problems = []
    for key in ("machine_class", "build_type"):
        a = baseline["machine"].get(key, "?")
        b = current["machine"].get(key, "?")
        if a != b:
            problems.append(f"machine.{key}: baseline={a!r} current={b!r}")
    for key in ("trace_minutes", "replications"):
        a, b = baseline.get(key), current.get(key)
        if a != b:
            problems.append(f"{key}: baseline={a!r} current={b!r}")
    if problems:
        print("error: reports are not comparable:", file=sys.stderr)
        for p in problems:
            print(f"  {p}", file=sys.stderr)
        print("regenerate the baseline for this machine class/config "
              "(docs/PERFORMANCE.md) or pass the matching baseline file",
              file=sys.stderr)
        sys.exit(3)


def pct(new, old):
    return 100.0 * (new - old) / old if old else float("inf")


def main():
    ap = argparse.ArgumentParser(
        description="Gate a BENCH_sweep.json report against a baseline.")
    ap.add_argument("baseline", help="committed baseline report")
    ap.add_argument("current", help="freshly measured report")
    ap.add_argument("--tolerance", type=float, default=25.0, metavar="PCT",
                    help="allowed headline regression (default %(default)s%%)")
    ap.add_argument("--cell-tolerance", type=float, default=None,
                    metavar="PCT",
                    help="allowed per-cell speedup regression "
                         "(default 2x --tolerance)")
    ap.add_argument("--strict-cells", action="store_true",
                    help="fail (not just warn) on per-cell regressions")
    ap.add_argument("--emit-headline", metavar="FILE",
                    help="append a one-line human-readable headline here "
                         "(the CI artifact trail)")
    args = ap.parse_args()
    cell_tol = (args.cell_tolerance if args.cell_tolerance is not None
                else 2.0 * args.tolerance)

    baseline = load_report(args.baseline)
    current = load_report(args.current)
    refuse_if_incomparable(baseline, current)

    if not current.get("phi_all_match", False):
        print("error: current report has phi_all_match=false — correctness "
              "before performance", file=sys.stderr)
        sys.exit(2)

    bh, ch = baseline["headline"], current["headline"]
    failures = []
    print(f"machine class: {current['machine']['machine_class']} "
          f"({current['machine'].get('compiler', '?')}, "
          f"{current['machine'].get('build_type', '?')})")
    print(f"{'metric':<22}{'baseline':>14}{'current':>14}{'delta':>9}")
    # pkts_per_sec_multiproc (the sharded --workers leg) is gated only when
    # both reports carry it, so pre-sharding baselines stay comparable.
    for key, higher_is_better in (("pkts_per_sec_best", True),
                                  ("pkts_per_sec_multiproc", True),
                                  ("speedup", True),
                                  ("simd_speedup", True)):
        old, new = bh.get(key), ch.get(key)
        if old is None or new is None:
            continue
        delta = pct(new, old)
        marker = ""
        if higher_is_better and delta < -args.tolerance:
            marker = "  << REGRESSION"
            failures.append(f"headline {key}: {old:.4g} -> {new:.4g} "
                            f"({delta:+.1f}% < -{args.tolerance:g}%)")
        print(f"{key:<22}{old:>14.4g}{new:>14.4g}{delta:>+8.1f}%{marker}")

    # Per-cell speedups: noisy, so wider band; worst offenders reported.
    base_cells = {(c["method"], c["granularity"]): c
                  for c in baseline["cells"]}
    cell_warnings = []
    for c in current["cells"]:
        b = base_cells.get((c["method"], c["granularity"]))
        if b is None or "speedup" not in b or "speedup" not in c:
            continue
        delta = pct(c["speedup"], b["speedup"])
        if delta < -cell_tol:
            cell_warnings.append(
                f"{c['method']} 1/{c['granularity']}: speedup "
                f"{b['speedup']:.1f} -> {c['speedup']:.1f} ({delta:+.0f}%)")
    if cell_warnings:
        label = "error" if args.strict_cells else "warning"
        print(f"{label}: {len(cell_warnings)} cell(s) beyond the "
              f"{cell_tol:g}% cell band (worst 5):")
        for w in sorted(cell_warnings)[:5]:
            print(f"  {w}")
        if args.strict_cells:
            failures.append(f"{len(cell_warnings)} per-cell regressions")

    headline = (f"{current['machine']['machine_class']}: "
                f"{ch['pkts_per_sec_best'] / 1e6:.0f} Mpkt/s best path, "
                f"{ch['speedup']:.1f}x over legacy, "
                f"{ch['simd_speedup']:.2f}x from simd "
                f"({pct(ch['pkts_per_sec_best'], bh['pkts_per_sec_best']):+.1f}% vs baseline)")
    print(headline)
    if args.emit_headline:
        try:
            with open(args.emit_headline, "a") as f:
                f.write(headline + "\n")
        except OSError as e:
            print(f"error: --emit-headline: {e}", file=sys.stderr)
            sys.exit(2)

    if failures:
        print("\nFAIL: performance regression beyond tolerance:",
              file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        sys.exit(1)
    print("OK: within tolerance")
    sys.exit(0)


if __name__ == "__main__":
    main()
