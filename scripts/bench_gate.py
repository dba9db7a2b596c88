#!/usr/bin/env python3
"""Bench regression gate for the checker perf trajectory.

Compares a freshly produced BENCH_check.json against the committed
trajectory point and fails (exit 1) when:

  - any fresh scenario reports ``verdicts_match: false`` — the dedup
    engine, the persistent cache, or the ingest pipeline changed a
    verdict, which is a soundness bug regardless of timing;
  - a scenario shared by name with the baseline regressed its
    ``speedup`` by more than ``ALLOWED_REGRESSION`` (30%); or
  - an ingest scenario's wall time regressed by more than 30% relative
    to its in-run baseline compared to the committed trajectory point:
    ``wall_s / wall_full_warm_s`` for ``delta-ingest``,
    ``wall_s / wall_json_s`` for ``binary-ingest``, and
    ``wall_s / wall_binary_s`` for ``mmap-ingest``.

Fields may be ``null`` (smoke runs skip baselines; non-ingest
scenarios carry ``"rss_ratio": null`` by schema) — every comparison
skips, never trips, on a missing or null field.

Comparisons are *relative* (dedup-vs-no-dedup, warm-vs-cold,
binary-vs-JSON on the same host), so they are meaningful across
machines in a way raw wall-clock is not. When either file carries the
``"smoke": true`` marker (a `perf -- --smoke` run skips the expensive
baselines and is too small to time meaningfully), all timing
comparisons are skipped and only the soundness check runs.

usage: bench_gate.py FRESH_JSON BASELINE_JSON
"""

import json
import sys

ALLOWED_REGRESSION = 0.30

# Per-kind in-run baseline field: the gate holds the ratio
# wall_s / <baseline field> to within ALLOWED_REGRESSION of the
# committed trajectory point.
RATIO_BASELINE_FIELDS = {
    "delta-ingest": "wall_full_warm_s",
    "binary-ingest": "wall_json_s",
    "mmap-ingest": "wall_binary_s",
}


def wall_ratio(scenario, baseline_field):
    """wall_s over the scenario's in-run baseline; None when either
    side is missing, null, or zero (null-safe by construction)."""
    wall = scenario.get("wall_s")
    base = scenario.get(baseline_field)
    if not wall or not base:
        return None
    return wall / base


def fail(messages):
    for m in messages:
        print(f"FAIL: {m}", file=sys.stderr)
    sys.exit(1)


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    fresh_path, base_path = sys.argv[1], sys.argv[2]
    with open(fresh_path) as f:
        fresh = json.load(f)
    with open(base_path) as f:
        base = json.load(f)
    for doc, path in ((fresh, fresh_path), (base, base_path)):
        if doc.get("schema") != "rela-perf/v1":
            fail([f"{path}: unexpected schema {doc.get('schema')!r}"])

    failures = []

    # soundness: never tolerated, smoke or not (smoke runs emit null —
    # "skipped" — which is fine; an explicit false is not)
    for s in fresh["scenarios"]:
        if s.get("verdicts_match") is False:
            failures.append(f"{s['name']}: verdicts diverged")

    smoke = bool(fresh.get("smoke")) or bool(base.get("smoke"))
    if smoke:
        print("smoke marker present: skipping speedup comparisons")
    else:
        base_by_name = {s["name"]: s for s in base["scenarios"]}
        shared = 0
        for s in fresh["scenarios"]:
            b = base_by_name.get(s["name"])
            if b is None or s.get("speedup") is None or b.get("speedup") is None:
                continue
            shared += 1
            floor = b["speedup"] * (1.0 - ALLOWED_REGRESSION)
            if s["speedup"] < floor:
                failures.append(
                    f"{s['name']}: speedup {s['speedup']:.1f}x fell below "
                    f"{floor:.1f}x (baseline {b['speedup']:.1f}x - 30%)"
                )
            else:
                print(
                    f"ok {s['name']}: speedup {s['speedup']:.1f}x "
                    f">= floor {floor:.1f}x"
                )
            # ingest kinds: the wall-time ratio vs the in-run baseline
            # must not regress either (a path that got slower shows up
            # here even if its baseline moved too)
            field = RATIO_BASELINE_FIELDS.get(s.get("kind"))
            if field is not None:
                ratio = wall_ratio(s, field)
                base_ratio = wall_ratio(b, field)
                if ratio is None or base_ratio is None:
                    continue
                ceiling = base_ratio * (1.0 + ALLOWED_REGRESSION)
                if ratio > ceiling:
                    failures.append(
                        f"{s['name']}: wall_s/{field} ratio "
                        f"{ratio:.3f} exceeded {ceiling:.3f} "
                        f"(baseline {base_ratio:.3f} + 30%)"
                    )
                else:
                    print(
                        f"ok {s['name']}: wall_s/{field} ratio "
                        f"{ratio:.3f} <= ceiling {ceiling:.3f}"
                    )
        print(f"compared {shared} shared scenario(s) against {base_path}")

    if failures:
        fail(failures)
    print("bench gate: pass")


if __name__ == "__main__":
    main()
