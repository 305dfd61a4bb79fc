#!/usr/bin/env python3
"""Diff two snapshots of BENCH_*.json bench artifacts.

Every bench writes BENCH_<name>.json through bench::Report
(bench/bench_util.h): {"bench", "mode", "gates", "metrics", "timings",
"rss"}, each section a flat name -> value object. This tool compares a
baseline snapshot with a new one section by section; the section, never
a field name, decides how a change is treated:

  gates     a gate that is false in the new snapshot, or that the
            baseline has and the new snapshot lacks, fails the diff;
  metrics   deterministic numbers: every change is reported;
  timings   noisy numbers: a change is reported past --threshold percent;
  rss       likewise.

A baseline bench with no artifact in the new snapshot fails the diff, and
so does a baseline whose mode differs from the new run's (regenerate the
baseline).

Usage:
    tools/bench_diff.py OLD NEW [--threshold PCT]

OLD and NEW are each a directory of BENCH_*.json files or a single file.
Exit status: 1 on a failing or lost gate, a missing artifact or a mode
mismatch; 0 otherwise.
"""

import argparse
import json
import os
import sys

SECTIONS = ("gates", "metrics", "timings", "rss")
NOISY = ("timings", "rss")


def load(path):
    with open(path) as f:
        report = json.load(f)
    missing = [key for key in ("bench", "mode") + SECTIONS
               if key not in report]
    if missing:
        sys.exit(f"{path}: not a bench report (missing "
                 f"{', '.join(missing)}); regenerate it")
    return report


def collect(path):
    """Maps bench name -> report for a file or a directory."""
    if os.path.isfile(path):
        paths = [path]
    elif os.path.isdir(path):
        paths = [os.path.join(path, entry) for entry in sorted(os.listdir(path))
                 if entry.startswith("BENCH_") and entry.endswith(".json")]
    else:
        sys.exit(f"{path}: no such file or directory")
    return {report["bench"]: report for report in map(load, paths)}


def show(value):
    if value is None:
        return "(absent)"
    if isinstance(value, bool):
        return str(value).lower()
    return f"{value:g}"


def diff_gates(old, new):
    """Returns (report_lines, failed)."""
    lines, failed = [], False
    for name in sorted(old.keys() | new.keys()):
        was, now = old.get(name), new.get(name)
        if now is None:
            lines.append(f"  gate {name}: {show(was)} -> (absent)  [LOST]")
            failed = True
        elif not now:
            tag = "REGRESSION" if was else "FAILING"
            lines.append(f"  gate {name}: {show(was)} -> false  [{tag}]")
            failed = True
        elif was is not True:
            lines.append(f"  gate {name}: {show(was)} -> true")
    return lines, failed


def diff_numbers(section, old, new, threshold):
    """Report lines for one numeric section. A JSON null (a non-finite
    number) compares only for equality."""
    lines = []
    for name in sorted(old.keys() | new.keys()):
        if name in old and name in new and old[name] == new[name]:
            continue
        was, now = old.get(name), new.get(name)
        line = f"  {section} {name}: {show(was)} -> {show(now)}"
        if isinstance(was, (int, float)) and isinstance(now, (int, float)):
            pct = 100.0 * (now - was) / abs(was) if was else float("inf")
            if section in NOISY and abs(pct) < threshold:
                continue
            line += f"  ({pct:+.1f}%)"
        lines.append(line)
    return lines


def diff_bench(old, new, threshold):
    """Returns (report_lines, failed) for one bench."""
    if old["mode"] != new["mode"]:
        return [f"  mode {old['mode']!r} -> {new['mode']!r}: "
                "regenerate the baseline  [STALE]"], True
    lines, failed = diff_gates(old["gates"], new["gates"])
    for section in SECTIONS[1:]:
        lines += diff_numbers(section, old[section], new[section], threshold)
    return lines, failed


def main():
    parser = argparse.ArgumentParser(
        description="Diff BENCH_*.json artifacts between two snapshots.")
    parser.add_argument("old", help="baseline: a directory or one file")
    parser.add_argument("new", help="new snapshot: a directory or one file")
    parser.add_argument("--threshold", type=float, default=5.0,
                        help="hide timings/rss drift below this percent "
                             "(default 5)")
    args = parser.parse_args()

    old_set, new_set = collect(args.old), collect(args.new)
    if not old_set and not new_set:
        print("no BENCH_*.json artifacts found")
        return 0

    any_failed = False
    for name in sorted(old_set.keys() | new_set.keys()):
        if name not in new_set:
            print(f"== {name}: artifact missing in new snapshot  [MISSING]")
            any_failed = True
            continue
        new = new_set[name]
        if name in old_set:
            header = f"== {name}"
            lines, failed = diff_bench(old_set[name], new, args.threshold)
        else:
            header = f"== {name}: new bench (no baseline)"
            lines, failed = diff_gates({}, new["gates"])
        any_failed = any_failed or failed
        if lines:
            print(header)
            print("\n".join(lines))
        else:
            print(f"{header}: {len(new['gates'])} gates pass, "
                  "no change above threshold")
    if any_failed:
        print("FAIL: a gate failed or was lost, an artifact is missing, "
              "or a baseline is stale")
    return 1 if any_failed else 0


if __name__ == "__main__":
    sys.exit(main())
