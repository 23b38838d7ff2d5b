#!/usr/bin/env python3
"""Compare PRISM bench reports against the paper-metrics golden file.

Usage: check_golden.py [--update] <golden.json> <bench>=<report.json>...

Each <report.json> is a `--report` output of the named bench (a
bench report, or a single run report for one-run benches such as
table1_latency).  For every run, keyed by (bench, app, policy), the
golden file holds the paper-table `metrics` section and the sample
count of each latency histogram (quantiles are left out).  A run that
carries a `variant` (a bench's extra dimension, e.g. migration off/on
or a machine preset) is keyed (bench, app, policy, variant).  The check
fails on any difference and names the run key and the field.
With --update the golden file is rewritten from the reports instead.
"""

import json
import sys


def digest(report):
    """The golden view of one run report: metrics + histogram counts."""
    return {
        "metrics": report["metrics"],
        "histCounts": {f"{h['component']}/{h['name']}": h["count"]
                       for h in report["histograms"]},
    }


def load_runs(bench, path):
    with open(path) as f:
        doc = json.load(f)
    if "runs" not in doc:  # single-run bench: no app name
        return {f"{bench}/-/{doc['config']['policy']}": digest(doc)}
    return {run_key(bench, r): digest(r["report"]) for r in doc["runs"]}


def run_key(bench, run):
    key = f"{bench}/{run['app']}/{run['policy']}"
    return f"{key}/{run['variant']}" if run.get("variant") else key


def write_golden(path, runs):
    # One run per line: compact, yet diffs stay readable.
    lines = [f" {json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
             for k, v in sorted(runs.items())]
    with open(path, "w") as f:
        f.write("{\n" + ",\n".join(lines) + "\n}\n")


def compare(golden, runs):
    errors = []
    for key in sorted(set(golden) | set(runs)):
        if key not in runs:
            errors.append(f"{key}: run missing from the reports")
            continue
        if key not in golden:
            errors.append(f"{key}: run not in the golden file")
            continue
        for section in ("metrics", "histCounts"):
            want, got = golden[key][section], runs[key][section]
            for field in sorted(set(want) | set(got)):
                if want.get(field) != got.get(field):
                    errors.append(f"{key}: {section}.{field}: golden "
                                  f"{want.get(field)!r}, got "
                                  f"{got.get(field)!r}")
    return errors


def main():
    args = sys.argv[1:]
    update = bool(args) and args[0] == "--update"
    if update:
        args = args[1:]
    if len(args) < 2 or any("=" not in a for a in args[1:]):
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    runs = {}
    for a in args[1:]:
        bench, path = a.split("=", 1)
        runs.update(load_runs(bench, path))
    if update:
        write_golden(args[0], runs)
        print(f"check_golden: wrote {len(runs)} runs to {args[0]}")
        return
    with open(args[0]) as f:
        golden = json.load(f)
    errors = compare(golden, runs)
    for e in errors:
        print(f"check_golden: MISMATCH {e}")
    print(f"check_golden: {len(runs)} runs, {len(errors)} mismatches")
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
