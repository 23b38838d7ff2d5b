#!/usr/bin/env python3
"""Host-speed benchmark of the PRISM simulator.

Usage (from the root of a checkout):

  python3 perfbench/run.py --workload <name|all> --seed <n> \
      --seconds <s> --trace <0|1>
  python3 perfbench/run.py --self-test
  python3 perfbench/run.py --update-expected

Builds perfbench/ (the simulator library plus perfbench/sweeper.cc) as an
optimized Release build in .bench_build/, then runs the workload's
six-policy sweep back to back for --seconds (at least two sweeps) and
checks every run's simulated statistics:

  * repeats of one (policy, seed) within the invocation must agree;
  * at a seed listed in perfbench/expected.json the statistics must
    equal the committed expectation;
  * SCOMA, LANUMA and Dyn-FCFS never page out a client page;
  * the sweeper must not crash or exceed its per-run wall-clock limit.

--trace 0 prints the end-to-end metrics (host time, tracing off);
--trace 1 prints the per-layer metrics of a traced run, writes its spans
to .bench_out/ as Chrome trace-event JSON and reports the tracing
overhead.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  See perfbench/BENCHMARK.md.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
OUT = ROOT / ".bench_out"
SWEEPER = BUILD / "perfbench_sweeper"
EXPECTED = HERE / "expected.json"

WORKLOADS = ("radix_8x4", "kv_b_8x4", "kv_a_128x8")
POLICIES = ("SCOMA", "LANUMA", "SCOMA-70", "Dyn-FCFS", "Dyn-Util",
            "Dyn-LRU")
# Policies whose page cache never forces a client page-out.
NO_PAGEOUT = ("SCOMA", "LANUMA", "Dyn-FCFS")
# Seeds whose statistics perfbench/expected.json records; 1 is the
# default seed.
EXPECTED_SEEDS = range(0, 11)
# Wall-clock limit of one sweeper invocation beyond --seconds (builds
# excluded).  The sweeper's own watchdog stops a run after 60 s.
SWEEPER_SLACK_S = 130

END_TO_END = {
    "sweep_s": "s",
    "slowest_run_s": "s",
    "sim_refs_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Folded per-layer counters (sweeper.cc foldCounters), summed over the
# sweep.
SUMMED_COUNTS = (
    "mem.refs", "mem.l1_hits", "mem.l2_misses", "mem.tlb_refills",
    "coherence.remote_misses", "coherence.upgrades",
    "coherence.invals_sent", "coherence.retries", "coherence.nacks_sent",
    "os.faults", "os.client_pageouts", "os.conversions_to_lanuma",
    "net.messages", "net.traffic_proxy",
)
# Tail latencies in simulated cycles, taken from the SCOMA-70 run.
TAILS = (
    "workload.kv_read_p99_cycles", "workload.kv_update_p99_cycles",
    "coherence.read2_p99_cycles", "coherence.upgrade_p99_cycles",
    "os.pagein_p99_cycles", "net.data_p99_cycles",
)

PER_LAYER = {
    "sim.events": "count",
    "sim.events_per_s": "1/s",
    "core.ctor_s": "s",
    **{f"core.run_s.{p}": "s" for p in POLICIES},
    "core.teardown_s": "s",
    "workload.setup_s": "s",
    "workload.kv_read_p99_cycles": "cycles",
    "workload.kv_update_p99_cycles": "cycles",
    "mem.refs": "count",
    "mem.l1_hits": "count",
    "mem.l2_misses": "count",
    "mem.tlb_refills": "count",
    "coherence.remote_misses": "count",
    "coherence.upgrades": "count",
    "coherence.invals_sent": "count",
    "coherence.retries": "count",
    "coherence.nacks_sent": "count",
    "coherence.read2_p99_cycles": "cycles",
    "coherence.upgrade_p99_cycles": "cycles",
    "coherence.dir_bytes_max": "B",
    "os.faults": "count",
    "os.client_pageouts": "count",
    "os.conversions_to_lanuma": "count",
    "os.pagein_p99_cycles": "cycles",
    "os.pageout_host_us": "us",
    "net.messages": "count",
    "net.traffic_proxy": "count",
    "net.data_p99_cycles": "cycles",
    "obs.report_s": "s",
    "trace.overhead_s": "s",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure and build the sweeper; exit 2 (no result) on failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = (
        ["cmake", "-S", str(HERE), "-B", str(BUILD),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD), "--target", "perfbench_sweeper",
         "-j", jobs],
    )
    for cmd in steps:
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                               timeout=850)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"perfbench: build step failed: {e}")
            sys.exit(2)
        if r.returncode != 0:
            log(f"perfbench: build failed: {' '.join(cmd)}")
            sys.exit(2)


def sweeper_env():
    # PRISM_* knobs (protocol, oracle, trace, ...) would change the
    # program under test; the benchmark always runs the defaults.
    return {k: v for k, v in os.environ.items()
            if not k.startswith("PRISM_")}


def run_sweeper(args, seconds):
    """Run the sweeper; returns (records, exit code or None on timeout)."""
    try:
        p = subprocess.run([str(SWEEPER), *args], stdout=subprocess.PIPE,
                           text=True, env=sweeper_env(),
                           timeout=seconds + SWEEPER_SLACK_S)
        out, code = p.stdout, p.returncode
    except subprocess.TimeoutExpired as e:
        out = e.stdout or ""
        if isinstance(out, bytes):
            out = out.decode(errors="replace")
        code = None
    records = []
    for line in out.splitlines():
        if line.startswith("{"):
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                pass
    return records, code


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def load_expected():
    try:
        with open(EXPECTED) as f:
            return json.load(f)
    except FileNotFoundError:
        return {}


def check_runs(workload, seed, runs, code, timeouts):
    """Return (attempted, failed, problems) for one invocation."""
    expected = load_expected().get(workload, {}).get(str(seed))
    problems = []
    failed = 0
    first = {}
    for r in runs:
        why = []
        pol = r["policy"]
        if pol in first and first[pol]["digest"] != r["digest"]:
            why.append(f"differs from sweep {first[pol]['sweep']}")
        first.setdefault(pol, r)
        if expected is not None:
            exp = expected.get(pol)
            if exp is None:
                why.append("no expectation recorded")
            elif exp["digest"] != r["digest"]:
                diffs = [f"{k} {exp[sec][k]} -> {r[sec].get(k)}"
                         for sec in ("paper", "fold")
                         for k in exp[sec] if exp[sec][k] != r[sec].get(k)]
                why.append("statistics differ from expected.json"
                           + (": " + "; ".join(diffs[:6]) if diffs
                              else " (digest only)"))
        if pol in NO_PAGEOUT and r["fold"]["os.client_pageouts"] != 0:
            why.append("client page-outs under a policy without a cap")
        if why:
            failed += 1
            problems.append(f"sweep {r['sweep']} {pol}: " + ", ".join(why))
    attempted = len(runs)
    for t in timeouts:
        problems.append(f"timed out after {t['limit_s']:.0f} s: workload "
                        f"{t['workload']} policy {t['policy']} seed "
                        f"{t['seed']}")
    if code != 0:
        # The run in flight when the sweeper died counts as failed.
        attempted += 1
        failed += 1
        if not timeouts:
            problems.append("sweeper " + ("exceeded the invocation limit"
                                         if code is None
                                         else f"exited with code {code}"))
    return max(attempted, 1), failed, problems


def median(xs):
    return statistics.median(xs) if xs else 0.0


def by_sweep(runs, traced):
    sweeps = {}
    for r in runs:
        if r["traced"] == traced:
            sweeps.setdefault(r["sweep"], []).append(r)
    return [s for s in sweeps.values() if len(s) == len(POLICIES)]


def sweep_walls(runs, traced):
    return [sum(r["wall_s"] for r in s) for s in by_sweep(runs, traced)]


def end_to_end(runs, end):
    full = by_sweep(runs, False)
    walls = sweep_walls(runs, False)
    return {
        "sweep_s": median(walls),
        "slowest_run_s": median([max(r["wall_s"] for r in s)
                                 for s in full]),
        "sim_refs_per_s": median([
            sum(r["fold"]["mem.refs"] for r in s) / wall
            for s, wall in zip(full, walls)]),
        "peak_rss_mb": end.get("peak_rss_kb", 0) / 1024.0,
        "setup_s": median([sum(r["ctor_s"] + r["setup_s"] for r in s)
                           for s in full]),
    }, len(walls), max(walls, default=0.0)


def layer_values(s):
    """Per-layer metrics of one sweep (a list of six policy runs)."""
    run = {r["policy"]: r for r in s}
    v = {
        "sim.events": sum(r["events"] for r in s),
        "sim.events_per_s": sum(r["events"] for r in s)
        / sum(r["run_s"] for r in s),
        "core.ctor_s": sum(r["ctor_s"] for r in s),
        "core.teardown_s": sum(r["teardown_s"] for r in s),
        "workload.setup_s": sum(r["setup_s"] for r in s),
        "coherence.dir_bytes_max": max(r["dir_bytes_max"] for r in s),
        "obs.report_s": sum(r["report_s"] for r in s),
    }
    for p in POLICIES:
        v[f"core.run_s.{p}"] = run[p]["run_s"]
    for k in SUMMED_COUNTS:
        v[k] = sum(r["fold"][k] for r in s)
    for k in TAILS:
        v[k] = run["SCOMA-70"]["fold"][k]
    outs = run["SCOMA-70"]["fold"]["os.client_pageouts"]
    v["os.pageout_host_us"] = (
        (run["SCOMA-70"]["run_s"] - run["SCOMA"]["run_s"]) / outs * 1e6
        if outs else 0.0)
    return v


def per_layer(runs):
    traced = [layer_values(s) for s in by_sweep(runs, True)]
    out = {k: median([t[k] for t in traced]) for k in PER_LAYER
           if k != "trace.overhead_s"}
    out["trace.overhead_s"] = (median(sweep_walls(runs, True))
                               - median(sweep_walls(runs, False)))
    return out


def print_policy_table(runs, traced):
    sweeps = by_sweep(runs, traced)
    if not sweeps:
        return
    print(f"\nper policy (median over {len(sweeps)} sweep(s)):")
    print(f"  {'policy':<9} {'run_s':>8} {'events':>10} {'refs':>9} "
          f"{'pageouts':>8} {'remote_miss':>11} {'to_lanuma':>9}")
    for p in POLICIES:
        rs = [r for s in sweeps for r in s if r["policy"] == p]
        f = rs[0]["fold"]
        print(f"  {p:<9} {median([r['run_s'] for r in rs]):>8.3f} "
              f"{rs[0]['events']:>10} {f['mem.refs']:>9.0f} "
              f"{f['os.client_pageouts']:>8.0f} "
              f"{f['coherence.remote_misses']:>11.0f} "
              f"{f['os.conversions_to_lanuma']:>9.0f}")


def print_metrics(title, metrics, units):
    print(f"\n{title}:")
    for k, unit in units.items():
        print(f"  {k:<32} {metrics[k]:>16.6g} {unit}")


def bench(workload, seed, seconds, trace):
    """Run and check one workload; print its tables, return the result."""
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace_{workload}_seed{seed}.json"
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds)]
    if trace:
        args += ["--trace-out", str(trace_path)]
    records, code = run_sweeper(args, seconds)
    kind = {}
    for r in records:
        kind.setdefault(r["type"], []).append(r)
    runs = kind.get("run", [])
    prov = kind.get("provenance", [{}])[0]
    end = kind.get("end", [{}])[0]
    attempted, failed, problems = check_runs(
        workload, seed, runs, code, kind.get("timeout", []))

    print(f"perfbench workload={workload} seed={seed} "
          f"seconds={seconds} trace={trace}")
    print(f"  machine {prov.get('nodes')}x{prov.get('procs_per_node')}, "
          f"{prov.get('shards')} shard(s); host nproc={os.cpu_count()}, "
          f"cpu '{cpu_model()}'")
    print(f"  compiler {prov.get('compiler')}, build "
          f"{prov.get('build_type')} ({prov.get('cxx_flags', '').strip()})")
    print(f"  runs attempted {attempted}, failed {failed} "
          f"(runs_failed = {failed}/{attempted})")
    for p in problems:
        print(f"  FAILED {p}")

    metrics = {}
    if code == 0:
        print_policy_table(runs, bool(trace))
        if trace:
            values = per_layer(runs)
            print_metrics("per-layer metrics (traced sweeps, medians; "
                          "p99s from the SCOMA-70 run)", values, PER_LAYER)
            print(f"  tracing overhead: {values['trace.overhead_s']:+.4f} s"
                  " per sweep (traced minus untraced sweep_s)")
            print(f"  trace written to {trace_path.relative_to(ROOT)}")
            units = PER_LAYER
        else:
            values, n, worst = end_to_end(runs, end)
            print_metrics("end-to-end metrics (host time, tracing off)",
                          values, END_TO_END)
            print(f"  sweep_s: median {values['sweep_s']:.4f} s, max "
                  f"{worst:.4f} s, n = {n}")
            units = END_TO_END
        metrics = {k: {"value": values[k], "unit": u}
                   for k, u in units.items()}
    return {"correct": failed == 0 and code == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def update_expected():
    """Record expected statistics at EXPECTED_SEEDS for every workload.

    A seed whose sweep fails (crash, timeout, or repeats that disagree)
    is left out and reported; the exit code is then 1.
    """
    build()
    doc = {}
    bad = 0
    for w in WORKLOADS:
        doc[w] = {}
        for seed in EXPECTED_SEEDS:
            records, code = run_sweeper(["--workload", w, "--seed",
                                        str(seed), "--seconds", "0"], 0)
            runs = [r for r in records if r["type"] == "run"]
            digests = {(r["policy"], r["digest"]) for r in runs}
            if code != 0 or len(digests) != len(POLICIES):
                log(f"perfbench: {w} seed {seed} NOT recorded: sweeper "
                    f"exit {code}, {len(digests)} distinct (policy, "
                    "digest) pairs")
                bad += 1
                continue
            doc[w][str(seed)] = {
                r["policy"]: {k: r[k] for k in ("digest", "paper", "fold")}
                for r in runs if r["sweep"] == 0}
            log(f"perfbench: recorded {w} seed {seed}")
    with open(EXPECTED, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    return 1 if bad else 0


def self_test():
    """Sweeper fold/digest self-test plus metric-name consistency."""
    build()
    ok = subprocess.run([str(SWEEPER), "--self-test"],
                        env=sweeper_env()).returncode == 0
    spec_path = ROOT / "BENCHMARK.json"
    if spec_path.exists():
        spec = json.loads(spec_path.read_text())
        for section, ours in (("end_to_end", END_TO_END),
                              ("per_layer", PER_LAYER)):
            theirs = {m["name"]: m["unit"] for m in spec[section]}
            if theirs != ours:
                log(f"perfbench: BENCHMARK.json {section} does not match "
                    "run.py")
                ok = False
        if not {w["name"] for w in spec["workloads"]} <= set(WORKLOADS):
            log("perfbench: BENCHMARK.json names a workload run.py "
                "does not know")
            ok = False
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--update-expected", action="store_true")
    a = ap.parse_args()
    if a.self_test:
        return self_test()
    if a.update_expected:
        return update_expected()
    if a.workload is None:
        ap.error("--workload is required")
    if a.seed < 0 or a.seconds < 0:
        ap.error("--seed and --seconds must be non-negative")
    build()
    if a.workload == "all":
        # Every workload in turn; the last line sums them and prefixes
        # each metric with its workload.
        results = {}
        for w in WORKLOADS:
            results[w] = bench(w, a.seed, a.seconds, a.trace)
            print(json.dumps(results[w]) + "\n")
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    else:
        result = bench(a.workload, a.seed, a.seconds, a.trace)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
