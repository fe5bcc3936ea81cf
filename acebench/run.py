#!/usr/bin/env python3
"""Repository benchmark for the Ace DSM: builds the runner, runs one workload
for a fixed time, checks every run and prints the metrics.

Usage (from the repository root):
  python3 acebench/run.py --workload em3d-sc --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  --trace 0 reports the end-to-end metrics,
--trace 1 the per-layer metrics of a traced run.  The line before it holds
the run's metadata (seed, host, build, sample counts, self-checks).
README.md defines every metric and workload.
"""

import argparse
import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "acebench")
RUNNER = os.path.join(BUILD, "acebench_runner")
BUILD_TYPE = "RelWithDebInfo"

# Percentile reported as run_s_tail, per workload.  It is fixed, so that two
# commits are compared at the same percentile; higher percentiles swing with
# every burst of load from other processes on the host (bh-custom's 35 ms
# runs, whose ranks sleep through rank 0's tree build, most of all).
TAIL_PERCENTILE = {
    "em3d-sc": 75,
    "em3d-sc-proc": 75,
    "bh-custom": 75,
    "miglock-sd": 90,
}
# Runs a tail percentile must have beyond it.  The runner keeps timing past
# --seconds until there are enough undisturbed runs for that; if even then
# there are fewer runs, run_s_tail is not measured and the call fails.
TAIL_RUNS = 10

# Largest allowed gap between a rank's summed layer self times and the run's
# wall time, both averaged over the traced runs, as a share of the wall time.
# The self times fall short of the wall time by the thread start-up and the
# closing finalize barrier, which lie outside the rank's run span.
SELF_TIME_EPS = 0.10

# Counts that must not move when calls are wrapped: they depend only on the
# inputs.  Polls are left out: how often a rank polls depends on timing.
INVARIANT_KEYS = ("checksum_bits", "msgs", "bytes", "barriers")
PROTOCOL_KEYS = ("invalidations", "recalls", "fetches", "updates",
                 "writebacks")
LAYERS = ("dsm.map", "ace.read", "ace.write", "ace.barrier", "ace.lock",
          "ace.order", "ace.space", "ace.coll")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then bring the runner up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("acebench: no src/ next to acebench/: run from a full checkout")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("acebench: build failed: " + " ".join(cmd))
            return False
    return True


def min_runs(workload):
    """Plain runs that leave TAIL_RUNS beyond the workload's percentile."""
    return math.ceil(TAIL_RUNS / (1 - TAIL_PERCENTILE[workload] / 100))


def run_runner(args, chrome):
    """Run the workload for args.seconds.  A runner that dies mid-run (a
    failed check, a watchdog abort, a dead rank) costs one failed run and is
    restarted for the time left.  Returns (records, crashes), or None when
    the runner refused to run (more ranks than cpus, unknown workload)."""
    records, crashes = [], 0
    deadline = time.monotonic() + args.seconds
    while True:
        left = max(deadline - time.monotonic(), 0.001)
        cmd = [RUNNER, "--workload=" + args.workload,
               "--seed=%d" % args.seed, "--seconds=%.3f" % left,
               "--trace=%d" % args.trace]
        if not args.trace:
            have = sum(1 for r in records
                       if r["kind"] == "run" and not r["disturbed"])
            cmd.append("--min-runs=%d" % max(min_runs(args.workload) - have,
                                             0))
        if chrome:
            cmd.append("--chrome=" + chrome)
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                                start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=3 * left + 90)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            out, _ = proc.communicate()
        if proc.returncode != 0:
            stop_group(proc.pid)
        if proc.returncode == 2:
            return None
        ended = False
        for line in out.splitlines():
            try:
                rec = json.loads(line)
            except ValueError:
                continue  # a line cut short by a crash
            if rec["kind"] == "end":
                ended = True
            else:
                records.append(rec)
        if ended and proc.returncode == 0:
            return records, crashes
        crashes += 1
        log("acebench: runner exited with %s; counted as a failed run"
            % proc.returncode)
        if time.monotonic() >= deadline:
            return records, crashes


def stop_group(pgid):
    """Kill the rank processes a crashed runner left behind (they share its
    process group) and wait until none is left."""
    try:
        os.killpg(pgid, signal.SIGKILL)
        for _ in range(100):
            time.sleep(0.05)
            os.killpg(pgid, 0)
    except ProcessLookupError:
        pass


def percentile(values, p):
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(p / 100 * len(s)) - 1)]


def end_to_end(plain, workload):
    """The metrics over the runs the hypervisor did not disturb (see
    kMaxStealShare in runner.cpp).  When too few were undisturbed for the
    tail, the runs with the least steal per second of run time make up the
    count, so that a few disturbed runs shift the metrics by a few places
    instead of letting every disturbed run in."""
    steady = [r for r in plain if not r["disturbed"]]
    timed = steady
    if len(steady) < min_runs(workload):
        timed = sorted(plain, key=lambda r: r["steal_ticks"] / r["wall_ns"])
        timed = timed[:min_runs(workload)]
    wall = [r["wall_ns"] / 1e9 for r in timed]
    p = TAIL_PERCENTILE[workload]
    metrics = {
        "run_s": (statistics.median(wall), "s"),
        "run_s_tail": (percentile(wall, p), "s"),
        "modeled_s": (statistics.median(r["modeled_ns"] for r in timed) / 1e9,
                      "s"),
        "setup_s": (statistics.median(r["setup_ns"] for r in timed) / 1e9,
                    "s"),
        "rss_mb": (statistics.median(r["rss_kb"] for r in timed) / 1024,
                   "MB"),
    }
    beyond = sum(1 for w in wall if w > metrics["run_s_tail"][0])
    return metrics, {"tail_percentile": p, "runs_beyond_tail": beyond,
                     "runs_disturbed": len(plain) - len(steady),
                     "runs_used": len(timed)}


def per_layer(plain, traced):
    n = len(traced)

    def mean(f):
        return sum(f(r) for r in traced) / n

    def rank_mean_s(r, layer):
        return sum(rk[layer][1] for rk in r["ranks"]) / len(r["ranks"]) / 1e9

    def calls(r, layer):
        return sum(rk[layer][0] for rk in r["ranks"])

    def ratio(num, den):
        d = sum(r["dsm"][den] for r in traced)
        return sum(r["dsm"][num] for r in traced) / d if d else 0.0

    m = {"apps.self_s": (mean(lambda r: rank_mean_s(r, "apps")), "s")}
    for layer in LAYERS:
        if layer not in ("ace.space", "ace.coll"):
            m[layer + ".calls"] = (mean(lambda r: calls(r, layer)), "count")
        m[layer + ".s"] = (mean(lambda r: rank_mean_s(r, layer)), "s")
    m["dsm.map.meta_miss_ratio"] = (ratio("map_meta_misses", "maps"),
                                    "ratio")
    m["ace.read.miss_ratio"] = (ratio("read_misses", "start_reads"), "ratio")
    m["ace.write.miss_ratio"] = (ratio("write_misses", "start_writes"),
                                 "ratio")
    for key in PROTOCOL_KEYS:
        m["protocols." + key] = (mean(lambda r: r["dsm"][key]), "count")
    m["am.msgs"] = (mean(lambda r: r["msgs"]), "count")
    m["am.bytes"] = (mean(lambda r: r["bytes"]), "B")
    m["am.polls"] = (mean(lambda r: r["polls"]), "count")
    m["am.barriers"] = (mean(lambda r: r["barriers"]), "count")
    m["am.msgs_per_poll"] = (sum(r["msgs_received"] for r in traced)
                             / sum(r["polls"] for r in traced), "msg/poll")
    m["obs.trace_overhead"] = (
        statistics.median(r["wall_ns"] for r in traced)
        / statistics.median(r["wall_ns"] for r in plain) - 1, "ratio")
    return m


# Each wrapped layer's calls, summed over ranks, against the DsmStats
# counters the runtime keeps for the same calls (end_read and end_write are
# not counted there, so reads and writes are twice the starts).
CALLS_VS_STATS = {
    "dsm.map": lambda d: d["maps"] + d["unmaps"],
    "ace.read": lambda d: 2 * d["start_reads"],
    "ace.write": lambda d: 2 * d["start_writes"],
    "ace.barrier": lambda d: d["barriers"],
    "ace.lock": lambda d: d["locks"] + d["unlocks"],
    "ace.order": lambda d: d["acquires"] + d["releases"],
}


def self_checks(plain, traced, chrome):
    """The traced run's checks; returns {name: passed} plus details."""

    def key(r):
        return (tuple(r[k] for k in INVARIANT_KEYS)
                + tuple(r["dsm"][k] for k in PROTOCOL_KEYS))

    def calls_match(r):
        return all(sum(rk[layer][0] for rk in r["ranks"]) == stat(r["dsm"])
                   for layer, stat in CALLS_VS_STATS.items())

    wall = sum(r["wall_ns"] for r in traced)
    gaps = []
    for rank in range(len(traced[0]["ranks"])):
        self_ns = sum(r["ranks"][rank][layer][1] for r in traced
                      for layer in ("apps",) + LAYERS)
        gaps.append(1 - self_ns / wall)
    checks = {
        "counts_identical": len({key(r) for r in plain + traced}) == 1,
        "self_times_sum_to_wall": all(0 <= g <= SELF_TIME_EPS for g in gaps),
        "spans_well_formed": all(rk["bad_spans"] == 0 for r in traced
                                 for rk in r["ranks"]),
        "calls_match_dsm_stats": all(calls_match(r) for r in traced),
        "chrome_trace_loads": chrome_ok(chrome),
    }
    details = {"self_time_gap_max": max(gaps),
               "self_time_eps": SELF_TIME_EPS}
    return checks, details


def chrome_ok(path):
    """The exported spans parse as Chrome trace-event JSON."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError):
        return False
    events = doc.get("traceEvents", [])
    spans = [e for e in events if e.get("ph") == "X"]
    return bool(spans) and all(
        isinstance(e.get("name"), str) and e.get("dur", -1) >= 0
        and e.get("ts", -1) >= 0 and "pid" in e and "tid" in e
        for e in spans)


def cmake_cache(name):
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(name + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def source_digest():
    """Digest of the sources the runner is built from (the checkout the
    benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "acebench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                p = os.path.join(d, name)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() or None


def metadata(args, load_before):
    compiler = cmake_cache("CMAKE_CXX_COMPILER")
    version = None
    if compiler:
        r = subprocess.run([compiler, "--version"], capture_output=True,
                           text=True)
        version = (r.stdout.splitlines() or [None])[0]
    flags = " ".join(filter(None, (
        cmake_cache("CMAKE_CXX_FLAGS"),
        cmake_cache("CMAKE_CXX_FLAGS_" + BUILD_TYPE.upper()))))
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_before": load_before, "loadavg_after": os.getloadavg(),
        "git_sha": git_sha(), "source_digest": source_digest(),
        "compiler": version, "cxx_flags": flags + " -Wall -Wextra",
        "build_type": BUILD_TYPE,
        "ace_obs_trace": cmake_cache("ACE_OBS_TRACE"),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=TAIL_PERCENTILE)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not build():
        return 1
    load_before = os.getloadavg()
    chrome = None
    if args.trace:
        os.makedirs(os.path.join(BUILD, "traces"), exist_ok=True)
        chrome = os.path.join(BUILD, "traces", "%s-seed%d.json"
                              % (args.workload, args.seed))
        if os.path.exists(chrome):
            os.remove(chrome)
    got = run_runner(args, chrome)
    if got is None:
        return 2
    records, crashes = got

    # Every application run is checked, warm-up and parity runs included.
    failed = crashes + sum(1 for r in records if not r["ok"])
    attempted = crashes + len(records)
    runs = [r for r in records if r["kind"] == "run" and r["ok"]]
    plain = [r for r in runs if not r["traced"]]
    traced = [r for r in runs if r["traced"]]
    if not plain or (args.trace and not traced):
        log("acebench: no successful timed run")
        return 1

    meta = metadata(args, load_before)
    meta.update(backend=plain[0]["backend"], ranks=plain[0]["ranks"],
                runs=len(plain),
                traced_runs=len(traced),
                fail_frac=failed / attempted)
    correct = failed == 0
    if args.trace:
        metrics = per_layer(plain, traced)
        checks, details = self_checks(plain, traced, chrome)
        meta.update(self_checks=checks,
                    chrome_trace=os.path.relpath(chrome, ROOT), **details)
        correct = correct and all(checks.values())
    else:
        metrics, tail = end_to_end(plain, args.workload)
        meta.update(tail)
        if tail["runs_beyond_tail"] < TAIL_RUNS:
            log("acebench: run_s_tail not measured: %d runs beyond p%d, "
                "fewer than %d" % (tail["runs_beyond_tail"],
                                   tail["tail_percentile"], TAIL_RUNS))
            return 1
    for r in records:
        if not r["ok"]:
            log("acebench: %s run %d failed: %s" % (r["kind"], r["rep"],
                                                   r["why"]))

    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
