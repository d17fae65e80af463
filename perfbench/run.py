#!/usr/bin/env python3
"""The repository benchmark: one command, four workloads, the real binaries.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root.  It builds `gdp`, `gdpd` and the
benchmark's own OCaml helper (`perfbench/pbench.exe`) with dune, runs
workload W for about S seconds, checks every output, prints the metrics
by name and unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (BENCHMARK.json's
`end_to_end`); with --trace 1 they are the per-layer ones, from spans
the helper records around each layer's entry points plus the counters
the program exports (Metrics.snapshot, the daemon's Metrics frame).

Workloads (the reasons and predictions are in perfbench/baseline.json):

  verify-full   gdp verify -n 60 -k 3 --domains 2          59,712 fault sets
  verify-orbit  gdp verify -n 1 -k 6 --symmetry --domains 2 82,160 sets, 168 orbits
  serve-hot     gdpd --instances 9:2 --warm 2: every request an L1 hit
  serve-store   gdpd --instances 1:5 --store (orbit store compiled in set-up)
                --cache-limit 256: most requests miss L1 and hit the store

The seed fixes the serving request pool and arrival schedule; the
verify workloads have no random input.  Exit status: 0 when every
output was correct, 1 when some output was wrong or the program under
test failed (the JSON line is still printed), 2 when the benchmark
could not run: no checkout, a failed build (no JSON line).
"""

import argparse
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, "_build", "default")
GDP = os.path.join(BUILD, "bin", "gdp.exe")
GDPD = os.path.join(BUILD, "bin", "gdpd.exe")
PBENCH = os.path.join(BUILD, "perfbench", "pbench.exe")
OUT = os.path.join("perfbench", "_out")  # relative: keeps socket paths short

WORKERS = 2  # gdpd worker domains, and load-generator connections
DOMAINS = 2  # gdp verify --domains
DAEMONS = 8  # daemons set up and measured per serve run (medians reported)
PROBE_REQUESTS = 4096  # gdp bench-client Solves in a traced polling run
SETUP_S = 0.1  # seconds of repeated set-ups before each verify process
RUN_LIMIT = 170.0  # seconds from the end of the build; every child is killed by then
DEADLINE = None

WORKLOADS = {
    "verify-full": {"kind": "verify", "n": 60, "k": 3, "symmetry": False,
                    "sets": 59712, "calls": 59712},
    "verify-orbit": {"kind": "verify", "n": 1, "k": 6, "symmetry": True,
                     "sets": 82160, "calls": 168},
    # Offered open-loop rates sit well below each daemon's capacity
    # (~2M req/s batched for serve-hot, 500-900 req/s for serve-store),
    # so the latency samples describe service rather than a backlog.
    # serve-hot's rate still keeps a worker's gaps between requests near
    # 100 us: at 4000 req/s its idle virtual CPU slept deeper, and the
    # per-daemon p50 swung between 13 and 30 us with the host's load.
    # Batch sizes make a closed-loop frame a few hundred microseconds of
    # server work on serve-hot and ~16 ms on serve-store: long enough to
    # outweigh wake-ups, short enough for many frames per daemon.  The
    # generator polls for serve-hot's microsecond replies and sleeps
    # for serve-store's CPU-bound milliseconds (see Gen.open_loop).
    "serve-hot": {"kind": "serve", "n": 9, "k": 2, "warm": 2, "store": False,
                  "cache_limit": None, "rate": 20000.0, "batch": 512, "poll": 1},
    "serve-store": {"kind": "serve", "n": 1, "k": 5, "warm": 0, "store": True,
                    "cache_limit": 256, "rate": 150.0, "batch": 8, "poll": 0},
}

# Metric names and units, read from BENCHMARK.json in main().
END_TO_END = {}
PER_LAYER = {}


class Unrunnable(Exception):
    """The benchmark cannot run here (exit 2, no result line)."""


# ------------------------------------------------------------------
# Child processes: every one is tracked, killed and reaped on exit.
# ------------------------------------------------------------------

CHILDREN = []
SOCKETS = []


def spawn(args, **kw):
    p = subprocess.Popen(args, cwd=ROOT, **kw)
    CHILDREN.append(p)
    return p


def reap(p):
    if p.returncode is None:
        try:
            p.kill()
        except ProcessLookupError:
            pass
        try:
            p.wait(timeout=30)
        except ChildProcessError:
            p.returncode = -9


def cleanup():
    for p in CHILDREN:
        reap(p)
    for path in SOCKETS:
        try:
            os.unlink(path)
        except FileNotFoundError:
            pass


def on_signal(signum, _frame):
    raise SystemExit(128 + signum)


def remaining():
    return max(1.0, DEADLINE - time.monotonic())


def run_timed(args, stdout_path):
    """Run a process to completion; return (wall_s, exit_code, maxrss_kb).
    The rusage comes from wait4, so it is this child's own peak RSS."""
    with open(stdout_path, "wb") as out:
        t0 = time.perf_counter()
        p = spawn(args, stdout=out, stderr=subprocess.STDOUT)
        killer = threading.Timer(remaining(), p.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(p.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return wall, p.returncode, usage.ru_maxrss


def helper(args):
    """Run pbench; return its JSON output (raises on failure)."""
    p = spawn([PBENCH] + [str(a) for a in args], stdout=subprocess.PIPE,
              stderr=subprocess.PIPE)
    try:
        out, err = p.communicate(timeout=remaining())
    except subprocess.TimeoutExpired:
        reap(p)
        raise RuntimeError("pbench %s timed out" % args[0])
    if p.returncode != 0:
        raise RuntimeError("pbench %s failed (%d): %s"
                           % (args[0], p.returncode, err.decode(errors="replace").strip()))
    return last_json(out.decode(errors="replace"), "pbench " + args[0])


def last_json(text, what):
    try:
        return json.loads(text.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise RuntimeError("%s printed no JSON result: %r" % (what, text[-500:]))


# ------------------------------------------------------------------
# Verify workloads
# ------------------------------------------------------------------

def verify_args(w):
    args = [GDP, "verify", "-n", str(w["n"]), "-k", str(w["k"]),
            "--domains", str(DOMAINS)]
    return args + (["--symmetry"] if w["symmetry"] else [])


def verify_report_ok(w, text):
    if w["symmetry"]:
        want = "checked %d fault sets (%d orbit representatives solved): all tolerated" % (
            w["sets"], w["calls"])
    else:
        want = "checked %d fault sets: all tolerated" % w["sets"]
    return want in text.splitlines()


def run_verify(w, name, seconds, trace):
    if trace:
        return verify_layers(w, name, seconds)
    # Set-up: what gdp verify does before its first fault set (build
    # the instance and, with --symmetry, its symmetry group), timed
    # in-process by the helper before each verify process, so that the
    # set-ups sample the machine over the whole window.
    setup_args = ["setup", "--n", w["n"], "--k", w["k"], "--seconds", SETUP_S]
    if w["symmetry"]:
        setup_args += ["--symmetry", "1"]
    log = os.path.join(OUT, name + ".out")
    setups, walls, rss = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while attempted < 3 or time.perf_counter() - start < seconds:
        setups.append(helper(setup_args)["setup_s"])
        wall, code, maxrss = run_timed(verify_args(w), log)
        attempted += 1
        with open(log, encoding="utf-8", errors="replace") as f:
            text = f.read()
        if code != 0 or not verify_report_ok(w, text):
            failed += 1
            print("wrong verify output (exit %d):\n%s" % (code, text.strip()))
            continue
        walls.append(wall)
        rss.append(maxrss / 1024.0)
    if not walls:
        return attempted, failed, None
    wall = statistics.median(walls)
    print("verify runs: %d, verify_s median %.4f s (min %.4f, max %.4f)"
          % (len(walls), wall, min(walls), max(walls)))
    metrics = {
        "setup_s": statistics.median(setups),
        "latency_p50_us": wall * 1e6,
        "sets_per_s": w["sets"] / wall,
        "peak_rss_mb": statistics.median(rss),
    }
    return attempted, failed, metrics


def verify_layers(w, name, seconds):
    args = ["layers-verify", "--n", w["n"], "--k", w["k"], "--domains", DOMAINS,
            "--expect-sets", w["sets"], "--expect-solver-calls", w["calls"],
            "--seconds", seconds, "--spans-out", os.path.join(OUT, name + ".spans.jsonl")]
    if w["symmetry"]:
        args += ["--symmetry", "1"]
    r = helper(args)
    m = {k: 0.0 for k in PER_LAYER}
    for k in PER_LAYER:
        if k in r:
            m[k] = r[k]
    hits, misses = r["engine.cache_hits"], r["engine.cache_misses"]
    m["engine.l1_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    m["trace_overhead_pct"] = 100.0 * (r["traced_wall_ms"] - r["untraced_wall_ms"]) / r["untraced_wall_ms"]
    parts = r["auto.group_ms"] + r["auto.orbit_enum_ms"] + r["engine.run_task_ms"]
    m["account.parts_us"] = parts * 1e3
    m["account.whole_us"] = r["run_wall_ms"] * 1e3
    m["account.covered_pct"] = 100.0 * parts / r["run_wall_ms"]
    print("accounting: group %.3f + orbit enumeration %.3f + run_task %.3f = %.3f ms"
          " of %.3f ms traced wall (%.1f%%; the rest is instance.build and span overhead)"
          % (r["auto.group_ms"], r["auto.orbit_enum_ms"], r["engine.run_task_ms"],
             parts, r["run_wall_ms"], m["account.covered_pct"]))
    return r["runs"], 0, m


# ------------------------------------------------------------------
# Serve workloads
# ------------------------------------------------------------------

def wait_ready(p):
    """Block until the daemon prints its ready line."""
    line = b""
    fd = p.stdout.fileno()
    while time.monotonic() < DEADLINE:
        r, _, _ = select.select([fd], [], [], max(0.0, DEADLINE - time.monotonic()))
        if not r:
            break
        chunk = os.read(fd, 4096)
        if not chunk:
            raise RuntimeError("gdpd exited before it was ready: %r" % line)
        line += chunk
        if b"gdpd: serving" in line:
            return
    raise RuntimeError("gdpd not ready before the run's deadline")


def start_daemon(w, name, i):
    """One set-up: [compile the store,] spawn gdpd, wait for its ready
    line.  Returns (daemon, socket, store, seconds, compile_seconds)."""
    sock = os.path.join(OUT, "%s.%d.sock" % (name, i))
    store = os.path.join(OUT, "%s.%d.plans" % (name, i)) if w["store"] else None
    for path in [sock] + ([store] if store else []):
        try:
            os.unlink(path)
        except FileNotFoundError:
            pass
    SOCKETS.append(sock)
    t0 = time.perf_counter()
    compile_s = 0.0
    if store:
        wall, code, _ = run_timed([GDP, "compile-plans", "-n", str(w["n"]), "-k", str(w["k"]),
                                   "-o", store], os.path.join(OUT, name + ".compile.out"))
        if code != 0:
            raise RuntimeError("gdp compile-plans failed (%d)" % code)
        compile_s = wall
    args = [GDPD, "--instances", "%d:%d" % (w["n"], w["k"]), "--socket", sock,
            "--workers", str(WORKERS), "--warm", str(w["warm"])]
    if store:
        args += ["--store", store]
    if w["cache_limit"] is not None:
        args += ["--cache-limit", str(w["cache_limit"])]
    p = spawn(args, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    wait_ready(p)
    return p, sock, store, time.perf_counter() - t0, compile_s


def peak_rss_mb(p):
    if p.poll() is not None:
        raise RuntimeError("gdpd exited during the run (%d)" % p.returncode)
    with open("/proc/%d/status" % p.pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM for pid %d" % p.pid)


def client_p50_us(w, name, sock):
    """Lockstep single-Solve p50 of `gdp bench-client`, which blocks in
    read() instead of polling, on one daemon after the load.  Set beside
    the generator's wire p50 it shows whether the polling generator is
    the limit (a generator that sleeps, as on serve-store, blocks in
    select like that client, so there is nothing to compare)."""
    log = os.path.join(OUT, name + ".bench-client.out")
    _, code, _ = run_timed([GDP, "bench-client", "--socket", sock, "--requests",
                            str(PROBE_REQUESTS), "--batch", "1", "--laps", "1",
                            "--json"], log)
    with open(log, encoding="utf-8", errors="replace") as f:
        text = f.read()
    if code != 0:
        raise RuntimeError("gdp bench-client failed (%d): %s" % (code, text.strip()))
    return last_json(text, "gdp bench-client")["laps"][0]["frame_p50_ns"] / 1e3


def run_serve(w, name, seed, seconds, trace):
    # Several daemons, set up one after another and measured in turn:
    # a daemon's latency and capacity shift as a whole with where the
    # machine places its threads, so one daemon per run would measure
    # that placement.  Each gets the same share of the window: 70%
    # open-loop latency at the fixed rate, 30% closed-loop capacity
    # with lockstep Batch frames of the workload's size.
    started = [start_daemon(w, name, i) for i in range(DAEMONS)]
    daemons = [d for d, _, _, _, _ in started]
    socks = [s for _, s, _, _, _ in started]
    store = started[0][2]
    setups = [t for _, _, _, t, _ in started]
    compiles = [c for _, _, _, _, c in started]
    args = ["load", "--socket", ",".join(socks), "--n", w["n"], "--k", w["k"],
            "--seed", seed, "--rate", w["rate"], "--open-s", 0.7 * seconds / DAEMONS,
            "--closed-s", 0.3 * seconds / DAEMONS, "--batch", w["batch"], "--poll", w["poll"]]
    if store:
        args += ["--store", store]
    if w["cache_limit"] is not None:
        args += ["--cache-limit", w["cache_limit"]]
    if trace:
        args += ["--trace", "1", "--spans-out", os.path.join(OUT, name + ".spans.jsonl")]
    r = helper(args)
    rss = statistics.median(peak_rss_mb(d) for d in daemons)
    client_p50 = 0.0
    if trace and w["poll"]:
        client_p50 = client_p50_us(w, name, socks[0])
    for d in daemons:
        reap(d)
    chk = r["check"]
    attempted, failed = chk["attempted"], chk["failed"]
    print("replies checked: %d, failed %d, byte-identical to the oracle %d (%d distinct sets)"
          % (attempted, failed, chk["exact"], chk["distinct_sets"]))
    if failed:
        print("first wrong reply: %s" % chk["first_error"])
    o, c = r["open"], r["closed"]
    print("open loop at %.0f req/s, %d daemons: %d samples; per-daemon medians: p50 %.1f us,"
          " p90 %.1f us, p99 %.1f us, late p99 %.1f us"
          % (w["rate"], r["daemons"], o["samples"], o["p50_us"], o["p90_us"], o["p99_us"],
             o["late_p99_us"]))
    print("daemon p50s: %s us" % r["daemon_p50_us"])
    print("closed loop: %d requests, median %.0f req/s per daemon, batch %d"
          % (c["requests"], c["rps"], c["batch"]))
    if not trace:
        # The serving figures under their usual names; the p99 is shown
        # but not gated (see perfbench/baseline.json).
        print("serve_p50_us %.6g us, serve_p99_us %.6g us, serve_rps %.6g req/s"
              % (o["p50_us"], o["p99_us"], c["rps"]))
        return attempted, failed, {
            "setup_s": statistics.median(setups),
            "latency_p50_us": o["p50_us"],
            "sets_per_s": c["rps"],
            "peak_rss_mb": rss,
        }

    def delta(key):
        total = 0
        for pair in r["metrics"]:
            a, b = pair["after"].get(key, 0), pair["before"].get(key, 0)
            total += a["sum"] - b["sum"] if isinstance(a, dict) else a - b
        return total

    layers = helper(["layers-serve", "--n", w["n"], "--k", w["k"], "--seed", seed,
                     "--warm", w["warm"], "--spans-out", os.path.join(OUT, name + ".layers.jsonl")]
                    + (["--store", store] if store else [])
                    + (["--cache-limit", w["cache_limit"]] if w["cache_limit"] is not None else []))
    m = {k: 0.0 for k in PER_LAYER}
    for k in PER_LAYER:
        if k in layers:
            m[k] = layers[k]
    for k in ["hamilton.searches", "hamilton.expansions", "hamilton.backtracks",
              "verify.solver_calls", "verify.splices", "verify.splice_failures",
              "engine.cache_hits", "engine.cache_misses", "engine.cache_evictions",
              "engine.store_hits", "engine.store_misses", "engine.store_transports",
              "engine.full_solves", "server.requests", "server.errors"]:
        m[k] = delta(k)
    m["hamilton.busy_ms"] = delta("hamilton.search_ns") / 1e6
    m["server.busy_ms"] = delta("server.request_ns") / 1e6
    m["server.queue_depth"] = max(p["after"].get("server.queue_depth", 0) for p in r["metrics"])
    hits, misses = m["engine.cache_hits"], m["engine.cache_misses"]
    m["engine.l1_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    sp, sf = m["verify.splices"], m["verify.splice_failures"]
    m["verify.splice_ratio"] = sp / (sp + sf) if sp + sf else 0.0
    if store:
        m["plan_store.compile_ms"] = statistics.median(compiles) * 1e3
        m["plan_store.bytes"] = os.path.getsize(store)
        print("store path vs re-solving: Auto.canonical_with_transport %.1f us and"
              " Engine.solve with the store %.1f us per request, Engine.solve without it %.1f us"
              % (layers["auto.canonical_us"], layers["engine.solve_us"],
                 layers["engine.solve_nostore_us"]))
    m["serve.p99_us"] = o["p99_us"]
    m["wire.rtt_p50_us"] = o["rtt_p50_us"]
    m["wire.client_p50_us"] = client_p50
    if client_p50:
        print("wire p50: generator %.1f us, gdp bench-client (blocking reads) %.1f us"
              % (o["rtt_p50_us"], client_p50))
    m["gen.late_p99_us"] = o["late_p99_us"]
    t = r["open_traced"]
    m["trace_overhead_pct"] = 100.0 * (t["p50_us"] - o["p50_us"]) / o["p50_us"]
    parts = (layers["codec.frame_ns"] + layers["protocol.decode_ns"]
             + layers["protocol.encode_ns"]) / 1e3 + layers["engine.solve_p50_us"]
    m["account.parts_us"] = parts
    m["account.whole_us"] = o["rtt_p50_us"]
    m["account.covered_pct"] = 100.0 * parts / o["rtt_p50_us"]
    print("accounting: frame+decode+encode %.3f us + Engine.solve p50 %.3f us = %.3f us"
          " of %.3f us wire p50 (%.1f%%)"
          % (parts - layers["engine.solve_p50_us"], layers["engine.solve_p50_us"], parts,
             o["rtt_p50_us"], m["account.covered_pct"]))
    return attempted, failed, m


# ------------------------------------------------------------------

def load_metrics():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        raise Unrunnable("cannot read BENCHMARK.json: %s" % e)
    END_TO_END.update((m["name"], m["unit"]) for m in spec["end_to_end"])
    PER_LAYER.update((m["name"], m["unit"]) for m in spec["per_layer"])


def build():
    for path in ["dune-project", os.path.join("bin", "gdp.ml"), os.path.join("bin", "gdpd.ml"),
                 os.path.join("perfbench", "pbench.ml")]:
        if not os.path.exists(os.path.join(ROOT, path)):
            raise Unrunnable("not a gdpn checkout (missing %s); run from the repository root" % path)
    p = subprocess.run(["dune", "build", "--root", ".", "./bin/gdp.exe", "./bin/gdpd.exe",
                        "./perfbench/pbench.exe"], cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.STDOUT, timeout=700)
    if p.returncode != 0:
        raise Unrunnable("build failed:\n" + p.stdout.decode(errors="replace"))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()
    w = WORKLOADS[a.workload]
    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    global DEADLINE
    try:
        load_metrics()
        build()
        DEADLINE = time.monotonic() + RUN_LIMIT
        os.makedirs(os.path.join(ROOT, OUT), exist_ok=True)
        print("workload %s seed %d seconds %g trace %d nproc %d"
              % (a.workload, a.seed, a.seconds, a.trace, os.cpu_count()))
        try:
            if w["kind"] == "verify":
                attempted, failed, metrics = run_verify(w, a.workload, a.seconds, a.trace)
            else:
                attempted, failed, metrics = run_serve(w, a.workload, a.seed, a.seconds, a.trace)
        except RuntimeError as e:
            # The program under test failed (a crashed or hung daemon,
            # a failed compile, a wrong reply the helper rejected).
            print("perfbench: %s" % e)
            attempted, failed, metrics = 1, 1, None
    except (Unrunnable, OSError, subprocess.TimeoutExpired) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2
    finally:
        cleanup()
    correct = metrics is not None and failed == 0
    units = PER_LAYER if a.trace else END_TO_END
    if metrics is None:
        metrics = {}
    for k in units:
        if k in metrics:
            print("%-24s %14.6g %s" % (k, metrics[k], units[k]))
    print("%-24s %14.6g %%  (%d of %d)" % ("fail_pct", 100.0 * failed / max(1, attempted),
                                           failed, attempted))
    result = {
        "correct": correct,
        "attempted": max(1, attempted),
        "failed": failed if metrics else max(1, failed),
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]}
                    for k in units if k in metrics},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
