#!/usr/bin/env python3
"""Facile's repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The script builds the shipped
library and binaries (facile_server, facile_lb) plus the benchmark
binary (pbench) from source, starts the processes under test, drives the
workload, checks every prediction it receives against serial
model::predict, and prints:

  * a table of every metric measured (name, value, unit, quartiles of
    the repeats the value is the median of, repeats, samples);
  * as the last line, one JSON object with the keys correct, attempted,
    failed and metrics: the end_to_end metrics of BENCHMARK.json with
    --trace 0, its per_layer metrics with --trace 1.

The full result (provenance, every metric, traffic checks, span
summary) is written to <build>/results/; see perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import socket
import statistics
import struct
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)

# Offered PREDICT/s at the fixed rates, and the p99 latency limit.
WIRE = {
    "wire_hot": {"rates": (20000, 100000, 400000), "limit_us": 1000},
    # routed_mixed: high lowered from 120k, measured saturation (p99 <= 2 ms)
    # on a 4-core host is ~60k PREDICT/s.
    "routed_mixed": {"rates": (10000, 40000, 60000), "limit_us": 2000},
}
WORKLOADS = ("inproc_cold", "wire_hot", "routed_mixed")
# Documented second seed per workload, for checking a claim on inputs
# not used while the change was written.
HELD_OUT_SEED = {"inproc_cold": 9001, "wire_hot": 9002, "routed_mixed": 9003}
SETUP_REPEATS = 9
# The per-workload names of shared metrics, also reported under them.
ALIASES = {
    "inproc_cold": {"blocks_per_s": "throughput_per_s",
                    "call_p50_us": "lat_p50_us", "call_p99_us": "lat_p99_us"},
    "wire_hot": {"saturation_rps": "throughput_per_s"},
    "routed_mixed": {"saturation_rps": "throughput_per_s"},
}


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(REPO, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def build(bdir):
    """Configure (once) and build the benchmark package; return bin dir."""
    if not (os.path.isfile(os.path.join(REPO, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(REPO, "src"))):
        die("no facile source tree next to perfbench/")
    os.makedirs(bdir, exist_ok=True)
    log = os.path.join(bdir, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    with open(log, "w") as out:
        steps = []
        if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", bdir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", bdir, "-j", jobs])
        for cmd in steps:
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT) != 0:
                with open(log) as f:
                    sys.stderr.write(f.read()[-4000:])
                die("build failed: " + " ".join(cmd))
    return os.path.join(bdir, "bin")


class Procs:
    """The processes under test; every one is stopped and reaped."""

    def __init__(self, rundir):
        self.rundir = rundir
        self.live = {}

    def start(self, name, argv):
        log = open(os.path.join(self.rundir, name + ".log"), "w")
        p = subprocess.Popen(argv, cwd=self.rundir, stdout=log,
                             stderr=subprocess.STDOUT)
        log.close()
        self.live[name] = p
        return p

    def stop(self, name):
        p = self.live.pop(name)
        if p.poll() is None:
            p.send_signal(signal.SIGINT)
            try:
                p.wait(timeout=5)
            except subprocess.TimeoutExpired:
                p.kill()
                p.wait()

    def stop_all(self):
        for name in list(self.live):
            self.stop(name)


def first_predict(path, frame, deadline):
    """Send one PREDICT frame until it is answered OK; block until then."""
    while True:
        s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            s.connect(path)
            s.sendall(frame)
            hdr = b""
            while len(hdr) < 12:
                chunk = s.recv(12 - len(hdr))
                if not chunk:
                    raise OSError("closed")
                hdr += chunk
            _, status, _, length = struct.unpack("<QBBH", hdr)
            body = b""
            while len(body) < length:
                chunk = s.recv(length - len(body))
                if not chunk:
                    raise OSError("closed")
                body += chunk
            if status == 0:
                return
        except OSError:
            pass
        finally:
            s.close()
        if time.monotonic() > deadline:
            die("no answer to the first PREDICT on " + path)
        time.sleep(0.0005)


def pbench(bindir, *args):
    """Run a pbench subcommand; return (exit code, stdout)."""
    r = subprocess.run([os.path.join(bindir, "pbench")] + [str(a) for a in args],
                       stdout=subprocess.PIPE, text=True, timeout=170)
    return r.returncode, r.stdout


def load(path):
    with open(path) as f:
        return json.load(f)


def server_argv(bindir, sock, threads, extra=()):
    return [os.path.join(bindir, "facile_server"), "--unix", sock,
            "--threads", str(threads), "--io-threads", "1"] + list(extra)


def lb_argv(bindir, sock, backends):
    argv = [os.path.join(bindir, "facile_lb"), "--unix", sock]
    for b in backends:
        argv += ["--backend", "unix:" + b]
    return argv


def unlink(*paths):
    for p in paths:
        if os.path.exists(p):
            os.unlink(p)


def launch_timed(procs, starts, sock, frame):
    """Start processes [(name, argv)] and time until sock answers."""
    t0 = time.perf_counter()
    for name, argv in starts:
        procs.start(name, argv)
    first_predict(sock, frame, time.monotonic() + 30)
    return time.perf_counter() - t0


def first_frame(bindir, args):
    """The PREDICT frame set-up timing sends: the workload's first block."""
    return bytes.fromhex(pbench(bindir, "first-frame", "--workload",
                                args.workload, "--seed", args.seed)[1].strip())


def run_inproc(bindir, args, procs, res):
    setups = []
    for _ in range(SETUP_REPEATS):
        code, out = pbench(bindir, "inproc-setup", "--seed", args.seed)
        if code != 0:
            die("inproc-setup failed")
        setups.append(float(out.split()[0]))
    res["setup"] = setups
    code, _ = pbench(bindir, "inproc", "--seed", args.seed, "--seconds",
                     args.seconds, "--trace", args.trace, "--out", "main.json",
                     "--spans", "main_spans.csv")
    res["correct"] &= code == 0
    res["main"] = load("main.json")
    if args.trace:
        # Idle-path probes need a server and a router of their own.
        frame = first_frame(bindir, args)
        unlink("p.sock", "plb.sock")
        launch_timed(procs, [("probe_server", server_argv(bindir, "p.sock", 2)),
                             ("probe_lb", lb_argv(bindir, "plb.sock", ["p.sock"]))],
                     "plb.sock", frame)
        code, _ = pbench(bindir, "idle", "--workload", args.workload, "--seed",
                         args.seed, "--direct", "p.sock", "--routed", "plb.sock",
                         "--stats", "server=p.sock", "--stats", "lb=plb.sock",
                         "--out", "idle.json", "--spans", "idle_spans.csv")
        res["correct"] &= code == 0
        res["idle"] = load("idle.json")


def run_wire(bindir, args, procs, res):
    wl = WIRE[args.workload]
    low, mid, high = wl["rates"]
    frame = first_frame(bindir, args)
    if args.workload == "wire_hot":
        # Input generation, not timed: a prep server warmed with the
        # working set saves the v2 image the measured server loads.
        unlink("prep.sock")
        procs.start("prep", server_argv(bindir, "prep.sock", 2,
                                        ["--snapshot-save", "prep.snap"]))
        first_predict("prep.sock", frame, time.monotonic() + 30)
        code, _ = pbench(bindir, "wire-prep", "--workload", args.workload,
                         "--seed", args.seed, "--target", "prep.sock")
        procs.stop("prep")
        if code != 0 or not os.path.exists("prep.snap"):
            die("wire-prep failed")
        starts = [("server", server_argv(bindir, "s.sock", 2,
                                         ["--snapshot-load", "prep.snap"]))]
        target, stats = "s.sock", ["server=s.sock"]
        socks = ["s.sock"]
    else:
        starts = [("b0", server_argv(bindir, "b0.sock", 1)),
                  ("b1", server_argv(bindir, "b1.sock", 1)),
                  ("lb", lb_argv(bindir, "lb.sock", ["b0.sock", "b1.sock"]))]
        target = "lb.sock"
        stats = ["lb=lb.sock", "b0=b0.sock", "b1=b1.sock"]
        socks = ["b0.sock", "b1.sock", "lb.sock"]
    setups = []
    for k in range(SETUP_REPEATS):
        unlink(*socks)
        setups.append(launch_timed(procs, starts, target, frame))
        if k + 1 < SETUP_REPEATS:
            procs.stop_all()
    res["setup"] = setups
    argv = ["wire", "--workload", args.workload, "--seed", args.seed,
            "--seconds", args.seconds, "--trace", args.trace,
            "--target", target, "--low", low, "--mid", mid, "--high", high,
            "--limit-us", wl["limit_us"], "--out", "main.json",
            "--spans", "main_spans.csv"]
    for s in stats:
        argv += ["--stats", s]
    for name, _ in starts:
        argv += ["--rss-pid", procs.live[name].pid]
    code, _ = pbench(bindir, *argv)
    res["correct"] &= code == 0
    res["main"] = load("main.json")
    if args.trace:
        if args.workload == "wire_hot":
            unlink("plb.sock")
            launch_timed(procs, [("probe_lb", lb_argv(bindir, "plb.sock", ["s.sock"]))],
                         "plb.sock", frame)
            idle = ["--direct", "s.sock", "--routed", "plb.sock",
                    "--stats", "lb=plb.sock"]
        else:
            idle = ["--direct", "b0.sock", "--routed", "lb.sock"]
        code, _ = pbench(bindir, "idle", "--workload", args.workload, "--seed",
                         args.seed, "--out", "idle.json", "--spans",
                         "idle_spans.csv", *idle)
        res["correct"] &= code == 0
        res["idle"] = load("idle.json")


def run_probe(bindir, args, res):
    argv = ["probe", "--workload", args.workload, "--seed", args.seed,
            "--out", "probe.json", "--spans", "probe_spans.csv"]
    image = "prep.snap"  # wire_hot: the image the server warm-starts from
    if args.workload != "wire_hot":
        image = "probe.snap"
        argv += ["--image-out", image]
    code, _ = pbench(bindir, *argv)
    res["correct"] &= code == 0
    res["probe"] = load("probe.json")
    loads = []
    for _ in range(3):
        code, out = pbench(bindir, "snapload", "--file", image)
        res["correct"] &= code == 0
        loads.append(float(out.split()[0]))
    res["snapshot_load_ms"] = loads


def metric(value, unit, q1=None, q3=None, repeats=1, samples=1):
    return {"value": value, "unit": unit,
            "q1": value if q1 is None else q1, "q3": value if q3 is None else q3,
            "repeats": repeats, "samples": samples}


def of_repeats(values, unit):
    q = statistics.quantiles(values, n=4)
    return metric(statistics.median(values), unit, q[0], q[2], len(values),
                  len(values))


def traffic_flags(workload, m, info):
    """Flag a run whose traffic drifted from its spec."""
    flags = []

    def want(name, lo, hi):
        v = m.get(name, {}).get("value")
        if v is not None and not lo <= v <= hi:
            flags.append("%s=%.4f outside [%g, %g]" % (name, v, lo, hi))

    if workload == "inproc_cold":
        want("traffic.hit_frac", 0.0, 0.01)
    elif workload == "wire_hot":
        want("traffic.hit_frac", 0.99, 1.0)
        want("traffic.fresh_frac", 0.0, 0.0)
    else:
        want("traffic.fresh_frac", 0.28, 0.32)
        want("traffic.explain_frac", 0.09, 0.11)
    for rate in ("low", "mid", "high"):
        late = info.get("late_p99_us." + rate)
        lat = m.get("lat_p99_us." + rate, {}).get("value")
        if late is not None and lat and late >= 0.5 * lat:
            flags.append("generator lateness p99 %.0f us is at least half the "
                         "p99 latency %.0f us at %s: the generator, not the "
                         "server, may have set it" % (late, lat, rate))
    return flags


def provenance(bdir, args):
    def compiler():
        try:
            with open(os.path.join(bdir, "CMakeCache.txt")) as f:
                for line in f:
                    if line.startswith("CMAKE_CXX_COMPILER:"):
                        cxx = line.split("=", 1)[1].strip()
                        ver = subprocess.run([cxx, "--version"], text=True,
                                             stdout=subprocess.PIPE).stdout
                        return cxx + " (" + ver.splitlines()[0] + ")"
        except OSError:
            pass
        return "unknown"

    try:
        commit = subprocess.run(["git", "-C", REPO, "rev-parse", "HEAD"],
                                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                text=True).stdout.strip() or None
    except OSError:
        commit = None
    digest = hashlib.sha256()
    for top in ("src", "examples", "perfbench", "CMakeLists.txt"):
        path = os.path.join(REPO, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for fp in files:
            digest.update(os.path.relpath(fp, REPO).encode())
            with open(fp, "rb") as f:
                digest.update(f.read())
    return {
        "host": socket.gethostname(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "compiler": compiler(),
        "build_type": "Release (-O2 -DNDEBUG)",
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED[args.workload],
        "seconds": args.seconds,
        "trace": args.trace,
        "rates_rps": WIRE.get(args.workload, {}).get("rates"),
        "limit_p99_us": WIRE.get(args.workload, {}).get("limit_us"),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = os.path.join(REPO, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        die("BENCHMARK.json not found")
    spec = load(spec_path)
    bdir = build_dir()
    bindir = build(bdir)

    rundir = os.path.join(bdir, "run", "%s-%d-%d" % (args.workload, args.seed,
                                                     os.getpid()))
    resdir = os.path.join(bdir, "results")
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    os.makedirs(resdir, exist_ok=True)
    os.chdir(rundir)  # sockets and images use short relative paths
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    procs = Procs(rundir)
    res = {"correct": True}
    try:
        if args.workload == "inproc_cold":
            run_inproc(bindir, args, procs, res)
        else:
            run_wire(bindir, args, procs, res)
        if args.trace:
            run_probe(bindir, args, res)
    finally:
        procs.stop_all()

    metrics = {}
    for part in ("probe", "idle", "main"):  # later parts take precedence
        metrics.update(res.get(part, {}).get("metrics", {}))
    info = res["main"]["info"]
    for alias, name in ALIASES[args.workload].items():
        if name in metrics:
            metrics[alias] = metrics[name]
    metrics["setup_s"] = of_repeats(res["setup"], "s")
    attempted = int(info["attempted"])
    failed = int(info["failed"])
    metrics["failed_frac"] = metric(failed / attempted, "ratio", samples=attempted)
    if "snapshot_load_ms" in res:
        metrics["snapshot.load_ms"] = of_repeats(res["snapshot_load_ms"], "ms")
    flags = traffic_flags(args.workload, metrics, info)
    mismatches = int(info.get("mismatches", 0)) + int(
        res.get("idle", {}).get("info", {}).get("mismatches", 0))
    correct = bool(res["correct"]) and mismatches == 0

    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    for name in ("main_spans.csv", "idle_spans.csv", "probe_spans.csv"):
        if os.path.exists(name):
            shutil.copy(name, os.path.join(resdir, tag + "-" + name))
    result = {"provenance": provenance(bdir, args), "correct": correct,
              "attempted": attempted, "failed": failed, "mismatches": mismatches,
              "flags": flags, "metrics": metrics, "info": info}
    with open(os.path.join(resdir, tag + ".json"), "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)
    os.chdir(REPO)
    shutil.rmtree(rundir, ignore_errors=True)

    print("%-44s %14s %-6s %14s %14s %4s %9s" % (
        "metric", "median", "unit", "q1", "q3", "reps", "samples"))
    for name in sorted(metrics):
        m = metrics[name]
        print("%-44s %14.6g %-6s %14.6g %14.6g %4d %9d" % (
            name, m["value"], m["unit"], m["q1"], m["q3"], m["repeats"],
            m["samples"]))
    for flag in flags:
        print("FLAG: " + flag)
    print("provenance: " + json.dumps(result["provenance"], sort_keys=True))

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    out = {}
    for m in wanted:
        if m["name"] not in metrics:
            die("metric %s was not measured" % m["name"])
        out[m["name"]] = {"value": metrics[m["name"]]["value"], "unit": m["unit"]}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
