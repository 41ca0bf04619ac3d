#!/usr/bin/env python3
"""Fleet benchmark: client traffic through masc-routerd to three
masc-served backends, measured end to end and layer by layer.

    python3 perfbench/run.py --workload hit|batch --seed N \\
        --seconds S --trace 0|1

Run it from the root of a checkout. It builds masc-served, masc-routerd
and masc-sweep (Release) and perfbench/fleetload into .bench_build/,
computes a serial masc-sweep reference for every job case, then starts
the fleet FLEETS times: each start is timed (set-up) and then measured
by fleetload for its share of --seconds. Every result is checked against
its case's reference. The last line of stdout is one JSON object;
everything else goes to stderr. It exits non-zero, printing no result,
when it cannot build or run the fleet.

--trace 0 reports the end-to-end metrics: open-loop latency p50 and p90
and closed-loop capacity, each the median over the fleets of that
fleet's figure, and fleet set-up time. --trace 1 runs the same traffic
with probes and stats snapshots and reports per-layer metrics instead:
the router hop, the serve wire, the cache, lane batching in the fleet,
the latency tail over every request of the run, and the simulator
engine measured on its own.
"""

import argparse
import concurrent.futures
import ctypes
import json
import os
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")

# Every job is one associative table query on a 16-PE, 16-thread machine:
# load the table into the PE array, then each thread runs a number of
# threshold searches with count/max/sum reductions. A case fixes the
# table size and the query count, both compiled into the program text, so
# every case has stats of its own, and the jobs of one batch request share
# a text and can run as lanes of one lockstep batch, while their random
# tables give each job its own cache key.
CONFIG = {"pes": 16, "threads": 16, "width": 16}
MAX_CYCLES = 1_000_000
CASES = [(records, queries) for records in (10, 12, 14, 16)
         for queries in range(32, 64)]

BACKENDS = 3
BATCH_JOBS = 8  # jobs per batch request, and the fleet's lane width
FLEETS = 5      # fleet starts per run, each timed and then measured

# rate: open-loop arrivals per second. concurrency: requests outstanding
# in the closed-loop capacity phase. Each rate is a fraction of the
# workload's capacity on a 4-vCPU host, so latency shows service time
# and short queues rather than overload.
WORKLOADS = {
    "hit": {"rate": 2000, "concurrency": 32},
    "batch": {"rate": 200, "concurrency": 12},
}
OPEN_SHARE = 0.6  # of each fleet's time; the rest measures capacity


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def program(records, queries):
    return f"""main:
    la    r3, recs
    li    r1, {records}
    pindex p1
    li    r2, 0
load:
    lw    r4, 0(r3)
    pceqs pf1, r2, p1
    pbcast p2, r4 ?pf1
    addi  r3, r3, 1
    addi  r2, r2, 1
    bne   r2, r1, load
    nthreads r5
    li    r6, 1
    la    r7, worker
spawn:
    bgeu  r6, r5, worker
    tspawn r8, r7
    addi  r6, r6, 1
    j     spawn
worker:
    tid   r9
    li    r10, 0
    li    r11, {queries}
query:
    add   r12, r9, r10
    slli  r12, r12, 4
    pcgts pf2, r12, p2
    rcount r13, pf2
    rmax  r14, p2 ?pf2
    rsum  r15, p2 ?pf2
    addi  r10, r10, 1
    bne   r10, r11, query
    texit
"""


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError("no MASC sources beside perfbench/; run from a checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    masc = os.path.join(BUILD, "masc")
    load = os.path.join(BUILD, "fleetload")
    steps = [
        (masc, ["cmake", "-S", ROOT, "-B", masc, "-DCMAKE_BUILD_TYPE=Release",
                "-DMASC_BUILD_TESTS=OFF", "-DMASC_BUILD_BENCHMARKS=OFF",
                "-DMASC_BUILD_EXAMPLES=OFF"]),
        (None, ["cmake", "--build", masc, "-j", jobs, "--target",
                "masc-served", "masc-routerd", "masc-sweep"]),
        (load, ["cmake", "-S", HERE, "-B", load, "-DCMAKE_BUILD_TYPE=Release"]),
        (None, ["cmake", "--build", load, "-j", jobs]),
    ]
    for configured_dir, cmd in steps:
        if configured_dir and os.path.isfile(
                os.path.join(configured_dir, "CMakeCache.txt")):
            continue
        if subprocess.run(cmd, stdout=sys.stderr, stdin=subprocess.DEVNULL,
                          check=False).returncode != 0:
            raise BenchError("build step failed: " + " ".join(cmd))
    tools = os.path.join(masc, "src", "tools")
    return {
        "served": os.path.join(tools, "masc-served"),
        "routerd": os.path.join(tools, "masc-routerd"),
        "sweep": os.path.join(tools, "masc-sweep"),
        "fleetload": os.path.join(load, "fleetload"),
    }


def sweep(bins, path, *extra):
    """Serial masc-sweep records of one program file."""
    cmd = [bins["sweep"], path, "--pes", str(CONFIG["pes"]),
           "--threads", str(CONFIG["threads"]), "--width", str(CONFIG["width"]),
           "--workers", "1", "--max-cycles", str(MAX_CYCLES), *extra]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
                         timeout=120, check=False)
    if out.returncode != 0:
        raise BenchError("masc-sweep failed on " + path)
    lines = [line for line in out.stdout.decode().split("\n") if line.strip()]
    records = [json.loads(line) for line in lines]
    if not records or any(r["status"] != "finished" for r in records):
        raise BenchError("reference program did not finish: " + path)
    return lines, records


def write_spec(bins, work, seed):
    """The spec fleetload builds its jobs from: config, jobs per batch
    request, and per case the program text and its serial masc-sweep
    reference. Returns it with the program file of every case."""
    rng = random.Random(seed)
    paths = []
    for i, (records, queries) in enumerate(CASES):
        path = os.path.join(work, f"case{i}.s")
        table = ", ".join(str(rng.randrange(4096)) for _ in range(records))
        with open(path, "w") as f:
            f.write(f".data\nrecs: .word {table}\n.text\n"
                    f"{program(records, queries)}")
        paths.append(path)
    with concurrent.futures.ThreadPoolExecutor(4) as pool:
        refs = list(pool.map(lambda p: sweep(bins, p)[0][0], paths))
    out = [f"config {json.dumps(CONFIG, separators=(',', ':'))}",
           f"max_cycles {MAX_CYCLES}", f"batch_jobs {BATCH_JOBS}"]
    for (records, queries), ref in zip(CASES, refs):
        out += [f"case {records}", json.dumps(program(records, queries))[1:-1],
                ref]
    spec = os.path.join(work, "spec.txt")
    with open(spec, "w") as f:
        f.write("\n".join(out) + "\n")
    return spec, paths


def engine_layers(bins, paths):
    """The simulator engine alone, through masc-sweep: simulated cycles
    per host second serially, and how much lane batching cuts host time
    for BATCH_JOBS-wide batches of the same jobs. One case per table
    size, at the middle query count."""
    cases = paths[len(CASES) // 8::len(CASES) // 4]
    seconds = {}
    cycles = 0
    for lanes in (1, BATCH_JOBS):
        seconds[lanes] = 0.0
        for path in cases:
            _, recs = sweep(bins, path, "--seeds", str(4 * BATCH_JOBS),
                            "--batch-lanes", str(lanes))
            seconds[lanes] += sum(r["host_seconds"] for r in recs)
            if lanes == 1:
                cycles += sum(r["stats"]["cycles"] for r in recs)
    return {
        "sim_cycles_per_s": (cycles / seconds[1], "1/s"),
        "lane_batch_speedup": (seconds[1] / seconds[BATCH_JOBS], "x"),
    }


_libc = ctypes.CDLL(None, use_errno=True)


def _cpus():
    """CPUs for the fleet and for the load generator. With four or more,
    the generator gets one of its own, as a client on another host would,
    so its send times do not queue behind the daemons."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 4:
        return set(cpus), set(cpus)
    return set(cpus[:-1]), {cpus[-1]}


FLEET_CPUS, LOAD_CPUS = _cpus()


def _daemon_init():
    _libc.prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG: no orphaned daemons
    os.sched_setaffinity(0, FLEET_CPUS)


def _load_init():
    os.sched_setaffinity(0, LOAD_CPUS)


def host_steal():
    """Steal and total CPU ticks of the host so far (/proc/stat)."""
    with open("/proc/stat") as f:
        ticks = [int(x) for x in f.readline().split()[1:]]
    return ticks[7], sum(ticks)


class Fleet:
    """BACKENDS masc-served processes behind one masc-routerd."""

    def __init__(self, bins):
        self.bins = bins
        self.procs = []
        self.backend_ports = []
        self.router_port = None

    def _spawn(self, argv):
        p = subprocess.Popen(argv, stdout=subprocess.PIPE,
                             stdin=subprocess.DEVNULL,
                             preexec_fn=_daemon_init)
        self.procs.append(p)
        return p

    @staticmethod
    def _port(p, deadline):
        line = b""
        while not line.endswith(b"\n"):
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([p.stdout], [], [], left)[0]:
                raise BenchError("a daemon did not report its port")
            chunk = os.read(p.stdout.fileno(), 1)
            if not chunk:
                raise BenchError("a daemon exited while starting")
            line += chunk
        if b" listening on " not in line:
            raise BenchError("unexpected banner: " + line.decode(errors="replace"))
        return int(line.rsplit(b":", 1)[1])

    def start(self):
        deadline = time.monotonic() + 30
        backends = [self._spawn([self.bins["served"], "--port", "0",
                                 "--workers", "1", "--io-threads", "1",
                                 "--cache-bytes", str(64 << 20)])
                    for _ in range(BACKENDS)]
        self.backend_ports = [self._port(p, deadline) for p in backends]
        argv = [self.bins["routerd"], "--port", "0",
                "--batch-lanes", str(BATCH_JOBS)]
        for port in self.backend_ports:
            argv += ["--backend", f"127.0.0.1:{port}"]
        self.router_port = self._port(self._spawn(argv), deadline)

    def cpu_seconds(self):
        """User plus system CPU seconds used so far by the backends
        together and by the router (the last process started)."""
        secs = []
        for p in self.procs:
            with open(f"/proc/{p.pid}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
            secs.append((int(fields[11]) + int(fields[12]))
                        / os.sysconf("SC_CLK_TCK"))
        return sum(secs[:-1]), secs[-1]

    def stop(self):
        """Stops every daemon; raises if one had died on its own."""
        crashed = [p.args[0] for p in self.procs if p.poll() is not None]
        for p in self.procs:
            if p.poll() is None:
                p.send_signal(signal.SIGINT)
        for p in self.procs:
            try:
                p.wait(timeout=10)
            except subprocess.TimeoutExpired:
                p.kill()
                p.wait()
            p.stdout.close()
        self.procs = []
        if crashed:
            raise BenchError("daemon exited during the run: " + ", ".join(crashed))


def fleetload(bins, fleet, spec, seed, *extra):
    cmd = [bins["fleetload"], "--spec", spec,
           "--router", str(fleet.router_port),
           "--backend", str(fleet.backend_ports[0]),
           "--seed", str(seed), *extra]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
                         preexec_fn=_load_init, timeout=150, check=False)
    if out.returncode != 0:
        raise BenchError("fleetload failed")
    return json.loads(out.stdout.decode().strip().split("\n")[-1])


def backend_sum(stats, *path):
    """Sum of one numeric field over the backends of a router stats reply."""
    total = 0
    for b in stats["stats"]["backends"]:
        v = b.get("stats", {})
        for key in path:
            v = v.get(key, {}) if isinstance(v, dict) else {}
        total += v if isinstance(v, (int, float)) else 0
    return total


def fleet_layers(runs):
    """Per-layer metrics: the median over the fleets of each fleet's
    probe and round-trip figures; counts, CPU and the latency tail
    summed or pooled over all fleets."""
    def median(phase, key):
        return statistics.median(r[phase][key] for r in runs)

    def delta(*path):
        return sum(backend_sum(r["stats_after"], *path)
                   - backend_sum(r["stats_before"], *path) for r in runs)

    hits, misses = delta("cache", "hits"), delta("cache", "misses")
    flushes = delta("batch", "batch_flushes")
    tail = statistics.quantiles([x for r in runs for x in r["latencies_ms"]],
                                n=100)
    per_request = 1e3 / sum(r["attempted"] for r in runs)
    return {
        "submit_us": (median("open", "submit_p50_us"), "us"),
        "result_us": (median("open", "result_p50_us"), "us"),
        "router_ping_us": (median("probes", "router_ping_p50_us"), "us"),
        "router_ping_p99_us": (median("probes", "router_ping_p99_us"), "us"),
        "backend_ping_us": (median("probes", "backend_ping_p50_us"), "us"),
        "direct_hit_us": (median("probes", "direct_hit_p50_us"), "us"),
        "routed_hit_us": (median("probes", "routed_hit_p50_us"), "us"),
        "router_hop_us": (median("probes", "routed_hit_p50_us")
                          - median("probes", "direct_hit_p50_us"), "us"),
        "generator_lag_p99_us": (median("open", "lag_p99_us"), "us"),
        "pooled_p90_ms": (tail[89], "ms"),
        "pooled_p99_ms": (tail[98], "ms"),
        "cache_hits": (hits, "count"),
        "cache_hit_ratio": (hits / (hits + misses) if hits + misses else 0.0,
                            "ratio"),
        "lanes_per_flush": (delta("batch", "batched_jobs") / flushes
                            if flushes else 0.0, "count"),
        "backend_cpu_ms_per_request": (
            sum(r["cpu"][0] for r in runs) * per_request, "ms"),
        "router_cpu_ms_per_request": (
            sum(r["cpu"][1] for r in runs) * per_request, "ms"),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    # SIGTERM still stops the fleet (the finally below).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    wl = WORKLOADS[args.workload]
    per_fleet = args.seconds / FLEETS
    work = None
    fleet = None
    try:
        bins = build()
        work = os.path.join(BUILD, f"work-{os.getpid()}")
        os.makedirs(work)
        spec, paths = write_spec(bins, work, args.seed)

        attempted = failed = 0
        setups, runs = [], []
        steal0 = host_steal()
        for _ in range(FLEETS):
            t0 = time.perf_counter()
            fleet = Fleet(bins)
            fleet.start()
            warm = fleetload(bins, fleet, spec, args.seed, "--mode", "warm")
            setups.append(time.perf_counter() - t0)
            cpu0 = fleet.cpu_seconds()
            run = fleetload(
                bins, fleet, spec, args.seed, "--mode", "run",
                "--traffic", args.workload, "--rate", str(wl["rate"]),
                "--concurrency", str(wl["concurrency"]),
                "--open-seconds", str(per_fleet * OPEN_SHARE),
                "--capacity-seconds", str(per_fleet * (1 - OPEN_SHARE)),
                "--trace", str(args.trace))
            cpu1 = fleet.cpu_seconds()
            fleet.stop()
            fleet = None
            run["cpu"] = (cpu1[0] - cpu0[0], cpu1[1] - cpu0[1])
            runs.append(run)
            for r in (warm, run):
                attempted += r["attempted"]
                failed += r["failed"]
        steal1 = host_steal()

        if args.trace:
            metrics = fleet_layers(runs)
            metrics.update(engine_layers(bins, paths))
        else:
            def median(phase, key):
                return statistics.median(r[phase][key] for r in runs)
            metrics = {
                "fleet_median_p50_ms": (median("open", "p50_ms"), "ms"),
                "fleet_median_p90_ms": (median("open", "p90_ms"), "ms"),
                "fleet_median_capacity_rps": (median("capacity", "rps"), "1/s"),
                "setup_s": (statistics.median(setups), "s"),
            }
        log(f"run.py: {args.workload}: "
            f"p50 {[r['open']['p50_ms'] for r in runs]}, "
            f"p90 {[r['open']['p90_ms'] for r in runs]}, "
            f"rps {[r['capacity']['rps'] for r in runs]}, "
            f"setups {[round(s, 4) for s in setups]}, host steal "
            f"{100 * (steal1[0] - steal0[0]) / max(1, steal1[1] - steal0[1]):.2f}%")
        correct = failed == 0 and all(
            r["mismatched"] == 0 and r["open"]["requests"] > 0
            and r["capacity"]["requests"] > 0 for r in runs)
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log(f"run.py: {e}")
        return 1
    finally:
        if fleet is not None:
            try:
                fleet.stop()
            except BenchError as e:
                log(f"run.py: {e}")
        if work is not None:
            shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
