#!/usr/bin/env python3
"""The repository benchmark: cold Fig. 2 grid and smq_serve latency.

    python3 perfbench/run.py --workload grid_cold|serve_miss|serve_hit \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
shipped binaries plus the traced replay (perfbench/CMakeLists.txt) in
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench).

--trace 0 drives the shipped binaries, untraced, with their default
kernel and pool configuration, from this one client process:
  grid_cold   `bench_fig2_scores --quick --jobs 2` in an empty directory,
              grids until --seconds have passed, at least one, and
              GRID_SETUPS more launches stopped when set-up ends
  serve_miss  closed loop of `wait:true` submits with fresh seeds against
              `smq_serve --pipe --workers 2`
  serve_hit   the same daemon after its cache was warmed; the timed
              phase only repeats warmed specs
and prints the end-to-end metrics, each time rescaled by a CPU-speed
reference timed beside it (see rescale). --trace 1 runs the workload once
more the same way, then repeats its work in `smqbench_replay`, which
calls each layer's public functions under in-memory spans, and prints
the per-layer metrics.

Outputs are checked on every run: the grid body must equal
perfbench/reference/fig2_quick_grid.txt, every serve reply must be ok,
hits must be byte-equal to their misses, and a seeded sample of misses
must equal the batch jobs::runJob path. Details of every run (context,
counters, logs, the replay's trace.json) stay in .bench_runs/<workload>/.
The last stdout line is the JSON result.
"""

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_GRID = HERE / "reference" / "fig2_quick_grid.txt"

GRID_ARGS = ["--quick", "--jobs", "2"]
GRID_SETUPS = 5       # grid set-ups timed per run, besides the grids
GRID_FILE = "fig2_cache_150_r2.txt"  # what `--quick` writes
SERVE_WORKERS = 2
SERVE_SHOTS = 500
SERVE_REPETITIONS = 3
# serve_miss: every timed block submits, in seeded order with fresh
# seeds, each cell the quick grid runs on the density matrix on three
# devices of different topology (7-qubit heavy-hex, 27-qubit heavy-hex,
# all-to-all), so the seed never changes the work. Three devices rather
# than all nine keep a block short enough for every cell to be
# submitted many times in a run. serve_hit: each variational instance
# is warmed and repeated 3 times and each other instance 5 times, on
# seeded devices: 18 of 53 specs run a parameter search, like 9 of the
# 26 Fig. 2 instances.
MISS_DEVICES = ("IBM-Jakarta", "IBM-Montreal", "IonQ")
HIT_PER_INSTANCE = {True: 3, False: 5}
VERIFY_SAMPLES = 4    # misses re-run through jobs::runJob per run
MIN_COVERAGE = 0.95   # layer self-time share of the replay's worker time
RUN_TIMEOUT_S = 170   # everything after the build

# Counters the shipped tools write to their manifests (grid) or metrics
# snapshot (serve) that the replay must reproduce exactly.
CROSS_CHECKED = [
    "sim.shots", "sim.trajectories", "sim.sv.gate_applies",
    "sim.dm.gate_applies", "sim.plan.statevector",
    "sim.plan.density_matrix", "sim.plan.stabilizer", "sim.plan.trajectory",
    "sim.kernel.serial_ops", "sim.kernel.parallel_ops",
    "sim.kernel.simd_avx2", "sim.kernel.simd_scalar", "sim.alloc.bytes",
    "transpile.cache.miss", "serve.cache.hit", "serve.cache.miss",
]

END_TO_END_UNITS = {
    "wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
    "ok_frac": "frac", "latency_p50_ms": "ms", "latency_tail_ms": "ms",
    "throughput_rps": "1/s",
}

live = []  # child processes to stop on any exit path


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


class Failure(Exception):
    """The run cannot produce a result."""


# --------------------------------------------------------------------------
# build


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build(runs):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise Failure("no repository sources next to perfbench/")
    out = build_dir()
    with open(runs / "build.log", "w") as sink:
        # Configure every time: a build directory made by an older
        # perfbench/CMakeLists.txt may lack a target.
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(out),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sink, stderr=subprocess.STDOUT, check=True)
        subprocess.run(
            ["cmake", "--build", str(out), "-j", str(os.cpu_count() or 1),
             "--target", "bench_fig2_scores", "smq_serve", "smqbench_replay",
             "smqbench_calibrate"],
            stdout=sink, stderr=subprocess.STDOUT, check=True)
    return {
        "grid": out / "repo" / "bench" / "bench_fig2_scores",
        "serve": out / "repo" / "tools" / "smq_serve",
        "replay": out / "smqbench_replay",
        "calibrate": out / "smqbench_calibrate",
    }


# --------------------------------------------------------------------------
# process helpers


def spawn(argv, **kwargs):
    proc = subprocess.Popen([str(a) for a in argv], **kwargs)
    live.append(proc)
    return proc


def reap(proc):
    """Wait for @p proc; return its rusage."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    live.remove(proc)
    return usage


def stop_children():
    for proc in list(live):
        proc.kill()
        reap(proc)


def replay(bins, *args, cwd):
    done = subprocess.run([str(bins["replay"]), *map(str, args)], cwd=cwd,
                          capture_output=True, text=True)
    if done.returncode != 0:
        raise Failure(f"smqbench_replay {args[0]} failed: {done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def tail(values):
    """Highest percentile with at least 10 samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


# --------------------------------------------------------------------------
# CPU speed reference
#
# The benchmark runs on a few cores of a shared host whose speed, as
# seen from here, drifts by tens of percent over minutes: a run's
# medians move with it, whatever the run length. So every timing is
# rescaled by a fixed reference workload (calibrate.cpp, which links
# nothing from the repository) run on the same CPUs:
#   reported = measured x REFERENCE_S / reference time measured.
# While a timed phase runs, a sampler on each of its CPUs times a short
# slice of the reference every SAMPLE_PERIOD_MS. Times are therefore in
# seconds of a CPU on which the reference takes REFERENCE_S, about what
# it takes undisturbed on the 4-vCPU Xeon (Sapphire Rapids) host the
# bounds were set on. Unscaled times and every reference time stay in
# the run's context.

REFERENCE_S = 0.05
SAMPLE_PERIOD_MS = 20


def rescale(seconds, reference):
    """@p seconds measured while samplers timed the reference at
    @p reference; left as measured when nothing was sampled."""
    if not reference:
        return seconds
    return seconds * REFERENCE_S / statistics.fmean(reference)


def pinned(cpus, nice=0):
    """A preexec_fn that moves the child to @p cpus and @p nice."""
    def pin():
        os.sched_setaffinity(0, cpus)
        try:
            os.setpriority(os.PRIO_PROCESS, 0, nice)
        except PermissionError:
            pass  # the slices are short enough to time at equal priority
    return pin


def start_samplers(bins, cpus):
    """One reference sampler per CPU of @p cpus. Above the program's
    priority, a slice runs at once and alone when it wakes."""
    return [spawn([bins["calibrate"], "--sample", SAMPLE_PERIOD_MS],
                  stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                  preexec_fn=pinned({cpu}, -20))
            for cpu in sorted(cpus)]


def stop_samplers(samplers):
    """Each sampler's median slice time, in reference seconds."""
    times = []
    for proc in samplers:
        proc.stdin.close()
        times.append(float(proc.stdout.read().split()[0]))
        proc.stdout.close()
        reap(proc)
    return times


# --------------------------------------------------------------------------
# reference grid and the serve cells derived from it

STATUS = {0: "ok", 1: "partial", 2: "skipped", 3: "too_large", 4: "failed"}


def parse_grid(text):
    """(devices, rows); a row is (name, [cell line per device])."""
    lines = text.split("\n")
    n_dev = int(lines[1])
    devices = lines[2:2 + n_dev]
    at = 2 + n_dev
    rows = []
    for _ in range(int(lines[at])):
        rows.append((lines[at + 1], lines[at + 5:at + 5 + n_dev]))
        at += 4 + n_dev
    return devices, rows


def dm_cells(only=None):
    """(instance, device) cells the quick grid ran Ok on the density
    matrix, on the devices in @p only if given."""
    devices, rows = parse_grid(REFERENCE_GRID.read_text())
    return [(name, dev) for name, cells in rows
            for dev, cell in zip(devices, cells)
            if cell.split()[0] == "0" and "density-matrix" in cell.split()[7]
            and (only is None or dev in only)]


def variational(name):
    return name.startswith(("qaoa_", "vqe_"))


def cross_check(binary, traced):
    """The replay must have done exactly the binary's work."""
    problems = []
    if not traced["kernel_config_unchanged"]:
        problems.append("the replay changed the kernel config")
    for name in CROSS_CHECKED:
        if binary.get(name, 0) != traced["counters"].get(name, 0):
            problems.append(f"{name}: binary {binary.get(name, 0)}, "
                            f"replay {traced['counters'].get(name, 0)}")
    coverage = traced["metrics"]["trace.coverage_frac"]
    if coverage < MIN_COVERAGE:
        problems.append(f"layer self-times cover {coverage:.3f} of the "
                        f"replay's worker-seconds, under {MIN_COVERAGE}")
    return problems


# --------------------------------------------------------------------------
# grid_cold


def manifest_counter(manifest, name):
    return manifest.get("counters", {}).get(name, 0)


def grid_once(bins, workdir, cpus, sampled):
    """One cold `bench_fig2_scores` in an empty directory, on @p cpus,
    with a reference sampler on each of them if @p sampled."""
    fresh_dir(workdir)
    samplers = start_samplers(bins, cpus if sampled else ())
    start = time.perf_counter()
    with open(workdir / "stdout.txt", "w") as stdout:
        proc = spawn([bins["grid"], *GRID_ARGS, "--heartbeat", "3600"],
                     cwd=workdir, stdout=stdout, stderr=subprocess.PIPE,
                     text=True, preexec_fn=pinned(cpus))
        ready = None
        # The heartbeat stream's first line marks the grid starting on
        # its cells: everything before it is set-up.
        for line in proc.stderr:
            if ready is None and line.startswith('{"event":"progress"'):
                ready = time.perf_counter() - start
        usage = reap(proc)
    wall = time.perf_counter() - start
    speed = stop_samplers(samplers)
    if proc.returncode != 0 or ready is None:
        raise Failure(f"bench_fig2_scores exited {proc.returncode}")
    manifest = json.loads(
        (workdir / "bench_fig2_scores_manifest.json").read_text())
    cpu = usage.ru_utime + usage.ru_stime
    return {
        "wall": rescale(wall, speed), "cpu": rescale(cpu, speed),
        "unscaled": {"wall": wall, "setup": ready, "cpu": cpu},
        "reference_s": speed,
        # ru_maxrss also counts this client's pages at fork time; the
        # manifest's own VmHWM sample covers the program alone.
        "rss_mb": manifest_counter(manifest, "rss.peak_bytes") / 2**20,
        "grid": (workdir / GRID_FILE).read_text(),
        "manifest": manifest,
        "counters": {c: manifest_counter(manifest, c) for c in CROSS_CHECKED},
    }


def grid_setup_once(bins, workdir, cpus):
    """Launch to first heartbeat of a cold `bench_fig2_scores` on @p cpus,
    which is then stopped; rescaled by samplers on @p cpus."""
    fresh_dir(workdir)
    samplers = start_samplers(bins, cpus)
    start = time.perf_counter()
    proc = spawn([bins["grid"], *GRID_ARGS, "--heartbeat", "3600"],
                 cwd=workdir, stdout=subprocess.DEVNULL,
                 stderr=subprocess.PIPE, text=True, preexec_fn=pinned(cpus))
    ready = None
    for line in proc.stderr:
        if line.startswith('{"event":"progress"'):
            ready = time.perf_counter() - start
            break
    proc.kill()
    reap(proc)
    proc.stderr.close()
    speed = stop_samplers(samplers)
    if ready is None:
        raise Failure(f"bench_fig2_scores exited {proc.returncode}")
    return rescale(ready, speed)


def check_grid(grid, manifest, reference):
    """(cells that differ from the reference, problems)."""
    ref_devices, ref_rows = parse_grid(reference)
    n_cells = len(ref_devices) * len(ref_rows)
    try:
        devices, rows = parse_grid(grid)
    except (ValueError, IndexError):
        return n_cells, ["grid body unreadable"]
    if devices != ref_devices or [r[0] for r in rows] != \
            [r[0] for r in ref_rows]:
        return n_cells, ["grid rows differ"]
    wrong = sum(a != b for row, ref in zip(rows, ref_rows)
                for a, b in zip(row[1], ref[1]))
    problems = [] if grid == reference else ["grid body differs"]
    tallies = {status: 0 for status in STATUS.values()}
    for _, cells in ref_rows:
        for cell in cells:
            tallies[STATUS[int(cell.split()[0])]] += 1
    for status, want in tallies.items():
        got = manifest_counter(manifest, "jobs.cells." + status)
        if got != want:
            problems.append(f"jobs.cells.{status} = {got}, reference {want}")
    return max(wrong, 1 if problems else 0), problems


def run_grid(bins, runs, seconds, trace):
    reference = REFERENCE_GRID.read_text()
    n_cells = sum(len(cells) for _, cells in parse_grid(reference)[1])
    units, problems = [], []
    failed = 0
    start = time.perf_counter()
    # Grids until --seconds have passed, at least one: when the host is
    # slow, one grid fills the run. Each runs on two CPUs, one per worker.
    # A reference timed only before and after a grid tracks the speed of
    # its ten-odd seconds worse than no rescaling does; the samplers
    # time the grid's own CPUs all through it. A grid the replay follows
    # runs without them: the samplers take about a tenth of each CPU,
    # and the replay's overhead is measured against the bare grid.
    grid_cpus = set(sorted(os.sched_getaffinity(0))[-2:])
    while not units or time.perf_counter() - start < seconds:
        unit = grid_once(bins, runs / f"grid{len(units)}", grid_cpus,
                         sampled=not trace)
        wrong, why = check_grid(unit["grid"], unit["manifest"], reference)
        failed += wrong
        problems += why
        if units and unit["counters"] != units[0]["counters"]:
            problems.append("manifest work counters differ between grids")
        units.append(unit)
    # Set-up is a second or less, so a run times several more, each
    # stopped at its first heartbeat.
    setups = [grid_setup_once(bins, runs / f"setup{i}", grid_cpus)
              for i in range(0 if trace else GRID_SETUPS)]
    attempted = n_cells * len(units)
    walls = [u["wall"] for u in units]
    p_tail, pct, n = tail([w * 1e3 for w in walls])
    context = {
        "grid_args": GRID_ARGS, "grids": len(units), "grid_workers": 2,
        "cells_per_grid": n_cells, "latency_unit": "one whole grid",
        "latency_tail_percentile": pct, "latency_samples": n,
        "manifest_counters": units[0]["counters"],
        "grid_cpus": sorted(grid_cpus),
        "unscaled": [u["unscaled"] for u in units],
        "reference_s": [u["reference_s"] for u in units],
        "setups_s": setups,
    }
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups) if setups else 0.0,
        "cpu_s": statistics.median(u["cpu"] for u in units),
        "peak_rss_mb": statistics.median(u["rss_mb"] for u in units),
        "ok_frac": 1.0 - failed / attempted,
        "latency_p50_ms": statistics.median(walls) * 1e3,
        "latency_tail_ms": p_tail,
        "throughput_rps": statistics.median(n_cells / w for w in walls),
    }
    if trace:
        out = fresh_dir(runs / "replay")
        traced = replay(bins, "grid", out, cwd=out)
        if (out / GRID_FILE).read_text() != reference:
            problems.append("replayed grid differs from the reference")
            failed += 1
        if not traced["reload_ok"]:
            problems.append("replayed grid did not reload from its cache")
        problems += cross_check(units[0]["counters"], traced)
        untraced_s = units[0]["manifest"]["stages"]["grid"]["total_ns"] / 1e9
        metrics = traced["metrics"]
        metrics["trace.overhead_frac"] = traced["grid_phase_s"] / untraced_s - 1
    return metrics, attempted, failed, problems, context


# --------------------------------------------------------------------------
# serve


def submit_line(bench, device, seed):
    return json.dumps({
        "type": "submit", "benchmark": bench, "device": device,
        "shots": SERVE_SHOTS, "repetitions": SERVE_REPETITIONS,
        "seed": seed, "wait": True}, separators=(",", ":"))


def payload_of(reply):
    """The raw smq-serve-result-v1 bytes inside a submit reply."""
    at = reply.find('"result":')
    return reply[at + 9:-1] if at >= 0 else None


class Daemon:
    """`smq_serve --pipe` with the default kernel and pool settings."""

    def __init__(self, exe, workdir):
        self.metrics = workdir / "metrics.prom"
        self.stderr = open(workdir / "daemon.err", "w")
        self.start = time.perf_counter()
        self.proc = spawn(
            [exe, "--pipe", "--workers", SERVE_WORKERS,
             "--metrics-file", self.metrics],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self.stderr, text=True, bufsize=1)
        self.log = []

    def request(self, line):
        sent = time.perf_counter()
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        latency = time.perf_counter() - sent
        if not reply:
            raise Failure("smq_serve closed its pipe")
        reply = reply.rstrip("\n")
        self.log.append({"request": line, "reply": reply})
        return reply, latency

    def wait_ready(self):
        """Return once the daemon answers: it accepts work."""
        reply, _ = self.request('{"type":"stats"}')
        if not json.loads(reply).get("ok"):
            raise Failure("smq_serve refused a stats request")
        self.log.clear()

    def cpu_seconds(self):
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text() \
            .rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self):
        """VmHWM of the daemon (ru_maxrss would count the client too)."""
        for line in Path(f"/proc/{self.proc.pid}/status").read_text() \
                .splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise Failure("no VmHWM for smq_serve")

    def close(self):
        self.request('{"type":"shutdown"}')
        self.log.pop()
        self.proc.stdin.close()
        reap(self.proc)
        self.stderr.close()
        if self.proc.returncode != 0:
            raise Failure(f"smq_serve exited {self.proc.returncode}")


def prom_values(path):
    values = {}
    for line in path.read_text().splitlines():
        if line and not line.startswith("#"):
            name, value = line.rsplit(" ", 1)
            values[name] = float(value)
    return values


def reply_ok(reply, want_cached, want_payload=None):
    """Whether a wait:true submit reply is what the workload expects."""
    try:
        body = json.loads(reply)
    except ValueError:
        return False
    return (body.get("ok") is True and body.get("state") == "done"
            and body.get("cached") == want_cached
            and body["result"].get("status") == "ok"
            and (want_payload is None or payload_of(reply) == want_payload))


def run_serve(bins, runs, workload, seed, seconds, trace):
    rng = random.Random(seed)
    hit = workload == "serve_hit"
    cells = dm_cells() if hit else dm_cells(MISS_DEVICES)
    used = set()

    def fresh_seed():
        while True:
            value = rng.getrandbits(31)
            if value not in used:
                used.add(value)
                return value

    specs = []
    if hit:
        devices = {}
        for name, device in cells:
            devices.setdefault(name, []).append(device)
        specs = [(name, rng.choice(devs), fresh_seed())
                 for name, devs in devices.items()
                 for _ in range(HIT_PER_INSTANCE[variational(name)])]

    attempted = failed = 0
    problems = []
    warm = {}
    setups = []
    # The client, the daemon it starts and the sampler share one CPU, so
    # the sampler sees what slows the daemon, and every hand-off between
    # client and daemon threads stays on that CPU.
    # Under --trace 1 the sampler is left out, as for the grid.
    cpus = os.sched_getaffinity(0)
    serve_cpu = {max(cpus)}
    os.sched_setaffinity(0, serve_cpu)
    sampled = () if trace else serve_cpu
    speed = []
    # Set up several daemons and report the median; the last one serves
    # the timed phase. Set-up of serve_hit includes warming its cache.
    n_setups = 3 if hit else 5
    for i in range(n_setups):
        samplers = start_samplers(bins, sampled)
        daemon = Daemon(bins["serve"], fresh_dir(runs / f"daemon{i}"))
        daemon.wait_ready()
        warm_s = 0.0
        for spec in specs:
            reply, latency = daemon.request(submit_line(*spec))
            warm_s += latency
            attempted += 1
            if not reply_ok(reply, False, warm.get(spec)):
                failed += 1
            warm.setdefault(spec, payload_of(reply))
        raw_setup = time.perf_counter() - daemon.start
        reference = stop_samplers(samplers)
        speed += reference
        setups.append(rescale(raw_setup, reference))
        if i + 1 < n_setups:
            daemon.close()

    # Latencies per block entry (a hit spec, or a miss cell whatever its
    # fresh seed), each rescaled by the sampler that ran with its block.
    latencies, raw_blocks = {}, []
    served_s = 0.0
    cpu0 = daemon.cpu_seconds()
    start = time.perf_counter()
    while len(raw_blocks) < 3 or time.perf_counter() - start < seconds:
        if hit:
            order = list(specs)
        else:
            order = [(name, device, fresh_seed()) for name, device in cells]
        rng.shuffle(order)
        block = []
        samplers = start_samplers(bins, sampled)
        for spec in order:
            reply, latency = daemon.request(submit_line(*spec))
            block.append((spec if hit else spec[:2], latency))
            attempted += 1
            if not reply_ok(reply, hit, warm.get(spec)):
                failed += 1
        reference = stop_samplers(samplers)
        speed += reference
        for key, latency in block:
            latencies.setdefault(key, []).append(rescale(latency, reference))
        raw_blocks.append(sum(latency for _, latency in block))
        served_s += raw_blocks[-1]
    timed = time.perf_counter() - start
    cpu = daemon.cpu_seconds() - cpu0
    peak_rss_mb = daemon.peak_rss_mb()
    daemon.close()
    os.sched_setaffinity(0, cpus)

    session = runs / "serve_log.jsonl"
    session.write_text("".join(json.dumps(r) + "\n" for r in daemon.log))
    verified = replay(bins, "verify", session, VERIFY_SAMPLES, seed,
                      cwd=runs)
    attempted += verified["checked"]
    failed += verified["mismatches"]
    if verified["mismatches"]:
        problems.append("serve payloads differ from the jobs::runJob path")

    # Every entry was submitted once per block; its latency is the median
    # of those submits. A block's wall time is the sum of its entries'
    # latencies, and the daemon's CPU time per second of serving turns
    # it into CPU time per block.
    typical = {key: statistics.median(v) for key, v in latencies.items()}
    block_s = sum(typical.values())
    ms = [x * 1e3 for x in typical.values()]
    p_tail, pct, n = tail(ms)
    context = {
        "serve_workers": SERVE_WORKERS, "client_processes": 1,
        "loop": "closed, one client, wait:true",
        "shots": SERVE_SHOTS, "repetitions": SERVE_REPETITIONS,
        "instances": sorted({name for name, _ in cells}),
        "requests_per_block": len(order), "blocks": len(raw_blocks),
        "latency_basis": "median over blocks of each entry's submit",
        "latency_tail_percentile": pct, "latency_samples": n,
        "unscaled": {"block_s": statistics.median(raw_blocks),
                     "throughput_rps": len(order) * len(raw_blocks) / timed},
        "reference_s": speed,
        "entry_ms": {"@".join(map(str, key)): value * 1e3
                     for key, value in sorted(typical.items())},
        "verified_misses": verified["checked"],
    }
    metrics = {
        "wall_s": block_s,
        "setup_s": statistics.median(setups),
        "cpu_s": block_s * cpu / served_s,
        "peak_rss_mb": peak_rss_mb,
        "ok_frac": 1.0 - failed / attempted,
        "latency_p50_ms": statistics.median(ms),
        "latency_tail_ms": p_tail,
        "throughput_rps": len(typical) / block_s,
    }
    if trace:
        out = fresh_dir(runs / "replay")
        traced = replay(bins, "serve", session, out, cwd=out)
        if traced["mismatches"]:
            failed += traced["mismatches"]
            problems.append("replayed replies differ from the daemon's: "
                            + traced["first_mismatch"][:200])
        prom = prom_values(daemon.metrics)
        daemon_counters = {
            c: prom.get("smq_" + c.replace(".", "_"), 0) for c in CROSS_CHECKED}
        problems += cross_check(daemon_counters, traced)
        waits = prom.get("smq_stage_serve_queue_wait_ns_count", 0)
        metrics = traced["metrics"]
        metrics["serve.queue_wait_ms"] = (
            prom.get("smq_stage_serve_queue_wait_ns_sum", 0) / waits / 1e6
            if waits else 0.0)
        # Untraced time of the same submits: the client-side latencies
        # of the warm-up and timed submits the log holds.
        metrics["trace.overhead_frac"] = \
            traced["replay_s"] / (warm_s + served_s) - 1
        context["daemon_counters"] = daemon_counters
        context["replayed_submits"] = traced["submits"]
    return metrics, attempted, failed, problems, context


# --------------------------------------------------------------------------


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["grid_cold", "serve_miss", "serve_hit"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    runs = fresh_dir(ROOT / ".bench_runs" / args.workload)
    try:
        bins = build(runs)
    except (subprocess.CalledProcessError, Failure) as e:
        log(f"perfbench: build failed ({e}); see {runs / 'build.log'}")
        return 1

    def timeout(*_):
        raise Failure(f"run exceeded {RUN_TIMEOUT_S} s")

    signal.signal(signal.SIGALRM, timeout)
    signal.alarm(RUN_TIMEOUT_S)
    try:
        if args.workload == "grid_cold":
            result = run_grid(bins, runs, args.seconds, args.trace)
        else:
            result = run_serve(bins, runs, args.workload, args.seed,
                               args.seconds, args.trace)
        config = replay(bins, "config", cwd=runs)
    except (Failure, OSError, ValueError, KeyError) as e:
        log(f"perfbench: {args.workload}: {e}")
        return 1
    finally:
        signal.alarm(0)
        stop_children()

    metrics, attempted, failed, problems, context = result
    context.update(config)
    context.update({"workload": args.workload, "seed": args.seed,
                    "seconds": args.seconds, "trace": args.trace,
                    "problems": problems})
    if args.trace:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        units = END_TO_END_UNITS
    # A layer a workload never enters reports 0 (serve.* on the grid).
    metrics = {name: {"value": metrics.get(name, 0.0), "unit": unit}
               for name, unit in units.items()}
    output = {"correct": not problems and failed == 0,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    (runs / "result.json").write_text(
        json.dumps({"context": context, **output}, indent=1) + "\n")
    for name, metric in metrics.items():
        log(f"  {name:34s} {metric['value']:>16.6g} {metric['unit']}")
    for problem in problems:
        log(f"  PROBLEM: {problem}")
    log("context: " + json.dumps(context))
    print(json.dumps(output), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
