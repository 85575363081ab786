"""Pipeline benchmark for the satagg CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload delta80 --seed 42 --seconds 30 --trace 0

Each workload (see `workloads.py`) is one CLI command on a config generated
from a shipped scenario file with the given seed. The benchmark is a closed
loop with one client: it runs the command in a fresh single-threaded process
(`worker.py`), waits for it, checks its outputs and starts the next, until
the next command would end after `--seconds`; it always runs at least three.
Before that it starts a few processes that only import the package, to
measure set-up.

`--trace 0` reports the end-to-end metrics, medians over the commands:

- `wall_s`: start of the CLI command to its return, output files included;
- `frame_solves_per_s`: algorithms x rounds x frames per slot / `wall_s`;
- `setup_s`: process start until `satagg.cli` is imported;
- `peak_rss_mb`: peak resident set size of a command's process.

Times are given in seconds of a reference CPU speed. The run stays on one
CPU, and while each process runs the CPU's speed is probed with a fixed
Python heap loop (`probe`); each time is scaled by REFERENCE_PROBE_S over the
median probe time taken while it was measured. On a shared host, busy
neighbours slow a CPU down by up to 2x for seconds to minutes, which made
unscaled medians of runs of the same code differ by 25%; the unscaled
medians are kept in the metadata as `host_wall_s` and `host_setup_s`.

`--trace 1` first runs one command with every layer wrapped by
`tracing.Tracer` and reports its per-layer metrics; the untraced commands
that follow give `trace.overhead_s` (traced minus median untraced wall time)
and must write byte-identical outputs.

Every command's outputs are checked (`verify.py`). An operation is one
(algorithm, round); a failed check counts the operations it concerns as
failed. The last line printed is the result JSON; the line before it holds
the run's metadata. Scratch files go to `perfbench/.work/`.
"""
import argparse
import hashlib
import heapq
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import verify  # noqa: E402
from workloads import (DEFAULT_SEED, ROOT, SCENARIOS, WORKLOADS,  # noqa: E402
                       command_argv, output_files, size_of, write_config)

SRC = ROOT / "src"
WORK = HERE / ".work"
SETUP_PROBES = 5
MIN_COMMANDS = 3
DEADLINE_S = 165.0     # the whole run, so that it exits within 180 s
PROBE_EVERY_S = 0.2    # how often the CPU's speed is probed while a worker runs
# Probe time (see `probe`) that defines the reference CPU speed: about
# what it takes on an unloaded 2.0 GHz Xeon vCPU.
REFERENCE_PROBE_S = 1.5e-3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class WorkerError(RuntimeError):
    pass


def _probe_time() -> float:
    """CPU seconds for a fixed heap workload, like the path search's inner
    loop. CPU time rather than wall time, so that sharing the CPU with a
    worker does not count as slowness."""
    heap = []
    t0 = time.thread_time()
    for i in range(2000):
        heapq.heappush(heap, ((i * 7919) % 2003, i))
    while heap:
        heapq.heappop(heap)
    return time.thread_time() - t0


def probe() -> float:
    """Probe time of the CPU this process runs on, the fastest of three."""
    return min(_probe_time() for _ in range(3))


def fastest_cpu(cpus) -> int:
    speeds = {}
    for cpu in sorted(cpus)[:8]:
        os.sched_setaffinity(0, {cpu})
        speeds[cpu] = probe()
    return min(speeds, key=speeds.get)


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def git_sha() -> str:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


class Run:
    """One benchmark run: a workload, a seed and a scratch directory."""

    def __init__(self, workload: str, seed: int, rounds: int | None = None):
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.size = size_of(self.workload, rounds)
        self.dir = WORK / workload
        shutil.rmtree(self.dir, ignore_errors=True)
        self.config = write_config(self.workload, seed, self.dir / "scenario.cfg", rounds)
        self.env = worker_env()
        self.deadline = time.monotonic() + DEADLINE_S
        self.reference = None    # (output digest, failed ops) of the first checked command
        self.attempted = 0
        self.failed = 0
        self.messages = []
        self.commands_run = 0
        self._count = 0
        self.allowed_cpus = os.sched_getaffinity(0)
        # The run stays on one CPU; the workers inherit it, and the probes
        # taken while a worker runs measure the CPU it runs on.
        self.cpu = fastest_cpu(self.allowed_cpus)
        os.sched_setaffinity(0, {self.cpu})
        self.probes = []         # probe time at each check

    def spawn(self, argv, trace=False) -> dict:
        """Run worker.py on one spec; returns its result with `setup_s`,
        `proc_s` and `probe_s`, the median probe time while it ran."""
        self._count += 1
        tag = f"p{self._count:03d}"
        spec = {"argv": argv, "workload": self.workload.name, "trace": trace,
                "src": str(SRC), "result": str(self.dir / f"{tag}.result.json"),
                "spans": str(self.dir / f"{tag}.spans.jsonl")}
        spec_path = self.dir / f"{tag}.spec.json"
        spec_path.write_text(json.dumps(spec))
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise WorkerError("run deadline passed")
        first = len(self.probes)
        self.probes.append(probe())
        t_spawn = time.monotonic()
        with open(self.dir / f"{tag}.stderr", "w+") as err:
            proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(spec_path)],
                                    cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL,
                                    stderr=err)
            try:
                self._wait_probing(proc)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
            t_end = time.monotonic()
            err.seek(0)
            stderr = err.read()
        self.probes.append(probe())
        if proc.returncode != 0:
            raise WorkerError(f"worker exited with {proc.returncode}: {stderr[-2000:]}")
        with open(spec["result"]) as fh:
            result = json.load(fh)
        result["setup_s"] = result["ready"] - t_spawn
        result["proc_s"] = t_end - t_spawn
        result["probe_s"] = statistics.median(self.probes[first:])
        return result

    def _wait_probing(self, proc):
        """Wait for the worker, probing the CPU's speed every PROBE_EVERY_S.

        On a shared host a busy neighbour slows a CPU down by up to 2x, for
        seconds to minutes. The probe is slowed down alike, so a time divided
        by the probe time taken while it was measured (`reference_s`) no
        longer depends on the neighbours.
        """
        while True:
            try:
                proc.wait(timeout=PROBE_EVERY_S)
                return
            except subprocess.TimeoutExpired:
                pass
            if time.monotonic() > self.deadline:
                raise WorkerError("worker timed out")
            self.probes.append(probe())

    def command(self, trace=False):
        """Run and check one CLI command; returns the worker result, or None
        when the command gave no timing (worker crash or CLI error)."""
        self.commands_run += 1
        out_dir = self.dir / f"out{self.commands_run:03d}"
        fails = verify.Failures(self.size)
        result = None
        try:
            result = self.spawn(command_argv(self.workload, self.config, out_dir), trace)
        except WorkerError as exc:
            fails.add_all(str(exc))
        if result is not None and result["exit_code"] != 0:
            fails.add_all(f"CLI exit code {result['exit_code']}")
        elif result is not None:
            digest = self._digest(out_dir)
            if self.reference is None:
                verify.check_outputs(self.workload, self.size, out_dir, self.seed, fails)
                self.reference = digest, frozenset(fails.ops)
            elif digest == self.reference[0]:
                fails.ops |= self.reference[1]   # the same outputs fail the same checks
            else:
                fails.add_all("outputs differ from the first command's (same config and seed)")
            if trace:
                pins = verify.load_expected(self.workload, self.seed)
                verify.check_records(result["records"], pins, fails)
                for algorithm, rnd, message in result["errors"]:
                    fails.add(algorithm, rnd, f"invalid tree: {message}")
        self.attempted += self.size.operations
        self.failed += len(fails.ops)
        self.messages.extend(fails.messages)
        return result if result is not None and result["exit_code"] == 0 else None

    def _digest(self, out_dir):
        h = hashlib.sha256()
        for name in output_files(self.workload, self.size):
            path = out_dir / name
            h.update(name.encode())
            h.update(path.read_bytes() if path.exists() else b"<missing>")
        return h.hexdigest()


def run(workload: str, seed: int, seconds: float, trace: bool,
        rounds: int | None = None) -> tuple[dict, dict]:
    """Measure one workload; returns (result, metadata). `rounds` shortens
    the command, for the benchmark's own smoke tests."""
    bench = Run(workload, seed, rounds)
    try:
        return _measure(bench, seconds, trace)
    finally:
        os.sched_setaffinity(0, bench.allowed_cpus)


def reference_s(result, key) -> float:
    """`result[key]` in seconds of the reference CPU speed."""
    return result[key] * REFERENCE_PROBE_S / result["probe_s"]


def _measure(bench, seconds, trace):
    t_start = time.monotonic()
    setups = [bench.spawn(None) for _ in range(SETUP_PROBES)]
    traced = bench.command(trace=True) if trace else None
    commands = []
    while True:
        res = bench.command()
        if res is not None:
            commands.append(res)
        elif not commands:
            break
        step = statistics.median(r["proc_s"] for r in commands)
        now = time.monotonic()
        if bench.commands_run - bool(trace) >= MIN_COMMANDS and now - t_start + step > seconds:
            break
        if now + step > bench.deadline:
            break
    if not commands:
        raise WorkerError("no command succeeded: " + "; ".join(bench.messages[:5]))

    wall = statistics.median(reference_s(r, "wall_s") for r in commands)
    if trace:
        if traced is None:
            raise WorkerError("the traced command failed: " + "; ".join(bench.messages[:5]))
        layers = dict(traced["layers"])
        layers["trace.overhead_s"] = [reference_s(traced, "wall_s") - wall, "s"]
        metrics = layers
    else:
        metrics = {
            "wall_s": [wall, "s"],
            "frame_solves_per_s": [bench.size.frame_solves / wall, "1/s"],
            "setup_s": [statistics.median(reference_s(r, "setup_s")
                                          for r in setups + commands), "s"],
            "peak_rss_mb": [statistics.median(r["peak_rss_mb"] for r in commands), "MB"],
        }
    size = bench.size
    meta = {
        "workload": bench.workload.name, "seed": bench.seed, "seconds": seconds,
        "trace": int(trace),
        "git_sha": git_sha(),
        **setups[0]["meta"],
        "nproc": os.cpu_count(),
        "cpus_allowed": sorted(bench.allowed_cpus),
        "cpu": bench.cpu,
        "cpu_probe_ms": 1e3 * statistics.median(bench.probes),
        "reference_probe_ms": 1e3 * REFERENCE_PROBE_S,
        # the same medians unscaled, as the host ran them
        "host_wall_s": statistics.median(r["wall_s"] for r in commands),
        "host_setup_s": statistics.median(r["setup_s"] for r in setups + commands),
        "thread_env": {var: bench.env[var] for var in THREAD_VARS},
        "size": {"rounds": size.rounds, "frames_per_slot": size.frames,
                 "satellites": size.satellites, "algorithms": list(size.algorithms),
                 "rho": size.rho},
        "commands": len(commands),
        "wall_s_samples": [reference_s(r, "wall_s") for r in commands],
        "host_wall_s_samples": [r["wall_s"] for r in commands],
        "setup_s_samples": len(setups) + len(commands),
        "absent": traced["absent"] if traced else None,
        "failures": bench.messages[:20],
    }
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, meta


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    workload = WORKLOADS[args.workload]
    needed = [SRC / "satagg" / "cli.py", SCENARIOS / workload.scenario]
    missing = [str(path) for path in needed if not path.exists()]
    if missing:
        print(f"error: not a satagg checkout, missing {missing}", file=sys.stderr)
        return 2
    try:
        result, meta = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for message in meta["failures"]:
        print(f"check failed: {message}", file=sys.stderr)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
