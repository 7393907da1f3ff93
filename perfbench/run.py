"""Benchmark runner for viscowave scenarios.

Run from the repository root:

    python3 perfbench/run.py --workload invert-linear-static --seed 0 \
        --seconds 40 --trace 0

The package is imported from ``src/`` next to this directory; without it the
runner exits 2 and prints no result.  Workloads are defined in
``workloads.py`` and listed with their reasons in ``BENCHMARK.json``.

This process pins BLAS to one thread before numpy loads.  On a 2-vCPU VM
shared with other tenants, a static scenario took 14-16 s at two BLAS
threads and 11-13 s at one, and its time spread further at two.  Child
processes get the caller's thread settings back.

``--trace 0`` is a closed loop in one process: one scenario at a time through
``viscowave.harness.run_scenario`` (the function the CLI calls), until the
next scenario would end past ``--seconds``.  After each scenario it runs the
host-speed kernel of ``hostspeed.py`` for a quarter of the scenario's wall
time.  ``wall_s`` and ``cpu_s`` are the mean wall and CPU seconds per
scenario, scaled by ``hostspeed.REF_S`` over the kernel's mean seconds per
pass in the same run: scenario time at the host speed where one kernel pass
takes ``REF_S``.  ``setup_s`` is the median set-up time of five fresh
interpreters (import the package, load and validate the scenario file),
scaled the same way: unscaled, its median over ten runs moved from 0.67 s
to 0.92 s between two workloads run 20 minutes apart, whose set-up is the
same; scaled, it stayed within 0.76-0.79 s.  ``peak_rss_mb`` is the peak
RSS of this process, which runs nothing else.  The unscaled samples, their
median and tail, and the kernel's runs are in the results file.

``--trace 1`` runs one untraced scenario, then one with the per-layer spans
of ``tracer.py`` installed, then one in a child process with BLAS at the
caller's thread settings, and reports the per-layer metrics of the traced
run.

Every scenario's outputs are checked (``workloads.check_report``): it must
pass its own tolerance, repeat the first run of the process, and match the
reference metrics in ``reference.json`` when the seed has one.  A scenario
that raises or fails a check counts as failed.  The last line of standard
output is the result object; the line before it and
``.perfbench-out/results/<run>.json`` carry the samples, the tail percentile
and the machine (CPU model, nproc, BLAS libraries and their thread counts).
``--smoke`` runs the same workloads on tiny grids, for the benchmark's tests.
"""

import argparse
import copy
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# Before numpy loads, which happens only when the package is imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CALLER_THREAD_ENV = {var: os.environ.get(var) for var in THREAD_VARS}
if "--default-threads" not in sys.argv:
    os.environ.update({var: "1" for var in THREAD_VARS})

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_RUNS = 5
CHILD_TIMEOUT_S = 150
# Share of a scenario's wall time spent on the host-speed kernel after it.
HOSTSPEED_SHARE = 0.25
HOSTSPEED_MIN_S = 0.3

# Run in a fresh interpreter: the set-up cost the CLI adds before a scenario.
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
import viscowave
from viscowave.harness import load_config
load_config(sys.argv[1])
print(time.perf_counter() - t0)
"""


class BenchError(RuntimeError):
    """The benchmark itself cannot run (as opposed to a failed scenario)."""


def child_env():
    """This environment with the caller's BLAS thread settings restored."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var, value in CALLER_THREAD_ENV.items():
        if value is None:
            env.pop(var, None)
        else:
            env[var] = value
    return env


def import_package():
    if not (SRC / "viscowave" / "__init__.py").is_file():
        raise BenchError(f"no package source at {SRC / 'viscowave'}")
    sys.path.insert(0, str(SRC))
    import viscowave.harness as harness

    if not Path(harness.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"imported {harness.__file__}, not the package in {SRC}")
    return harness


def blas_libraries():
    """OpenBLAS builds mapped into this process, with config and thread count."""
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh
                        if "openblas" in line.rsplit("/", 1)[-1].lower()})
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path), "config": None, "threads": None}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and entry["threads"] is None:
                    threads.argtypes, threads.restype = [], ctypes.c_int
                    entry["threads"] = threads()
                if config is not None and entry["config"] is None:
                    config.argtypes, config.restype = [], ctypes.c_char_p
                    entry["config"] = config().decode()
        found.append(entry)
    return found


def machine_info():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"cpu_model": cpu, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "blas": blas_libraries(),
            "thread_env": {v: os.environ.get(v) for v in THREAD_VARS}}


def tail(samples):
    """Highest percentile with at least ten samples above it, if any."""
    n = len(samples)
    if n < 11:
        return None
    k = n - 11
    return {"percentile": round(100.0 * (k + 1) / n, 2),
            "value": sorted(samples)[k], "samples": n}


def setup_probe(yaml_path):
    out = subprocess.run([sys.executable, "-c", SETUP_CODE, str(yaml_path)],
                         env=child_env(), capture_output=True, text=True,
                         timeout=CHILD_TIMEOUT_S)
    if out.returncode != 0:
        raise BenchError(f"set-up probe failed: {out.stderr.strip()[-500:]}")
    return float(out.stdout.split()[-1])


class ScenarioRunner:
    """Runs and checks scenarios of one workload and seed."""

    def __init__(self, harness, workloads, cfg, work_dir, reference):
        self.harness = harness
        self.workloads = workloads
        self.cfg = cfg
        self.out_dir = work_dir / "out"
        self.reference = reference
        self.first = None
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run(self):
        """One scenario: (wall seconds, CPU seconds, report or None)."""
        self.attempted += 1
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            report = self.harness.run_scenario(copy.deepcopy(self.cfg),
                                               str(self.out_dir))
        except Exception:  # a failed scenario is a result, not a crash
            report = None
            problems = [traceback.format_exc(limit=-3)]
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        if report is not None:
            problems = self.workloads.check_report(report, self.cfg, self.out_dir,
                                                   self.reference)
            if self.first is None:
                self.first = report["metrics"]
            else:
                problems += self.workloads.compare_metrics(
                    report["metrics"], self.first, prefix="repeat ")
        if problems:
            self.failed += 1
            self.problems.append({"run": self.attempted, "problems": problems})
        return wall, cpu, report


def run_untraced(runner, yaml_path, seconds):
    import hostspeed

    setup = [setup_probe(yaml_path) for _ in range(SETUP_RUNS)]
    walls, cpus = [], []
    kernel = [hostspeed.run_for(HOSTSPEED_MIN_S)]
    start = time.perf_counter()
    while True:
        wall, cpu, _ = runner.run()
        walls.append(wall)
        cpus.append(cpu)
        kernel.append(hostspeed.run_for(max(HOSTSPEED_MIN_S, HOSTSPEED_SHARE * wall)))
        per_scenario = (time.perf_counter() - start) / len(walls)
        if time.perf_counter() - start + per_scenario > seconds:
            break
    pass_s = sum(t for _, t in kernel) / sum(n for n, _ in kernel)
    scale = hostspeed.REF_S / pass_s
    metrics = {
        "wall_s": scale * statistics.mean(walls),
        "cpu_s": scale * statistics.mean(cpus),
        "setup_s": scale * statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    details = {"samples": len(walls), "wall_s_samples": walls,
               "cpu_s_samples": cpus, "setup_s_samples": setup,
               "wall_s_median": statistics.median(walls),
               "wall_s_tail": tail(walls), "cpu_s_tail": tail(cpus),
               "hostspeed_ref_s": hostspeed.REF_S, "hostspeed_pass_s": pass_s,
               "hostspeed_runs": kernel, "scale": scale}
    return metrics, details


def run_default_threads(args):
    """Untraced scenario in a child with BLAS at the caller's thread settings."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "1", "--trace", "0", "--child", "--default-threads"]
    if args.smoke:
        cmd.append("--smoke")
    out = subprocess.run(cmd, env=child_env(),
                         capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if out.returncode != 0:
        raise BenchError(f"default-threads pass failed: {out.stderr.strip()[-500:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def run_traced(runner, args, machine):
    from tracer import Tracer

    untraced_wall, _, _ = runner.run()
    tracer = Tracer()
    with tracer.installed():
        traced_wall, _, _ = runner.run()
    metrics = tracer.layer_metrics(traced_wall)
    accounted = sum(tracer.self_time.values()) + metrics["harness.self_s"]
    if abs(accounted - traced_wall) > 1e-6 * traced_wall:
        raise BenchError(f"self times add up to {accounted}, wall is {traced_wall}")

    default = run_default_threads(args)
    runner.attempted += 1
    if default["problems"]:
        runner.failed += 1
        runner.problems.append({"run": "default-threads", "problems": default["problems"]})
    metrics.update({
        "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
        "blas.default_threads_wall_s": default["wall_s"],
        "blas.default_threads": max((b["threads"] or 0 for b in default["blas"]),
                                    default=0),
        "machine.nproc": machine["nproc"],
    })
    details = {"untraced_wall_s": untraced_wall,
               "self_s": dict(tracer.self_time), "total_s": dict(tracer.total),
               "calls": dict(tracer.calls),
               "default_threads_blas": default["blas"]}
    return metrics, details


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny grids, for the benchmark's own tests")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--default-threads", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {w["name"] for w in spec["workloads"]}
    if args.workload not in names:
        raise BenchError(f"unknown workload {args.workload!r}; one of {sorted(names)}")
    harness = import_package()
    import yaml
    import workloads

    tag = (f"{args.workload}-seed{args.seed}-trace{args.trace}"
           + ("-smoke" if args.smoke else "") + ("-child" if args.child else "")
           + ("-default-threads" if args.default_threads else ""))
    work_dir = OUT / tag
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    yaml_path = work_dir / "scenario.yaml"
    yaml_path.write_text(yaml.safe_dump(workloads.scenario(args.workload, args.seed,
                                                           smoke=args.smoke)))
    cfg = harness.load_config(str(yaml_path))
    reference = None
    if not args.smoke:
        ref = json.loads((HERE / "reference.json").read_text())
        reference = ref["metrics"][args.workload].get(str(args.seed))
    runner = ScenarioRunner(harness, workloads, cfg, work_dir, reference)
    machine = machine_info()

    if args.child:
        wall, _, _ = runner.run()
        shutil.rmtree(work_dir, ignore_errors=True)
        print(json.dumps({"wall_s": wall, "problems": runner.problems,
                          "blas": machine["blas"]}))
        return 0

    if args.trace:
        metrics, details = run_traced(runner, args, machine)
        wanted = spec["per_layer"]
    else:
        metrics, details = run_untraced(runner, yaml_path, args.seconds)
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    results_path = OUT / "results" / f"{tag}.json"
    results_path.parent.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "smoke": args.smoke, "seconds": args.seconds,
              "reference_checked": reference is not None,
              "fail_rate": runner.failed / runner.attempted,
              "problems": runner.problems, "machine": machine,
              "details": details, "result": result}
    results_path.write_text(json.dumps(record, indent=1))
    shutil.rmtree(work_dir, ignore_errors=True)
    record.pop("result")
    print(json.dumps(dict(record, results_file=str(results_path.relative_to(ROOT)))))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, RuntimeError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
