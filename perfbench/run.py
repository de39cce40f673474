"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload paper_grid --seed 1 --seconds 25 --trace 0

``--trace 0`` sets the workload up (timed as ``setup_s``, the median of
this process's set-up and two fresh child processes'), then runs passes
over its jobs for ``--seconds`` seconds and reports the median pass wall
(``wall_s``) and the process's peak resident memory (``peak_rss_mb``).
Both times are corrected for host-speed drift (``calibration.py``); the
raw ones are printed in the ``detail`` line.
``--trace 1`` traces the set-up and one pass, after ``--seconds`` of
untraced passes, and reports the per-layer metrics instead.

Every pass checks each simulation's modelled outputs: invariants that
hold for any seed, and a digest compared with the reference recorded
for the seed (``perfbench/references``) or, for a seed without one, with
the first pass.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit
status is 0 only when every simulation was correct.
"""

from __future__ import annotations

import time

# Set-up time counts from here: interpreter start-up (tens of
# milliseconds, the same for every commit) is left out.
_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
REFERENCES = Path(__file__).resolve().parent / "references"
#: Where the traced run writes its spans (inside the checkout).
TRACE_DIR = ROOT / ".perfbench_out"

#: Switches that select a simulation path other than the default one
#: users get; cleared (and reported) before the program is imported.
SIM_PATH_ENV = ("REPRO_SIM_PERBLOCK", "REPRO_SIM_FLUID", "REPRO_MEM_PERLINE")
#: Numeric-library thread pools, capped at the CPUs this process may use.
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

#: Set-ups per run: this process plus fresh child processes.
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 150


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        prog="python3 perfbench/run.py",
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True,
                        help="paper_grid, serve_open_loop or collectives")
    parser.add_argument("--seed", type=int, default=1,
                        help="workload seed (>= 0); every input derives "
                             "from it")
    parser.add_argument("--seconds", type=int, default=25,
                        help="how long to run untraced passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced "
                             "set-up and pass")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def pin_environment() -> dict:
    """Measure the program users get; returns the switches cleared."""
    cleared = {name: os.environ.pop(name) for name in SIM_PATH_ENV
               if name in os.environ}
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        nproc = os.cpu_count() or 1
    for name in THREAD_ENV:
        value = os.environ.get(name, "")
        if not (value.isdigit() and 1 <= int(value) <= nproc):
            os.environ[name] = str(nproc)
    return cleared


# ----------------------------------------------------------------------
# Passes and checks
# ----------------------------------------------------------------------
def run_pass(jobs, tracer=None, probe=None):
    """Run every job once, serially; returns (wall seconds, outcomes).

    An outcome is ``(job, output, error)``; a job that raises is
    recorded with its traceback and the pass goes on.  With a
    :class:`~perfbench.calibration.SpeedProbe`, the reference loop runs
    after each job; the wall counts the jobs only.
    """
    outcomes = []
    wall = 0.0
    for job in jobs:
        with (tracer.job(job.name) if tracer is not None else nullcontext()):
            start = time.perf_counter()
            try:
                output, error = job.run(), None
            except Exception:
                output, error = None, traceback.format_exc(limit=6)
            elapsed = time.perf_counter() - start
        wall += elapsed
        outcomes.append((job, output, error))
        if probe is not None:
            probe.sample(elapsed)
    return wall, outcomes


def verify(outcomes, expected):
    """Check and digest every outcome; returns (digests, failures).

    ``expected`` maps job name to digest (a recorded reference or an
    earlier pass); None checks invariants only.
    """
    digests, failures = {}, []
    for job, output, error in outcomes:
        if error is None:
            try:
                if job.check is not None:
                    job.check(output)
                digests[job.name] = job.digest(output)
            except Exception:
                error = traceback.format_exc(limit=6)
        if error is None and expected is not None:
            want = expected.get(job.name)
            if want is None:
                error = "no reference digest for this simulation"
            elif want != digests[job.name]:
                error = (f"digest {digests[job.name]} differs from "
                         f"reference {want}")
        if error is not None:
            failures.append({"job": job.name, "error": error})
    return digests, failures


def load_reference(workload: str, seed: int):
    """The recorded digests for ``seed``, or None if none were recorded."""
    path = REFERENCES / f"{workload}.json"
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["seeds"].get(str(seed))


class Passes:
    """Outcome bookkeeping across the passes of one run."""

    def __init__(self, reference):
        self.reference = reference
        self.expected = reference
        self.walls = []
        #: Per pass: host speed over nominal (see perfbench.calibration).
        self.speed_factors = []
        self.attempted = 0
        self.failures = []

    def record(self, wall, outcomes) -> None:
        digests, failures = verify(outcomes, self.expected)
        if self.expected is None:
            # No recorded reference: later passes must repeat this one.
            self.expected = digests
        self.walls.append(wall)
        self.attempted += len(outcomes)
        self.failures.extend(failures)

    def run_for(self, jobs, seconds: float, calibrate: bool) -> None:
        """Untraced passes until ``seconds`` have elapsed (at least one)."""
        from perfbench.calibration import SpeedProbe

        start = time.perf_counter()
        while True:
            probe = SpeedProbe() if calibrate else None
            self.record(*run_pass(jobs, probe=probe))
            if probe is not None:
                self.speed_factors.append(probe.factor())
            if time.perf_counter() - start >= seconds:
                return


def child_setup_s(args) -> float:
    """Set-up time of a fresh process (imports, generation, warm-up)."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def report(passes: Passes, metrics: dict, detail: dict) -> int:
    """Print the metrics, the details and the result line."""
    failed = len(passes.failures)
    correct = failed == 0
    for name, entry in metrics.items():
        print(f"{name:28s} {entry['value']:.6g} {entry['unit']}")
    print(f"failed_frac                  {failed / passes.attempted:.6g} "
          f"({failed} of {passes.attempted} simulations)")
    for failure in passes.failures[:5]:
        print(f"FAILED {failure['job']}: {failure['error']}",
              file=sys.stderr)
    detail.update(raw_pass_walls_s=passes.walls,
                  reference="recorded" if passes.reference is not None
                  else "none: checked invariants and pass-to-pass "
                       "determinism")
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": passes.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


# ----------------------------------------------------------------------
# The two kinds of run
# ----------------------------------------------------------------------
def timed_run(args, workloads, detail) -> int:
    jobs = workloads.setup(args.workload, args.seed)
    setups = [time.perf_counter() - _START]
    if args.setup_only:
        print(json.dumps({"setup_s": setups[0]}))
        return 0
    setups += [child_setup_s(args) for _ in range(SETUP_SAMPLES - 1)]
    passes = Passes(load_reference(args.workload, args.seed))
    passes.run_for(jobs, args.seconds, calibrate=True)
    # Seconds at the nominal host speed: each pass by the reference
    # loop's speed during it, the set-ups (just before) by the run's.
    factors = passes.speed_factors
    detail.update(raw_setups_s=setups, speed_factors=factors)
    metrics = {
        "wall_s": metric(statistics.median(
            wall * factor for wall, factor in zip(passes.walls, factors)),
            "s"),
        "setup_s": metric(statistics.median(setups)
                          * statistics.median(factors), "s"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "MB"),
    }
    return report(passes, metrics, detail)


def traced_run(args, workloads, detail) -> int:
    from perfbench.tracing import Tracer
    from repro.cluster.template import template_stats

    tracer = Tracer()
    before = template_stats()
    with tracer.region("setup"):
        jobs = workloads.setup(args.workload, args.seed)
    template_delta = _delta(before, template_stats())
    passes = Passes(load_reference(args.workload, args.seed))
    passes.run_for(jobs, args.seconds, calibrate=False)
    untraced_s = statistics.median(passes.walls)

    before = template_stats()
    with tracer.region("pass"):
        wall, outcomes = run_pass(jobs, tracer)
    for name, value in _delta(before, template_stats()).items():
        template_delta[name] += value
    passes.record(wall, outcomes)
    for job, output, error in outcomes:
        if error is None and job.counters is not None:
            tracer.add_counters(job.counters(output))

    TRACE_DIR.mkdir(exist_ok=True)
    trace_path = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.write(trace_path)
    detail["trace_file"] = str(trace_path.relative_to(ROOT))
    detail["missing_entry_points"] = sorted(tracer.missing)
    metrics = layer_metrics(tracer, untraced_s, wall, template_delta)
    return report(passes, metrics, detail)


def _delta(before: dict, after: dict) -> dict:
    return {key: after[key] - before.get(key, 0) for key in after}


def layer_metrics(tracer, untraced_s: float, traced_s: float,
                  template_delta: dict) -> dict:
    """The per-layer metrics of a traced set-up plus one traced pass."""
    from perfbench.tracing import LAYERS, MEM_ACCESS, MEM_BUILD

    counters = tracer.counters
    total = tracer.wall_s
    m = {
        "trace.pass_wall_s": metric(traced_s, "s"),
        "trace.untraced_pass_s": metric(untraced_s, "s"),
        "trace.overhead_s": metric(traced_s - untraced_s, "s"),
        "trace.setup_s": metric(tracer.region_s["setup"], "s"),
        "unattributed_s": metric(tracer.unattributed_s, "s"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = metric(tracer.self_s[layer], "s")
        m[f"{layer}.self_frac"] = metric(tracer.self_s[layer] / total,
                                         "fraction")
    m["mem.calls"] = metric(
        tracer.leaf_totals({f"mem.{n}" for n in MEM_ACCESS})[0], "count")
    m["mem.build_s"] = metric(
        tracer.leaf_totals({f"mem.{n}" for n in MEM_BUILD})[1], "s")
    for name in ("mem.l1d.accesses", "mem.l1d.misses", "mem.l2.accesses",
                 "mem.l2.misses", "mem.rdram.accesses",
                 "mem.rdram.page_hits", "mem.dtlb.misses"):
        m[name] = metric(counters[name], "count")
    run_s = tracer.group_s["sim.run"]
    m["sim.runs"] = metric(tracer.calls["sim.run"], "count")
    m["sim.events"] = metric(counters["sim.events"], "count")
    m["sim.run_s"] = metric(run_s, "s")
    m["sim.events_per_s"] = metric(
        counters["sim.events"] / run_s if run_s else 0.0, "1/s")
    arrivals = counters["traffic.arrivals"]
    for name in ("traffic.arrivals", "traffic.completed", "traffic.dropped"):
        m[name] = metric(counters[name], "count")
    m["traffic.goodput_frac"] = metric(
        counters["traffic.completed"] / arrivals if arrivals else 0.0,
        "fraction")
    m["traffic.schedule_s"] = metric(tracer.group_s["traffic.schedule"], "s")
    m["traffic.knee_sims"] = metric(counters["traffic.knee_sims"], "count")
    m["metrics.quantile_adds"] = metric(
        tracer.leaf_totals({"metrics.quantile.add"})[0], "count")
    m["cluster.builds"] = metric(tracer.group_calls["cluster.build"], "count")
    m["cluster.build_s"] = metric(tracer.group_s["cluster.build"], "s")
    m["cluster.placement_s"] = metric(tracer.group_s["cluster.placement"],
                                      "s")
    m["cluster.template_hits"] = metric(
        sum(v for k, v in template_delta.items() if k.endswith("_hits")),
        "count")
    m["cluster.template_misses"] = metric(
        sum(v for k, v in template_delta.items() if k.endswith("_misses")),
        "count")
    m["apps.build_s"] = metric(tracer.group_s["apps.build"], "s")
    m["apps.finalize_s"] = metric(tracer.group_s["apps.finalize"], "s")
    for name in ("switch.dispatched", "switch.queued_waits",
                 "switch.send_messages", "net.packets_sent",
                 "net.retransmits", "io.disk_requests", "io.disk_retries",
                 "faults.failovers", "faults.repairs", "faults.attempts"):
        m[name] = metric(counters[name], "count")
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no simulator sources at {ROOT / 'src' / 'repro'}; "
              f"run from the root of a repository checkout",
              file=sys.stderr)
        return 2
    cleared = pin_environment()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import workloads
    from repro.sim.burst import sim_mode_tag

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    detail = {"workload": args.workload, "seed": args.seed,
              "sim_mode": sim_mode_tag(), "cleared_env": cleared}
    if args.trace:
        return traced_run(args, workloads, detail)
    return timed_run(args, workloads, detail)


if __name__ == "__main__":
    sys.exit(main())
