"""zinterp benchmark: one workload, timed passes, checked verdicts.

    python3 bench/run.py --workload {oracle,e2e,synth} --seed N \
        --seconds S --trace {0,1} [--quick]

Run from the root of a checkout: the program is imported from ./src and
nowhere else.  The job list is built from the seed and then run in passes,
one after another in this process, until --seconds have gone by (at least
one pass).  Every job's output is checked against ground truth computed
by the benchmark itself; a job that disagrees or raises counts as failed.

Machine speed.  On a shared machine other tenants slow this process by up
to 1.6x for tens of seconds at a time, far more than the changes the
benchmark must resolve.  So while passes run, a thread times a fixed
calibration kernel that does not touch zinterp every CALIBRATE_EVERY_S.
Each measured span loses the kernel time that fell inside it and is
scaled by REFERENCE_KERNEL_S over the kernel's mean time within WINDOW_S
of the span, the fastest and slowest tenth of those samples left out.
Reported times are thus seconds at a reference speed: the speed this
machine has when quiet.  The raw figures are printed on the "#" lines
beside them.

End-to-end metrics (--trace 0):

  setup_s      median launch-to-ready time of fresh processes that import
               zinterp and build pell_interpretation() and formula_library()
  wall_s       one pass over the job list: the sum of the jobs' times
  job_ms.p50   median and 90th percentile of the jobs' times, each printed
  job_ms.p90   with the number of jobs beyond it
  peak_rss_mb  ru_maxrss of this process, the benchmark's own tables
               included

A job's time is its median over the run's passes.

--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of spans.py (self times scaled like the rest and taken as the
median over traced passes; the calibration samples that land inside spans
add about 1% to them) plus trace.overhead, the traced wall_s over the
untraced one.  Counts must repeat exactly across the traced passes of a
run; a difference makes the run incorrect.

Lines starting with "#" describe the run (environment, input mix, each
metric with its unit and sample count, and fail_ratio: failed jobs over
attempted ones).  The last line is one JSON object with the keys correct,
attempted, failed and metrics.  --quick shrinks the
job lists for the self-test (selftest.py).
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from array import array
from pathlib import Path

import workloads
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60

# Calibration: the kernel's time on a quiet 2-vCPU Xeon at 2.1 GHz under
# CPython 3.11, how often it is sampled, and the window around a span
# whose samples give that span's speed.
REFERENCE_KERNEL_S = 0.0019
CALIBRATE_EVERY_S = 0.15
WINDOW_S = 1.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "job_ms.p50": "ms",
    "job_ms.p90": "ms",
    "peak_rss_mb": "MB",
}

clock = time.perf_counter


def layer_unit(name: str) -> str:
    if name.endswith("self_s") or ".self_s." in name:
        return "s"
    if name == "trace.overhead":
        return "ratio"
    return "count"


def _step(a: int, b: int) -> int:
    return (a * 31 + b) % 1000003


# A 4 MB table read in a scattered order, and short-lived strings, so the
# kernel also feels what neighbours do to the caches and the allocator, as
# the program's object-heavy code does.
_TABLE = array("q", range(1 << 19))
_SCATTER = array("l", ((i * 7919) % len(_TABLE) for i in range(6000)))


def _kernel() -> int:
    # Integer work, calls, table reads and strings only: it allocates no
    # objects the garbage collector tracks, so no collection of the
    # program's heap lands in it.  At about 2 ms it stays under the
    # interpreter's 5 ms switch interval, so the main thread does not cut
    # into it.
    acc = 0
    for i in range(8000):
        acc = _step(acc, i)
    for i in _SCATTER:
        acc += _TABLE[i]
    for i in range(3000):
        acc += len(str(i * 1000003))
    return acc


class Speedometer:
    """Times the calibration kernel from a thread while active (`with`),
    and scales spans of the main thread to reference speed."""

    def __init__(self):
        self.at: list[float] = []
        self.cost: list[float] = []
        self._ends: list[float] = []
        self._stop = threading.Event()
        self._thread = None

    def _run(self) -> None:
        self.sample()
        while not self._stop.wait(CALIBRATE_EVERY_S):
            self.sample()

    def sample(self) -> None:
        start = clock()
        _kernel()
        end = clock()
        self.at.append((start + end) / 2)
        self.cost.append(end - start)
        self._ends.append(end)

    def __enter__(self):
        self._stop.clear()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.sample()
        return False

    def busy(self, start: float, end: float) -> float:
        """Kernel time that fell inside [start, end]."""
        lo = bisect.bisect_left(self._ends, start)
        total = 0.0
        for i in range(lo, len(self._ends)):
            k_start = self._ends[i] - self.cost[i]
            if k_start >= end:
                break
            total += min(end, self._ends[i]) - max(start, k_start)
        return total

    def scale(self, start: float, end: float) -> float:
        """Factor taking a span measured over [start, end] to reference
        speed: the reference over the kernel's mean time near the span,
        with the fastest and slowest tenth of the samples left out."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        costs = sorted(self.cost[lo:hi])
        if not costs:
            i = min(bisect.bisect_left(self.at, start), len(self.at) - 1)
            costs = [self.cost[i]]
        cut = len(costs) // 10
        return REFERENCE_KERNEL_S / statistics.fmean(
            costs[cut:len(costs) - cut])

    def seconds(self, start: float, end: float) -> float:
        """A main-thread span, net of kernel time, at reference speed."""
        return (end - start - self.busy(start, end)) * self.scale(start, end)


def load_program():
    sys.path.insert(0, str(SRC))
    import zinterp

    if Path(zinterp.__file__).resolve().parent != SRC / "zinterp":
        raise SystemExit(f"zinterp loaded from {zinterp.__file__}, not {SRC}")
    return zinterp


def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "zinterp").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def setup_spans(speed: Speedometer) -> list[tuple[float, float]]:
    """(start, end) of fresh probe processes, launch to ready.  The kernel
    is timed between probes, not beside them: a probe and the kernel
    running at once would slow each other."""
    spans = []
    for _ in range(SETUP_PROBES):
        speed.sample()
        start = clock()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "probe.py")],
            stdout=subprocess.PIPE, text=True,
        )
        try:
            line = proc.stdout.readline()
            spans.append((start, clock()))
            proc.stdout.read()
            code = proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            proc.stdout.close()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or code != 0:
            raise SystemExit(f"set-up probe failed (exit {code})")
    speed.sample()
    return spans


def run_pass(z, jobs, tracer=None):
    """(per-job (start, end) spans, failures) for one pass."""
    spans = []
    failures = []
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = i
        start = clock()
        try:
            out = job.call(z)
        except Exception:
            spans.append((start, clock()))
            failures.append((job.label, traceback.format_exc(limit=4)))
            continue
        spans.append((start, clock()))
        try:
            ok = job.check(out)
        except Exception:
            ok = False
        if not ok:
            failures.append((job.label, "verdict differs from ground truth"))
    return spans, failures


def job_seconds(passes, speed: Speedometer, scaled: bool = True):
    """Each job's median time over the passes, in job order."""
    return [
        statistics.median(
            speed.seconds(s, e) if scaled else e - s for s, e in per_job
        )
        for per_job in zip(*(spans for spans, _ in passes))
    ]


def percentile(samples: list[float], q: int) -> tuple[float, int]:
    """(q-th percentile, samples strictly beyond it)."""
    if q == 50:
        value = statistics.median(samples)
    else:
        # Inclusive: stays within the samples where they are few (oracle
        # has five jobs) instead of extrapolating past the largest.
        value = statistics.quantiles(samples, n=100,
                                     method="inclusive")[q - 1]
    return value, sum(s > value for s in samples)


def note(line: str) -> None:
    print("# " + line, flush=True)


def end_to_end(z, jobs, seconds: float):
    speed = Speedometer()
    setup = setup_spans(speed)
    with speed:
        passes = []
        start = clock()
        while not passes or clock() - start < seconds:
            passes.append(run_pass(z, jobs))
    times = job_seconds(passes, speed)
    raw = job_seconds(passes, speed, scaled=False)
    metrics = {
        "setup_s": statistics.median((e - s) * speed.scale(s, e)
                                     for s, e in setup),
        "wall_s": sum(times),
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh processes; raw "
                   f"{statistics.median(e - s for s, e in setup):.4g} s",
        "wall_s": f"sum of {len(jobs)} job medians over {len(passes)} "
                  f"passes; raw {sum(raw):.4g} s",
    }
    for q in (50, 90):
        value, beyond = percentile(times, q)
        metrics[f"job_ms.p{q}"] = value * 1000.0
        notes[f"job_ms.p{q}"] = (
            f"n={len(times)} jobs, {beyond} beyond; raw "
            f"{percentile(raw, q)[0] * 1000.0:.4g} ms"
            + ("" if beyond >= 10 else "; fewer than 10 beyond, indicative")
        )
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    note(f"speed: kernel median {statistics.median(speed.cost) * 1e3:.4g} "
         f"ms over {len(speed.cost)} samples, reference "
         f"{REFERENCE_KERNEL_S * 1e3:.4g} ms")
    for name, value in metrics.items():
        note(f"{name} {value:.6g} {END_TO_END_UNITS[name]}"
             + (f" ({notes[name]})" if name in notes else ""))
    return passes, {n: (v, END_TO_END_UNITS[n]) for n, v in metrics.items()}


def per_layer(z, jobs, seconds: float, workload: str):
    untraced, traced, layers = [], [], []
    atoms = []
    speed = Speedometer()
    with speed:
        start = clock()
        while not traced or clock() - start < seconds:
            untraced.append(run_pass(z, jobs))
            tracer = Tracer()
            with tracer:
                traced.append(run_pass(z, jobs, tracer))
            layers.append(tracer.layer_metrics())
            atoms = tracer.output_atoms()
            tracer.write(OUT / f"spans-{workload}.bin")
            # Free the spans and kept outputs before the next untraced
            # pass, so its timing does not pay for collecting them.
            del tracer
    for layer, (spans, _) in zip(layers, traced):
        factor = speed.scale(spans[0][0], spans[-1][1])
        for name in layer:
            if layer_unit(name) == "s":
                layer[name] *= factor
    counts = {n: v for n, v in layers[0].items() if layer_unit(n) == "count"}
    stable = all(
        {n: v for n, v in m.items() if n in counts} == counts
        for m in layers
    )
    metrics = dict(counts)
    for name in layers[0]:
        if name not in counts:
            metrics[name] = statistics.median(m[name] for m in layers)
    metrics["trace.overhead"] = (
        sum(job_seconds(traced, speed)) / sum(job_seconds(untraced, speed))
    )
    digest = hashlib.sha256(
        json.dumps(counts, sort_keys=True).encode()
    ).hexdigest()[:16]
    note(f"traced passes {len(traced)}, untraced passes {len(untraced)}; "
         f"counts {'repeat exactly' if stable else 'DIFFER'} across traced "
         f"passes; counts digest {digest}")
    if atoms:
        note(f"interp.out_atoms per translation: median "
             f"{statistics.median(atoms)}, max {max(atoms)}")
    for name in sorted(metrics):
        unit = layer_unit(name)
        value = metrics[name]
        note(f"{name} {value if unit == 'count' else f'{value:.6g}'} {unit}")
    result = {n: (v, layer_unit(n)) for n, v in metrics.items()}
    return untraced + traced, result, stable


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true")
    args = ap.parse_args(argv)

    z = load_program()
    note("env " + json.dumps(environment(), sort_keys=True))
    jobs, mix = workloads.WORKLOADS[args.workload](args.seed, args.quick)
    note(f"workload {args.workload} seed {args.seed} jobs/pass {len(jobs)} "
         f"trace {args.trace}")
    if mix:
        note("mix " + json.dumps(mix, sort_keys=True))

    stable = True
    if args.trace:
        passes, metrics, stable = per_layer(z, jobs, args.seconds,
                                            args.workload)
    else:
        passes, metrics = end_to_end(z, jobs, args.seconds)

    failures = [f for _, fs in passes for f in fs]
    attempted = sum(len(spans) for spans, _ in passes)
    for label, why in failures[:5]:
        print(f"FAILED {label}: {why}", file=sys.stderr)
    note(f"fail_ratio {len(failures) / attempted:.6g} "
         f"({len(failures)} of {attempted} jobs)")
    print(json.dumps({
        "correct": not failures and stable,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {n: {"value": v, "unit": u}
                    for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
