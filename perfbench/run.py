"""Pipeline benchmark for scamscout.

Drives the real user path, ``scamscout.cli.main(argv)``, in-process on
inputs generated from ``--seed``.  One client runs the CLI stages of a
workload in sequence (a closed loop, single-threaded, BLAS pinned to one
thread), pass after pass, until ``--seconds`` is spent.

    python3 perfbench/run.py --workload measure --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Workloads (BENCHMARK.json says why each exists and what it leaves idle):

    measure   featurize -> train-oracle -> score -> toxicity -> baselines
    distill   train-lupi -> rank
    discover  filter-branded -> rank -> discover (oracle and student are
              trained by the CLI during set-up)

End-to-end metrics (``--trace 0``), the same four on every workload:

    setup_s         median of SETUP_REPS set-ups (generate inputs, then the
                    set-up CLI stages), in reference seconds
    wall_s          mean time of one pass of the timed stages, in reference s
    peak_rss_mb     peak resident memory of the process
    result_quality  measure: F1 of the oracle's SCAM verdicts on held-out
                    domains; distill and discover: mean true toxicity of the
                    keywords ``rank`` keeps (the paper's top-k metric)

Reference seconds: the host drifts between fast and slow spells by 20-70%,
so raw wall times of two runs a minute apart differ by that much.  While
the program runs, a timer signal times a fixed calibration kernel every
SAMPLE_PERIOD_S (see ``Clock``); program time excludes those samples, and
every time is multiplied by ``REFERENCE_KERNEL_S / mean kernel time`` over
the same phase.  Unscaled program times are printed alongside.

``--trace 1`` runs half the time untraced and half with the span wrappers
of spans.py installed, and prints the per-layer metrics (counts exact,
times in reference seconds, median over traced passes) plus the tracing
overhead, traced minus untraced ``wall_s``.  Failed CLI stages and failed
output checks (checks.py) count in ``failed``; ``failed / attempted`` is the
failed-operations fraction.  The last line of standard output is one JSON
object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:   # must happen before numpy is first imported
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import hashlib
import io
import json
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPS = 3
# kernel_seconds() in a fast minute of a shared 2-vCPU VM (2.1 GHz); program
# times are rescaled to this speed
REFERENCE_KERNEL_S = 0.009
SAMPLE_PERIOD_S = 0.2   # wall seconds between two kernel samples
MIN_SAMPLES = 5
WORKLOAD_NAMES = ("measure", "distill", "discover")
# the CLI stages reported as "cli.<stage>_s" in the traced run
CLI_STAGES = ("featurize", "train-oracle", "score", "toxicity", "baselines",
              "filter-branded", "train-lupi", "rank", "discover")


@dataclass
class Workload:
    name: str
    sizes: object                                  # gen.Sizes
    prepare: Callable[[Path], list]                # set-up CLI argv lists
    stages: Callable[[Path], list]                 # timed CLI argv lists
    outputs: tuple                                 # files the stages write
    check: Callable                                # (ops, inputs, dir) -> quality


def _workloads() -> dict:
    import checks
    from gen import ENGINES, Sizes

    def measure_stages(d: Path):
        return [
            ["featurize", "--snapshots", d / "snapshots.jsonl",
             "--out", d / "features.csv"],
            ["train-oracle", "--features", d / "features.csv",
             "--labels", d / "labels.csv", "--rounds", 20,
             "--learning-rate", 0.3, "--out", d / "model.json"],
            ["score", "--model", d / "model.json",
             "--features", d / "features.csv", "--out", d / "verdicts.csv"],
            ["toxicity", "--serps", d / "serps.jsonl",
             "--labels", d / "verdicts.csv", "--keywords", d / "keywords.jsonl",
             "--out", d / "toxicity.csv"],
            ["baselines", "--keywords", d / "keywords.jsonl",
             "--toxicity", d / "toxicity.csv", "--segments", d / "segments.jsonl",
             "--n-sim", 500, "--out-dir", d / "tables"],
        ]

    def distill_stages(d: Path):
        return [
            ["train-lupi", "--train", d / "lupi_train.jsonl",
             "--priv", "google:description:all:ranked:5", "--epochs", 2,
             "--batch-size", 32, "--lr", "2e-3", "--out", d / "student.json",
             "--teacher-out", d / "teacher.json"],
            ["rank", "--model", d / "student.json",
             "--keywords", d / "heldout_keywords.jsonl", "--k", 40,
             "--out", d / "ranked.csv"],
        ]

    def discover_prepare(d: Path):
        return [
            ["featurize", "--snapshots", d / "train_snapshots.jsonl",
             "--out", d / "train_features.csv"],
            ["train-oracle", "--features", d / "train_features.csv",
             "--labels", d / "labels.csv", "--rounds", 10,
             "--out", d / "model.json"],
            ["train-lupi", "--train", d / "lupi_train.jsonl",
             "--priv", "google:description:all:ranked:5", "--epochs", 1,
             "--lr", "2e-3", "--out", d / "student.json"],
        ]

    def discover_stages(d: Path):
        return [
            ["filter-branded", "--in", d / "keywords.jsonl",
             "--out", d / "unbranded.jsonl"],
            ["rank", "--model", d / "student.json",
             "--keywords", d / "unbranded.jsonl", "--k", 30,
             "--out", d / "ranked.csv"],
            ["discover", "--ranked", d / "ranked.csv", "--mode", "replay",
             "--oracle", d / "model.json", "--fixtures", d / "serp_fixtures.jsonl",
             "--snapshots", d / "snapshots.jsonl", "--labels", d / "labels.csv",
             "--engines", ",".join(ENGINES), "--out", d / "report.json"],
        ]

    def distill_check(ops, inputs, d):
        return checks.check_ranked(ops, inputs, d / "ranked.csv",
                                   inputs.files["keywords"], 40)

    def discover_check(ops, inputs, d):
        checks.check_filter(ops, inputs, d / "unbranded.jsonl")
        checks.check_discover(ops, inputs, d, ENGINES)
        return checks.check_ranked(ops, inputs, d / "ranked.csv",
                                   d / "unbranded.jsonl", 30)

    return {
        "measure": Workload(
            "measure", Sizes(domains=500, serp_queries=150),
            lambda d: [], measure_stages,
            ("features.csv", "model.json", "verdicts.csv", "toxicity.csv",
             "tables/attributes.csv", "tables/segments.csv",
             "tables/cross_category.csv"),
            checks.check_measure),
        "distill": Workload(
            "distill", Sizes(domains=600, lupi_queries=40, keywords=600),
            lambda d: [], distill_stages,
            ("student.json", "teacher.json", "ranked.csv"), distill_check),
        "discover": Workload(
            "discover", Sizes(domains=1000, train_snapshots=150, keywords=600,
                              lupi_queries=32),
            discover_prepare, discover_stages,
            ("unbranded.jsonl", "ranked.csv", "report.json"), discover_check),
    }


# --- running the CLI --------------------------------------------------------------


def run_cli(ops, argv) -> bool:
    """One CLI stage; a non-zero exit or an exception is a failed operation."""
    from scamscout.cli import main

    args = [str(a) for a in argv]
    log = io.StringIO()
    try:
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            rc = main(args)
    except Exception as exc:  # a crashing stage is counted, not fatal
        rc = f"{type(exc).__name__}: {exc}"
    if not ops.record(f"scamscout {args[0]}", rc == 0,
                      f"exit {rc}; {log.getvalue()[-500:]}"):
        ops.stage_failed = True
    return rc == 0


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else ""


# --- timing against the calibration kernel -------------------------------------------


def kernel_seconds() -> float:
    """Wall time of one fixed calibration computation (about 9 ms).

    It mixes the kinds of work the pipeline does (dict and string churn,
    small numpy operations, JSON encoding).
    """
    was_enabled = gc.isenabled()
    gc.disable()   # a collection would time the program's heap, not the host
    try:
        start = time.perf_counter()
        table: dict = {}
        for i in range(30000):
            key = str(i)
            table[key] = table.get(key, 0) + len(key)
        values = np.arange(2000.0)
        for _ in range(100):
            values = np.sqrt(values * values + 1.0)[::-1].copy()
        json.dumps(list(range(10000)))
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


class Clock:
    """Program time, plus the host's speed sampled while the program runs.

    The host drifts between fast and slow spells of seconds to minutes, by
    20-70%.  A timer signal interrupts the process every SAMPLE_PERIOD_S and
    its handler times the calibration kernel, so the kernel is sampled
    uniformly in time *during* the CLI stages.  ``now()`` excludes the time
    spent in the handler, so no sample is counted as program time.
    Multiplying program time by ``factor()``, REFERENCE_KERNEL_S over the
    mean kernel time of the same interval, gives reference seconds.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.stolen = 0.0

    def now(self) -> float:
        while True:
            stolen = self.stolen
            t = time.perf_counter()
            if stolen == self.stolen:   # no sample ran in between
                return t - stolen

    def factor(self, since: int = 0) -> float:
        """Reference seconds per program second, over samples[since:].

        An interval too short for MIN_SAMPLES timer samples is topped up
        with samples taken right after it.
        """
        while len(self.samples) - since < MIN_SAMPLES:
            self._sample(None, None)
        return REFERENCE_KERNEL_S / statistics.fmean(self.samples[since:])

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(kernel_seconds())
        self.stolen += time.perf_counter() - start

    def __enter__(self) -> "Clock":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


@dataclass
class Pass:
    wall: float                 # program seconds of the timed stages
    stages: dict                # stage -> program seconds
    layers: Optional[dict]      # traced per-layer values, when tracing


@dataclass
class Phase:
    """Consecutive passes and the speed factor over their run."""

    passes: list
    factor: float = float("nan")

    def wall_ref_s(self) -> float:
        return statistics.fmean(p.wall for p in self.passes) * self.factor


def set_up(wl: Workload, seed: int, work: Path, ops, clock: Clock):
    """Generate inputs and run the set-up stages SETUP_REPS times.

    Returns (inputs of the first repetition, median set-up reference
    seconds).  Every repetition must produce the same bytes.
    """
    import gen

    walls, digests, first = [], [], None
    since = len(clock.samples)
    for rep in range(SETUP_REPS):
        d = work / f"setup{rep}"
        t0 = clock.now()
        inputs = gen.generate(wl.name, seed, wl.sizes, d)
        for argv in wl.prepare(d):
            run_cli(ops, argv)
        walls.append(clock.now() - t0)
        prepared = {p.name: _digest(p) for p in sorted(d.glob("*.json"))}
        digests.append((inputs.digests(), prepared))
        if first is None:
            first = inputs
        else:
            shutil.rmtree(d)
    ops.record("set-up rewrites byte-identical inputs and models",
               all(x == digests[0] for x in digests))
    return first, statistics.median(walls) * clock.factor(since)


def timed_passes(wl: Workload, d: Path, ops, clock: Clock, budget: float,
                 min_passes: int, reference: dict, tracer=None) -> Phase:
    """Run whole passes of the timed stages until ``budget`` seconds are used.

    A pass is not started when an average pass would overrun the budget.
    Each pass's outputs must equal the first pass's byte for byte (every
    pass reruns the final stage).  Stops early when a stage fails.
    """
    def span(name):
        return tracer.span(name) if tracer is not None else contextlib.nullcontext()

    phase = Phase([])
    since = len(clock.samples)
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.reset()
        stages = {}
        for argv in wl.stages(d):
            t0 = clock.now()
            with span(f"cli.{argv[0]}"):
                ok = run_cli(ops, argv)
            stages[argv[0]] = clock.now() - t0
            if not ok:
                break
        else:
            phase.passes.append(Pass(sum(stages.values()), stages,
                                     layer_values(tracer) if tracer else None))
        if ok:
            digests = {name: _digest(d / name) for name in wl.outputs}
            if not reference:
                reference.update(digests)
                ops.record("first pass writes every output", all(digests.values()))
            else:
                changed = sorted(n for n in digests if digests[n] != reference[n])
                ops.record("rerun rewrites byte-identical outputs", not changed,
                           ", ".join(changed))
        n = len(phase.passes)
        elapsed = time.perf_counter() - start
        if not ok or (n >= min_passes and elapsed * (n + 1) / n > budget):
            phase.factor = clock.factor(since)
            return phase


def layer_values(tracer) -> dict:
    from spans import LAYER_METRICS

    out = {name: read(tracer) for name, (_, _, read) in LAYER_METRICS.items()}
    for stage in CLI_STAGES:
        out[f"cli.{stage.replace('-', '_')}_s"] = tracer.total[f"cli.{stage}"]
    return out


def layer_metrics(phase: Phase) -> dict:
    """Per-layer metrics: median over traced passes, times in reference s."""
    from spans import LAYER_METRICS

    metrics = {}
    for name in phase.passes[0].layers:
        unit = LAYER_METRICS[name][0] if name in LAYER_METRICS else "s"
        values = [p.layers[name] for p in phase.passes]
        if unit == "count":
            metrics[name] = _metric(statistics.median_low(values), unit)
        else:
            scale = phase.factor if unit == "s" else 1.0
            metrics[name] = _metric(statistics.median(values) * scale, unit)
    return metrics


# --- the record stored with every result ----------------------------------------------


def git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args, digests) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas, "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_sha": git_sha(), "inputs_sha256": digests,
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run_workload(args) -> int:
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from checks import Ops

    wl = _workloads()[args.workload]
    ops = Ops()
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    try:
        with Clock() as clock:
            inputs, setup_s = set_up(wl, args.seed, work, ops, clock)
            d = inputs.root
            reference: dict = {}
            absent: list = []
            if args.trace:
                from spans import LAYER_METRICS, Tracer, install

                half = args.seconds / 2
                plain = timed_passes(wl, d, ops, clock, half, 1, reference)
                tracer = Tracer(clock.now)
                installer = install(tracer)
                absent = sorted(name for name, (_, span, _) in LAYER_METRICS.items()
                                if span not in installer.installed)
                try:
                    phase = timed_passes(wl, d, ops, clock, half, 1, reference,
                                         tracer)
                finally:
                    installer.uninstall()
            else:
                phase = timed_passes(wl, d, ops, clock, args.seconds, 2, reference)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        quality = None
        if phase.passes and not ops.stage_failed:
            try:
                quality = wl.check(ops, inputs, d)
            except Exception as exc:  # a malformed output fails its check
                ops.record("output checks run to completion", False,
                           f"{type(exc).__name__}: {exc}")

        print(json.dumps({"record": environment(args, inputs.digests())}))
        passes = phase.passes
        print("pass program time (s): " + " ".join(f"{p.wall:.4f}" for p in passes))
        print(f"speed factor {phase.factor:.4f} from {len(clock.samples)} kernel "
              f"samples in the run (reference {REFERENCE_KERNEL_S * 1e3} ms)")
        for stage in passes[0].stages if passes else ():
            mean = statistics.fmean(p.stages[stage] for p in passes)
            print(f"stage {stage}: mean {mean:.4f} s, "
                  f"{mean * phase.factor:.4f} reference s, over {len(passes)} passes")
        print("waiting time: not applicable; no layer has a queue or a second thread")
        print(f"failed_ops_fraction: {len(ops.failures)}/{ops.attempted}")
        for failure in ops.failures:
            print(f"FAILED {failure}", file=sys.stderr)

        metrics = {}
        if args.trace and passes and plain.passes:
            metrics = {name: m for name, m in layer_metrics(phase).items()
                       if name not in absent}
            metrics["trace.overhead_s"] = _metric(
                phase.wall_ref_s() - plain.wall_ref_s(), "s")
            if absent:
                print("absent (target not found): " + ", ".join(absent))
        elif passes and quality is not None:
            metrics = {
                "setup_s": _metric(setup_s, "s"),
                "wall_s": _metric(phase.wall_ref_s(), "s"),
                "peak_rss_mb": _metric(peak_rss_mb, "MB"),
                "result_quality": _metric(quality, "score"),
            }
        print(json.dumps({"correct": not ops.failures and bool(metrics),
                          "attempted": ops.attempted,
                          "failed": len(ops.failures),
                          "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):   # other runs may still use it
            WORK.rmdir()


def run_all(args) -> int:
    """Every workload in its own process; prints each metric with its unit."""
    status = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        for line in lines[:-1]:
            if not line.startswith("{"):
                print(f"{name}: {line}")
        result = json.loads(lines[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"{name}  {metric:40s} {m['value']:>16.6g} {m['unit']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "scamscout" / "cli.py").is_file():
        print(f"error: no scamscout sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
