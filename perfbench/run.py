"""The fistalab benchmark: one workload, measured through the `fistalab` CLI.

    python3 perfbench/run.py --workload fig1 --seed 0 --seconds 60 --trace 0

Run from anywhere inside a source checkout; the program is run from the
checkout's ``src/`` and nothing outside the checkout is read or written.
Inputs are generated from ``--seed`` into ``.perfbench_work/`` (removed on
exit), every output is checked by ``gate.py``, and the last line of stdout
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` measures the end-to-end metrics with tracing off:

- ``run_s``: wall time of the workload's fistalab commands, spawn to exit,
  one child at a time; the median over the timed passes;
- ``setup_s``: a fresh interpreter importing ``fistalab.cli`` and building
  every problem of the workload; the median of several interpreters;
- both times are divided by the host factor: the mean wall time of the
  ``calibrate.py`` runs that follow each command of the timed passes, over
  its typical time ``CALIBRATION_S``. They read as seconds on a host
  running at that speed, and a host that slows for a while moves them less;
- ``peak_rss_mb``: the largest peak RSS of a fistalab child in a pass,
  from its rusage; the median over the timed passes.

``failed``/``attempted`` is the failure fraction: an operation (one config
or one command) fails on a nonzero exit, a ``[FAIL]`` check, a trace.csv
hash that differs from the reference, or, for lab, different stdout.

``--trace 1`` runs ``replay.py`` in fresh interpreters, alternating
untraced and traced replays, and reports the per-layer metrics (medians
over the traced replays; counts must repeat exactly).

A first pass of the workload is always run, checked and discarded before
anything is timed. ``--seconds`` bounds the whole run, that first pass
included: timed passes (replay pairs with ``--trace 1``) repeat while
another one as long as the last still ends within it, and at least two
(one pair) always run. Children run with one BLAS thread.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import gate
import workloads
from spec import DEFAULT_SEED, END_TO_END, EXACT_COUNTS, PER_LAYER, RUN_SECONDS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_LIMIT_S = 150.0
PROBE_SECONDS = 0.5
# After each fistalab command of a timed pass, calibrate.py runs for this
# share of the command's wall time (at least once). run_s and setup_s are
# reported in units of its mean wall time in the run, times CALIBRATION_S:
# its typical time on the 2-vCPU VM the benchmark was defined on.
CALIBRATION_SHARE = 0.5
CALIBRATION_S = 0.5
CALIBRATION_STDOUT = "1644918.674122032 1875350\n"
BLAS_THREADS = "1"


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


@dataclass
class Finished:
    code: int
    wall_s: float
    cpu_s: float
    maxrss_kib: int
    stdout: str


def spawn(argv, cwd: Path, env: dict, log: Path) -> Finished:
    """Run one child to completion; wall time and peak RSS from its rusage."""
    out_path, err_path = log.with_suffix(".out"), log.with_suffix(".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        watchdog = threading.Timer(CHILD_LIMIT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = err_path.read_text(errors="replace")
    if proc.returncode != 0 and stderr:
        sys.stderr.write(stderr[-2000:])
    cpu = usage.ru_utime + usage.ru_stime
    return Finished(proc.returncode, wall, cpu, usage.ru_maxrss, out_path.read_text(errors="replace"))


@dataclass
class Pass:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    maxrss_kib: int = 0
    calibrations: list = field(default_factory=list)
    problems: dict = field(default_factory=dict)
    observed: dict = field(default_factory=gate.empty_observed)


class Bench:
    def __init__(self, root: Path, work: Path, workload: str, seed: int, size: str):
        self.work = work
        self.env = child_env(root)
        self.ops = workloads.generate(workload, seed, root, work, size)
        self.reference = gate.load_reference(workload, size)
        self.passes = []  # every judged Pass, warm-up and replays included
        self._n = 0

    def _log(self, stem: str) -> Path:
        self._n += 1
        logs = self.work / "logs"
        logs.mkdir(exist_ok=True)
        return logs / f"{self._n:04d}-{stem}"

    def python(self, script: str, args, stem: str) -> Finished:
        return spawn([sys.executable, str(HERE / script), *args], self.work, self.env, self._log(stem))

    def calibrate(self) -> float:
        done = self.python("calibrate.py", [], "calibrate")
        if done.code != 0 or done.stdout != CALIBRATION_STDOUT:
            raise RuntimeError(f"calibration exited with code {done.code} and printed {done.stdout!r}")
        return done.wall_s

    def cli_pass(self, calibration_share: float = 0.0) -> Pass:
        """Every fistalab command of the workload, one child at a time.

        With ``calibration_share``, calibration runs follow each command.
        """
        result = Pass()
        for op in self.ops:
            if op.is_run:
                shutil.rmtree(op.outdir, ignore_errors=True)
            done = spawn([sys.executable, "-m", "fistalab.cli", *op.argv], self.work, self.env, self._log("cli"))
            result.wall_s += done.wall_s
            result.cpu_s += done.cpu_s
            result.maxrss_kib = max(result.maxrss_kib, done.maxrss_kib)
            problems, observed = gate.judge(op, done.code, done.stdout)
            result.problems = gate.merge(result.problems, problems)
            for kind in observed:
                result.observed[kind].update(observed[kind])
            if calibration_share:
                result.calibrations += for_seconds(calibration_share * done.wall_s, self.calibrate)
        return result

    def expected(self, first: Pass) -> dict:
        return self.reference if self.reference is not None else first.observed

    def settle(self, passes, expected: dict) -> None:
        for p in passes:
            p.problems = gate.merge(p.problems, gate.compare(p.observed, expected))
        self.passes.extend(passes)

    def configs(self) -> list:
        return [c for op in self.ops for c in op.configs]


def child_json(done: Finished, what: str) -> dict:
    if done.code != 0:
        raise RuntimeError(f"{what} exited with code {done.code}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def cycles(deadline: float, at_least: int = 2):
    """Yield ``at_least`` times, then while another cycle as long as the last ends by ``deadline``."""
    done = 0
    while True:
        t0 = perf_counter()
        yield
        done += 1
        now = perf_counter()
        if done >= at_least and now + (now - t0) > deadline:
            return


def for_seconds(seconds: float, sample) -> list:
    """Call ``sample`` at least once and until ``seconds`` have passed."""
    values, t0 = [], perf_counter()
    while not values or perf_counter() - t0 < seconds:
        values.append(sample())
    return values


def measure_untraced(bench: Bench, deadline: float) -> tuple:
    # The host's speed drifts by tens of percent within seconds and over
    # minutes, so calibration runs are spread through the timed passes and
    # both times are reported in units of their mean wall time: like a
    # pass, the mean integrates the host's speed over the whole run.
    warm = bench.cli_pass()
    timed, setups = [], []
    for _ in cycles(deadline):
        timed.append(bench.cli_pass(CALIBRATION_SHARE))
        setups += for_seconds(PROBE_SECONDS, lambda: child_json(
            bench.python("probe.py", ["setup", *bench.configs()], "setup"), "setup probe")["setup_s"])
    bench.settle([warm, *timed], bench.expected(warm))

    cals = [c for p in timed for c in p.calibrations]
    run_wall = statistics.median(p.wall_s for p in timed)
    host = statistics.fmean(cals) / CALIBRATION_S
    metrics = {
        "run_s": run_wall / host,
        "setup_s": statistics.median(setups) / host,
        "peak_rss_mb": statistics.median(p.maxrss_kib for p in timed) * 1024 / 1e6,
    }
    notes = [
        f"timed passes: {len(timed)}; setup interpreters: {len(setups)}; calibration runs: {len(cals)}",
        "pass wall s: " + " ".join(f"{p.wall_s:.3f}" for p in timed) + "; cpu s: " + " ".join(f"{p.cpu_s:.3f}" for p in timed),
        "calibration wall s: " + " ".join(f"{c:.3f}" for c in cals),
        f"unscaled: median run {run_wall:.4f} s, median setup {statistics.median(setups):.4f} s, "
        f"mean calibration {statistics.fmean(cals):.4f} s (host factor {host:.4f})",
    ]
    return metrics, notes


def measure_traced(bench: Bench, deadline: float) -> tuple:
    warm = bench.cli_pass()
    expected = bench.expected(warm)
    bench.settle([warm], expected)
    ops_file = bench.work / "ops.json"
    ops_file.write_text(json.dumps([workloads.op_to_json(op) for op in bench.ops]))

    runs = {"0": [], "1": []}
    for _ in cycles(deadline, at_least=1):
        for flag in ("0", "1"):
            out = bench.work / "replay"
            shutil.rmtree(out, ignore_errors=True)
            done = child_json(bench.python("replay.py", [str(ops_file), str(out), flag], "replay"), "replay")
            replayed = Pass(wall_s=done["wall_s"], problems=done["problems"], observed=done["observed"])
            bench.settle([replayed], expected)
            runs[flag].append(done)

    traced = runs["1"]
    metrics = {name: statistics.median(r["metrics"][name] for r in traced) for name in PER_LAYER if name != "trace.overhead_frac"}
    for name in EXACT_COUNTS:
        values = {r["metrics"][name] for r in traced}
        metrics[name] = traced[0]["metrics"][name]
        if len(values) > 1:
            bench.passes.append(Pass(problems={f"count {name}": [f"differs between replays: {sorted(values)}"]}))
    untraced_wall = statistics.median(r["wall_s"] for r in runs["0"])
    metrics["trace.overhead_frac"] = statistics.median(r["wall_s"] for r in traced) / untraced_wall - 1.0
    return metrics, [f"replays: {len(runs['0'])} untraced, {len(traced)} traced"]


def missing_source(root: Path) -> str:
    for rel in ("src/fistalab/cli.py", "configs/fig1.json", "configs/fig1-pgm.json"):
        if not (root / rel).is_file():
            return rel
    return ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full", help="small is for the self-test")
    args = parser.parse_args(argv)
    deadline = perf_counter() + args.seconds
    # A terminated run still kills and reaps its child and removes its files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    gone = missing_source(ROOT)
    if gone:
        print(f"error: {ROOT} is not a fistalab source checkout ({gone} is missing)", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        bench = Bench(ROOT, work, args.workload, args.seed, args.size)
        environment = child_json(bench.python("probe.py", ["env"], "env"), "env probe")
        measure = measure_traced if args.trace else measure_untraced
        metrics, notes = measure(bench, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is still using it

    problems = gate.merge(*(p.problems for p in bench.passes))
    attempted = sum(len(p.problems) for p in bench.passes)
    failed = sum(1 for p in bench.passes for found in p.problems.values() if found)
    threads = environment["blas_threads"]
    if threads is None or threads > environment["nproc"]:
        failed += 1
        attempted += 1
        notes.append(f"BLAS threads {threads} exceed nproc {environment['nproc']}")

    units = {n: u for n, (u, *_) in {**END_TO_END, **PER_LAYER}.items()}
    reference = "recorded" if bench.reference is not None else "first pass (no recorded reference for this seed)"
    print(f"env: {json.dumps(environment, sort_keys=True)}")
    print(f"workload {args.workload}, seed {args.seed}, size {args.size}, trace {args.trace}; hash reference: {reference}")
    for note in notes:
        print(f"  {note}")
    print(f"  operations: {attempted} attempted, {failed} failed, fail_frac {failed / attempted:.4g}")
    for key, found in problems.items():
        for problem in found[:3]:
            print(f"  FAIL {key}: {problem}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
