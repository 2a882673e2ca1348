"""Traced in-process replay of a workload through fistalab's public functions.

    python3 perfbench/replay.py OPS_JSON OUTDIR TRACED

Replays each operation the way ``fistalab`` would run it and prints one
JSON object: the body's wall time, the per-layer metrics, the trace.csv
hashes and lab stdout (for the gate), and any failing checks.

All timing and counting lives here, around the calls into each module:

- ``f``/``g`` callables of each built problem are wrapped with
  ``dataclasses.replace`` to count and time gradient, prox and value calls;
- ``run`` configs are replayed step by step (build_problem, schedule
  prefix, fista_run/pgm_run on the pre-extended schedule, each named
  check, save, Trace.load);
- lab commands call ``cli.validate_command``/``cli.bcch_demo`` with timed
  stand-ins for the names that ``fistalab.cli`` imported, stdout captured.

A span's time excludes nested spans (``h_values`` calling ``g_values``
counts once), and ``solver.save_s`` excludes the ``to_csv`` it calls.
With TRACED=0 nothing is wrapped, which gives the untraced wall time that
``trace.overhead_frac`` compares against.
"""

from time import perf_counter

_START = perf_counter()
import fistalab.cli as cli  # noqa: E402

_IMPORT_S = perf_counter() - _START

import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from fistalab import Schedule, Trace, build_problem, fista_run, pgm_run  # noqa: E402
from fistalab.checks import ANALYSES  # noqa: E402
from fistalab.scalar_transform import Scenario  # noqa: E402

from gate import empty_observed, sha256_file  # noqa: E402
from spec import PER_LAYER  # noqa: E402
from workloads import op_from_json  # noqa: E402

FAMILY_CALLS = ("families.grad", "families.prox", "families.value")


class Tracer:
    """Seconds and call counts keyed by layer metric stem (``solver.run``)."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self._nested = [0.0]

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        self._nested.append(0.0)
        t0 = perf_counter()
        try:
            yield
        finally:
            took = perf_counter() - t0
            self.seconds[name] += took - self._nested.pop()
            self._nested[-1] += took

    def timed(self, fn, name: str):
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def counted(self, fn, name: str):
        """A hot callable's time and call count, without the span stack."""
        seconds, calls = self.seconds, self.calls

        def wrapper(*args):
            t0 = perf_counter()
            out = fn(*args)
            seconds[name] += perf_counter() - t0
            calls[name] += 1
            return out

        return wrapper

    def family_seconds(self) -> float:
        return sum(self.seconds[name] for name in FAMILY_CALLS)


def instrument(problem, tracer: Tracer):
    f = dataclasses.replace(
        problem.f,
        value=tracer.counted(problem.f.value, "families.value"),
        gradient=tracer.counted(problem.f.gradient, "families.grad"),
    )
    g = dataclasses.replace(
        problem.g,
        value=tracer.counted(problem.g.value, "families.value"),
        prox=tracer.counted(problem.g.prox, "families.prox"),
    )
    return dataclasses.replace(problem, f=f, g=g)


def patch_cli(tracer: Tracer) -> None:
    """Time the lab functions as ``fistalab.cli`` calls them."""

    class TimedSchedule(Schedule):
        def prefix(self, k_max):
            with tracer.span("schedule.prefix"):
                return super().prefix(k_max)

    class TimedScenario(Scenario):
        def h_values(self, count):
            with tracer.span("scalar_transform.h_values"):
                return super().h_values(count)

        def g_values(self, count):
            with tracer.span("scalar_transform.g_values"):
                return super().g_values(count)

    get_scenario = cli.get_scenario

    def timed_scenario(name, ell=1.0):
        found = get_scenario(name, ell)
        return TimedScenario(**{f.name: getattr(found, f.name) for f in dataclasses.fields(found)})

    cli.Schedule = TimedSchedule
    cli.get_scenario = timed_scenario
    cli.validate_schedule = tracer.timed(cli.validate_schedule, "schedule.validate")
    cli.check_tk_bounds = tracer.timed(cli.check_tk_bounds, "schedule.tk_bounds")
    cli.verdict = tracer.timed(cli.verdict, "diagnostics.verdict")
    cli.divergence_witness = tracer.timed(cli.divergence_witness, "scalar_transform.witness")


def replay_config(path: Path, outdir: Path, tracer: Tracer, totals: dict) -> list:
    """Run one config as ``fistalab run`` does; returns its failing claims."""
    cfg = json.loads(path.read_text())
    with tracer.span("families.build_problem"):
        problem = build_problem(cfg["problem"]["family"], cfg["problem"].get("params"))
    if tracer.enabled:
        problem = instrument(problem, tracer)
    common = dict(s_refs=cfg.get("s_refs", ()), snapshot_every=cfg.get("snapshot_every", 1))
    algorithm = cfg.get("algorithm", "fista")
    family_before = tracer.family_seconds()
    if algorithm == "pgm":
        with tracer.span("solver.run"):
            trace = pgm_run(problem, cfg["x0"], cfg["iterations"], **common)
    elif algorithm == "fista":
        schedule = Schedule(cfg["schedule"])
        with tracer.span("schedule.prefix"):
            schedule.prefix(cfg["iterations"])
        with tracer.span("solver.run"):
            trace = fista_run(problem, cfg["x0"], schedule, cfg["iterations"], **common)
    else:
        raise ValueError(f"replay does not cover algorithm {algorithm!r}")
    totals["solver.family_s"] += tracer.family_seconds() - family_before

    rng = np.random.default_rng(cfg.get("seed", 0))
    results = []
    for entry in cfg.get("analyses", []):
        params = {"name": entry} if isinstance(entry, str) else dict(entry)
        name = params.pop("name")
        with tracer.span(f"checks.{name}"):
            results.extend(ANALYSES[name](trace, problem, params, rng))

    if tracer.enabled:
        to_csv = trace.to_csv
        trace.to_csv = tracer.timed(to_csv, "solver.to_csv")
    with tracer.span("solver.save"):
        trace.save(outdir)
    with tracer.span("solver.load"):
        Trace.load(outdir)

    totals["solver.rows"] += len(trace)
    totals["solver.csv_bytes"] += (outdir / "trace.csv").stat().st_size
    totals["solver.snapshots_bytes"] += (outdir / "snapshots.json").stat().st_size
    totals["solver.vector_bytes"] += trace.xs.nbytes + trace.ys.nbytes + trace.zs.nbytes
    return [r.claim for r in results if not r.passed]


def replay_command(argv, tracer: Tracer) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        if argv[0] == "validate":
            code = cli.validate_command(argv[1], int(argv[2]))
        elif argv[0] == "bcch-demo":
            code = cli.bcch_demo(argv[1], int(argv[2]))
        else:
            raise ValueError(f"replay does not cover command {argv[0]!r}")
    return code, out.getvalue()


def metrics_of(tracer: Tracer, totals: dict) -> dict:
    metrics = {name: 0 if unit in ("count", "bytes") else 0.0 for name, (unit, *_) in PER_LAYER.items() if name != "trace.overhead_frac"}
    metrics["cli.import_s"] = _IMPORT_S
    for stem, secs in tracer.seconds.items():
        metrics[f"{stem}_s"] = secs
    for stem, count in tracer.calls.items():
        metrics[f"{stem}_calls"] = count
    metrics["checks.total_s"] = sum(v for k, v in metrics.items() if k.startswith("checks.") and k != "checks.total_s")
    metrics["solver.self_s"] = metrics["solver.run_s"] - totals.pop("solver.family_s")
    metrics.update(totals)
    unknown = set(metrics) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"metrics missing from spec.PER_LAYER: {sorted(unknown)}")
    return metrics


def replay(ops, outdir: Path, traced: bool) -> dict:
    tracer = Tracer(traced)
    if traced:
        patch_cli(tracer)
    totals = defaultdict(int, {"solver.family_s": 0.0})
    observed = empty_observed()
    problems = {}
    began = perf_counter()
    for op in ops:
        if op.is_run:
            for config in op.configs:
                name = Path(config).stem
                failing = replay_config(Path(config), outdir / name, tracer, totals)
                problems[name] = [f"failing checks: {failing}"] if failing else []
                observed["trace_sha256"][name] = sha256_file(outdir / name / "trace.csv")
        else:
            code, text = replay_command(op.argv, tracer)
            problems[op.label] = [f"exit code {code}"] if code else []
            observed["stdout"][op.label] = text
    wall = perf_counter() - began
    return {"wall_s": wall, "metrics": metrics_of(tracer, totals), "observed": observed, "problems": problems}


if __name__ == "__main__":
    ops_path, out_root, traced_flag = sys.argv[1:4]
    ops = [op_from_json(d) for d in json.loads(Path(ops_path).read_text())]
    print(json.dumps(replay(ops, Path(out_root), traced_flag == "1")))
