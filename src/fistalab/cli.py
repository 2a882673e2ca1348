"""Experiment runner and reproduction entry points.

Subcommands:

  run <config.json> ...    execute configured runs, write trace/snapshot/
                           report artifacts, exit 0 only if all checks pass
  repro-fig1               emit the first iterates of the plane feasibility
                           demo as a plot-ready point list
  bcch-demo <name> <K>     run a bundled scalar-sequence transform scenario
  validate <schedule> <K>  certify a named step-parameter schedule prefix

Exit codes: 0 all checks passed, 1 at least one check failed, 2 usage or
configuration error, 3 numerical abort (a non-finite iterate; the partial
trace and a report with ``aborted_at_row`` are still written). Runs are
deterministic for a fixed config and seed; rerunning a config reproduces
its trace CSV byte for byte.

``run`` formats trace.csv in a forked writer process while the solver
iterates where a second CPU is usable, and after the run otherwise. Every
artifact is written under a temporary name in the output directory and
renamed into place, trace.csv first and report.json last, so a crash
never leaves a half-written file; a run that fails before writing its
artifacts leaves the previous ones as they were.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from .checks import ANALYSES, run_analyses
from .diagnostics import ScalarSeq, verdict
from .families import FAMILIES, build_problem, feasibility_problem
from .scalar_transform import SCENARIO_NAMES, divergence_witness, get_scenario
from .schedule import Schedule, check_tk_bounds, validate_schedule
from .solver import (
    NonFiniteIterateError,
    fista_run,
    nesterov_run,
    pgm_run,
    strict_json,
    write_atomically,
)

__all__ = ["main", "run_config", "repro_fig1", "bcch_demo", "validate_command", "ConfigError"]


class ConfigError(ValueError):
    """The experiment configuration cannot be used as given."""


_ALLOWED_KEYS = {
    "problem",
    "algorithm",
    "x0",
    "schedule",
    "iterations",
    "s_refs",
    "snapshot_every",
    "analyses",
    "output_dir",
    "seed",
}
_ALGORITHMS = ("fista", "pgm", "nesterov")


def _load_config(path: Path) -> dict:
    try:
        raw = json.loads(path.read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")

    unknown = set(raw) - _ALLOWED_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key in ("problem", "x0", "iterations"):
        if key not in raw:
            raise ConfigError(f"config is missing required key {key!r}")

    problem = raw["problem"]
    if not isinstance(problem, dict) or "family" not in problem:
        raise ConfigError("'problem' must be an object with a 'family' key")
    if set(problem) - {"family", "params"}:
        raise ConfigError("'problem' accepts only 'family' and 'params'")
    if problem["family"] not in FAMILIES:
        raise ConfigError(
            f"unknown problem family {problem['family']!r}; known: {sorted(FAMILIES)}"
        )

    algorithm = raw.get("algorithm", "fista")
    if algorithm not in _ALGORITHMS:
        raise ConfigError(f"algorithm must be one of {_ALGORITHMS}, got {algorithm!r}")
    if algorithm != "pgm" and "schedule" not in raw:
        raise ConfigError(f"algorithm {algorithm!r} needs a 'schedule'")

    iterations = raw["iterations"]
    if not isinstance(iterations, int) or iterations < 1:
        raise ConfigError("iterations must be an integer >= 1")
    snapshot_every = raw.get("snapshot_every", 1)
    if not isinstance(snapshot_every, int) or snapshot_every < 1:
        raise ConfigError("snapshot_every must be an integer >= 1")
    seed = raw.get("seed", 0)
    if not isinstance(seed, int):
        raise ConfigError("seed must be an integer")

    for entry in raw.get("analyses", []):
        if isinstance(entry, str):
            name = entry
        elif isinstance(entry, dict) and "name" in entry:
            name = entry["name"]
        else:
            raise ConfigError(f"bad analysis entry {entry!r}")
        if name not in ANALYSES:
            raise ConfigError(f"unknown analysis {name!r}; known: {sorted(ANALYSES)}")
    return raw


def run_config(config_path, output_dir=None, seed=None) -> int:
    """Execute one experiment config; returns the process exit code.

    Where a second CPU is usable, a forked writer formats trace.csv while
    the solver iterates (see :class:`~fistalab._sink.CsvSink`); otherwise
    trace.csv is formatted after the run. The artifacts follow the checks in
    the order trace.csv, snapshots.json, report.json, each written under a
    temporary name and renamed, so every file is replaced whole. A run that
    fails before writing its artifacts leaves the previous ones as they
    were; one that fails while writing them may leave the newer files next
    to older ones.
    """
    path = Path(config_path)
    aborted = None
    try:
        cfg = _load_config(path)
        problem = build_problem(cfg["problem"]["family"], cfg["problem"].get("params"))
        algorithm = cfg.get("algorithm", "fista")
        out = Path(output_dir) if output_dir is not None else None
        if out is None:
            if "output_dir" not in cfg:
                raise ConfigError("no output directory (config 'output_dir' or --output-dir)")
            out = Path(cfg["output_dir"])
        use_seed = cfg.get("seed", 0) if seed is None else seed

        # imported only here: without cached bytecode, compiling it slows every other command
        from ._sink import CsvSink, spare_cpu

        out.mkdir(parents=True, exist_ok=True)
        sink = CsvSink(out / "trace.csv") if spare_cpu() else None
        with sink or contextlib.nullcontext():
            common = dict(
                s_refs=cfg.get("s_refs", ()),
                snapshot_every=cfg.get("snapshot_every", 1),
                csv_sink=sink,
            )
            try:
                if algorithm == "pgm":
                    trace = pgm_run(problem, cfg["x0"], cfg["iterations"], **common)
                else:
                    runner = fista_run if algorithm == "fista" else nesterov_run
                    trace = runner(problem, cfg["x0"], cfg["schedule"], cfg["iterations"], **common)

                rng = np.random.default_rng(use_seed)
                results = run_analyses(trace, problem, cfg.get("analyses", []), rng)
            except NonFiniteIterateError as exc:
                trace, aborted, results = exc.trace, exc, []
            if sink is not None:
                sink.commit()
    except (ConfigError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    failing = [r.claim for r in results if not r.passed]
    report = {
        "config": path.name,
        "problem": trace.problem_id,
        "algorithm": trace.kind,
        "schedule": trace.schedule_id,
        "iterations": len(trace) - 1,
        "seed": use_seed,
        "checks": [r.to_json() for r in results],
        "all_pass": not failing and aborted is None,
        "failing": failing,
    }
    if aborted is not None:
        report["aborted_at_row"] = aborted.row
    try:
        trace_path = out / "trace.csv"
        if sink is None:
            write_atomically(trace_path, trace.to_csv)
        snapshots_path = write_atomically(
            out / "snapshots.json", lambda tmp: tmp.write_text(strict_json(trace.snapshot_payload()))
        )
        report_path = write_atomically(out / "report.json", lambda tmp: tmp.write_text(strict_json(report)))
    except OSError as exc:
        print(f"error: cannot write artifacts: {exc}", file=sys.stderr)
        return 2
    if aborted is not None:
        print(f"error: {aborted}; partial trace saved to {out}", file=sys.stderr)
        return 3

    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] {r.claim}: {r.residual_or_oscillation!r}")
    print(f"artifacts: {trace_path}, {snapshots_path}, {report_path}")
    if failing:
        print(f"FAILED checks: {', '.join(failing)}")
        return 1
    return 0


def repro_fig1(output_dir=".") -> Path:
    """Write the first 25 iterates of the plane feasibility demo.

    Two whitespace-separated columns per point, comment-separated blocks:
    the iterate path, then the endpoints of the solution segment.
    """
    problem = feasibility_problem()
    trace = fista_run(problem, [5.0, 0.0], "bt", 24)
    lines = ["# FISTA iterates x_0..x_24, plane feasibility demo, x0=(5,0)"]
    for row in trace.xs:
        lines.append(f"{row[0]:.17g} {row[1]:.17g}")
    lines.append("")
    lines.append("# solution segment endpoints")
    lines.append("0 1")
    lines.append("1 0")
    path = Path(output_dir) / "fig1_points.dat"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")
    print(f"wrote {path}")
    return path


def _print_verdict(label: str, v) -> None:
    print(
        f"  {label}: converged={v.converged} limit_estimate={v.limit_estimate:.12g} "
        f"oscillation={v.tail_oscillation:.3g} (window={v.window}, tol={v.tol:g})"
    )


def bcch_demo(name: str, count: int, ell: float = 1.0, window: int = 100, tol: float = 1e-2) -> int:
    """Run a bundled transform scenario and print its verdicts.

    The demo tolerance is relative to max(1, |expected limit|); scenarios
    with an infinite expected limit are judged by hurdle exceedance instead
    of a verdict.
    """
    try:
        scenario = get_scenario(name, ell=ell)
    except KeyError as exc:
        raise ConfigError(exc.args[0]) from None
    if count < 4:
        raise ConfigError("need at least 4 terms for a meaningful demo")
    h = scenario.h_values(count)
    g = scenario.g_values(count)
    win = max(2, min(window, count // 2))
    expected = scenario.expected_limit
    rel = max(1.0, abs(expected)) if math.isfinite(expected) else 1.0
    gv = verdict(ScalarSeq(g, start=scenario.start, label="g"), win, tol * rel)
    hv = verdict(ScalarSeq(h, start=scenario.start, label="h"), win, tol * rel)

    print(f"scenario {scenario.name}: start k={scenario.start}, {count} terms")
    print(f"  provenance: {scenario.provenance}")
    _print_verdict("g verdict", gv)
    _print_verdict("h verdict", hv)

    wit = divergence_witness(scenario.phi, count, start=scenario.start)
    print(
        f"  divergence witness: sum 1/phi = {wit.inv_phi[-1]:.6g}, "
        f"sum 1/(1+phi) = {wit.inv_one_plus_phi[-1]:.6g}, "
        f"chain inequality ok = {wit.chain_ok}, "
        f"log prod lambda = {wit.log_weight_product:.6g}"
    )
    if math.isfinite(expected):
        print(f"  expected limit {expected:.17g}; |h_end - expected| = {abs(h[-1] - expected):.3g}")
    else:
        hurdle = 1e3
        reached = h[-1] > hurdle if expected > 0 else h[-1] < -hurdle
        print(f"  hurdle {hurdle:g}: h_end = {h[-1]:.6g}, exceeded = {reached}")
    return 0


_VALIDATE_SCHEDULES = ("bt", "linear", "constant-ones")


def validate_command(name: str, count: int) -> int:
    """Certify a named schedule prefix t_0..t_count; exit 1 when invalid."""
    if count < 3:
        raise ConfigError("need K >= 3 to exercise the index-2 bounds")
    if name in ("bt", "linear"):
        ts = Schedule(name).prefix(count)
    elif name == "constant-ones":
        ts = np.ones(count + 1)
    else:
        raise ConfigError(f"unknown schedule {name!r}; known: {_VALIDATE_SCHEDULES}")

    report = validate_schedule(ts)
    bounds = check_tk_bounds(ts)
    print(f"schedule {name}: {count + 1} terms, final t = {ts[-1]:.17g}")
    print(
        f"  growth residual min = {float(np.min(report.growth_residuals[1:])):.3g}, "
        f"violations = {len(report.growth_violations)}"
    )
    print(
        f"  quadratic residual min = {float(np.min(report.quadratic_residuals)):.3g}, "
        f"scaled |residual| max = {report.quadratic_scaled_abs_max:.3g}, "
        f"violations = {len(report.quadratic_violations)}"
    )
    print(
        f"  bounds 1 <= t_k - 1 <= k: lower violations = {len(bounds.lower_violations)}, "
        f"upper violations = {len(bounds.upper_violations)}"
    )
    print(f"  sum over k=2..{count} of 1/(t_k - 1) = {bounds.total:.6g}")
    if report.valid and bounds.valid:
        print("  verdict: VALID")
        return 0
    for k, res in report.growth_violations[:5]:
        print(f"  growth violated at k={k} (scaled residual {res:.3g})")
    for k, res in report.quadratic_violations[:5]:
        print(f"  quadratic violated at k={k} (scaled residual {res:.3g})")
    print("  verdict: INVALID")
    return 1


def _run_entry(args_tuple) -> int:
    return run_config(*args_tuple)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fistalab", description="composite-minimization solver lab and experiment runner"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute experiment configs")
    p_run.add_argument("configs", nargs="+", help="JSON config paths")
    p_run.add_argument("--output-dir", default=None, help="override the config output directory")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--jobs", type=int, default=1, help="run configs concurrently")

    p_fig = sub.add_parser("repro-fig1", help="emit the plane-demo iterate point list")
    p_fig.add_argument("--output-dir", default=".", help="where to write fig1_points.dat")

    p_demo = sub.add_parser("bcch-demo", help="scalar-sequence transform scenario demo")
    p_demo.add_argument("name", help=f"one of {list(SCENARIO_NAMES)}")
    p_demo.add_argument("K", type=int, help="number of terms")
    p_demo.add_argument("--ell", type=float, default=1.0, help="limit parameter where free")
    p_demo.add_argument("--window", type=int, default=100)
    p_demo.add_argument("--tol", type=float, default=1e-2, help="relative verdict tolerance")

    p_val = sub.add_parser("validate", help="certify a schedule prefix")
    p_val.add_argument("name", help=f"one of {_VALIDATE_SCHEDULES}")
    p_val.add_argument("K", type=int, help="largest index to generate")

    args = parser.parse_args(argv)

    try:
        if args.command == "run":
            items = [(c, args.output_dir, args.seed) for c in args.configs]
            if args.output_dir is not None and len(args.configs) > 1:
                # per-config subdirectories keep concurrent runs apart
                items = [
                    (c, str(Path(args.output_dir) / Path(c).stem), args.seed)
                    for c in args.configs
                ]
            if args.jobs > 1 and len(items) > 1:
                # imported only here: concurrent.futures and multiprocessing slow every start-up
                from concurrent.futures import ProcessPoolExecutor

                with ProcessPoolExecutor(max_workers=args.jobs) as pool:
                    codes = list(pool.map(_run_entry, items))
            else:
                codes = [_run_entry(item) for item in items]
            return max(codes)
        if args.command == "repro-fig1":
            repro_fig1(args.output_dir)
            return 0
        if args.command == "bcch-demo":
            return bcch_demo(args.name, args.K, ell=args.ell, window=args.window, tol=args.tol)
        if args.command == "validate":
            return validate_command(args.name, args.K)
    except (ConfigError, KeyError, ValueError) as exc:
        msg = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {msg}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
