"""Experiment runner and reproduction entry points.

Subcommands:

  run <config.json> ...    execute configured runs, write trace/snapshot/
                           report artifacts, exit 0 only if all checks pass
  repro-fig1               emit the first iterates of the plane feasibility
                           demo as a plot-ready point list
  bcch-demo <name> <K>     run a bundled scalar-sequence transform scenario at
                           its default limit; it takes no options
  validate <schedule> <K>  certify a named step-parameter schedule prefix

Exit codes: 0 all checks passed, 1 at least one check failed, 2 usage or
configuration error (a size too large to allocate and an unusable output
directory included), 3 numerical abort (a non-finite iterate or a NaN
objective value; the partial trace and a report with ``aborted_at_row``
are still written). Runs are deterministic for a fixed config and seed;
rerunning a config reproduces its trace CSV byte for byte.

``run`` folds the configured checks over each block of rows as the solver
builds it (:class:`~fistalab.checks.AnalysisStream`) and writes the
block's trace.csv rows as it goes, so it keeps x, y and z and the scalar
columns only in a window of a few thousand rows (and x, y and z at the
snapshot rows); only the schedule's t_k stay full length. Every artifact
is written under a temporary name in the output directory and renamed
into place, trace.csv first (by the run, as it ends) and report.json
last, so a crash never leaves a half-written file; a run that fails
before the first rename leaves the previous artifacts as they were.
``--output-dir`` and ``--seed`` are checked as the config keys they
replace, and the output directory is created by the first chunk's
trace.csv write, so a run that fails at set-up leaves nothing on disk.

``validate`` and ``bcch-demo`` load only :mod:`~fistalab.schedule`,
:mod:`~fistalab.scalar_transform` and :mod:`~fistalab.diagnostics`: the
solver, the problem families and the checks are imported inside
:func:`run_config`, the config loader and :func:`repro_fig1`, the only
code that calls them.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .diagnostics import ScalarSeq, verdict
from .scalar_transform import SCENARIO_NAMES, divergence_witness, get_scenario
from .schedule import Schedule, _certify, check_tk_bounds, validate_schedule

# validate folds over the certifier's blocks; the whole-array validate_schedule and
# check_tk_bounds stay importable here because perfbench/replay.py wraps these names.

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


def _load_config(path: Path, overrides=None) -> dict:
    """The config at ``path`` with ``overrides`` (command-line values) put over its keys, checked."""
    from .checks import _real

    try:
        raw = json.loads(path.read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    raw.update(overrides or {})

    unknown = set(raw) - _ALLOWED_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key in ("problem", "x0", "iterations"):
        if key not in raw:
            raise ConfigError(f"config is missing required key {key!r}")

    problem = raw["problem"]
    if not isinstance(problem, dict) or not isinstance(problem.get("family"), str):
        raise ConfigError("'problem' must be an object with a string 'family'")
    if set(problem) - {"family", "params"}:
        raise ConfigError("'problem' accepts only 'family' and 'params'")

    algorithm = raw.get("algorithm", "fista")
    if algorithm not in _ALGORITHMS:
        raise ConfigError(f"algorithm must be one of {_ALGORITHMS}, got {algorithm!r}")
    if algorithm == "pgm" and "schedule" in raw:
        raise ConfigError("algorithm 'pgm' takes no 'schedule'")
    if algorithm != "pgm" and "schedule" not in raw:
        raise ConfigError(f"algorithm {algorithm!r} needs a 'schedule'")
    schedule = raw.get("schedule", "bt")
    if not (isinstance(schedule, str) or isinstance(schedule, list) and _real(schedule)):
        raise ConfigError("schedule must be a rule name or a list of real numbers")
    for key in ("x0", "s_refs"):
        value = raw.get(key, [])
        if not (isinstance(value, list) and _real(value)):
            raise ConfigError(f"{key} must be a list of real numbers or of lists of them")
    if "output_dir" not in raw:
        raise ConfigError("no output directory (config 'output_dir' or --output-dir)")
    if not isinstance(raw["output_dir"], str):
        raise ConfigError("output_dir must be a string")
    # a bool is not an integer here, as for check parameters
    for key, least in (("iterations", 1), ("snapshot_every", 1), ("seed", 0)):
        value = raw.get(key, least)
        if not isinstance(value, int) or isinstance(value, bool) or value < least:
            raise ConfigError(f"{key} must be an integer >= {least}")
    if not isinstance(raw.get("analyses", []), list):
        raise ConfigError("analyses must be a list")
    return raw


def run_config(config_path, output_dir=None, seed=None) -> int:
    """Execute one experiment config; returns the process exit code.

    The checks are set up before the first row (every probe draw from the
    seeded rng happens there, in analysis order) and folded over the rows
    as the run builds them, so the run holds no full x, y or z arrays; a
    bad check parameter fails before the run. The run writes trace.csv
    chunk by chunk as it builds the rows, under a temporary name, and
    holds only a window of its scalar columns (all but the schedule ``ts``)
    too. The run itself renames trace.csv into place as it ends, an abort
    included; then snapshots.json and report.json follow, each written
    under a temporary name and renamed, so every file is replaced whole. A
    run that fails before that first rename (a KeyboardInterrupt included)
    removes its temporary file and leaves the previous artifacts as they
    were; one that fails after it may leave the newer files next to older
    ones.

    ``output_dir`` and ``seed``, where given, replace the config's keys and
    are checked as they are. The first chunk's write creates the output
    directory. So a run that fails at set-up creates no directory, and an
    unusable output path (one below a regular file) is reported there, as
    exit 2. A run that fails after that leaves the directory it created,
    without a file of its own.
    """
    from .checks import AnalysisStream
    from .families import build_problem
    from .solver import NonFiniteIterateError, _start, write_json

    path = Path(config_path)
    aborted = None
    try:
        overrides = {"output_dir": None if output_dir is None else str(output_dir), "seed": seed}
        cfg = _load_config(path, {k: v for k, v in overrides.items() if v is not None})
        problem = build_problem(cfg["problem"]["family"], cfg["problem"].get("params"))
        out = Path(cfg["output_dir"])
        seed = cfg.get("seed", 0)
        analyses = AnalysisStream(problem, cfg.get("analyses", []), np.random.default_rng(seed))
    except (ConfigError, ValueError, KeyError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    csv_path = out / "trace.csv"
    try:
        trace = _start(
            cfg.get("algorithm", "fista"), problem, cfg["x0"], cfg.get("schedule"), cfg["iterations"],
            cfg.get("s_refs", ()), cfg.get("snapshot_every", 1), stream=(analyses, csv_path),
        )
        results = analyses.results()
    except NonFiniteIterateError as exc:
        trace, aborted, results = exc.trace, exc, []
    except OSError as exc:  # the run's only file is trace.csv
        print(f"error: cannot write artifacts: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    failing = [r.claim for r in results if not r.passed]
    report = {
        "config": path.name,
        "problem": trace.problem_id,
        "algorithm": trace.kind,
        "schedule": trace.schedule_id,
        "iterations": len(trace) - 1,
        "seed": seed,
        "checks": [r.to_json() for r in results],
        "all_pass": not failing and aborted is None,
        "failing": failing,
    }
    if aborted is not None:
        report["aborted_at_row"] = aborted.row
    try:
        snapshots = write_json(out / "snapshots.json", trace.snapshot_payload())
        report_path = write_json(out / "report.json", report)
    except OSError as exc:
        print(f"error: cannot write artifacts: {exc}", file=sys.stderr)
        return 2
    if aborted is not None:
        print(f"error: {aborted}; partial trace saved to {out}", file=sys.stderr)
        return 3

    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] {r.claim}: {r.residual_or_oscillation!r}")
    print(f"artifacts: {csv_path}, {snapshots}, {report_path}")
    if failing:
        print(f"FAILED checks: {', '.join(failing)}")
        return 1
    return 0


def repro_fig1(output_dir=".") -> Path:
    """Write the first 25 iterates of the plane feasibility demo.

    Two whitespace-separated columns per point, comment-separated blocks:
    the iterate path, then the endpoints of the solution segment.
    """
    from .families import feasibility_problem
    from .solver import fista_run, write_atomically

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
    write_atomically(path, lambda tmp: tmp.write_text("\n".join(lines) + "\n"))
    print(f"wrote {path}")
    return path


def _print_verdict(label: str, v) -> None:
    print(
        f"  {label}: converged={v.converged} limit_estimate={v.limit_estimate:.12g} "
        f"oscillation={v.tail_oscillation:.3g} (window={v.window}, tol={v.tol:g})"
    )


def bcch_demo(name: str, count: int) -> int:
    """Run a bundled transform scenario at its default limit and print its verdicts.

    The verdicts take the last min(100, count // 2) terms and a tolerance of
    1e-2 relative to max(1, |expected limit|); scenarios with an infinite
    expected limit are judged by hurdle exceedance instead of a verdict.

    One pass over the scenario's blocks keeps the last 2 * window terms of
    h and g (the shortest sequence :func:`verdict` judges at that window)
    and folds :func:`divergence_witness` over each block's phi, so memory
    does not grow with count. The sums of 1/phi and 1/(1+phi) continue from
    block to block as one ``np.cumsum`` adds; only sum log lambda, summed
    block by block, may differ from the whole-array witness in its last bits.
    """
    try:
        scenario = get_scenario(name)
    except KeyError as exc:
        raise ConfigError(exc.args[0]) from None
    if count < 4:
        raise ConfigError("need at least 4 terms for a meaningful demo")
    win = min(100, count // 2)
    h_tail = g_tail = np.empty(0)
    sums = [0.0, 0.0]  # of 1/phi and 1/(1+phi)
    chain_ok, log_weight_product = True, 0.0
    for lo, phis, h, g in scenario.blocks(count):
        h_tail, g_tail = np.concatenate((h_tail, h))[-2 * win :], np.concatenate((g_tail, g))[-2 * win :]
        wit = divergence_witness(phis, phis.size, start=scenario.start + lo)
        chain_ok &= wit.chain_ok
        log_weight_product += wit.log_weight_product
        for i, terms in enumerate((1.0 / phis, 1.0 / (1.0 + phis))):
            terms[0] += sums[i]  # the witness's sums start over in each block
            sums[i] = np.cumsum(terms)[-1]
    expected = scenario.expected_limit
    tol = 1e-2 * max(1.0, abs(expected)) if math.isfinite(expected) else 1e-2

    print(f"scenario {scenario.name}: start k={scenario.start}, {count} terms")
    print(f"  provenance: {scenario.provenance}")
    _print_verdict("g verdict", verdict(ScalarSeq(g_tail), win, tol))
    _print_verdict("h verdict", verdict(ScalarSeq(h_tail), win, tol))
    print(
        f"  divergence witness: sum 1/phi = {sums[0]:.6g}, "
        f"sum 1/(1+phi) = {sums[1]:.6g}, "
        f"chain inequality ok = {chain_ok}, "
        f"log prod lambda = {log_weight_product:.6g}"
    )
    h_end = h_tail[-1]
    if math.isfinite(expected):
        print(f"  expected limit {expected:.17g}; |h_end - expected| = {abs(h_end - expected):.3g}")
    else:
        hurdle = 1e3
        reached = h_end > hurdle if expected > 0 else h_end < -hurdle
        print(f"  hurdle {hurdle:g}: h_end = {h_end:.6g}, exceeded = {reached}")
    return 0


_VALIDATE_SCHEDULES = ("bt", "linear", "constant-ones")


def validate_command(name: str, count: int) -> int:
    """Certify a named schedule prefix t_0..t_count; exit 1 when invalid.

    The prefix is one full-length array; the certificate is one pass over
    the certifier's blocks that keeps only what is printed: each block's
    residual minima, scaled maximum and violation counts, the first 5
    violations of each condition, and the running sum.
    """
    if count < 3:
        raise ConfigError("need K >= 3 to exercise the index-2 bounds")
    if name in ("bt", "linear"):
        ts = Schedule(name).prefix(count)
    elif name == "constant-ones":
        ts = np.ones(count + 1)
    else:
        raise ConfigError(f"unknown schedule {name!r}; known: {_VALIDATE_SCHEDULES}")
    summary, shown = [], ([], [])
    for lo, report, bounds in _certify(ts):
        found = (report.growth_violations, report.quadratic_violations)
        summary.append(
            [
                np.min(report.growth_residuals[1 if lo == 0 else 0 :]),  # k >= 1
                np.min(report.quadratic_residuals),
                report.quadratic_scaled_abs_max,
                *(v.size for v in (*found, bounds.lower_violations, bounds.upper_violations)),
            ]
        )
        for kept, violations in zip(shown, found):
            kept.extend(violations[: 5 - len(kept)])
    growth_min, quad_min = np.min(summary, axis=0)[:2]
    quad_max = np.max(summary, axis=0)[2]
    n_growth, n_quad, n_lower, n_upper = (int(n) for n in np.sum(summary, axis=0)[3:])
    print(f"schedule {name}: {ts.size} terms, final t = {ts[-1]:.17g}")
    print(f"  growth residual min = {growth_min:.3g}, violations = {n_growth}")
    print(
        f"  quadratic residual min = {quad_min:.3g}, "
        f"scaled |residual| max = {quad_max:.3g}, "
        f"violations = {n_quad}"
    )
    print(f"  bounds 1 <= t_k - 1 <= k: lower violations = {n_lower}, upper violations = {n_upper}")
    print(f"  sum over k=2..{ts.size - 1} of 1/(t_k - 1) = {bounds.total:.6g}")
    if n_growth + n_quad + n_lower + n_upper == 0:
        print("  verdict: VALID")
        return 0
    for k, res in shown[0]:
        print(f"  growth violated at k={k} (scaled residual {res:.3g})")
    for k, res in shown[1]:
        print(f"  quadratic violated at k={k} (scaled residual {res:.3g})")
    print("  verdict: INVALID")
    return 1


def _output_dirs(configs: list, output_dir) -> list:
    """Each config's ``output_dir`` override: ``output_dir`` itself for one config, else its stem under it.

    Several configs that would write to one directory, whether it comes
    from ``output_dir`` or from their own ``output_dir`` keys, are a
    ConfigError before the first run, since a later run would overwrite
    an earlier one. A config that does not load is left to fail in its
    own turn.
    """
    if len(configs) == 1:
        return [output_dir]
    if output_dir is None:
        outs = [None] * len(configs)
    else:
        outs = [str(Path(output_dir) / Path(c).stem) for c in configs]
    owners = {}
    for config, out in zip(configs, outs):
        try:
            out = _load_config(Path(config))["output_dir"] if out is None else out
        except (ValueError, OSError):
            continue
        where = Path(out).resolve()
        if where in owners:
            raise ConfigError(f"configs {owners[where]} and {config} would both write to {out}")
        owners[where] = config
    return outs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fistalab", description="composite-minimization solver lab and experiment runner"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute experiment configs")
    p_run.add_argument("configs", nargs="+", help="JSON config paths")
    p_run.add_argument("--output-dir", default=None, help="override the config output directory")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")

    p_fig = sub.add_parser("repro-fig1", help="emit the plane-demo iterate point list")
    p_fig.add_argument("--output-dir", default=".", help="where to write fig1_points.dat")

    p_demo = sub.add_parser("bcch-demo", help="scalar-sequence transform scenario demo")
    p_demo.add_argument("name", help=f"one of {list(SCENARIO_NAMES)}")
    p_demo.add_argument("K", type=int, help="number of terms")

    p_val = sub.add_parser("validate", help="certify a schedule prefix")
    p_val.add_argument("name", help=f"one of {_VALIDATE_SCHEDULES}")
    p_val.add_argument("K", type=int, help="largest index to generate")

    args = parser.parse_args(argv)

    try:
        if args.command == "run":
            outs = _output_dirs(args.configs, args.output_dir)
            return max([run_config(c, out, args.seed) for c, out in zip(args.configs, outs)])
        if args.command == "repro-fig1":
            try:
                repro_fig1(args.output_dir)
            except OSError as exc:
                print(f"error: cannot write artifacts: {exc}", file=sys.stderr)
                return 2
            return 0
        if args.command == "bcch-demo":
            return bcch_demo(args.name, args.K)
        return validate_command(args.name, args.K)  # argparse requires one of the four commands
    except (ValueError, MemoryError) as exc:  # a ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
