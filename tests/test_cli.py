import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from fistalab import (
    NonFiniteIterateError,
    NonsmoothPart,
    Schedule,
    Trace,
    cli,
    families,
    feasibility_problem,
    fista_run,
    nesterov_run,
    pgm_run,
)
from fistalab.cli import main, repro_fig1, run_config

REPO = Path(__file__).resolve().parent.parent
FIG1_SHA256 = "e8e483ab14e58c4b7f60feebb573086b69b4d8949ece96a515e1268093aa0e44"
FIG1_PGM_SHA256 = "ee8c3f07556698000130219a4bbb8ac051ea11f02ee6dc69cb66b495f816aa41"
FIG1_SNAPSHOTS_SHA256 = "aded90ae35bf4ffb5ee4e05b5622b67a3a6b62ee5e4c6d0d6daf7640ca7236b9"


def strict_json(text: str):
    """json.loads that rejects the NaN/Infinity extensions."""

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=reject)


def write_config(path: Path, **overrides) -> Path:
    cfg = {
        "problem": {"family": "feasibility", "params": {}},
        "algorithm": "fista",
        "x0": [5.0, 0.0],
        "schedule": "bt",
        "iterations": 400,
        "s_refs": [[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]],
        "snapshot_every": 1,
        "seed": 0,
        "analyses": [
            "structural",
            "rate_bound",
            "xi_monotone",
            "bounded_iterates",
            {"name": "cluster_products", "window": 40, "tol": 1e-2},
        ],
    }
    cfg.update(overrides)
    target = path / "config.json"
    target.write_text(json.dumps(cfg))
    return target


@pytest.fixture
def steps(monkeypatch):
    """One entry per gradient call of the feasibility problem every ``run_config`` builds."""
    feas = feasibility_problem()
    calls = []

    def gradient(x):
        calls.append(1)
        return feas.f.gradient(x)

    counted = dataclasses.replace(feas, f=dataclasses.replace(feas.f, gradient=gradient))
    monkeypatch.setattr(families, "build_problem", lambda family, params: counted)
    return calls


class TestRun:
    def test_successful_run_writes_artifacts(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        code = run_config(cfg, output_dir=tmp_path / "out")
        assert code == 0
        assert (tmp_path / "out" / "trace.csv").exists()
        assert (tmp_path / "out" / "snapshots.json").exists()
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["all_pass"] is True
        assert {c["claim"] for c in report["checks"]} >= {"z-definition", "rate-bound"}
        for check in report["checks"]:
            assert set(check) >= {"claim", "pass", "residual_or_oscillation", "window", "tol"}

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        assert run_config(cfg, output_dir=tmp_path / "a") == 0
        assert run_config(cfg, output_dir=tmp_path / "b") == 0
        a = (tmp_path / "a" / "trace.csv").read_bytes()
        b = (tmp_path / "b" / "trace.csv").read_bytes()
        assert a == b

    def test_failing_check_exits_one(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            iterations=60,
            analyses=[{"name": "cluster_products", "window": 10, "tol": 1e-12}],
        )
        code = run_config(cfg, output_dir=tmp_path / "out")
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "FAILED checks" in out
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["all_pass"] is False
        assert report["failing"]

    def test_zero_iterations_exits_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, iterations=0)
        assert run_config(cfg, output_dir=tmp_path / "out") == 2
        assert "iterations" in capsys.readouterr().err

    def test_unknown_key_exits_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, wallclock=True)
        assert run_config(cfg, output_dir=tmp_path / "out") == 2
        assert "unknown config keys" in capsys.readouterr().err

    def test_unknown_analysis_exits_two(self, tmp_path):
        cfg = write_config(tmp_path, analyses=["no_such_check"])
        assert run_config(cfg, output_dir=tmp_path / "out") == 2

    @pytest.mark.parametrize(
        "entry, message",
        [
            ({"window": 40}, "bad analysis entry {'window': 40}"),
            (7, "bad analysis entry 7"),
            ("no_such_check", "unknown analysis 'no_such_check'; known: ['bounded_iterates', "),
            ({"name": ["structural"]}, "unknown analysis ['structural']; known: "),
        ],
    )
    def test_bad_analysis_entry_is_named_before_any_output(self, entry, message, tmp_path, capsys):
        cfg = write_config(tmp_path, analyses=["structural", entry])
        assert run_config(cfg, output_dir=tmp_path / "out") == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_schedule_list_object_and_config_array_give_one_trace(self, tmp_path):
        values = Schedule("bt").prefix(50).tolist()
        cfg = write_config(tmp_path, schedule=values, iterations=50, analyses=["structural"])
        assert run_config(cfg, output_dir=tmp_path / "out") == 0
        from_config = Trace.load(tmp_path / "out")
        for spec in (values, Schedule(values)):
            trace = fista_run(feasibility_problem(), [5.0, 0.0], spec, 50, s_refs=[[0.0, 1.0]])
            assert trace.schedule_id == from_config.schedule_id == "explicit"
            assert trace.ts.tobytes() == from_config.ts.tobytes()

    def test_unknown_family_exits_two(self, tmp_path):
        # the feasibility line and the quadratic spectrum are fixed, so a config that sets them is refused
        for problem in [
            {"family": "mystery"},
            {"family": "feasibility", "params": {"offset": 2.0}},
            {"family": "feasibility", "params": {"membership_tol": 1e-6}},
            {"family": "quadratic", "params": {"cond": 5.0}},
        ]:
            cfg = write_config(tmp_path, problem=problem)
            assert run_config(cfg, output_dir=tmp_path / "out") == 2, problem
            assert not (tmp_path / "out").exists(), problem

    def test_missing_config_exits_two(self, tmp_path):
        assert run_config(tmp_path / "nope.json", output_dir=tmp_path / "out") == 2

    def test_invalid_json_exits_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_config(bad, output_dir=tmp_path / "out") == 2

    def test_missing_output_dir_exits_two(self, tmp_path):
        cfg = write_config(tmp_path)
        assert run_config(cfg) == 2

    @pytest.mark.parametrize(
        "entry, message",
        [
            ({"name": "cluster_products", "window": 300, "tol": 1e-2}, "window 300 too long"),
            ({"name": "cluster_products", "tol": -1e-3}, "tol must be nonnegative"),
            ({"name": "cluster_products", "tol": math.nan}, "tol must be nonnegative"),
            ({"name": "span", "directions": [[1.0, -1.0]], "tol": -1e-3}, "tol must be nonnegative"),
            ({"name": "span", "directions": [[1.0, -1.0]], "tol": math.nan}, "tol must be nonnegative"),
            ({"name": "xi_difference", "tol": -1}, "tol must be nonnegative"),
        ],
        ids=["window", "cluster-tol", "cluster-tol-nan", "span-tol", "span-tol-nan", "xi-difference-tol"],
    )
    def test_bad_check_parameter_fails_before_the_first_step(self, entry, message, tmp_path, steps, capsys):
        # the checks are set up before the run, so a window longer than half the run costs no step;
        # a bad tol used to be caught by the verdict after the whole run, leaving an empty directory
        cfg = write_config(tmp_path, analyses=[entry])
        assert run_config(cfg, output_dir=tmp_path / "out") == 2
        assert message in capsys.readouterr().err
        assert steps == []
        assert not (tmp_path / "out").exists()

    def test_mistyped_check_parameter_exits_two_and_keeps_the_artifacts(self, tmp_path, steps, capsys):
        # an unknown key used to be dropped: span ran at its default tol and passed
        out = tmp_path / "out"
        span = {"name": "span", "directions": [[1.0, -1.0]]}
        assert run_config(write_config(tmp_path, iterations=2000, analyses=[span]), output_dir=out) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        steps.clear()
        mistyped = write_config(tmp_path, iterations=2000, analyses=[{**span, "tolerance": 1e-30}])
        assert run_config(mistyped, output_dir=out) == 2
        err = capsys.readouterr().err
        assert "error: bad parameters for analysis 'span': " in err
        assert "unexpected keyword argument 'tolerance'" in err
        assert steps == []
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.parametrize(
        "entry",
        [
            {"name": "cluster_products", "tol": "1e-3"},
            {"name": "span", "directions": [[1.0, -1.0]], "tol": "1e-3"},
            {"name": "cluster_products", "tol": True},
        ],
    )
    def test_check_parameter_of_the_wrong_type_exits_two_before_any_output(self, entry, tmp_path, capsys):
        cfg = write_config(tmp_path, analyses=["structural", entry])
        assert run_config(cfg, output_dir=tmp_path / "out") == 2
        assert f"error: bad parameters for analysis {entry['name']!r}: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "override, key",
        [
            ({"problem": {"family": ["feasibility"]}}, "family"),
            ({"schedule": {"rule": "bt"}}, "schedule"),
            ({"x0": {"a": 1}}, "x0"),
            ({"s_refs": 5}, "s_refs"),
            ({"output_dir": 7}, "output_dir"),
            ({"iterations": True}, "iterations"),
            ({"algorithm": "pgm", "schedule": "linear"}, "algorithm 'pgm' takes no 'schedule'"),
        ],
        ids=["family", "schedule", "x0", "s_refs", "output_dir", "iterations", "pgm-schedule"],
    )
    def test_malformed_config_value_exits_two_before_any_output(self, override, key, tmp_path, capsys):
        # the first five used to end in a traceback with exit 1; a bool iterations ran one step;
        # a pgm schedule was ignored, and the report said constant-1
        cfg = write_config(tmp_path, **override)
        out = None if "output_dir" in override else tmp_path / "out"
        assert run_config(cfg, output_dir=out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    @pytest.mark.parametrize(
        "entry, iterations, message",
        [("xi_monotone", 1, "xi_monotone needs at least 3 rows (two steps), got 2")],
        ids=["xi-one-step"],
    )
    def test_check_with_nothing_to_check_exits_two_before_the_first_step(
        self, entry, iterations, message, tmp_path, steps, capsys
    ):
        # xi_monotone on one step had no step k >= 2 to compare and passed at 0.0
        cfg = write_config(tmp_path, iterations=iterations, analyses=["structural", entry])
        assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert steps == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "s_refs, entry, message",
        [
            (None, {"name": "cluster_products", "directions": [[0.0, 0.0]]}, "cluster_products: direction d0"),
            ([[0.5, 0.5], [0.5, 0.5]], "xi_difference", "xi_difference: direction s0 - s1"),
            ([[0.5, 0.5], [0.5, 0.5]], "cluster_products", "cluster_products: direction s0 - s1"),
            ([[0.5, 0.5], [0.5, 0.5]], "momentum_identity", "momentum_identity: direction s0 - s1"),
        ],
        ids=["zero-direction", "xi-difference", "cluster-products", "momentum-identity"],
    )
    def test_zero_direction_or_repeated_reference_point_exits_two_before_the_first_step(
        self, s_refs, entry, message, tmp_path, steps, capsys
    ):
        # every product along a zero direction, and every xi difference of one point, is
        # exactly 0.0, so each of these checks used to pass
        repeated = {} if s_refs is None else {"s_refs": s_refs}
        cfg = write_config(tmp_path, iterations=300, analyses=["structural", entry], **repeated)
        assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == 2
        assert f"error: {message} has norm 0, below the rank tolerance" in capsys.readouterr().err
        assert steps == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "name, key, value",
        [
            ("structural", "tol", 1e300),
            ("momentum_identity", "tol", 1e-3),
            ("momentum_identity", "count", 3),
            ("rate_bound", "tol", 1e-3),
            ("sufficient_decrease", "tol", 1e-3),
            ("sufficient_decrease", "probes", 5),
            ("sufficient_decrease", "points", 100),
            ("gap_decay", "tol", 1e-3),
        ],
    )
    def test_fixed_check_constant_in_a_config_exits_two_before_the_first_step(
        self, name, key, value, tmp_path, steps, capsys
    ):
        # the identity and inequality checks run at IDENTITY_TOL, 3 directions, 20 probes and
        # 100 steps; a structural tol of 1e300 used to pass any finite residual
        cfg = write_config(tmp_path, analyses=["structural", {"name": name, key: value}])
        assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"error: bad parameters for analysis {name!r}: " in err
        assert f"unexpected keyword argument {key!r}" in err
        assert steps == []
        assert not (tmp_path / "out").exists()

    def test_negative_seed_override_exits_two_before_any_output(self, tmp_path, capsys):
        # numpy used to reject it, after the output directory was created
        cfg = write_config(tmp_path, iterations=50)
        assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out"), "--seed", "-1"]) == 2
        assert "error: seed must be an integer >= 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("seed", [-1, True])
    def test_bad_seed_argument_exits_two_before_any_output(self, seed, tmp_path, capsys):
        cfg = write_config(tmp_path, iterations=50)
        assert run_config(cfg, output_dir=tmp_path / "out", seed=seed) == 2
        assert "error: seed must be an integer >= 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_seed_override_changes_probe_draws_not_trace(self, tmp_path):
        cfg = write_config(
            tmp_path, analyses=["structural", "sufficient_decrease"]
        )
        assert run_config(cfg, output_dir=tmp_path / "a", seed=1) == 0
        assert run_config(cfg, output_dir=tmp_path / "b", seed=2) == 0
        a = json.loads((tmp_path / "a" / "report.json").read_text())
        b = json.loads((tmp_path / "b" / "report.json").read_text())
        assert a["seed"] == 1 and b["seed"] == 2
        ta = (tmp_path / "a" / "trace.csv").read_bytes()
        tb = (tmp_path / "b" / "trace.csv").read_bytes()
        assert ta == tb

    def test_explicit_schedule_array(self, tmp_path):
        cfg = write_config(
            tmp_path,
            schedule=[1.0, 1.6, 2.1, 2.6, 3.1],
            iterations=4,
            s_refs=[],
            analyses=["structural", "bounded_iterates"],
        )
        assert run_config(cfg, output_dir=tmp_path / "out") == 0

    def test_too_short_explicit_schedule_exits_two(self, tmp_path):
        cfg = write_config(tmp_path, schedule=[1.0, 1.6], iterations=10, analyses=[])
        assert run_config(cfg, output_dir=tmp_path / "out") == 2

    @pytest.mark.parametrize(
        "override, message",
        [
            ({"x0": []}, "x0: expected a 1-D vector with >= 1 coordinate, got shape (0,)"),
            ({"x0": [[5.0, 0.0]]}, "x0: expected a 1-D vector with >= 1 coordinate, got shape (1, 2)"),
            ({"x0": [5.0]}, "x0: expected dimension 2, got 1"),
            ({"s_refs": [0.5, 0.5]}, "s_refs[0]: expected a 1-D vector with >= 1 coordinate, got shape ()"),
        ],
        ids=["x0-empty", "x0-nested", "x0-short", "s_refs-flat"],
    )
    def test_bad_vector_names_the_key_before_any_output(self, override, message, tmp_path, capsys):
        cfg = write_config(tmp_path, **override)
        assert run_config(cfg, output_dir=tmp_path / "out") == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    def test_large_finite_start_passes_on_scaled_norms(self, tmp_path, capsys):
        # ||x_0|| = 1.4e154 squared overflows: unscaled norms read inf and five checks failed with NaN
        cfg = write_config(
            tmp_path,
            problem={"family": "quadratic", "params": {"dim": 2}},
            x0=[1e154, 1e154],
            iterations=300,
            s_refs=[],
            analyses=["structural", "bounded_iterates", "gap_decay"],
        )
        assert run_config(cfg, output_dir=tmp_path / "out") == 0
        report = strict_json((tmp_path / "out" / "report.json").read_text())
        assert report["all_pass"] and len(report["checks"]) == 6
        assert Trace.load(tmp_path / "out").norm_x[0] == pytest.approx(math.sqrt(2.0) * 1e154, rel=1e-15)

    def test_large_finite_start_passes_the_rate_bound(self, tmp_path, capsys):
        # d0 = ||x_0 - s|| = 1.4e154: its unscaled norm and its square read inf, and rate-bound failed with NaN
        cfg = write_config(
            tmp_path,
            problem={"family": "quadratic", "params": {"dim": 2}},
            x0=[1e154, 1e154],
            iterations=300,
            s_refs=[],
            analyses=["rate_bound", "sufficient_decrease", "momentum_identity"],
        )
        assert run_config(cfg, output_dir=tmp_path / "out") == 1
        report = strict_json((tmp_path / "out" / "report.json").read_text())
        checks = {c["claim"]: c for c in report["checks"]}
        assert checks["rate-bound"]["pass"] is True
        assert -math.inf < checks["rate-bound"]["residual_or_oscillation"] < 0.0
        # no probe keeps a finite objective there: a failure, not a pass (out of scope here)
        assert checks["sufficient-decrease"]["pass"] is False
        assert all(c["pass"] for claim, c in checks.items() if claim.startswith("momentum-identity"))

    def test_overflowing_start_fails_instead_of_passing(self, tmp_path, capsys):
        # ||x_0|| = 2.1e308 overflows to inf even scaled, so every scale built from it is infinite
        cfg = write_config(
            tmp_path,
            problem={"family": "l1_quadratic", "params": {"dim": 2}},
            x0=[1.5e308, -1.5e308],
            iterations=200,
            s_refs=[],
            analyses=["structural", "bounded_iterates", "gap_decay"],
        )
        assert run_config(cfg, output_dir=tmp_path / "out") == 1
        report = strict_json((tmp_path / "out" / "report.json").read_text())
        checks = {c["claim"]: c for c in report["checks"]}
        for claim in ("z-recursion", "convex-combination", "bounded-iterates"):
            assert checks[claim]["pass"] is False, claim
            assert checks[claim]["residual_or_oscillation"] is None, claim
            assert checks[claim]["nonfinite"]["residual_or_oscillation"] == "nan", claim
        assert checks["bounded-iterates"]["nonfinite"]["details.sup_x"] == "inf"
        assert checks["gap-decay"]["pass"] is True  # every gap_xy is 0
        assert checks["gap-decay"]["details"]["last_decile_max"] == 0.0

    def test_unusable_probes_fail_without_warnings(self, tmp_path, capsys):
        # every probe around the overflowing start is non-finite, so none is usable
        cfg = write_config(
            tmp_path,
            problem={"family": "l1_quadratic", "params": {"dim": 2}},
            x0=[1e308, -1e308],
            iterations=200,
            s_refs=[],
            analyses=["structural", "bounded_iterates", "gap_decay", "sufficient_decrease"],
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_config(cfg, output_dir=tmp_path / "out")
        assert code == 1
        for name in ("trace.csv", "snapshots.json", "report.json"):
            assert (tmp_path / "out" / name).exists(), name
        report = strict_json((tmp_path / "out" / "report.json").read_text())
        check = {c["claim"]: c for c in report["checks"]}["sufficient-decrease"]
        assert check["pass"] is False
        assert check["residual_or_oscillation"] is None
        assert check["nonfinite"] == {"residual_or_oscillation": "nan"}
        assert "details" not in check

    def test_main_run_multiple_configs_writes_one_subdirectory_each(self, tmp_path):
        c1 = write_config(tmp_path, iterations=50, analyses=["structural"])
        c2 = tmp_path / "second.json"
        c2.write_text(c1.read_text())
        assert main(["run", str(c1), str(c2), "--output-dir", str(tmp_path / "multi")]) == 0
        assert (tmp_path / "multi" / "config" / "trace.csv").exists()
        assert (tmp_path / "multi" / "second" / "trace.csv").exists()

    def test_configs_sharing_a_stem_exit_two_before_any_output(self, tmp_path, capsys):
        # the second run used to replace the first one's artifacts in D/config
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        c1 = write_config(tmp_path / "a", iterations=50, analyses=["structural"])
        c2 = write_config(tmp_path / "b", iterations=60, analyses=["structural"])
        multi = tmp_path / "multi"
        assert main(["run", str(c1), str(c2), "--output-dir", str(multi)]) == 2
        assert f"error: configs {c1} and {c2} would both write to {multi / 'config'}" in capsys.readouterr().err
        assert not multi.exists()

    def test_configs_sharing_an_output_dir_key_exit_two_before_any_output(self, tmp_path, monkeypatch, capsys):
        # without --output-dir the configs' own keys name the directories; the second run used to
        # replace the first one's artifacts
        monkeypatch.chdir(tmp_path)
        for iterations in (50, 60):
            write_config(tmp_path, iterations=iterations, output_dir="SAME").rename(f"c{iterations}.json")
        assert main(["run", "c50.json", "c60.json"]) == 2
        assert capsys.readouterr().err.splitlines() == ["error: configs c50.json and c60.json would both write to SAME"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c50.json", "c60.json"]

    def test_a_config_that_does_not_load_fails_in_its_own_turn(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        write_config(tmp_path, iterations=50, analyses=["structural"], output_dir="SAME")
        (tmp_path / "broken.json").write_text('{"output_dir": "SAME"')
        assert main(["run", "config.json", "broken.json"]) == 2
        assert "error: config broken.json is not valid JSON" in capsys.readouterr().err
        assert json.loads((tmp_path / "SAME" / "report.json").read_text())["iterations"] == 50

    def test_jobs_is_a_usage_error(self, tmp_path):
        cfg = write_config(tmp_path, iterations=50)
        with pytest.raises(SystemExit) as caught:
            main(["run", str(cfg), "--output-dir", str(tmp_path / "out"), "--jobs", "2"])
        assert caught.value.code == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "family, params, key",
        [
            ("quadratic", {"dim": 3, "seed": True}, "seed"),
            ("quadratic", {"dim": 3, "seed": -1}, "seed"),
            ("quadratic", {"dim": True}, "dim"),
            ("l1_quadratic", {"lam": math.inf}, "lam"),
        ],
        ids=["seed-true", "seed-negative", "dim-true", "lam-infinite"],
    )
    def test_bad_family_parameter_names_the_family_and_the_key(self, family, params, key, tmp_path, capsys):
        # each used to run, or to fail inside numpy or the problem with no key named
        cfg = write_config(tmp_path, problem={"family": family, "params": params}, x0=[1.0, 2.0, 3.0], s_refs=[])
        assert run_config(cfg, output_dir=tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad parameters for family {family!r}: {key!r} is {params[key]!r}, not "), err
        assert not (tmp_path / "out").exists()

    def test_sufficient_decrease_run_leaves_numpy_ma_unloaded(self, tmp_path):
        # np.unique without return_inverse imports numpy.ma on its first call
        cfg = write_config(tmp_path, iterations=50, analyses=["sufficient_decrease"])
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        probe = (
            "import sys; from fistalab.cli import main; "
            "code = main(['run', sys.argv[1], '--output-dir', sys.argv[2]]); "
            "print(code, 'numpy.ma' in sys.modules)"
        )
        done = subprocess.run(
            [sys.executable, "-c", probe, str(cfg), str(tmp_path / "out")],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "0 False"

    def test_lab_commands_leave_the_solver_unloaded(self):
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        probe = (
            "import sys; from fistalab.cli import main; "
            "codes = [main(['validate', 'bt', '10']), main(['bcch-demo', 'ex42', '10'])]; "
            "print(codes, sorted(m for m in ('fistalab.solver', 'fistalab.checks', 'fistalab.families', "
            "'fistalab.problem') if m in sys.modules))"
        )
        done = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[0, 0] []"

    def test_import_leaves_process_pool_unloaded(self):
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        probe = "import sys, fistalab.cli; print('concurrent.futures' in sys.modules)"
        done = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"


class TestNumericalAbort:
    def overflowing_config(self, tmp_path):
        # the line projection of x0 overflows to -inf at row 1
        return write_config(
            tmp_path, x0=[1.7e308, 1.7e308], iterations=10, analyses=["structural"]
        )

    def test_abort_saves_partial_trace_and_exits_three(self, tmp_path, capsys, recwarn):
        cfg = self.overflowing_config(tmp_path)
        code = run_config(cfg, output_dir=tmp_path / "out")
        assert code == 3
        assert [str(w.message) for w in recwarn if w.category is RuntimeWarning] == []
        err_lines = capsys.readouterr().err.splitlines()
        assert [line for line in err_lines if line.startswith("error:")] == [
            f"error: non-finite iterate at row 1; partial trace saved to {tmp_path / 'out'}"
        ]
        report = strict_json((tmp_path / "out" / "report.json").read_text())
        assert report["aborted_at_row"] == 1
        assert report["all_pass"] is False
        assert report["checks"] == []
        rows = (tmp_path / "out" / "trace.csv").read_text().strip().split("\n")
        assert len(rows) == 3  # header, row 0, offending row 1
        assert (tmp_path / "out" / "snapshots.json").exists()

    @pytest.mark.parametrize(
        "x0, analyses",
        [
            ([1e200, 1e200], ["structural"]),
            ([1e155, 1e155], ["sufficient_decrease"]),
            ([1e170, 1e170], ["sufficient_decrease"]),
        ],
    )
    def test_nan_objective_at_a_finite_start_exits_three_at_row_zero(self, x0, analyses, tmp_path, capsys):
        # f overflows to inf - inf at x0; this used to exit 2 as a configuration error and write nothing
        problem = {"family": "quadratic", "params": {"dim": 2}}
        cfg = write_config(tmp_path, problem=problem, x0=x0, iterations=10, s_refs=[], analyses=analyses)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_config(cfg, output_dir=tmp_path / "out") == 3
        err_lines = capsys.readouterr().err.splitlines()
        assert [line for line in err_lines if line.startswith("error:")] == [
            f"error: objective evaluated to NaN at row 0; partial trace saved to {tmp_path / 'out'}"
        ]
        report = strict_json((tmp_path / "out" / "report.json").read_text())
        assert report["aborted_at_row"] == 0 and report["checks"] == []
        rows = (tmp_path / "out" / "trace.csv").read_text().strip().split("\n")
        assert len(rows) == 2  # header and row 0

    def test_main_returns_three(self, tmp_path):
        cfg = self.overflowing_config(tmp_path)
        assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == 3

    def test_partial_snapshots_are_strict_and_reload(self, tmp_path):
        assert run_config(self.overflowing_config(tmp_path), output_dir=tmp_path / "out") == 3
        meta = strict_json((tmp_path / "out" / "snapshots.json").read_text())
        assert meta["snapshots"]["1"]["x"] == [None, None]
        assert set(meta["nonfinite"].values()) <= {"nan", "inf", "-inf"}
        with pytest.raises(NonFiniteIterateError) as caught:
            s_refs = [[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]]
            fista_run(feasibility_problem(), [1.7e308, 1.7e308], "bt", 10, s_refs=s_refs)
        reloaded = Trace.load(tmp_path / "out")
        for name in ("xs", "ys", "zs"):
            expected, got = getattr(caught.value.trace, name), getattr(reloaded, name)
            assert not np.isfinite(expected).all(), name
            assert np.array_equal(got, expected, equal_nan=True), name
            signed = ~np.isnan(expected)  # a NaN's sign bit is not kept
            assert np.array_equal(np.signbit(got[signed]), np.signbit(expected[signed])), name


@pytest.fixture(scope="module")
def fig1_out(tmp_path_factory):
    """The artifacts of one ``fistalab run configs/fig1.json`` (1e5 rows), shared by the gates below."""
    out = tmp_path_factory.mktemp("fig1")
    assert run_config(REPO / "configs" / "fig1.json", output_dir=out) == 0
    return out


class TestBundledTraceHash:
    def test_fig1_trace_matches_benchmark_reference(self, fig1_out):
        # the accelerated run: t_k > 1, so this hash covers the momentum step
        reference = json.loads((REPO / "perfbench" / "reference.json").read_text())
        assert reference["fig1"]["trace_sha256"]["fig1"] == FIG1_SHA256
        assert hashlib.sha256((fig1_out / "trace.csv").read_bytes()).hexdigest() == FIG1_SHA256

    def test_fig1_pgm_trace_is_byte_identical(self, tmp_path):
        committed = REPO / "out" / "fig1-pgm" / "trace.csv"
        assert hashlib.sha256(committed.read_bytes()).hexdigest() == FIG1_PGM_SHA256
        code = run_config(REPO / "configs" / "fig1-pgm.json", output_dir=tmp_path)
        assert code == 0
        rerun = (tmp_path / "trace.csv").read_bytes()
        assert hashlib.sha256(rerun).hexdigest() == FIG1_PGM_SHA256

    def test_fig1_pgm_snapshots_are_byte_identical(self, tmp_path):
        assert run_config(REPO / "configs" / "fig1-pgm.json", output_dir=tmp_path) == 0
        committed = REPO / "out" / "fig1-pgm" / "snapshots.json"
        assert (tmp_path / "snapshots.json").read_bytes() == committed.read_bytes()


class TestBundledReportGolden:
    """The checks of both bundled configs, pinned to the values recorded before the checks streamed."""

    def test_fig1_checks_and_snapshots_match_the_golden(self, fig1_out):
        golden = strict_json((REPO / "tests" / "golden" / "fig1_checks.json").read_text())
        assert strict_json((fig1_out / "report.json").read_text())["checks"] == golden
        assert hashlib.sha256((fig1_out / "snapshots.json").read_bytes()).hexdigest() == FIG1_SNAPSHOTS_SHA256

    def test_fig1_pgm_report_matches_the_committed_one(self, tmp_path):
        assert run_config(REPO / "configs" / "fig1-pgm.json", output_dir=tmp_path) == 0
        committed = strict_json((REPO / "out" / "fig1-pgm" / "report.json").read_text())
        assert strict_json((tmp_path / "report.json").read_text()) == committed


class TestReproFig1:
    def test_first_three_points(self, tmp_path):
        path = repro_fig1(tmp_path)
        lines = [l for l in path.read_text().split("\n") if l and not l.startswith("#")]
        pts = np.array([[float(tok) for tok in line.split()] for line in lines])
        assert pts.shape == (27, 2)  # 25 iterates + 2 segment endpoints
        assert np.allclose(pts[0], [5.0, 0.0], atol=0)
        assert np.allclose(pts[1], [3.0, -2.0], atol=1e-14)
        assert np.allclose(pts[2], [2.0, -1.0], atol=1e-14)
        assert np.allclose(pts[-2:], [[0.0, 1.0], [1.0, 0.0]], atol=0)

    def test_cli_entry(self, tmp_path):
        assert main(["repro-fig1", "--output-dir", str(tmp_path)]) == 0
        assert (tmp_path / "fig1_points.dat").exists()


    def test_failed_write_leaves_the_old_file(self, tmp_path, monkeypatch):
        old = tmp_path / "fig1_points.dat"
        old.write_text("previous\n")
        write_text = Path.write_text

        def torn_write(self, text, *args, **kwargs):
            write_text(self, text[:20])
            raise OSError("disk full")

        monkeypatch.setattr(Path, "write_text", torn_write)
        with pytest.raises(OSError, match="disk full"):
            repro_fig1(tmp_path)
        assert old.read_text() == "previous\n"
        assert [p.name for p in tmp_path.iterdir()] == ["fig1_points.dat"]

    def test_unusable_output_dir_exits_two(self, tmp_path, capsys):
        # a directory below a regular file used to end in a NotADirectoryError traceback and exit 1
        (tmp_path / "F").write_text("")
        assert main(["repro-fig1", "--output-dir", str(tmp_path / "F" / "sub")]) == 2
        assert capsys.readouterr().err.startswith("error: cannot write artifacts: ")


class TestBcchDemo:
    def test_sinh_scenario(self, capsys):
        assert main(["bcch-demo", "ex44-sinh", "2000"]) == 0
        out = capsys.readouterr().out
        assert "0.27202905498213314" in out
        assert "h verdict: converged=True" in out

    def test_oscillating_transform_scenario(self, capsys):
        assert main(["bcch-demo", "ex42", "1000"]) == 0
        out = capsys.readouterr().out
        assert "g verdict: converged=False" in out
        assert "oscillation=4" in out
        assert "h verdict: converged=True" in out

    def test_hurdle_scenario(self, capsys):
        assert main(["bcch-demo", "linf-plus", "10000"]) == 0
        out = capsys.readouterr().out
        assert "exceeded = True" in out

    def test_unknown_scenario_exits_two(self, capsys):
        assert main(["bcch-demo", "ex99", "100"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_takes_no_options(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bcch-demo", "ex42", "100", "--ell", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --ell 2" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["ex42", "ex43", "ex44-sinh", "linf-minus", "linf-plus"])
    def test_bcch_million_matches_benchmark_reference(self, name, capsys):
        reference = json.loads((REPO / "perfbench" / "reference.json").read_text())
        assert main(["bcch-demo", name, "1000000"]) == 0
        assert capsys.readouterr().out == reference["lab"]["stdout"][f"bcch-demo {name} 1000000"]


# stdout of ``validate <name> 1000`` as it read while the certifier held a Python tuple per violation
VALIDATE_1000 = {
    "linear": (
        "schedule linear: 1001 terms, final t = 501\n"
        "  growth residual min = 0, violations = 0\n"
        "  quadratic residual min = 0.25, scaled |residual| max = 0.25, violations = 0\n"
        "  bounds 1 <= t_k - 1 <= k: lower violations = 0, upper violations = 0\n"
        "  sum over k=2..1000 of 1/(t_k - 1) = 12.9709\n"
        "  verdict: VALID\n"
    ),
    "constant-ones": (
        "schedule constant-ones: 1001 terms, final t = 1\n"
        "  growth residual min = -500, violations = 1000\n"
        "  quadratic residual min = 1, scaled |residual| max = 1, violations = 0\n"
        "  bounds 1 <= t_k - 1 <= k: lower violations = 999, upper violations = 0\n"
        "  sum over k=2..1000 of 1/(t_k - 1) = nan\n"
        "  growth violated at k=1 (scaled residual -0.333)\n"
        "  growth violated at k=2 (scaled residual -0.5)\n"
        "  growth violated at k=3 (scaled residual -0.6)\n"
        "  growth violated at k=4 (scaled residual -0.667)\n"
        "  growth violated at k=5 (scaled residual -0.714)\n"
        "  verdict: INVALID\n"
    ),
}


class TestValidate:
    @pytest.mark.parametrize("name", ["bt", "linear"])
    def test_valid_schedules(self, name, capsys):
        assert main(["validate", name, "2000"]) == 0
        assert "verdict: VALID" in capsys.readouterr().out

    def test_invalid_schedule_exits_one(self, capsys):
        assert main(["validate", "constant-ones", "10"]) == 1
        out = capsys.readouterr().out
        assert "growth violated at k=1" in out

    def test_unknown_schedule_exits_two(self):
        assert main(["validate", "mystery", "10"]) == 2

    def test_small_horizon_rejected(self):
        assert main(["validate", "bt", "2"]) == 2

    def test_bt_million_matches_benchmark_reference(self, capsys):
        reference = json.loads((REPO / "perfbench" / "reference.json").read_text())
        assert main(["validate", "bt", "1000000"]) == 0
        assert capsys.readouterr().out == reference["lab"]["stdout"]["validate bt 1000000"]

    @pytest.mark.parametrize("name, code", [("linear", 0), ("constant-ones", 1)])
    def test_thousand_terms_print_the_pinned_report(self, name, code, capsys):
        assert main(["validate", name, "1000"]) == code
        assert capsys.readouterr().out == VALIDATE_1000[name]

    def test_validate_peak_scratch_per_term(self, capsys):
        # 4.35 arrays of K + 1 doubles at the peak: t, the two residual columns and the partial
        # sums, and a block's temporaries; with the certifiers' temporaries at full length, 8.13
        count = 2**18
        tracemalloc.start()
        try:
            assert cli.validate_command("bt", count) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.75 * 8 * (count + 1), f"peak {peak / (8 * (count + 1)):.2f} arrays"


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "bt", "{big}"],
        ["validate", "linear", "{big}"],
        ["bcch-demo", "ex42", "{big}"],
        ["run", "{config}", "--output-dir", "{out}"],
    ],
    ids=["validate-bt", "validate-linear", "bcch-demo", "run"],
)
def test_size_too_large_to_allocate_exits_two(argv, tmp_path, capsys):
    # numpy refuses the 73 TiB array at once, allocating nothing; its MemoryError used to
    # end in a traceback and exit 1, which means INVALID for validate and a failed check for run
    big = 10**13
    config = write_config(tmp_path, iterations=big)
    args = [a.format(big=big, config=config, out=tmp_path / "out") for a in argv]
    assert main(args) == 2
    assert capsys.readouterr().err.startswith("error: Unable to allocate ")
    assert not (tmp_path / "out").exists()


class TestAtomicArtifacts:
    ARTIFACTS = ("trace.csv", "snapshots.json", "report.json")

    @pytest.fixture(scope="class")
    def first_run(self, tmp_path_factory):
        """Two configs and the artifacts one ``fistalab run`` of both writes."""
        where = tmp_path_factory.mktemp("first-run")
        configs = [
            write_config(where, iterations=6000, analyses=["structural"]).rename(where / f"{name}.json")
            for name in ("first", "second")
        ]
        assert main(["run", *map(str, configs), "--output-dir", str(where / "out")]) == 0
        return configs, {
            (c.stem, name): (where / "out" / c.stem / name).read_bytes() for c in configs for name in self.ARTIFACTS
        }

    def test_rerun_writes_the_same_bytes(self, first_run, tmp_path):
        configs, want = first_run
        out = tmp_path / "out"
        assert main(["run", *map(str, configs), "--output-dir", str(out)]) == 0
        assert {(stem, name): (out / stem / name).read_bytes() for stem, name in want} == want

    @staticmethod
    def fail_at_row_5000(monkeypatch, error: BaseException, out: Path) -> dict:
        """Make every ``run_config`` build a problem whose prox raises ``error`` at the step that makes row 5000.

        By then the run has written chunk 0 (rows 0..4095) of its trace.csv: the returned
        dict gets the temporary file's line count at that step under "lines".
        """
        feas = feasibility_problem()
        calls = {"n": 0}

        def prox(v, step):
            calls["n"] += 1
            if calls["n"] == 5000:
                calls["lines"] = (out / f".trace.csv.{os.getpid()}.tmp").read_bytes().count(b"\n")
                raise error
            return feas.g.prox(v, step)

        failing = dataclasses.replace(feas, g=NonsmoothPart(value=feas.g.value, prox=prox))
        monkeypatch.setattr(families, "build_problem", lambda family, params: failing)
        return calls

    def test_failed_run_leaves_previous_artifacts(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, iterations=6000, analyses=["structural"])
        assert run_config(cfg, output_dir=out) == 0
        before = {name: (out / name).read_bytes() for name in self.ARTIFACTS}

        calls = self.fail_at_row_5000(monkeypatch, ValueError("prox failed at row 5000"), out)
        assert run_config(cfg, output_dir=out) == 2
        assert calls["n"] == 5000
        assert sorted(p.name for p in out.iterdir()) == sorted(self.ARTIFACTS)
        for name in self.ARTIFACTS:
            assert (out / name).read_bytes() == before[name], name
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_interrupt_mid_stream_leaves_previous_artifacts(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, iterations=6000, analyses=["structural"])
        assert run_config(cfg, output_dir=out) == 0
        before = {name: (out / name).read_bytes() for name in self.ARTIFACTS}

        calls = self.fail_at_row_5000(monkeypatch, KeyboardInterrupt(), out)
        with pytest.raises(KeyboardInterrupt):
            run_config(cfg, output_dir=out)
        assert calls["lines"] == 1 + 4096  # the header and chunk 0 were on disk
        assert sorted(p.name for p in out.iterdir()) == sorted(self.ARTIFACTS)
        for name in self.ARTIFACTS:
            assert (out / name).read_bytes() == before[name], name

    @pytest.mark.parametrize("error", [ValueError("prox failed"), KeyboardInterrupt()], ids=["error", "interrupt"])
    def test_failed_run_into_a_fresh_directory_leaves_it_empty(self, error, tmp_path, monkeypatch, capsys):
        # the first chunk's write made the directory, which remains; its temporary file does not
        out = tmp_path / "out"
        cfg = write_config(tmp_path, iterations=6000, analyses=["structural"])
        calls = self.fail_at_row_5000(monkeypatch, error, out)
        if isinstance(error, KeyboardInterrupt):
            with pytest.raises(KeyboardInterrupt):
                run_config(cfg, output_dir=out)
        else:
            assert run_config(cfg, output_dir=out) == 2
            assert capsys.readouterr().err == "error: prox failed\n"
        assert calls["lines"] == 1 + 4096
        assert list(out.iterdir()) == []

    def test_output_dir_below_a_file_exits_two_and_leaves_the_file(self, tmp_path, capfd):
        # reported as one line at the first artifact write, the first chunk's trace.csv rows
        message = "error: cannot write artifacts: [Errno 20] Not a directory: '{out}'"
        blocker = tmp_path / "blocker"
        blocker.write_bytes(b"not a directory\n")
        cfg = write_config(tmp_path, iterations=50, analyses=["structural"])
        assert run_config(cfg, output_dir=blocker / "out") == 2
        assert capfd.readouterr().err.splitlines() == [message.format(out=blocker / "out")]
        assert blocker.read_bytes() == b"not a directory\n"
        assert not [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")]

    def test_abort_saves_the_partial_trace(self, tmp_path):
        cfg = write_config(tmp_path, x0=[1.7e308, 1.7e308], iterations=10, analyses=[])
        assert run_config(cfg, output_dir=tmp_path / "out") == 3
        with pytest.raises(NonFiniteIterateError) as caught:
            s_refs = [[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]]
            fista_run(feasibility_problem(), [1.7e308, 1.7e308], "bt", 10, s_refs=s_refs)
        want = caught.value.trace.to_csv(tmp_path / "whole.csv").read_bytes()
        assert (tmp_path / "out" / "trace.csv").read_bytes() == want
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == sorted(self.ARTIFACTS)

    @pytest.mark.parametrize(
        "algorithm, family, x0",
        [
            ("fista", "feasibility", [5.0, 0.0]),
            ("pgm", "feasibility", [5.0, 0.0]),
            ("nesterov", "quadratic", [1.0, -2.0, 3.0]),
            ("fista", "feasibility", [1.7e308, 1.7e308]),  # aborts at row 1
        ],
        ids=["fista", "pgm", "nesterov", "abort"],
    )
    def test_run_forks_no_process_and_saves_the_library_trace(self, algorithm, family, x0, tmp_path, monkeypatch):
        params = {"dim": 3, "seed": 0} if family == "quadratic" else {}
        problem = families.build_problem(family, params)
        s_refs = [[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]] if family == "feasibility" else [problem.solution.s_ref.tolist()]
        cfg = write_config(
            tmp_path, problem={"family": family, "params": params}, algorithm=algorithm, x0=x0, s_refs=s_refs,
            iterations=700, analyses=["structural"],
        )
        if algorithm == "pgm":
            raw = json.loads(cfg.read_text())
            del raw["schedule"]
            cfg.write_text(json.dumps(raw))
        try:
            if algorithm == "pgm":
                trace = pgm_run(problem, x0, 700, s_refs=s_refs)
            else:
                runner = fista_run if algorithm == "fista" else nesterov_run
                trace = runner(problem, x0, "bt", 700, s_refs=s_refs)
        except NonFiniteIterateError as exc:
            trace = exc.trace
        trace.save(tmp_path / "want")

        def fork():
            raise AssertionError("fistalab run forked a process")

        monkeypatch.setattr(os, "fork", fork)
        assert run_config(cfg, output_dir=tmp_path / "out") == (3 if x0[0] > 1e300 else 0)
        for name in ("trace.csv", "snapshots.json"):
            assert (tmp_path / "out" / name).read_bytes() == (tmp_path / "want" / name).read_bytes(), name

    def test_report_write_failure_replaces_only_the_earlier_files(self, tmp_path, monkeypatch):
        # each file is replaced whole, but a failure after the first rename leaves a mix
        out, want = tmp_path / "out", tmp_path / "want"
        assert run_config(write_config(tmp_path, iterations=50, analyses=["structural"]), output_dir=out) == 0
        before = (out / "report.json").read_bytes()
        longer = write_config(tmp_path, iterations=60, analyses=["structural"])
        assert run_config(longer, output_dir=want) == 0
        write_text = Path.write_text

        def torn_write(self, text, *args, **kwargs):
            if "report.json" in self.name:
                write_text(self, text[:20])
                raise OSError("disk full")
            return write_text(self, text, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", torn_write)
        assert run_config(longer, output_dir=out) == 2
        assert sorted(p.name for p in out.iterdir()) == sorted(self.ARTIFACTS)
        assert (out / "report.json").read_bytes() == before
        for name in ("trace.csv", "snapshots.json"):
            assert (out / name).read_bytes() == (want / name).read_bytes(), name