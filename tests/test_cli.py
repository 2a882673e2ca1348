import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from fistalab import NonFiniteIterateError, NonsmoothPart, Trace, cli, feasibility_problem, fista_run
from fistalab.cli import main, repro_fig1, run_config

REPO = Path(__file__).resolve().parent.parent
FIG1_SHA256 = "e8e483ab14e58c4b7f60feebb573086b69b4d8949ece96a515e1268093aa0e44"
FIG1_PGM_SHA256 = "ee8c3f07556698000130219a4bbb8ac051ea11f02ee6dc69cb66b495f816aa41"


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

    def test_unknown_family_exits_two(self, tmp_path):
        cfg = write_config(tmp_path, problem={"family": "mystery"})
        assert run_config(cfg, output_dir=tmp_path / "out") == 2

    def test_missing_config_exits_two(self, tmp_path):
        assert run_config(tmp_path / "nope.json", output_dir=tmp_path / "out") == 2

    def test_invalid_json_exits_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_config(bad, output_dir=tmp_path / "out") == 2

    def test_missing_output_dir_exits_two(self, tmp_path):
        cfg = write_config(tmp_path)
        assert run_config(cfg) == 2

    def test_seed_override_changes_probe_draws_not_trace(self, tmp_path):
        cfg = write_config(
            tmp_path, analyses=["structural", {"name": "sufficient_decrease", "probes": 5}]
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

    def test_overflowing_start_fails_instead_of_passing(self, tmp_path, capsys):
        # ||x_0|| overflows to inf, so every scale built from it is infinite
        cfg = write_config(
            tmp_path,
            problem={"family": "l1_quadratic", "params": {"dim": 2}},
            x0=[1e308, -1e308],
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

    def test_main_run_multiple_configs_with_jobs(self, tmp_path):
        c1 = write_config(tmp_path, iterations=50, analyses=["structural"])
        c2 = tmp_path / "second.json"
        c2.write_text(c1.read_text())
        code = main(
            ["run", str(c1), str(c2), "--output-dir", str(tmp_path / "multi"), "--jobs", "2"]
        )
        assert code == 0
        assert (tmp_path / "multi" / "config" / "trace.csv").exists()
        assert (tmp_path / "multi" / "second" / "trace.csv").exists()

    def test_import_leaves_process_pool_unloaded(self):
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        probe = "import sys, fistalab.cli; print('concurrent.futures' in sys.modules)"
        done = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"

    def test_import_leaves_csv_writer_unloaded(self):
        # only `run` needs it; without cached bytecode every command would compile it
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        probe = "import sys, fistalab.cli; print('fistalab._sink' in sys.modules)"
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


class TestBundledTraceHash:
    def test_fig1_trace_matches_benchmark_reference(self, tmp_path):
        # the accelerated run: t_k > 1, so this hash covers the momentum step
        reference = json.loads((REPO / "perfbench" / "reference.json").read_text())
        assert reference["fig1"]["trace_sha256"]["fig1"] == FIG1_SHA256
        assert run_config(REPO / "configs" / "fig1.json", output_dir=tmp_path) == 0
        assert hashlib.sha256((tmp_path / "trace.csv").read_bytes()).hexdigest() == FIG1_SHA256

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

    @pytest.mark.parametrize("name", ["ex42", "ex43", "ex44-sinh", "linf-minus", "linf-plus"])
    def test_bcch_million_matches_benchmark_reference(self, name, capsys):
        reference = json.loads((REPO / "perfbench" / "reference.json").read_text())
        assert main(["bcch-demo", name, "1000000"]) == 0
        assert capsys.readouterr().out == reference["lab"]["stdout"][f"bcch-demo {name} 1000000"]


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


class TestAtomicArtifacts:
    ARTIFACTS = ("trace.csv", "snapshots.json", "report.json")

    def test_one_cpu_writes_the_same_artifacts_without_forking(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, iterations=6000, analyses=["structural"])
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        assert run_config(cfg, output_dir=tmp_path / "forked") == 0

        def fork():
            raise AssertionError("a run on one CPU forked")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(os, "fork", fork)
        assert run_config(cfg, output_dir=tmp_path / "one-cpu") == 0
        for name in self.ARTIFACTS:
            assert (tmp_path / "one-cpu" / name).read_bytes() == (tmp_path / "forked" / name).read_bytes(), name

    @pytest.mark.parametrize("usable", [{0, 1}, {0}], ids=["forked", "one-cpu"])
    def test_failed_run_leaves_previous_artifacts(self, usable, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: usable)
        out = tmp_path / "out"
        cfg = write_config(tmp_path, iterations=6000, analyses=["structural"])
        assert run_config(cfg, output_dir=out) == 0
        before = {name: (out / name).read_bytes() for name in self.ARTIFACTS}

        feas = feasibility_problem()
        calls = {"n": 0}

        def prox(v, step):
            calls["n"] += 1
            if calls["n"] == 5000:  # the step that makes row 5000
                raise ValueError("prox failed at row 5000")
            return feas.g.prox(v, step)

        failing = dataclasses.replace(feas, g=NonsmoothPart(value=feas.g.value, prox=prox))
        monkeypatch.setattr(cli, "build_problem", lambda family, params: failing)
        assert run_config(cfg, output_dir=out) == 2
        assert calls["n"] == 5000
        assert sorted(p.name for p in out.iterdir()) == sorted(self.ARTIFACTS)
        for name in self.ARTIFACTS:
            assert (out / name).read_bytes() == before[name], name
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_abort_streams_the_partial_trace(self, tmp_path):
        # the whole partial trace goes through the sink; save adds only the JSON files
        cfg = write_config(tmp_path, x0=[1.7e308, 1.7e308], iterations=10, analyses=[])
        assert run_config(cfg, output_dir=tmp_path / "out") == 3
        with pytest.raises(NonFiniteIterateError) as caught:
            s_refs = [[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]]
            fista_run(feasibility_problem(), [1.7e308, 1.7e308], "bt", 10, s_refs=s_refs)
        want = caught.value.trace.to_csv(tmp_path / "whole.csv").read_bytes()
        assert (tmp_path / "out" / "trace.csv").read_bytes() == want
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == sorted(self.ARTIFACTS)

    @pytest.mark.parametrize("usable", [{0, 1}, {0}], ids=["forked", "one-cpu"])
    def test_report_write_failure_replaces_only_the_earlier_files(self, usable, tmp_path, monkeypatch):
        # each file is replaced whole, but a failure after the first rename leaves a mix
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: usable)
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