"""Smoke test of the benchmark's traced replay (``perfbench/replay.py``).

The replay patches names that ``fistalab.cli`` imports (``get_scenario``,
``verdict``, the ``Scenario`` fields, ``ANALYSES[name]``), so a rename there
breaks it. This runs it traced on a tiny op list. Its counted wrappers
around fig1's callables are not fig1's prox and gradient, so the replay
steps fig1 in numpy, where ``fistalab run`` takes the plane step: the two
trace.csv files must still be the same bytes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from fistalab.cli import run_config

REPO = Path(__file__).resolve().parent.parent
SCENARIOS = ("ex42", "ex43", "ex44-sinh", "linf-minus", "linf-plus")


def test_traced_replay_runs_every_op_without_problems(tmp_path):
    cfg = json.loads((REPO / "configs" / "fig1.json").read_text())
    cfg.pop("output_dir")
    cfg["iterations"] = 3000
    (tmp_path / "fig1.json").write_text(json.dumps(cfg))
    run = {
        "argv": ["run", str(tmp_path / "fig1.json"), "--output-dir", str(tmp_path / "out")],
        "configs": [str(tmp_path / "fig1.json")],
        "outdir": str(tmp_path / "out"),
    }
    lab = [["validate", "bt", "1000"]] + [["bcch-demo", name, "1000"] for name in SCENARIOS]
    ops = [run] + [{"argv": argv, "configs": [], "outdir": ""} for argv in lab]
    (tmp_path / "ops.json").write_text(json.dumps(ops))

    # no bytecode is written under perfbench/
    env = dict(
        os.environ,
        PYTHONDONTWRITEBYTECODE="1",
        PYTHONPATH=os.pathsep.join([str(REPO / "src"), os.environ.get("PYTHONPATH", "")]),
    )
    done = subprocess.run(
        [sys.executable, str(REPO / "perfbench" / "replay.py"), str(tmp_path / "ops.json"), str(tmp_path / "out"), "1"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert set(result["problems"]) == {"fig1"} | {" ".join(argv) for argv in lab}
    assert all(found == [] for found in result["problems"].values()), result["problems"]
    assert result["metrics"]["scalar_transform.witness_s"] > 0
    # one prox call per step (the numpy step) and one per sufficient_decrease probe
    assert result["metrics"]["families.prox_calls"] == 3000 + 20
    assert run_config(tmp_path / "fig1.json", output_dir=tmp_path / "run") == 0
    assert (tmp_path / "out" / "fig1" / "trace.csv").read_bytes() == (tmp_path / "run" / "trace.csv").read_bytes()
