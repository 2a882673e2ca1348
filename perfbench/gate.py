"""Correctness gate: exit codes, check verdicts, and the trace.csv hash rule.

ROADMAP aim 1 says a speed-up may not change any artifact. The gate holds
each ``trace.csv`` to the sha256 recorded in ``reference.json`` for the
workload, and each lab command's stdout to its recorded text; neither
depends on the seed. At the self-test's reduced size, which has no recorded
reference, the benchmark's own first (warm-up) pass is the reference, so
later passes and the traced replay must match it byte for byte.

An operation is one config of a ``run`` command or one other command. The
gate judges every operation of a pass and names what went wrong.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

REFERENCE = Path(__file__).resolve().with_name("reference.json")


def load_reference(workload: str, size: str):
    """Recorded outputs of this workload, or None when there are none."""
    if size != "full" or not REFERENCE.exists():
        return None
    return json.loads(REFERENCE.read_text()).get(workload)


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def empty_observed() -> dict:
    return {"trace_sha256": {}, "stdout": {}}


def judge(op, code: int, stdout: str):
    """Judge one finished command on its own terms.

    Returns ``(problems, observed)``: a list of problems per operation id,
    and the hashes and stdout that the reference comparison needs.
    """
    common = []
    if code != 0:
        common.append(f"exit code {code}")
    if "[FAIL]" in stdout:
        common.append("a check printed [FAIL]")
    problems = {}
    observed = empty_observed()
    if not op.is_run:
        problems[op.label] = common
        observed["stdout"][op.label] = stdout
        return problems, observed
    for name in op.names():
        found = list(common)
        where = op.artifact_dir(name)
        try:
            observed["trace_sha256"][name] = sha256_file(where / "trace.csv")
            report = json.loads((where / "report.json").read_text())
        except (OSError, ValueError) as exc:
            found.append(f"unreadable artifacts: {exc}")
        else:
            if report.get("all_pass") is not True:
                found.append(f"failing checks: {report.get('failing')}")
        problems[name] = found
    return problems, observed


def compare(observed: dict, expected: dict) -> dict:
    """Problems per operation id where an output differs from the reference."""
    problems = {}
    for name, sha in observed["trace_sha256"].items():
        want = expected.get("trace_sha256", {}).get(name)
        if want is None:
            problems[name] = ["no reference trace.csv hash"]
        elif sha != want:
            problems[name] = [f"trace.csv sha256 {sha[:16]} differs from reference {want[:16]}"]
    for label, text in observed["stdout"].items():
        want = expected.get("stdout", {}).get(label)
        if want is None:
            problems[label] = ["no reference stdout"]
        elif text != want:
            problems[label] = ["stdout differs from the reference"]
    return problems


def merge(*problem_maps) -> dict:
    out = {}
    for pm in problem_maps:
        for key, found in pm.items():
            out.setdefault(key, []).extend(found)
    return out
