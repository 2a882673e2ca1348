"""Self-test of the benchmark at reduced sizes (about a minute on 2 cores).

    python3 perfbench/selftest.py

Checks that BENCHMARK.json matches spec.py; that every end-to-end and
per-layer metric is emitted with its unit on every workload; that counts
repeat exactly between runs; that a corrupted trace.csv trips the hash
gate and raises the failure fraction; that the seed changes the generated
fig1 configs; that the recorded fig1-pgm hash is the committed one;
and that the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import gate
import spec
import workloads
from run import ROOT, Bench

WORK = ROOT / ".perfbench_work" / "selftest"
FAILURES = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        FAILURES.append(what)


def bench_json(*args, cwd: Path = ROOT) -> tuple:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--size", "small", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    lines = done.stdout.strip().splitlines()
    try:
        return done.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return done.returncode, None


def test_manifest() -> None:
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    check(committed == spec.manifest(), "BENCHMARK.json matches spec.py")


def test_metrics_and_counts() -> None:
    for workload in workloads.NAMES:
        for trace, table in ((0, spec.END_TO_END), (1, spec.PER_LAYER)):
            runs = [bench_json("--workload", workload, "--seed", "5", "--trace", str(trace)) for _ in range(1 + trace)]
            for code, result in runs:
                check(code == 0 and result is not None, f"{workload} trace={trace}: exits 0 with a result")
                if result is None:
                    continue
                check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{workload} trace={trace}: result keys")
                check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                      f"{workload} trace={trace}: correct, {result['failed']}/{result['attempted']} failed")
                emitted = {name: m["unit"] for name, m in result["metrics"].items()}
                check(emitted == {name: row[0] for name, row in table.items()},
                      f"{workload} trace={trace}: every metric emitted with its unit")
            if trace and all(r is not None for _, r in runs):
                first, second = (r["metrics"] for _, r in runs)
                same = all(first[n]["value"] == second[n]["value"] for n in spec.EXACT_COUNTS)
                check(same, f"{workload}: counts repeat exactly between runs")


def test_hash_gate() -> None:
    work = WORK / "gate"
    shutil.rmtree(work, ignore_errors=True)
    bench = Bench(ROOT, work, "fig1", 0, "small")
    clean = bench.cli_pass()
    expected = clean.observed
    (op,) = bench.ops

    def fail_frac() -> float:
        problems, observed = gate.judge(op, 0, "")
        problems = gate.merge(problems, gate.compare(observed, expected))
        return sum(1 for found in problems.values() if found) / len(problems)

    check(fail_frac() == 0.0, "hash gate passes unchanged artifacts")
    victim = op.artifact_dir("fig1-pgm") / "trace.csv"
    data = bytearray(victim.read_bytes())
    data[-2] = ord("0") if data[-2] != ord("0") else ord("1")
    victim.write_bytes(bytes(data))
    check(fail_frac() == 0.5, "a corrupted trace.csv fails its operation (fail_frac 0 -> 0.5)")
    lab = gate.compare({"trace_sha256": {}, "stdout": {"validate bt 3": "x\n"}}, {"stdout": {"validate bt 3": "y\n"}})
    check(bool(lab.get("validate bt 3")), "changed lab stdout fails its operation")
    shutil.rmtree(work, ignore_errors=True)


def test_reference() -> None:
    recorded = json.loads(gate.REFERENCE.read_text())
    committed = ROOT / "out" / "fig1-pgm" / "trace.csv"
    if committed.exists():
        pgm = recorded["fig1"]["trace_sha256"]["fig1-pgm"]
        check(pgm == gate.sha256_file(committed), "recorded fig1-pgm hash equals the committed out/fig1-pgm/trace.csv")
    check(set(recorded) == set(workloads.NAMES), "a reference recorded for every workload")


def test_seed_changes_inputs() -> None:
    def inputs(workload: str, seed: int) -> dict:
        work = WORK / f"inputs-{workload}-{seed}"
        shutil.rmtree(work, ignore_errors=True)
        ops = workloads.generate(workload, seed, ROOT, work, "full")
        files = {Path(c).name: Path(c).read_bytes() for op in ops for c in op.configs}
        shutil.rmtree(work, ignore_errors=True)
        return files

    a, b, a_again = inputs("fig1", 0), inputs("fig1", 1), inputs("fig1", 0)
    check(a == a_again, "fig1: the same seed gives the same inputs")
    check(a.keys() == b.keys() and all(a[k] != b[k] for k in a), "fig1: another seed changes every config")


def test_refuses_without_sources() -> None:
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    code, result = bench_json("--workload", "fig1", "--seed", "0", "--trace", "0", cwd=bare)
    check(code != 0 and result is None, "without the program's sources it exits nonzero and prints no result")
    shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    try:
        test_manifest()
        test_reference()
        test_seed_changes_inputs()
        test_hash_gate()
        test_refuses_without_sources()
        test_metrics_and_counts()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        try:
            WORK.parent.rmdir()
        except OSError:
            pass  # a benchmark run is using it
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
