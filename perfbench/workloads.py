"""Generate the inputs of each workload from a seed.

Every workload is a list of operations, each one ``fistalab`` command. The
configs a ``run`` command reads are written into the work directory; the
program sees only those files. ``size="small"`` shrinks every workload for
the self-test; the full size is what the benchmark measures.

The seed is the ``seed`` of every generated config: it moves the random
probes of the checks, never a trace.csv byte, so the recorded reference
outputs hold for every seed. ``lab`` takes no input the seed could move.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path


NAMES = ("fig1", "lab")

SIZES = {
    "full": {
        "fig1_iterations": 100_000,
        "lab_terms": 1_000_000,
    },
    "small": {
        "fig1_iterations": 20_000,
        "lab_terms": 20_000,
    },
}

SCENARIOS = ("ex42", "ex43", "ex44-sinh", "linf-minus", "linf-plus")


@dataclass(frozen=True)
class Op:
    """One fistalab command; ``configs`` lists the config files of a run."""

    argv: tuple
    configs: tuple = ()
    outdir: str = ""

    @property
    def is_run(self) -> bool:
        return bool(self.configs)

    @property
    def label(self) -> str:
        return " ".join(self.argv)

    def names(self) -> list:
        return [Path(c).stem for c in self.configs]

    def artifact_dir(self, name: str) -> Path:
        # `fistalab run --output-dir D` writes each of several configs into
        # D/<config stem>; every run op here has several.
        return Path(self.outdir) / name


def op_to_json(op: Op) -> dict:
    return asdict(op)


def op_from_json(data: dict) -> Op:
    return Op(argv=tuple(data["argv"]), configs=tuple(data["configs"]), outdir=data["outdir"])


def _write(path: Path, cfg: dict) -> str:
    path.write_text(json.dumps(cfg, indent=1, sort_keys=True) + "\n")
    return str(path)


def _run_op(configs: list, outdir: Path) -> Op:
    return Op(argv=("run", *configs, "--output-dir", str(outdir)), configs=tuple(configs), outdir=str(outdir))


def _bundled(root: Path, name: str, seed: int, iterations: int | None = None) -> dict:
    """A bundled config under the benchmark's seed, with no output_dir of its own."""
    cfg = json.loads((root / "configs" / f"{name}.json").read_text())
    cfg.pop("output_dir", None)  # always redirected: out/fig1-pgm is committed
    cfg["seed"] = seed
    if iterations is not None:
        cfg["iterations"] = iterations
    return cfg


def _fig1(root, seed, size, inputs, outputs) -> list:
    configs = [
        _write(inputs / "fig1.json", _bundled(root, "fig1", seed, size["fig1_iterations"])),
        _write(inputs / "fig1-pgm.json", _bundled(root, "fig1-pgm", seed)),
    ]
    return [_run_op(configs, outputs / "fig1")]


def _lab(root, seed, size, inputs, outputs) -> list:
    terms = str(size["lab_terms"])
    return [Op(argv=("validate", "bt", terms))] + [Op(argv=("bcch-demo", name, terms)) for name in SCENARIOS]


_GENERATORS = {"fig1": _fig1, "lab": _lab}


def generate(name: str, seed: int, root: Path, work: Path, size: str = "full") -> list:
    """Write the workload's inputs under ``work`` and return its operations."""
    inputs = work / "inputs"
    outputs = work / "outputs"
    inputs.mkdir(parents=True, exist_ok=True)
    outputs.mkdir(parents=True, exist_ok=True)
    return _GENERATORS[name](Path(root), seed, SIZES[size], inputs, outputs)
