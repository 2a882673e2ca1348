"""Fresh-interpreter probes for the untraced benchmark run.

    python3 perfbench/probe.py setup CONFIG...   # import fistalab.cli + build_problem each config
    python3 perfbench/probe.py env               # versions, nproc, BLAS threads

Each prints one JSON object. ``setup`` times from the first statement of
the interpreter's script, so it counts what a user pays before the first
iteration: importing the package and building every problem.
"""

from time import perf_counter

_START = perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def setup(configs) -> dict:
    import fistalab.cli  # noqa: F401  (what `fistalab run` imports)
    from fistalab import build_problem

    for path in configs:
        problem = json.loads(Path(path).read_text())["problem"]
        build_problem(problem["family"], problem.get("params"))
    return {"setup_s": perf_counter() - _START}


def _blas_threads():
    """Threads of the OpenBLAS that numpy loaded, or None if not found."""
    import ctypes
    import os

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        lib = ctypes.CDLL(str(lib_path))  # the handle numpy already holds
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    value = os.environ.get("OPENBLAS_NUM_THREADS")
    return int(value) if value else None


def env() -> dict:
    import os
    import platform

    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
    }


if __name__ == "__main__":
    modes = {"setup": setup, "env": lambda _: env()}
    print(json.dumps(modes[sys.argv[1]](sys.argv[2:])))
