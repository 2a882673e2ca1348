"""The writer behind ``fistalab run``: trace.csv formatted while the solver iterates.

Only ``fistalab run`` imports this module, so the other commands do not
pay for compiling it.
"""

from __future__ import annotations

import os
import signal
from pathlib import Path

import numpy as np

from .solver import _csv_chunk, _temp_path

__all__ = ["CsvSink", "spare_cpu"]


def spare_cpu() -> bool:
    """True when a forked writer can run beside this process: fork exists and two CPUs are usable.

    On a single usable CPU the writer would only take turns with the solver.
    """
    if not hasattr(os, "fork"):
        return False
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) > 1
    return (os.cpu_count() or 1) > 1


_HEAD = np.dtype(np.int64).itemsize * 2  # a message starts with (first row, row count)


def _write_all(fd: int, data: bytes) -> None:
    """``os.write`` until every byte is written; a pipe may take fewer at a time."""
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view) :]


def _writer_main(read_fd: int, path: Path, header: str, columns: int) -> None:
    """Body of the forked writer; it leaves only through ``os._exit``, and calls no BLAS.

    Reads (first row, row count) heads, each followed by that many rows of
    ``columns`` float64 values, and appends their CSV text to a temporary
    file. A negative row count is the end marker: the file is renamed onto
    ``path``. At end of input without it, the file is removed.
    """
    code = 1
    tmp = _temp_path(path)
    try:
        # an interrupt reaches the parent too, which then closes the pipe
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        committed = False
        with os.fdopen(read_fd, "rb") as pipe, open(tmp, "w") as out:
            out.write(header + "\n")
            while True:
                head = pipe.read(_HEAD)
                if len(head) < _HEAD:
                    break
                start, rows = np.frombuffer(head, dtype=np.int64).tolist()
                if rows < 0:
                    committed = True
                    break
                data = pipe.read(rows * columns * 8)
                if len(data) < rows * columns * 8:
                    break
                table = np.frombuffer(data, dtype=np.float64).reshape(rows, columns)
                out.write(_csv_chunk(table, start))
        if committed:
            os.replace(tmp, path)
        else:
            tmp.unlink()
        code = 0
    except BaseException as exc:
        try:
            tmp.unlink(missing_ok=True)
            os.write(2, f"trace writer for {path}: {exc!r}\n".encode())
        except BaseException:
            pass
    finally:
        os._exit(code)


class CsvSink:
    """Streams ``trace.csv`` from a forked writer while a run iterates; the file appears only when committed.

    Pass one to a runner (``csv_sink=``): it calls :meth:`start` once with
    the header and :meth:`send` once per ``_CSV_CHUNK`` rows. :meth:`start`
    forks a writer process that formats the chunks while the run goes on,
    so use a sink only where :func:`spare_cpu` holds; elsewhere write
    ``trace.csv`` after the run (:meth:`~fistalab.solver.Trace.save`). A
    fork that fails raises its ``OSError``. The writer puts the rows in a
    temporary file in the target directory. :meth:`commit` has it renamed
    onto ``path``; leaving the ``with`` block without a commit removes it,
    so a failed run leaves the previous ``trace.csv`` as it was. The
    ``with`` block always reaps the writer, and a writer that fails is an
    ``OSError``.
    """

    def __init__(self, path):
        self.path = Path(path)
        self._pid = None  # the forked writer
        self._pipe = None

    def __enter__(self) -> "CsvSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def start(self, header: str, columns: int) -> None:
        """Fork the writer and begin the file with ``header``; every later chunk has ``columns`` float columns."""
        if self._pipe is not None:
            raise ValueError("this CsvSink is already streaming a run")
        read_fd, write_fd = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(read_fd)
            os.close(write_fd)
            raise
        if pid == 0:
            os.close(write_fd)
            _writer_main(read_fd, self.path, header, columns)
        os.close(read_fd)
        self._pid, self._pipe = pid, write_fd

    def send(self, table: np.ndarray, start: int) -> None:
        """Append the float rows ``table``, whose first row is numbered ``start``."""
        _write_all(self._pipe, np.array([start, len(table)], dtype=np.int64).tobytes() + table.tobytes())

    def commit(self) -> None:
        """Finish the file and have the writer rename it onto ``path``."""
        _write_all(self._pipe, np.array([0, -1], dtype=np.int64).tobytes())
        self.close()

    def close(self) -> None:
        """Drop an uncommitted file and reap the writer; idempotent."""
        if self._pipe is not None:
            pipe, self._pipe = self._pipe, None
            os.close(pipe)
        if self._pid is not None:
            pid, self._pid = self._pid, None
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if code != 0:
                raise OSError(f"trace writer for {self.path} exited with status {code}")
