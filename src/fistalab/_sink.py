"""The writer behind ``fistalab run``: trace.csv formatted while the solver iterates.

Only ``fistalab run`` imports this module, so the other commands do not
pay for compiling it.
"""

from __future__ import annotations

import os
import signal
from pathlib import Path

import numpy as np

from .solver import _csv_chunk, write_atomically

__all__ = ["CsvSink"]


_HEAD = np.dtype(np.int64).itemsize  # a message starts with its row count
_FAILED = 255  # the writer's exit status for a failure without an errno (errnos stay below it)


def _write_all(fd: int, data: bytes) -> None:
    """``os.write`` until every byte is written; a pipe may take fewer at a time."""
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view) :]


def _writer_main(read_fd: int, path: Path, header: str) -> None:
    """Body of the forked writer; it leaves only through ``os._exit``, and calls no BLAS.

    Reads row-count heads, each followed by that many rows of float64
    values, one per column of ``header`` after ``k``, and writes their CSV
    text through :func:`~fistalab.solver.write_atomically`, numbering the
    rows from 0 in the order they arrive. A negative row count is the end
    marker: the file is renamed onto ``path``. At end of input without
    it, the file is removed and the writer exits 0. A failure prints
    nothing: the writer exits with the ``OSError``'s errno, or with
    ``_FAILED`` for any other failure, and :meth:`CsvSink.close` reports it.
    """
    columns = header.count(",")

    def write(tmp: Path) -> None:
        with os.fdopen(read_fd, "rb") as pipe, open(tmp, "w") as out:
            out.write(header + "\n")
            start = 0
            while True:
                head = pipe.read(_HEAD)
                if len(head) < _HEAD:
                    raise EOFError
                rows = int(np.frombuffer(head, dtype=np.int64)[0])
                if rows < 0:
                    return
                data = pipe.read(rows * columns * 8)
                if len(data) < rows * columns * 8:
                    raise EOFError
                out.write(_csv_chunk(np.frombuffer(data, dtype=np.float64).reshape(rows, columns), start))
                start += rows

    code = _FAILED
    try:
        # an interrupt reaches the parent too, which then closes the pipe
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        write_atomically(path, write)
        code = 0
    except EOFError:  # not committed; write_atomically removed the file
        code = 0
    except OSError as exc:
        if exc.errno and 0 < exc.errno < _FAILED:
            code = exc.errno
    finally:
        os._exit(code)


class CsvSink:
    """Streams ``trace.csv`` from a forked writer while a run iterates; the file appears only when committed.

    Pass one to a runner (``csv_sink=``): it calls :meth:`start` once with
    the header and :meth:`send` once per ``_CSV_CHUNK`` rows, in row order.
    :meth:`start` forks a writer process that formats the chunks while the
    run goes on, on one CPU or many, so a sink needs ``os.fork``; where it
    is missing, write ``trace.csv`` after the run
    (:meth:`~fistalab.solver.Trace.save`). A fork that fails raises its
    ``OSError``. The writer creates the target directory where it is
    missing and puts the rows in a temporary file there. :meth:`commit`
    has it renamed onto ``path``; leaving the ``with`` block without a
    commit removes it, so a failed run leaves the previous ``trace.csv`` as
    it was. The ``with`` block always reaps the writer, and a writer that
    fails (say, on an output path below a regular file) is an ``OSError``:
    the writer's own, errno and all, with ``path`` as its file name.
    """

    def __init__(self, path):
        self.path = Path(path)
        self._pid = None  # the forked writer
        self._pipe = None

    def __enter__(self) -> "CsvSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def start(self, header: str) -> None:
        """Fork the writer and begin the file with ``header``; each chunk fills its columns after ``k``."""
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
            _writer_main(read_fd, self.path, header)
        os.close(read_fd)
        self._pid, self._pipe = pid, write_fd

    def send(self, table: np.ndarray) -> None:
        """Append the float rows ``table``, numbered on from the rows sent before."""
        _write_all(self._pipe, np.int64(len(table)).tobytes() + table.tobytes())

    def commit(self) -> None:
        """Finish the file and have the writer rename it onto ``path``."""
        _write_all(self._pipe, np.int64(-1).tobytes())
        self.close()

    def close(self) -> None:
        """Drop an uncommitted file and reap the writer; idempotent."""
        if self._pipe is not None:
            pipe, self._pipe = self._pipe, None
            os.close(pipe)
        if self._pid is not None:
            pid, self._pid = self._pid, None
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if 0 < code < _FAILED:
                raise OSError(code, os.strerror(code), str(self.path))
            if code != 0:
                raise OSError(f"trace writer for {self.path} exited with status {code}")
