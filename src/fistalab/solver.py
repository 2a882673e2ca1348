"""Plain and accelerated proximal gradient runs and their traces.

A run records, for every iteration k: the step parameter t_k, the main
iterate x_k, the extrapolation point y_k, the auxiliary point
z_k = (1 - t_k) x_k + t_k y_k, the objective value F(x_k), the optimality
gap delta_k = F(x_k) - mu when the optimal value mu is known, and for each
supplied minimizer s the quantity

    xi_k(s) = t_{k-1}^2 delta_k + (beta / 2) ||z_k - s||^2   (k >= 1),

which is nonincreasing along the accelerated iteration. Residual columns
monitor, row by row, the algebraic identities tying the three vector
sequences together and the per-step sufficient-decrease inequality.

There is one iteration core. FISTA runs it with a certified schedule, PGM
with t_k = 1 for every k, and Nesterov's accelerated gradient is FISTA
with g = 0; each step is one proximal gradient step from y_k (a PGM run's
x_1 is that step from x_0). A run steps in numpy, except fig1's step
(``feasibility_problem`` at step 1), which it takes on Python floats with
no numpy call per row, bit-equal to the numpy step (``_plane_steps``).
The core aborts with :class:`NonFiniteIterateError` at the first
non-finite extrapolation point y_{k+1} (a non-finite x_{k+1} always makes
y_{k+1} non-finite too), or at an earlier row whose objective value is NaN
at a finite x (f overflowing to inf - inf, say).
One loop, in ``_run``, walks a run's rows, one chunk of ``_CSV_CHUNK``
rows per pass: it steps to the end of the chunk and checks finiteness
once, so at most ``_CSV_CHUNK - 1`` steps past that row are computed, on
non-finite input, and discarded (one of them raising still reports that
row), then builds the derived columns of the chunk up to that row. A run
given a CSV path formats each chunk's rows into it as it builds them;
otherwise :meth:`Trace.to_csv` formats them after the run, through the
same block writer, and :meth:`Trace.save` writes each file under a
temporary name and renames it into place, so a crash never leaves a
half-written artifact.

Memory. A library run returns every row of x, y and z, so it holds
O(rows x dim) floats. Given its checks (``analyses=``, an
:class:`~fistalab.checks.AnalysisStream`), a run folds them over each chunk
as it is built and keeps vector rows only where something still reads
them: a window of two chunks (the chunk being built, and the objective's
window before it, which ends with the carried row), the snapshot rows,
and what the checks sample. Its trace then carries no per-row vectors,
only the snapshot rows, so vectors take O(chunk x dim) memory. The scalar
columns stay full length, O(rows), unless the run writes its CSV as it
goes: then every column but ``ts`` is held in the window too
(:class:`_WindowColumn`), its rows dropped once they are in the file. A
run that aborts folds nothing over its last chunk, since no caller reads
the checks of an aborted run.

Traces are columnar (one array per column) and immutable once produced.
CSV export uses 17 significant digits and a fixed header, so rerunning a
configuration reproduces the file byte for byte.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import math
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from .problem import CompositeProblem, Vector, _objective_rows, _row_norms, as_vector
from .prox import _unit_line_prox, half_sq_dist_grad
from .schedule import Schedule

if TYPE_CHECKING:
    from .checks import AnalysisStream

__all__ = [
    "Trace",
    "NonFiniteIterateError",
    "MissingSnapshotError",
    "pgm_run",
    "fista_run",
    "nesterov_run",
]


_CSV_CHUNK = 4096
# rows per _csv_chunk call in Trace.to_csv: on fig1's 1e5-row trace, 4096-row
# calls peaked at 10.2 MiB of temporaries under tracemalloc, 512-row calls at
# 1.28 MiB and 256-row calls at 0.68 MiB, which keeps the formatter below the
# run's own memory peak; 512-row calls were 10-15% faster
_CSV_BLOCK = 256
# rows a streamed run holds: the chunk being built and the C rows before it,
# which hold the objective's window over a short chunk (up to C rows back)
# and the carried row lo - 1
_WINDOW = 2 * _CSV_CHUNK

# (CSV header, Trace field) of each scalar column, in CSV order after "k";
# "xi_s" heads one column xi_s0, xi_s1, ... per reference point
_COLUMNS = (
    ("t", "ts"),
    ("Fx", "F_x"),
    ("delta", "delta"),
    ("xi_s", "xi"),
    ("res_zdef", "res_zdef"),
    ("res_convex", "res_convex"),
    ("res_suffdec", "res_suffdec"),
    ("gap_xy", "gap_xy"),
    ("norm_x", "norm_x"),
    ("norm_z", "norm_z"),
)
_ROW_COLUMNS = tuple(field for _, field in _COLUMNS) + ("xs", "ys", "zs")


def finite_only(value, nonfinite: dict, path: str = ""):
    """Copy of ``value`` with non-finite floats as None, their tags in ``nonfinite``.

    A tag maps the float's path (``"details.sup_x"``, ``"snapshots.1.x[0]"``)
    to ``"nan"``, ``"inf"`` or ``"-inf"``; :func:`restore_nonfinite` inverts it.
    """
    if isinstance(value, float) and not math.isfinite(value):
        nonfinite[path] = "nan" if math.isnan(value) else ("inf" if value > 0 else "-inf")
        return None
    if isinstance(value, dict):
        return {k: finite_only(v, nonfinite, f"{path}.{k}" if path else k) for k, v in value.items()}
    if isinstance(value, list):
        return [finite_only(v, nonfinite, f"{path}[{i}]") for i, v in enumerate(value)]
    return value


def restore_nonfinite(value, nonfinite: dict, path: str = ""):
    """Copy of ``value`` with each tagged None put back as its float."""
    if value is None and path in nonfinite:
        return float(nonfinite[path])
    if isinstance(value, dict):
        return {k: restore_nonfinite(v, nonfinite, f"{path}.{k}" if path else k) for k, v in value.items()}
    if isinstance(value, list):
        return [restore_nonfinite(v, nonfinite, f"{path}[{i}]") for i, v in enumerate(value)]
    return value


def tag_nonfinite(payload: dict) -> dict:
    """Copy of ``payload`` with non-finite floats as null, their tags under "nonfinite"."""
    nonfinite = {}
    tagged = finite_only(payload, nonfinite)
    if nonfinite:
        tagged["nonfinite"] = nonfinite
    return tagged


def strict_json(payload: dict) -> str:
    """Artifact text: strict JSON, non-finite floats as null tagged under "nonfinite"."""
    return json.dumps(tag_nonfinite(payload), sort_keys=True, indent=1, allow_nan=False)


@contextlib.contextmanager
def _replacing(path: Path):
    """A temporary name beside ``path``, renamed onto ``path`` when the block ends.

    The temporary name carries the pid, so no other process writes it. If
    the block raises (any exception, KeyboardInterrupt included), the
    temporary file is removed, so ``path`` holds either its old content or
    the complete new one, never a partial file.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):  # none made, or none can be: the error to report is the first one
            tmp.unlink()
        raise


def write_atomically(path, write) -> Path:
    """Call ``write(temp)`` on a temporary name beside ``path``, then rename it onto ``path``.

    Creates the parent directory first, where it is missing; see
    :func:`_replacing` for the temporary file.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with _replacing(path) as tmp:
        write(tmp)
    return path


# Trace.to_csv's exact %.17g (_csv_chunk). The 17 significant digits of a
# value x are N = round(|x| 10^(16 - E)), E its decimal exponent.
_E_MAX = 280  # Python formats a value whose decimal exponent exceeds this
_E_KEYS = (2 * _E_MAX + 1) * 17  # template keys of one sign: by exponent, then digit count
# the values that have keys of their own after those of both signs; any
# other value that Python formats has the key _OTHER
_SPECIALS = (0.0, -0.0, math.inf, -math.inf, math.nan)
_OTHER = 2 * _E_KEYS + len(_SPECIALS)
# a cell is 32 bytes: the sign and any "0.000" (bytes 0-5), the digits with
# their decimal point (6-23), the exponent (24-28), NUL padding, the separator (31)
_CELL = 32
_SPLIT = 134217729.0  # 2^27 + 1: Dekker's split of a double into two 26-bit halves


class _Format:
    """The power table and the cell templates of :func:`_csv_chunk`.

    10^q, for the q = 16 - E of every decimal exponent E within 2 of 280,
    is ``ph + pl``: ``ph`` the double nearest 10^q and ``pl`` the double
    nearest the rest, from int arithmetic (``float`` of an int and int true
    division round correctly; ``as_integer_ratio`` gives the remainder).
    ``ph`` is held split in two halves too. A cell's template is built the
    first time its key is met and kept: three rows of ``_CELL`` bytes, the
    constant bytes and the masks of the digits before and after the
    decimal point.
    """

    def __init__(self):
        ph, pl = [], []
        for q in range(16 - _E_MAX - 2, 16 + _E_MAX + 3):
            if q >= 0:
                high = float(10**q)
                low = float(10**q - int(high))
            else:
                den = 10**-q
                high = 1 / den
                num, two = high.as_integer_ratio()  # high = num / two, two a power of 2
                low = (two - num * den) / (two * den)
            ph.append(high)
            pl.append(low)
        self.ph, self.pl = np.array(ph), np.array(pl)
        self.ph_hi = _SPLIT * self.ph
        self.ph_hi -= self.ph_hi - self.ph
        self.ph_lo = self.ph - self.ph_hi
        self.tid = np.full(_OTHER + 1, -1, np.int32)
        self.rows = []
        self.lock = threading.Lock()
        # N's digit pairs: 5 of N // 10^8 (the first is one digit), 4 of N % 10^8
        self.pair_high = np.array([10**8, 10**6, 10**4, 100, 1], np.int32)[:, None]
        self.pair_low = np.array([10**6, 10**4, 100, 1], np.int32)[:, None]
        # the digit count up to the tens and to the ones of each pair (pair 0's tens is 0)
        self.tens_at = 2 * np.arange(9, dtype=np.int8)[:, None]
        self.ones_at = self.tens_at + 1
        self.const = self.before = self.after = np.zeros((0, _CELL // 8), np.uint64)

    def scaled(self, a: np.ndarray, E: np.ndarray):
        """``h + l`` = a 10^(16 - E): h = fl(a ph), l the rest, within 2^-47 of it near [10^16, 10^17]."""
        at = _E_MAX + 2 - E
        ph_hi, ph_lo = np.take(self.ph_hi, at), np.take(self.ph_lo, at)
        h = a * np.take(self.ph, at)
        a_hi = _SPLIT * a
        a_hi -= a_hi - a
        a_lo = a - a_hi
        l = a_hi * ph_hi
        l -= h
        l += a_hi * ph_lo
        l += a_lo * ph_hi
        l += a_lo * ph_lo  # a ph - h, exactly (Dekker)
        l += a * np.take(self.pl, at)
        return h, l

    def decimal(self, values: np.ndarray):
        """N, E and the values that Python formats (``slow``) of each of ``values``."""
        a = np.abs(values)
        with np.errstate(divide="ignore", invalid="ignore"):
            E = np.log10(a)
        np.floor(E, out=E)
        fast = np.abs(E) <= _E_MAX + 1  # False at 0, inf and NaN
        a[~fast] = 2.0  # any value in the table's range
        E[~fast] = 0.0
        E = E.astype(np.intp)
        h, l = self.scaled(a, E)
        # floor(log10) is one off next to a power of 10: step E once where h + l
        # leaves [10^16, 10^17). A value on the edge may seem to leave it again
        # by l's error, and either side then gives the same N after the carry
        moved = np.flatnonzero((h <= 1e16) | (h >= 1e17))
        hm, lm = h[moved], l[moved]
        up = (hm > 1e17) | ((hm == 1e17) & (lm >= 0))
        step = up.view(np.int8) - ((hm < 1e16) | ((hm == 1e16) & (lm < 0))).view(np.int8)
        moved = moved[step != 0]
        if moved.size:
            E[moved] += step[step != 0]
            h[moved], l[moved] = self.scaled(a[moved], E[moved])
        r = np.rint(l)
        slow = np.abs(l - r) >= 0.5 - 2.0**-40  # too near a tie for l's error
        slow |= ~fast
        N = h.astype(np.int64)
        N += r.astype(np.int64)
        carry = N == 10**17  # rounded up into the next decade
        N[carry] = 10**16
        E += carry
        slow |= np.abs(E) > _E_MAX
        return N, E, slow

    def templates(self, key: np.ndarray) -> np.ndarray:
        """The template row of each key; the keys not met before get theirs.

        Rows are only appended, and a key's ``tid`` entry is set after the
        arrays that hold its row, so a concurrent reader sees built rows only.
        """
        tid = np.take(self.tid, key)
        if (tid < 0).any():
            with self.lock:
                new = sorted(set(key[np.take(self.tid, key) < 0].tolist()))  # np.unique would import numpy.ma
                rows = self.rows + [_template(k) for k in new]
                table = np.frombuffer(b"".join(rows), np.uint64).reshape(len(rows), 3, _CELL // 8)
                self.const, self.before, self.after = (np.ascontiguousarray(table[:, i]) for i in range(3))
                self.tid[new] = np.arange(len(self.rows), len(rows))
                self.rows = rows
            tid = np.take(self.tid, key)
        return tid

    def digit_bytes(self, N: np.ndarray):
        """The significant digit count of each N in [10^16, 10^17), and its 17 digits as ASCII.

        Returns ``(digits, cells, shifted)``: ``cells`` holds digit j at byte
        6 + j of a ``_CELL``-byte row, ``shifted`` at byte 7 + j (the digits
        after a decimal point). Trailing zeros do not count as significant.
        """
        n = N.size
        high, low = np.divmod(N, 10**8)
        pairs = np.empty((9, n), np.int32)
        np.floor_divide(high.astype(np.int32), self.pair_high, out=pairs[:5])
        np.floor_divide(low.astype(np.int32), self.pair_low, out=pairs[5:])
        pairs[1:5] -= 100 * pairs[:4]
        pairs[6:] -= 100 * pairs[5:8]
        ascii = pairs.astype(np.uint16)
        tens = ascii // 10
        ascii -= 10 * tens  # the ones
        digits = np.maximum(((ascii != 0) * self.ones_at).max(axis=0), ((tens != 0) * self.tens_at).max(axis=0))
        ascii <<= 8
        ascii |= tens
        ascii |= 0x3030  # the pair's two ASCII digits, as a little-endian uint16
        shifted = np.zeros((n, _CELL // 2), "<u2")
        shifted[:, 3:12] = ascii.T
        cells = np.zeros((n, _CELL), np.uint8)
        cells[:, 6:23] = shifted.view(np.uint8)[:, 7:24]
        return digits, cells, shifted

    def cells(self, values: np.ndarray) -> np.ndarray:
        """The ``%.17g`` of each of ``values``, one ``_CELL``-byte row each, NUL-padded, without separators."""
        N, E, slow = self.decimal(values)
        digits, cells, shifted = self.digit_bytes(N)
        key = (E + _E_MAX) * 17 + digits - 1
        key += np.signbit(values) * _E_KEYS
        key[slow] = _OTHER
        special = np.flatnonzero(~np.isfinite(values) | (values == 0))
        x = values[special]
        code = np.signbit(x) + 2 * np.isinf(x)  # the index in _SPECIALS
        code[np.isnan(x)] = 4
        key[special] = 2 * _E_KEYS + code
        tid = self.templates(key)
        words, after = cells.view(np.uint64), shifted.view(np.uint64)
        words &= np.take(self.before, tid, axis=0)
        after &= np.take(self.after, tid, axis=0)
        words |= after
        words |= np.take(self.const, tid, axis=0)
        for i in np.flatnonzero(key == _OTHER).tolist():
            text = b"%.17g" % values[i]
            cells[i, : len(text)] = np.frombuffer(text, np.uint8)
        return cells


def _template(key: int) -> bytes:
    """A key's constant bytes and masks of the digits before and after the point, ``_CELL`` bytes each."""
    const, before, after = bytearray(_CELL), bytearray(_CELL), bytearray(_CELL)
    if key >= 2 * _E_KEYS:
        if key < _OTHER:
            text = b"%.17g" % _SPECIALS[key - 2 * _E_KEYS]
            const[: len(text)] = text
        return bytes(const + before + after)
    negative, key = divmod(key, _E_KEYS)
    E, digits = divmod(key, 17)
    E -= _E_MAX
    digits += 1
    lead, tail = b"-" if negative else b"", b""
    if E < -4 or E >= 17:  # %g's exponent form, d.ddde+XX
        run = 1
        tail = b"e%+03d" % E
    elif E < 0:
        lead += b"0." + b"0" * (-E - 1)
        run = digits
    else:
        run = E + 1  # the integer part, its zeros included
    const[: len(lead)] = lead
    before[6 : 6 + run] = b"\xff" * run
    if digits > run:
        const[6 + run] = ord(".")
        after[7 + run : 7 + digits] = b"\xff" * (digits - run)
    const[24 : 24 + len(tail)] = tail
    return bytes(const + before + after)


@functools.cache
def _format() -> _Format:
    """The one :class:`_Format`, built by the first :func:`_csv_chunk` call."""
    return _Format()


def _csv_chunk(table: np.ndarray, start: int) -> bytes:
    """CSV text of the float rows ``table``, numbered from ``start``, as ASCII bytes.

    Every cell is Python's ``%.17g``, made exactly over numpy arrays. The
    ``k`` column is formatted as one more float column: ``%.17g`` of an
    integer below 2^53 is its ``%d``.

    The digits. E = floor(log10 |x|), moved by one where it is off. y =
    |x| 10^(16 - E) is h + l, where h = fl(|x| ph) with |x| ph - h exact
    by Dekker's two-product, and l adds |x| pl (see :class:`_Format`); N =
    h + rint(l) lies in [10^16, 10^17], and 10^17 is carried to 10^16 at
    E + 1. l is within about 2^-47 of y - h: the rounding of pl, of |x| pl
    and of the sum, each below 2^-49. So rint(l) rounds y correctly
    wherever l lies more than 2^-40 from a half-integer, and byte-equality
    rests on that margin. Python's ``%.17g``, the one reference formatter,
    formats every other value: 0, -0, inf, -inf, NaN (each once, into its
    template), the values within 2^-40 of a tie and those with |E| > 280,
    where 10^(16 - E) leaves the table and pl can be subnormal.

    The text. N's 17 digits come as ASCII pairs, and each cell is the
    template of its (sign, E, significant digit count), which sets ``%g``'s
    fixed or exponent form and drops the trailing zeros, with the digits
    masked in. The cells' NUL padding is dropped in one pass.
    """
    rows, cols = table.shape[0], table.shape[1] + 1
    values = np.empty((rows, cols))
    values[:, 0] = np.arange(start, start + rows)
    values[:, 1:] = table
    cells = _format().cells(values.reshape(-1)).reshape(rows, cols, _CELL)
    cells[:, :, -1] = np.frombuffer(b"," * (cols - 1) + b"\n", np.uint8)
    flat = cells.reshape(-1)
    return flat[flat != 0].tobytes()


def _write_csv_rows(out, trace: "Trace", lo: int, hi: int) -> None:
    """Write CSV rows lo..hi of ``trace`` into the binary file ``out``, the header first where lo is 0.

    The one block writer: rows go ``_CSV_BLOCK`` at a time through
    :func:`_csv_chunk`, so the text of one block is held at a time.
    :meth:`Trace.to_csv` writes every row in one call, and a run given a
    CSV path writes each chunk of ``_CSV_CHUNK`` rows (a multiple of
    ``_CSV_BLOCK``) as it builds it, in the same blocks.
    """
    if lo == 0:
        out.write((",".join(trace._csv_header()) + "\n").encode())
    for start in range(lo, hi, _CSV_BLOCK):
        out.write(_csv_chunk(trace._csv_table(start, min(start + _CSV_BLOCK, hi)), start))


def z_recursion(t_prev: np.ndarray, xs: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """||z_k - ((1 - t_{k-1}) x_{k-1} + t_{k-1} x_k)|| for consecutive rows.

    ``xs`` holds rows k - 1 .. k of every pair, ``t_prev`` and ``zs`` one
    entry per pair.
    """
    t_prev = t_prev[:, None]
    predicted = (1.0 - t_prev) * xs[:-1] + t_prev * xs[1:]
    return _row_norms(zs - predicted)


class RowWindow:
    """Rows ``base`` onward of a run's x, y and z sequences, one ``(rows, dim)`` array each.

    A library run holds every row and ``base`` stays 0. A streamed run holds
    ``_WINDOW`` rows and :meth:`slide` drops the rows that nothing reads any
    more. Rows are addressed by their row number k. A run that writes its
    CSV as it goes holds its scalar columns here too (:meth:`column`).
    """

    def __init__(self, xs: np.ndarray, ys: np.ndarray, zs: np.ndarray):
        self.xs, self.ys, self.zs = xs, ys, zs
        self.base = 0
        self.columns = []

    def column(self, *tail: int) -> "_WindowColumn":
        """A new scalar column (``tail`` its shape past the row axis) over the window's rows, slid with them."""
        values = np.empty((self.xs.shape[0], *tail))
        self.columns.append(values)
        return _WindowColumn(self, values)

    def _rows(self, vectors: np.ndarray, lo: int, hi: int) -> np.ndarray:
        if lo < self.base:
            raise IndexError(f"row {lo} was dropped; the window starts at row {self.base}")
        return vectors[lo - self.base : hi - self.base]

    def x(self, lo: int, hi: int) -> np.ndarray:
        return self._rows(self.xs, lo, hi)

    def y(self, lo: int, hi: int) -> np.ndarray:
        return self._rows(self.ys, lo, hi)

    def z(self, lo: int, hi: int) -> np.ndarray:
        return self._rows(self.zs, lo, hi)

    def slide(self, first: int, top: int) -> None:
        """Move rows first..top to the front of the arrays; rows before ``first`` are dropped."""
        shift = first - self.base
        if shift > 0:
            for rows in (self.xs, self.ys, self.zs, *self.columns):
                rows[: top - first] = rows[shift : top - self.base]
            self.base = first

    def snapshots(self, lo: int, hi: int, rows: Sequence) -> np.ndarray:
        """The x, y and z of each of ``rows`` (all within lo..hi), shape ``(len(rows), 3, dim)``."""
        at = np.asarray(rows, dtype=int) - lo
        return np.stack((self.x(lo, hi)[at], self.y(lo, hi)[at], self.z(lo, hi)[at]), axis=1)


class _WindowColumn:
    """A scalar column held in a :class:`RowWindow`: its rows from the window's ``base`` on, by row number.

    It is indexed as the full column would be, for the keys that the run
    and the checks use: a row, a slice of rows or an array of rows, each
    maybe followed by a column index. A key that takes a row the window
    has dropped, before ``base``, raises IndexError instead of giving
    another row's value.
    """

    def __init__(self, window: RowWindow, values: np.ndarray):
        self.window, self.values = window, values
        self.ndim, self.shape = values.ndim, values.shape  # shape[0] is the rows held, not the run's rows

    def _held(self, key):
        rows, rest = (key[0], key[1:]) if isinstance(key, tuple) else (key, ())
        base = self.window.base
        if isinstance(rows, slice):
            first = rows.start or 0
            stop = None if rows.stop is None else max(rows.stop, first) - base  # an empty slice stays empty
            rows = slice(first - base, stop, rows.step)
        else:
            rows = np.asarray(rows) - base
            first = base + (int(rows.min()) if rows.size else 0)
        if first < base:
            raise IndexError(f"row {first} was dropped; the window starts at row {base}")
        return (rows, *rest)

    def __getitem__(self, key):
        return self.values[self._held(key)]

    def __setitem__(self, key, value):
        self.values[self._held(key)] = value


class NonFiniteIterateError(RuntimeError):
    """An iteration produced a non-finite point, or an objective value of NaN at a finite one.

    The partial trace, including the offending row, is attached for
    diagnosis.
    """

    def __init__(self, row: int, trace: "Trace", what: str = "non-finite iterate"):
        super().__init__(f"{what} at row {row}")
        self.row = row
        self.trace = trace


class MissingSnapshotError(RuntimeError):
    """A diagnostic needs per-row vectors that this trace does not carry.

    Rerun or resave the originating configuration with snapshot_every = 1.
    """


@dataclass(eq=False)
class Trace:
    """Columnar record of a solver run plus run-level metadata.

    ``xi`` has one column per entry of ``s_refs`` and a NaN leading row
    (the quantity is defined from k = 1). ``res_convex`` and
    ``res_suffdec`` also lead with NaN since they relate consecutive rows;
    ``res_suffdec`` is NaN wherever the earlier objective value was +inf,
    so inequalities involving an infeasible starting point are skipped
    rather than fabricated.

    ``xs``, ``ys`` and ``zs`` hold every row, or are None. A run that
    streamed its checks keeps only its snapshot rows, in ``snapshots``:
    one ``(3, dim)`` entry of x, y and z per snapshot row, in row order.
    """

    kind: str
    problem_id: str
    schedule_id: str
    beta: float
    mu: Optional[float]
    ts: np.ndarray
    F_x: np.ndarray
    res_zdef: np.ndarray
    res_convex: np.ndarray
    res_suffdec: np.ndarray
    gap_xy: np.ndarray
    norm_x: np.ndarray
    norm_z: np.ndarray
    delta: Optional[np.ndarray] = None
    xi: Optional[np.ndarray] = None
    s_refs: Optional[np.ndarray] = None
    xs: Optional[np.ndarray] = None
    ys: Optional[np.ndarray] = None
    zs: Optional[np.ndarray] = None
    snapshot_every: int = 1
    snapshots: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return int(self.ts.size)

    @property
    def has_full_vectors(self) -> bool:
        return self.xs is not None and self.ys is not None and self.zs is not None

    def require_vectors(self) -> None:
        if not self.has_full_vectors:
            raise MissingSnapshotError(
                "trace has no per-row vectors; rerun with snapshot_every=1"
            )

    def z_recursion_residuals(self) -> np.ndarray:
        """Per-row residual of z_k = (1 - t_{k-1}) x_{k-1} + t_{k-1} x_k (NaN at 0)."""
        self.require_vectors()
        out = np.full(len(self), np.nan)
        out[1:] = z_recursion(self.ts[:-1], self.xs, self.zs[1:])
        return out

    # ---- export -----------------------------------------------------------

    def _csv_header(self) -> list:
        cols = ["k"]
        for name, field in _COLUMNS:
            values = getattr(self, field)
            if values is not None:
                cols.extend([name] if values.ndim == 1 else (f"{name}{j}" for j in range(values.shape[1])))
        return cols

    def _csv_table(self, lo: int, hi: int) -> np.ndarray:
        """The float columns of CSV rows lo..hi as one (rows, columns) array."""
        return np.column_stack([getattr(self, f)[lo:hi] for _, f in _COLUMNS if getattr(self, f) is not None])

    def to_csv(self, path) -> Path:
        """Write the scalar columns with fixed 17-significant-digit formatting.

        Rows are formatted ``_CSV_BLOCK`` at a time and written straight
        into the file, opened in binary mode (:func:`_write_csv_rows`). A
        trace whose run wrote its CSV as it went holds only a window of its
        rows; it raises ValueError here, before the file is opened.
        """
        if any(isinstance(getattr(self, field), _WindowColumn) for _, field in _COLUMNS):
            raise ValueError("this trace holds a window of its rows; its run wrote trace.csv as it built them")
        path = Path(path)
        with path.open("wb") as out:
            _write_csv_rows(out, self, 0, len(self))
        return path

    def snapshot_payload(self) -> dict:
        """Metadata plus vector snapshots every ``snapshot_every`` rows.

        The final row is always included so the terminal iterate survives a
        sparse export.
        """
        rows = sorted(set(range(0, len(self), self.snapshot_every)) | {len(self) - 1})
        if self.snapshots is None:
            self.require_vectors()
            vectors = [(self.xs[k], self.ys[k], self.zs[k]) for k in rows]
        else:
            vectors = self.snapshots
        snapshots = {
            str(k): {"x": x.tolist(), "y": y.tolist(), "z": z.tolist()} for k, (x, y, z) in zip(rows, vectors)
        }
        return {
            "kind": self.kind,
            "problem": self.problem_id,
            "schedule": self.schedule_id,
            "beta": self.beta,
            "mu": self.mu,
            "s_refs": None if self.s_refs is None else self.s_refs.tolist(),
            "rows": len(self),
            "snapshot_every": self.snapshot_every,
            "snapshots": snapshots,
        }

    def save(self, outdir) -> dict:
        """Write trace.csv and snapshots.json into ``outdir`` (created if missing), each by temp name and rename."""
        outdir = Path(outdir)
        csv_path = outdir / "trace.csv"
        write_atomically(csv_path, self.to_csv)
        json_path = write_atomically(
            outdir / "snapshots.json", lambda tmp: tmp.write_text(strict_json(self.snapshot_payload()))
        )
        return {"trace": csv_path, "snapshots": json_path}

    @classmethod
    def load(cls, outdir) -> "Trace":
        """Rebuild a trace from ``save`` artifacts; saving it again writes the same bytes.

        Vector columns are restored only when the snapshots cover every row;
        otherwise the trace keeps the snapshot rows in ``snapshots`` and
        vector-hungry diagnostics raise :class:`MissingSnapshotError`.
        """
        outdir = Path(outdir)
        meta = json.loads((outdir / "snapshots.json").read_text())
        if "nonfinite" in meta:
            meta = restore_nonfinite(meta, meta.pop("nonfinite"))
        csv_path = outdir / "trace.csv"
        with csv_path.open() as fh:
            header = fh.readline().rstrip("\n").split(",")
        data = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
        col = {name: data[:, i] for i, name in enumerate(header)}
        scalars = {}
        for name, field in _COLUMNS:
            if name in col:
                scalars[field] = col[name]
            elif f"{name}0" in col:  # one column per reference point
                scalars[field] = np.column_stack([col[h] for h in header if h.startswith(name)])

        order = sorted(meta["snapshots"], key=int)
        xs, ys, zs = (np.array([meta["snapshots"][k][v] for k in order]) for v in "xyz")
        snapshots = None
        if len(order) < int(meta["rows"]):
            snapshots = np.stack((xs, ys, zs), axis=1)
            xs = ys = zs = None
        return cls(
            kind=meta["kind"],
            problem_id=meta["problem"],
            schedule_id=meta["schedule"],
            beta=float(meta["beta"]),
            mu=None if meta["mu"] is None else float(meta["mu"]),
            s_refs=None if meta["s_refs"] is None else np.asarray(meta["s_refs"], dtype=float),
            xs=xs,
            ys=ys,
            zs=zs,
            snapshot_every=int(meta["snapshot_every"]),
            snapshots=snapshots,
            **scalars,
        )


def _numpy_steps(problem: CompositeProblem):
    """The generic chunk stepper: per row, prox(y - grad(y)/beta) and the momentum step in numpy.

    It does not check its input: the run checks each chunk's y rows once.
    A step that raises after a non-finite y row ends the chunk, and
    :func:`_iterate` reports that row; after finite rows it propagates.
    """
    step = 1.0 / problem.f.beta
    grad = problem.f.gradient
    prox = problem.g.prox

    def steps(x: Vector, y: Vector, momentum: list, xs: np.ndarray, ys: np.ndarray, i: int) -> None:
        start = i
        try:
            for m in momentum:
                x_next = np.asarray(prox(y - step * grad(y), step), dtype=float)
                y = x_next + m * (x_next - x)
                x = x_next
                xs[i] = x
                ys[i] = y
                i += 1
        except Exception:
            if np.isfinite(ys[start:i]).all():
                raise

    return steps


def _plane_steps(x: Vector, y: Vector, momentum: list, xs: np.ndarray, ys: np.ndarray, i: int) -> None:
    """fig1's chunk stepper on Python floats: x = P_H(max(y, 0)) with H = {x1 + x2 = 1}.

    It makes no numpy call per row, and each row is bit-equal to the numpy
    step's wherever y is finite, since each operation is the one numpy
    makes: ``max(y, 0)`` is ``y - 1.0 * half_sq_dist_grad(y)``, written so
    that -0.0 gives +0.0 and NaN stays NaN as in ``np.maximum`` (Python's
    ``max`` keeps -0.0), and the projection is ``_unit_line_prox``'s
    v - (v0 + v1 - 1) / 2. The forms differ only past an infinite y, a row
    that has already aborted the run. Python float arithmetic overflows to
    inf or NaN without raising, so the chunk's one finiteness scan finds
    the abort row. Rows go straight into the window, through flat
    memoryviews of its C-contiguous arrays, so the stepper holds no buffer.
    """
    x0, x1 = x.tolist()
    y0, y1 = y.tolist()
    flat_x, flat_y = xs.data.cast("B").cast("d"), ys.data.cast("B").cast("d")
    j = 2 * i  # the first coordinate of row i
    for m in momentum:
        v0 = y0 if y0 > 0.0 else (0.0 if y0 <= 0.0 else y0)
        v1 = y1 if y1 > 0.0 else (0.0 if y1 <= 0.0 else y1)
        shift = (v0 + v1 - 1.0) / 2.0
        n0 = v0 - shift
        n1 = v1 - shift
        y0 = n0 + m * (n0 - x0)
        y1 = n1 + m * (n1 - x1)
        x0 = n0
        x1 = n1
        flat_x[j] = x0
        flat_x[j + 1] = x1
        flat_y[j] = y0
        flat_y[j + 1] = y1
        j += 2


def _chunk_steps(problem: CompositeProblem):
    """The run's chunk stepper, chosen once: :func:`_plane_steps` or :func:`_numpy_steps`.

    The plane step is taken where g.prox *is* fig1's
    :func:`~fistalab.prox._unit_line_prox`, the gradient *is*
    ``half_sq_dist_grad`` and 1/beta is 1; ``is`` neither hashes nor raises,
    so any other callable (a wrapped one included) or beta takes the numpy step.
    """
    if problem.g.prox is _unit_line_prox and problem.f.gradient is half_sq_dist_grad and 1.0 / problem.f.beta == 1.0:
        return _plane_steps
    return _numpy_steps(problem)


def _first_nonfinite_row(window: RowWindow, lo: int, hi: int) -> Optional[int]:
    """The first of rows lo+1..hi whose y is not finite, or None."""
    finite = np.isfinite(window.y(lo + 1, hi + 1)).all(axis=1)
    if finite.all():
        return None
    return lo + 1 + int(np.argmin(finite))


def _iterate(steps, ts: np.ndarray, window: RowWindow, lo: int, hi: int) -> Optional[int]:
    """Steps lo..hi - 1 of the two-sequence recursion, from row lo of ``window`` into rows lo + 1..hi.

    ``steps`` is the run's chunk stepper (:func:`_chunk_steps`):
    ``steps(x, y, momentum, xs, ys, i)`` takes one step from x and y per
    momentum value and writes the new rows into ``xs`` and ``ys`` from
    index i on. Returns the first of rows lo + 1..hi whose y is not
    finite, or None. The y rows are checked once, after the last step, so
    the steps past that row are computed and discarded; a step that raises
    after a non-finite row reports that row instead. The steps start from
    copies of row lo's x and y, so a gradient or prox that writes into its
    argument cannot change a stored row.
    """
    x = window.x(lo, lo + 1)[0].copy()
    y = window.y(lo, lo + 1)[0].copy()
    momentum = ((ts[lo:hi] - 1.0) / ts[lo + 1 : hi + 1]).tolist()
    steps(x, y, momentum, window.xs, window.ys, lo + 1 - window.base)
    return _first_nonfinite_row(window, lo, hi)


def _argument(name: str, value, dim: int) -> Vector:
    """``as_vector(value, dim)``, its error (of the same class) prefixed with the argument's name."""
    try:
        return as_vector(value, dim)
    except ValueError as exc:
        raise type(exc)(f"{name}: {exc}") from None


def _validate_s_refs(problem: CompositeProblem, s_refs) -> Optional[np.ndarray]:
    if s_refs is None or len(s_refs) == 0:
        return None
    refs = np.array([_argument(f"s_refs[{i}]", s, problem.dim) for i, s in enumerate(s_refs)])
    sol = problem.solution
    if sol is not None:
        for s, excess in zip(refs, _objective_rows(problem, refs) - sol.mu):
            if not excess <= 1e-6 * max(1.0, abs(sol.mu)):
                raise ValueError(
                    f"reference point {s.tolist()} is not a minimizer "
                    f"(objective excess {excess:g})"
                )
    return refs


def _empty_trace(
    problem: CompositeProblem,
    ts: np.ndarray,
    kind: str,
    schedule_id: str,
    s_refs: Optional[np.ndarray],
    snapshot_every: int,
    window: Optional[RowWindow] = None,
) -> Trace:
    """A vector-free trace with every scalar column but ``ts`` allocated and not yet filled.

    The columns have ``ts.size`` rows, or, given ``window``, hold its rows
    (:meth:`RowWindow.column`).
    """
    sol = problem.solution
    mu = None if sol is None else sol.mu
    column = (lambda *tail: np.empty((ts.size, *tail))) if window is None else window.column
    columns = {field: column() for _, field in _COLUMNS if field not in ("ts", "delta", "xi")}
    return Trace(
        kind=kind,
        problem_id=problem.problem_id,
        schedule_id=schedule_id,
        beta=problem.f.beta,
        mu=mu,
        ts=ts,
        delta=None if mu is None else column(),
        xi=None if mu is None or s_refs is None else column(s_refs.shape[0]),
        s_refs=s_refs,
        snapshot_every=snapshot_every,
        **columns,
    )


def _fill_rows(trace: Trace, window: RowWindow, problem: CompositeProblem, lo: int, hi: int) -> Optional[int]:
    """Compute the derived columns of rows lo..hi in place from the x and y rows of ``window``.

    Every column is row-local or reads row k - 1 too, so row lo - 1 is
    carried in; the columns that relate consecutive rows are NaN at row 0.
    The z rows are written into ``window``. F is evaluated over at least
    ``_CSV_CHUNK`` finite rows, or over every row up to ``hi`` when there
    are fewer: a BLAS-backed objective may round a handful of rows
    differently, so this keeps each F bit equal to one evaluation over the
    whole trace. Returns the first of rows lo..hi whose F is NaN, or None.
    """
    beta = trace.beta
    w = max(lo - 1, 0)
    ts, xs, ys, zs = trace.ts[w:hi], window.x(w, hi), window.y(w, hi), window.z(w, hi)
    new = slice(lo - w, None)
    pairs = slice(w + 1, hi)  # rows k >= 1 of lo..hi; row k - 1 sits one place earlier
    zs[new] = (1.0 - ts[new])[:, None] * xs[new] + ts[new, None] * ys[new]

    f_lo = max(0, min(lo, hi - _CSV_CHUNK - 1))  # C + 1 rows, one of them maybe the aborted row
    f_rows = window.x(f_lo, hi)
    finite = np.isfinite(f_rows).all(axis=1)
    F = np.full(hi - f_lo, np.nan)  # an aborted row stays NaN
    F[finite] = _objective_rows(problem, f_rows[finite], strict=False)
    trace.F_x[lo:hi] = F[lo - f_lo :]
    if trace.delta is not None:
        trace.delta[lo:hi] = trace.F_x[lo:hi] - trace.mu

    if lo == 0:
        trace.res_convex[0] = trace.res_suffdec[0] = np.nan
        if trace.xi is not None:
            trace.xi[0] = np.nan
    if trace.xi is not None:
        t_prev_sq = ts[:-1] ** 2
        for j, s in enumerate(trace.s_refs):
            trace.xi[pairs, j] = t_prev_sq * trace.delta[pairs] + 0.5 * beta * np.sum((zs[1:] - s) ** 2, axis=1)

    # z definition recomputed through a different grouping of the same
    # affine combination; nonzero residual is pure floating-point noise.
    regrouped = xs[new] + ts[new, None] * (ys[new] - xs[new])
    trace.res_zdef[lo:hi] = _row_norms(zs[new] - regrouped)

    t_prev = ts[:-1, None]
    combo = (1.0 - 1.0 / t_prev) * xs[:-1] + zs[1:] / t_prev
    trace.res_convex[pairs] = _row_norms(xs[1:] - combo)

    dx = _row_norms(xs[1:] - xs[:-1])
    dy = _row_norms(xs[:-1] - ys[:-1])
    prev_F = trace.F_x[w : hi - 1]
    slack = prev_F - trace.F_x[pairs] - 0.5 * beta * (dx**2 - dy**2)
    slack[~np.isfinite(prev_F)] = np.nan
    trace.res_suffdec[pairs] = slack

    trace.gap_xy[lo:hi] = _row_norms(ys[new] - xs[new])
    trace.norm_x[lo:hi] = _row_norms(xs[new])
    trace.norm_z[lo:hi] = _row_norms(zs[new])
    nan_F = np.isnan(trace.F_x[lo:hi])
    return lo + int(np.argmax(nan_F)) if nan_F.any() else None


def _run(
    problem: CompositeProblem,
    x0,
    iterations: int,
    ts: np.ndarray,
    kind: str,
    schedule_id: str,
    s_refs: Sequence,
    snapshot_every: int,
    analyses: Optional[AnalysisStream],
    csv_path=None,
) -> Trace:
    """The one iteration core behind every public runner, and the one loop over a run's rows.

    Each pass is one chunk ``[lo, hi) = [k*C, (k+1)*C)`` (C = ``_CSV_CHUNK``,
    the last one short): it slides a streamed window past the rows nothing
    reads any more, steps from row lo - 1 to row hi - 1 (:func:`_iterate`,
    with the stepper :func:`_chunk_steps` chose once for the run),
    then builds the chunk up to its first non-finite row, if any: fills its
    columns, writes their CSV rows where ``csv_path`` is given, keeps its
    snapshot rows and, unless the run aborts in it, folds ``analyses`` over
    it. The CSV file, and its directory where missing, is made at the first
    chunk's write, so a run that fails at set-up makes neither; it is
    closed when the run ends, however it ends. The scalar columns of such
    a run, all but ``ts``, are held in the window (:meth:`RowWindow.column`).
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if snapshot_every < 1:
        raise ValueError("snapshot_every must be >= 1")
    x0 = _argument("x0", x0, problem.dim)
    refs = _validate_s_refs(problem, s_refs)
    streamed = analyses is not None
    held = min(ts.size, _WINDOW) if streamed else ts.size
    window = RowWindow(*(np.empty((held, x0.size)) for _ in range(3)))
    window.xs[0] = window.ys[0] = x0
    trace = _empty_trace(problem, ts, kind, schedule_id, refs, snapshot_every, None if csv_path is None else window)
    if streamed:
        analyses.start(trace, x0)  # every probe draw, before the first row
    steps = _chunk_steps(problem)
    snapshots = []
    what = "non-finite iterate"
    # a non-finite value ends the run as NonFiniteIterateError and stays in
    # the trace, so numpy's overflow and invalid-value warnings are noise
    with np.errstate(over="ignore", invalid="ignore"), contextlib.ExitStack() as files:
        for lo in range(0, ts.size, _CSV_CHUNK):
            hi = min(lo + _CSV_CHUNK, ts.size)
            if streamed:
                window.slide(max(lo - _CSV_CHUNK, 0), lo)
            bad_row = _iterate(steps, ts, window, max(lo - 1, 0), hi - 1)
            top = hi if bad_row is None else bad_row + 1
            nan_row = _fill_rows(trace, window, problem, lo, top)
            if nan_row is not None and nan_row != bad_row:  # a NaN F at a finite x, before any bad y
                bad_row, top, what = nan_row, nan_row + 1, "objective evaluated to NaN"
            if csv_path is not None:
                if lo == 0:
                    Path(csv_path).parent.mkdir(parents=True, exist_ok=True)
                    csv = files.enter_context(open(csv_path, "wb"))
                _write_csv_rows(csv, trace, lo, top)
            if streamed:
                if bad_row is None:  # no caller reads the checks of an aborted run
                    analyses.update(trace, window, lo, top)
                first = -(-lo // snapshot_every) * snapshot_every
                snapshots.append(window.snapshots(lo, top, range(first, top, snapshot_every)))
            if bad_row is not None:
                break
    if streamed:
        if (top - 1) % snapshot_every:
            snapshots.append(window.snapshots(top - 1, top, [top - 1]))
        trace.snapshots = np.concatenate(snapshots)
    else:
        trace.xs, trace.ys, trace.zs = window.xs, window.ys, window.zs
    if bad_row is not None:
        # copies, so the partial trace does not hold the whole preallocation;
        # a window column stays as it is, its rows from top on never read
        kept = {
            name: getattr(trace, name)[:top].copy()
            for name in _ROW_COLUMNS
            if isinstance(getattr(trace, name), np.ndarray)
        }
        raise NonFiniteIterateError(bad_row, dataclasses.replace(trace, **kept), what)
    return trace


def fista_run(
    problem: CompositeProblem,
    x0,
    schedule,
    iterations: int,
    s_refs: Sequence = (),
    snapshot_every: int = 1,
    *,
    analyses: Optional[AnalysisStream] = None,
    csv_path=None,
) -> Trace:
    """Accelerated proximal gradient run with a full diagnostic trace.

    The schedule (a :class:`Schedule`, or its ``spec``: a rule name or an
    explicit value sequence) is certified over 0..iterations before the
    first step; the extrapolation point starts at x0. Reference points in
    ``s_refs`` must be minimizers when the optimal value is known; each
    contributes an xi column to the trace. A non-finite iterate, or a NaN
    objective value, aborts the run with :class:`NonFiniteIterateError`,
    the offending row retained in the attached partial trace. Given ``analyses``, their checks are folded
    over the rows as the run goes (read them with its ``results``), and the
    trace keeps no per-row vectors, only its snapshot rows; without, it
    keeps every row of x, y and z. Given ``csv_path``, the run writes its
    trace.csv there chunk by chunk as it builds the rows (through the
    aborted row, if it aborts; the file and its directory are made at the
    first chunk), and its scalar columns other than ``ts`` hold only a
    window of rows (:class:`_WindowColumn`), so the trace has no
    :meth:`~Trace.to_csv`.
    """
    sched = schedule if isinstance(schedule, Schedule) else Schedule(schedule)
    ts = sched.prefix(iterations)  # raises ScheduleError before any iteration
    return _run(problem, x0, iterations, ts, "fista", sched.rule, s_refs, snapshot_every, analyses, csv_path)


def pgm_run(
    problem: CompositeProblem,
    x0,
    iterations: int,
    s_refs: Sequence = (),
    snapshot_every: int = 1,
    *,
    analyses: Optional[AnalysisStream] = None,
    csv_path=None,
) -> Trace:
    """Plain proximal gradient run, recorded like a trace: x_{k+1} is one proximal gradient step from x_k.

    Stored with t_k = 1 for every row, which makes the extrapolation point
    coincide with the iterate and keeps all structural identities valid.
    ``analyses`` and ``csv_path`` are as for :func:`fista_run`.
    """
    ts = np.ones(iterations + 1)
    return _run(problem, x0, iterations, ts, "pgm", "constant-1", s_refs, snapshot_every, analyses, csv_path)


def _require_zero_g(problem: CompositeProblem, x0: Vector) -> None:
    step = 1.0 / problem.f.beta
    probes = [x0, np.zeros(problem.dim), np.ones(problem.dim) * max(1.0, float(np.abs(x0).max()))]
    for p in probes:
        if problem.g.value(p) != 0.0:
            raise ValueError("nesterov_run requires g identically zero (nonzero value found)")
        moved = np.linalg.norm(np.asarray(problem.g.prox(p, step), dtype=float) - p)
        if moved > 1e-12 * max(1.0, float(np.linalg.norm(p))):
            raise ValueError("nesterov_run requires g identically zero (prox moved a probe)")


def nesterov_run(
    problem: CompositeProblem,
    x0,
    schedule,
    iterations: int,
    s_refs: Sequence = (),
    snapshot_every: int = 1,
    *,
    analyses: Optional[AnalysisStream] = None,
    csv_path=None,
) -> Trace:
    """Accelerated gradient descent: the g = 0 special case, by its own name.

    Probes g at a few points and rejects problems whose nonsmooth part is
    not identically zero; otherwise identical to :func:`fista_run`.
    """
    x0 = _argument("x0", x0, problem.dim)
    _require_zero_g(problem, x0)
    sched = schedule if isinstance(schedule, Schedule) else Schedule(schedule)
    ts = sched.prefix(iterations)
    return _run(problem, x0, iterations, ts, "nesterov", sched.rule, s_refs, snapshot_every, analyses, csv_path)
