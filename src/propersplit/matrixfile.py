"""Plain-text matrix files.

Format: any number of full-line comments starting with ``#``, then a header
line ``m n``, then ``m`` lines of ``n`` whitespace-separated decimal numbers.
Blank lines are ignored.  The writer emits 17 significant digits, which
round-trips float64 values exactly.

The reader converts the data lines with numpy's C text reader and re-reads
line by line only text that reader refuses, so it accepts every token
``float()`` reads and reports each fault at its line, whichever reader ran.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import MatrixFormatError

__all__ = [
    "parse_matrix",
    "read_matrix",
    "read_vector",
    "format_matrix",
    "write_matrix",
]


def parse_matrix(text: str, name: str = "<matrix>") -> np.ndarray:
    """The matrix written in ``text``; ``name`` prefixes every error message.

    One pass over the lines reads the header and collects the data lines.
    When there are as many of those as the header promises, numpy's C text
    reader converts them in one call, and its result is kept if it has the
    promised shape and every entry is finite.  Any other text goes through
    ``_parse_rows``, which reports its earliest fault or reads the tokens
    only ``float()`` accepts, such as ``1_000``.  Both readers round with
    ``PyOS_string_to_double`` and split fields as ``str.split`` does, so the
    bits do not depend on which reader ran.
    """
    rows_needed = cols_needed = None
    data: list[tuple[int, str]] = []  # (line number, line) of each data line
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if rows_needed is not None:
            data.append((lineno, raw))
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise MatrixFormatError(
                f"{name}:{lineno}: header must be 'm n', got {raw!r}"
            )
        try:
            rows_needed, cols_needed = int(tokens[0]), int(tokens[1])
        except ValueError as exc:
            raise MatrixFormatError(f"{name}:{lineno}: bad header {raw!r}") from exc
        if rows_needed < 1 or cols_needed < 1:
            raise MatrixFormatError(
                f"{name}:{lineno}: dimensions must be positive, got {rows_needed} {cols_needed}"
            )
    if rows_needed is None:
        raise MatrixFormatError(f"{name}: no header line found")
    if len(data) == rows_needed:
        try:
            matrix = np.loadtxt([raw for _, raw in data], dtype=float, comments=None, ndmin=2)
        except ValueError:
            pass
        else:
            if matrix.shape == (rows_needed, cols_needed) and np.isfinite(matrix).all():
                return matrix
    return _parse_rows(data, rows_needed, cols_needed, name)


def _parse_rows(
    data: list[tuple[int, str]], rows_needed: int, cols_needed: int, name: str
) -> np.ndarray:
    """The data lines read one row at a time, or the error naming the
    earliest faulty line."""
    rows: list[np.ndarray] = []
    linenos: list[int] = []  # the line number of each row
    for lineno, raw in data:
        tokens = raw.split()
        # finiteness is tested once, at the end, so a non-finite value on an
        # earlier line is looked for before any fault on this one is reported
        if len(rows) == rows_needed:
            _finite_rows(rows, linenos, name)
            raise MatrixFormatError(f"{name}:{lineno}: more than {rows_needed} data rows")
        if len(tokens) != cols_needed:
            _finite_rows(rows, linenos, name)
            raise MatrixFormatError(
                f"{name}:{lineno}: expected {cols_needed} values, got {len(tokens)}"
            )
        try:
            # numpy's string cast accepts and rejects the same tokens as float()
            rows.append(np.array(tokens, dtype=float))
        except ValueError as exc:
            _finite_rows(rows, linenos, name)
            raise MatrixFormatError(f"{name}:{lineno}: unparseable number in {raw!r}") from exc
        linenos.append(lineno)
    matrix = _finite_rows(rows, linenos, name)
    if len(rows) != rows_needed:
        raise MatrixFormatError(
            f"{name}: header promises {rows_needed} rows, found {len(rows)}"
        )
    return matrix


def _finite_rows(rows: list[np.ndarray], linenos: list[int], name: str) -> np.ndarray:
    """The rows stacked into one array, or the error naming the first line
    that holds a non-finite value."""
    matrix = np.array(rows, dtype=float)
    finite = np.isfinite(matrix)
    if not finite.all():
        first = int(np.argmin(finite.all(axis=-1)))
        raise MatrixFormatError(f"{name}:{linenos[first]}: non-finite value")
    return matrix


def read_matrix(path) -> np.ndarray:
    """The matrix in the file at ``path``, which must be UTF-8 text.

    One leading byte-order mark is dropped after decoding, so a bad byte's
    offset still counts from the start of the file."""
    name = os.fspath(path)
    with open(path, "rb") as fh:
        content = fh.read()
    try:
        text = content.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MatrixFormatError(f"{name}: not valid UTF-8 at byte {exc.start}") from exc
    return parse_matrix(text.removeprefix("\ufeff"), name=name)


def read_vector(path) -> np.ndarray:
    """Read a matrix file whose shape is m x 1 or 1 x n and flatten it."""
    m = read_matrix(path)
    if 1 not in m.shape:
        raise MatrixFormatError(f"{os.fspath(path)}: expected a vector, got shape {m.shape}")
    return m.reshape(-1)


def format_matrix(a, comments=()) -> str:
    a = np.asarray(a, dtype=float)
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    lines = [f"# {c}" for c in comments]
    lines.append(f"{a.shape[0]} {a.shape[1]}")
    # one %-format call per row on a per-matrix template, on Python floats;
    # one row at a time keeps the temporaries small
    row_format = " ".join(["%.17g"] * a.shape[1])
    lines.extend(row_format % tuple(row.tolist()) for row in a)
    return "\n".join(lines) + "\n"


def write_matrix(path, a, comments=()) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_matrix(a, comments=comments))
