"""Bulk matrix-file conversion against the per-line reader and writer it
replaced, kept here verbatim as oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from propersplit import MatrixFormatError, format_matrix, matrixfile, parse_matrix


def oracle_parse_matrix(text: str, name: str = "<matrix>") -> np.ndarray:
    rows_needed = cols_needed = None
    rows: list[list[float]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if rows_needed is None:
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
            continue
        if len(rows) == rows_needed:
            raise MatrixFormatError(f"{name}:{lineno}: more than {rows_needed} data rows")
        if len(tokens) != cols_needed:
            raise MatrixFormatError(
                f"{name}:{lineno}: expected {cols_needed} values, got {len(tokens)}"
            )
        try:
            row = [float(t) for t in tokens]
        except ValueError as exc:
            raise MatrixFormatError(f"{name}:{lineno}: unparseable number in {raw!r}") from exc
        if not all(np.isfinite(row)):
            raise MatrixFormatError(f"{name}:{lineno}: non-finite value")
        rows.append(row)
    if rows_needed is None:
        raise MatrixFormatError(f"{name}: no header line found")
    if len(rows) != rows_needed:
        raise MatrixFormatError(
            f"{name}: header promises {rows_needed} rows, found {len(rows)}"
        )
    return np.array(rows, dtype=float)


def oracle_format_matrix(a, comments=()) -> str:
    a = np.asarray(a, dtype=float)
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    lines = [f"# {c}" for c in comments]
    lines.append(f"{a.shape[0]} {a.shape[1]}")
    for row in a:
        lines.append(" ".join(f"{x:.17g}" for x in row))
    return "\n".join(lines) + "\n"


def _outcome(parse, text):
    """``("ok", bits)`` or ``("error", message)`` for one parser on one text."""
    try:
        m = parse(text, name="m.mat")
    except MatrixFormatError as exc:
        return "error", str(exc)
    return "ok", (m.shape, m.tobytes())


# tokens float() reads, in several spellings, and tokens it rejects
STYLES = ("{:.17g}", "{!r}", "{:.3e}", "{:.6f}", "{:.1g}")
ODD_GOOD = ("1_000", "١٢", "+1", ".5", "1.", "1E5", "-0", "infinity", "1e-400")
BAD = ("x", "1e", "0x10", "1..2", "--1", "1,5", "nan(1)", "_1", "1__0", "e5")
NON_FINITE = ("inf", "-inf", "nan", "1e999", "Infinity", "-NaN")
FAULTS = ("bad token", "non-finite", "short row", "extra row", "missing row")


@st.composite
def matrix_texts(draw, n_faults):
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 5))
    floats = st.floats(allow_nan=False, allow_infinity=False, width=64)
    rows = [
        [
            draw(st.sampled_from(ODD_GOOD))
            if draw(st.integers(0, 9)) == 0
            else draw(st.sampled_from(STYLES)).format(draw(floats))
            for _ in range(n)
        ]
        for _ in range(m)
    ]
    for _ in range(n_faults):
        fault = draw(st.sampled_from(FAULTS))
        i = draw(st.integers(0, len(rows) - 1)) if rows else 0
        if fault in ("bad token", "non-finite") and rows and rows[i]:
            j = draw(st.integers(0, len(rows[i]) - 1))
            rows[i][j] = draw(st.sampled_from(BAD if fault == "bad token" else NON_FINITE))
        elif fault == "short row" and rows and rows[i]:
            rows[i] = rows[i][:-1]
        elif fault == "extra row":
            rows.insert(i, list(rows[i]) if rows else ["1"] * n)
        elif fault == "missing row" and rows:
            del rows[i]
    lines = [f"{m} {n}"]
    if draw(st.booleans()):
        lines.insert(0, "# leading comment")
    for row in rows:
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(["", "# comment", "   "])))
        lines.append(draw(st.sampled_from([" ", "\t", "  "])).join(row))
    return "\n".join(lines) + draw(st.sampled_from(["\n", "", "\n\n"]))


@settings(max_examples=300, deadline=None)
@given(matrix_texts(0))
def test_well_formed_texts_parse_bit_for_bit(text):
    got, want = _outcome(parse_matrix, text), _outcome(oracle_parse_matrix, text)
    assert got == want


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 2).flatmap(matrix_texts))
def test_faulty_texts_raise_the_same_error(text):
    assert _outcome(parse_matrix, text) == _outcome(oracle_parse_matrix, text)


@pytest.mark.parametrize(
    "text",
    [
        "2 2\n1 x\n3 4\n5 6\n",  # bad token before an extra row
        "2 2\n1 inf\n3\n",  # non-finite value before a short row
        "2 2\n1 2\n3 y\n",  # bad token on the last row
        "3 2\n1 2\n1e999 4\n",  # non-finite value before a missing row
        "2 2\n1 2\n3 4 5\n6 x\n",  # short row before a bad token
        "2 2\n١ 1_0\n-0 .5\n",  # accepted by float()
    ],
)
def test_earliest_fault_is_reported(text):
    assert _outcome(parse_matrix, text) == _outcome(oracle_parse_matrix, text)


# characters str.split splits fields on; the C reader must split on the same
FIELD_SPACE = (" ", "\t", "\x1f", "\xa0", "\u2003")
LINE_ENDS = ("\n", "\r\n", "\r")
# signed tokens, tokens only float() reads, then tokens neither reader takes
ODD_TOKENS = ("+1", "+.5", "1_000", "١٢", "-٣.5", "1\x00", "\x002", "#3", "1#", "1e5_0")
# put once into a row: whitespace that also ends a line, NUL, inline comments
INSERTS = ("\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\x00", "#", " # note")


@st.composite
def odd_texts(draw):
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 4))
    floats = st.floats(allow_nan=False, allow_infinity=False, width=64)
    separators = st.text(st.sampled_from(FIELD_SPACE), min_size=1, max_size=2)
    lines = [f"{m} {n}"]
    # hypothesis favours the ends of a range, so a middle value keeps odd
    # tokens and inserts rare enough that most texts reach the C reader
    for _ in range(m):
        tokens = [
            draw(st.sampled_from(ODD_TOKENS))
            if draw(st.integers(0, 11)) == 7
            else draw(st.sampled_from(STYLES)).format(draw(floats))
            for _ in range(n)
        ]
        row = draw(st.sampled_from(["", " ", "\xa0"]))
        for token in tokens:
            row += token + draw(separators)
        if draw(st.integers(0, 5)) == 3:
            at = draw(st.integers(0, len(row)))
            row = row[:at] + draw(st.sampled_from(INSERTS)) + row[at:]
        lines.append(row)
    text = ""
    for line in lines:
        text += line + draw(st.sampled_from(LINE_ENDS))
    return text


@settings(max_examples=500, deadline=None)
@given(odd_texts())
def test_odd_whitespace_line_ends_and_tokens_match_the_oracle(text):
    assert _outcome(parse_matrix, text) == _outcome(oracle_parse_matrix, text)


@pytest.fixture
def row_by_row_calls(monkeypatch):
    """The calls ``parse_matrix`` makes to the per-row path."""
    calls = []
    per_row = matrixfile._parse_rows

    def spy(*args):
        calls.append(args)
        return per_row(*args)

    monkeypatch.setattr(matrixfile, "_parse_rows", spy)
    return calls


def test_c_reader_converts_a_written_matrix(row_by_row_calls):
    a = np.random.default_rng(7).standard_normal((150, 120))
    got = parse_matrix(format_matrix(a))
    assert not row_by_row_calls
    assert got.tobytes() == a.tobytes()


def test_float_only_token_takes_the_per_row_path(row_by_row_calls):
    text = format_matrix(np.random.default_rng(8).standard_normal((5, 4)))
    lines = text.splitlines()
    lines[3] = lines[3].replace(lines[3].split()[2], "1_000")
    text = "\n".join(lines) + "\n"
    got = _outcome(parse_matrix, text)
    assert len(row_by_row_calls) == 1
    assert got == _outcome(oracle_parse_matrix, text)
    assert got[0] == "ok"


EXTREMES = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e300,
    1.7976931348623157e308, 0.1, 1.0 / 3.0, -123456789.125, 1e16, 9007199254740993.0,
]


def test_format_is_byte_identical_on_extreme_values():
    a = np.array(EXTREMES[:12]).reshape(3, 4)
    assert format_matrix(a) == oracle_format_matrix(a)
    comments = ["c1", "c2"]
    assert format_matrix(a.T, comments=comments) == oracle_format_matrix(a.T, comments=comments)
    v = np.array(EXTREMES)
    assert format_matrix(v) == oracle_format_matrix(v)
    assert format_matrix(v.reshape(1, -1)) == oracle_format_matrix(v.reshape(1, -1))
    assert np.array_equal(parse_matrix(format_matrix(a)).view(np.uint64), a.view(np.uint64))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.floats(allow_nan=False, width=64), min_size=n, max_size=n),
            min_size=1,
            max_size=4,
        )
    )
)
def test_format_is_byte_identical(rows):
    a = np.array(rows)
    assert format_matrix(a) == oracle_format_matrix(a)
