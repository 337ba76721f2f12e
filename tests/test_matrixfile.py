"""Round-trip and error handling for the text matrix format."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from propersplit import MatrixFormatError, format_matrix, parse_matrix, read_matrix, write_matrix
from propersplit.matrixfile import read_vector


def test_parse_basic():
    m = parse_matrix("# comment\n2 3\n1 2 3\n4 5 6\n")
    assert m.shape == (2, 3)
    assert m[1, 2] == 6.0


def test_comments_and_blank_lines():
    text = "\n# leading comment\n\n2 2\n# between\n1 0\n\n0 1\n# trailing\n"
    assert np.array_equal(parse_matrix(text), np.eye(2))


def test_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(5)
    m = rng.standard_normal((4, 3)) * np.exp(rng.uniform(-30, 30, (4, 3)))
    path = tmp_path / "m.mat"
    write_matrix(path, m, comments=["row major", "second comment"])
    back = read_matrix(path)
    assert np.array_equal(back, m)  # bitwise


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.floats(allow_nan=False, allow_infinity=False, width=64),
        min_size=1,
        max_size=12,
    )
)
def test_roundtrip_hypothesis(values):
    m = np.array(values).reshape(1, -1)
    assert np.array_equal(parse_matrix(format_matrix(m)), m)


@pytest.mark.parametrize(
    "text",
    [
        "",                        # no header
        "2\n1 2\n3 4\n",           # short header
        "2 2\n1 2 3\n4 5 6\n",     # wrong column count
        "2 2\n1 2\n",              # missing row
        "2 2\n1 2\n3 4\n5 6\n",    # extra row
        "2 2\n1 x\n3 4\n",         # bad token
        "0 2\n",                   # nonpositive dimension
        "2.5 2\n1 2\n3 4\n",       # non-integer dimension
        "2 2\n1 inf\n3 4\n",       # non-finite value
    ],
)
def test_parse_errors(text):
    with pytest.raises(MatrixFormatError):
        parse_matrix(text)


def test_byte_order_mark_is_dropped(tmp_path):
    plain, marked = tmp_path / "plain.mat", tmp_path / "bom.mat"
    plain.write_bytes(b"2 2\n1 0\n0 1\n")
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert np.array_equal(read_matrix(marked), read_matrix(plain))


def test_byte_order_mark_counts_in_bad_byte_offset(tmp_path):
    p = tmp_path / "bom.mat"
    p.write_bytes(b"\xef\xbb\xbf2 2\n1 \xff\n3 4\n")
    with pytest.raises(MatrixFormatError, match="not valid UTF-8 at byte 9$"):
        read_matrix(p)


def test_read_vector_both_orientations(tmp_path):
    p = tmp_path / "v.mat"
    write_matrix(p, np.array([[1.0], [2.0], [3.0]]))
    assert read_vector(p).tolist() == [1.0, 2.0, 3.0]
    write_matrix(p, np.array([[1.0, 2.0, 3.0]]))
    assert read_vector(p).tolist() == [1.0, 2.0, 3.0]


def test_read_vector_rejects_matrix(tmp_path):
    p = tmp_path / "m.mat"
    write_matrix(p, np.eye(2))
    with pytest.raises(MatrixFormatError):
        read_vector(p)
