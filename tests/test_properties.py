"""Property tests: the training tap kernel over random shapes, and the
bulk CSV reader and screened kNN against their frozen references."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dctl.conv import channelwise_forward
from dctl.data import DatasetFormatError, load_matrix
from dctl.evaluation import _nearest
from dctl.prox import _conv_rows
from oracles import conv_direct, knn_order_reference, parse_csv_reference


@st.composite
def stacks(draw):
    """(seed, M, N, K) with 1 <= K <= N, as the trainer allows."""
    n = draw(st.integers(1, 24))
    return (
        draw(st.integers(0, 2**32 - 1)),
        draw(st.integers(1, 4)),
        n,
        draw(st.integers(1, n)),
    )


@settings(max_examples=60, deadline=None)
@given(stacks())
def test_channelwise_forward_equals_direct_convolution(shape):
    seed, m, n, k = shape
    rng = np.random.default_rng(seed)
    stack = rng.standard_normal((m, n, k))
    bank = rng.standard_normal((k, k))
    out = channelwise_forward(stack, bank)
    assert out.shape == (m, n, k)
    for i in range(m):
        for c in range(k):
            expected = conv_direct(stack[i, :, c], bank[:, c])
            assert np.max(np.abs(out[i, :, c] - expected)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(stacks())
def test_conv_rows_adjoint_inner_product_identity(shape):
    # <C x, y> == <x, C^T y> for a 1-D kernel over (M, N) rows and a
    # (K, C) bank over (M, N, C) rows
    seed, m, n, k = shape
    rng = np.random.default_rng(seed)
    for kernel, dims in ((rng.standard_normal(k), (m, n)),
                         (rng.standard_normal((k, 3)), (m, n, 3))):
        x = rng.standard_normal(dims)
        y = rng.standard_normal(dims)
        lhs = np.sum(_conv_rows(x, kernel) * y)
        rhs = np.sum(x * _conv_rows(y, kernel, adjoint=True))
        scale = np.sum(np.abs(kernel)) * np.sqrt(np.sum(x * x) * np.sum(y * y))
        assert abs(lhs - rhs) <= 1e-13 * scale


NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
)
# cells the bulk reader must hand back, or must read as float() does
ODD_CELLS = st.sampled_from([
    "", " ", "\t", " 1.5 ", "\u20032", '"2"', '" 3 "', '"1\n2"', '"1\r\n2"', '"', '""',
    "1_000", "\u0661\u0662", "\uff13", "nan", "-inf", "1e999", "1e-400", "\x00",
    "1\x00", "abc", "0x10", ".5", "+1", "-0",
])
CELLS = st.integers(0, 9).flatmap(lambda r: NUMBERS if r < 8 else ODD_CELLS)
HEADERS = st.sampled_from(["f0,f1,label", "name", "a,1", '"x",y', '"a\nb",c', "\ufeff1,2"])
BLANKS = st.sampled_from(["", " ", " , ", "\t,"])
ENDINGS = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def csv_texts(draw):
    """Text of a CSV file: leading blanks, maybe a header, rows of cells
    (some ragged, some blank), with one or mixed line endings."""
    width = draw(st.integers(1, 4))
    lines = draw(st.lists(BLANKS, max_size=2))
    if draw(st.booleans()):
        lines.append(draw(HEADERS))
    for _ in range(draw(st.integers(0, 6))):
        if not draw(st.integers(0, 7)):
            lines.append(draw(BLANKS))
        cols = width if draw(st.integers(0, 7)) else draw(st.integers(1, width + 1))
        lines.append(",".join(draw(st.lists(CELLS, min_size=cols, max_size=cols))))
    if draw(st.booleans()):
        ending = draw(ENDINGS)
        endings = [ending] * len(lines)
    else:
        endings = draw(st.lists(ENDINGS, min_size=len(lines), max_size=len(lines)))
    if lines and not draw(st.booleans()):
        endings[-1] = ""
    return "".join(line + end for line, end in zip(lines, endings))


def assert_csv_matches_reference(path, text):
    path.write_bytes(text.encode("utf-8"))
    outcomes = []
    for parse in (load_matrix, lambda p: parse_csv_reference(p, DatasetFormatError)):
        try:
            values = parse(path)
            outcomes.append((values.dtype, values.shape, values.tobytes()))
        except Exception as exc:  # noqa: BLE001 - the outcome is what is compared
            outcomes.append((type(exc), str(exc)))
    assert outcomes[0] == outcomes[1]


# text the bulk reader takes, and text it hands back to the row-wise one
CSV_CASES = [
    "1,2\n3,4\n",
    "1,2\r\n3,4\r\n",
    "1,2\r3,4\r",
    "1,2\n3,4\r\n5,6\r7,8",
    "\n\r\n \n , \n1,2\n",
    "f0,f1\n1,2\n\n3,4\n",
    "\ufeff1,2\n3,4\n",
    "name\n\n",
    "\n\n",
    "",
    " 1 ,\t2\u2003\n3,4\n",
    "1_000,2\n",
    "\u0661\u0662,3\n4,5\n",
    "nan,1\n",
    "1,1e999\n",
    "f0,f1\n1,-inf\n",
    "1,2\x00\n3,4\n",
    "\x00,1\n2,3\n",
    '"1","2"\n3,4\n',
    '1,2\n"3",4\n',
    '"a\nb",c\n1,2\n',
    '"1\r\n2",3\n',
    'x,y\n"1",2\n',
    "1,2\n3\n",
    "1,2\n3,4,5\n",
    "1,2,\n",
    "1,2\n , \n3,4\n",
    "1,2\n3,\n",
    "a,b\nc,d\n1,2\n",
    "1,name\n1,2\n",
    "1,2\nname,3\n",
    "5\n6\n7\n",
    "0x10,1\n",
    ".5,5.,+1,-0\n",
    "1e-320,4.9e-324\n",
]


@pytest.mark.parametrize("text", CSV_CASES)
def test_csv_matches_row_wise_reference(tmp_path, text):
    assert_csv_matches_reference(tmp_path / "case.csv", text)



@settings(max_examples=400, deadline=None)
@given(text=csv_texts())
def test_csv_reader_matches_row_wise_reference(tmp_path_factory, text):
    assert_csv_matches_reference(tmp_path_factory.getbasetemp() / "drawn.csv", text)


@settings(max_examples=200, deadline=None)
@given(text=st.text(alphabet=',"\n\r \t0123456789.e-+_nafx\x00\u0661\u2003', max_size=40))
def test_csv_reader_matches_row_wise_reference_on_any_text(tmp_path_factory, text):
    assert_csv_matches_reference(tmp_path_factory.getbasetemp() / "drawn.csv", text)


@st.composite
def knn_grids(draw):
    """Integer grids full of exact ties, at a scale that may under- or overflow."""
    seed, n, m, d = (draw(st.integers(0, 2**32 - 1)), draw(st.integers(1, 30)),
                     draw(st.integers(1, 8)), draw(st.integers(1, 6)))
    k = draw(st.integers(1, n))
    scale = draw(st.sampled_from([1.0, 0.1, 1e-150, 1e150, 1e154, 1e-162, 1e-170]))
    rng = np.random.default_rng(seed)
    train = scale * rng.integers(-2, 3, (n, d))
    test = scale * rng.integers(-2, 3, (m, d))
    return train, test, k


@settings(max_examples=150, deadline=None)
@given(knn_grids())
def test_knn_neighbours_match_full_cdist_reference(case):
    train, test, k = case
    assert np.array_equal(_nearest(train, test, k), knn_order_reference(train, test, k))
