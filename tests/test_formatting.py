"""The bulk cell formatter, the vector viridis map and the heatmap's cells
against per-value references."""

import csv
import io
import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ctrend.plots import _cohort_color, _viridis, svg_heatmap
from ctrend.report import _table_text


def cell_text(value) -> str:
    """Reference: the text of one cell, formatted on its own."""
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, float):  # includes numpy scalars; normalize first
        value = float(value)
        if math.isnan(value):
            return ""
        return repr(value)
    return str(value)


def reference_csv(header, rows, digest=None) -> str:
    buf = io.StringIO()
    if digest:
        buf.write(f"# manifest: {digest}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([cell_text(v) for v in row])
    return buf.getvalue()


def near(x):
    """Floats a few ulps either side of ``x``, where repr switches to exponent form."""
    return st.integers(-3, 3).map(lambda k: x * (1 + k * 2.0**-52))


python_floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -2.2250738585072014e-308]),
    near(1e16), near(-1e16), near(1e-4), near(1e-5), near(-1e-5),
)
values = st.one_of(
    python_floats,
    python_floats.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-(2**70), 2**70),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.none(),
    st.text(alphabet=st.sampled_from('ab ,"\n\r\'#;x1.'), max_size=8),
)


@st.composite
def tables(draw):
    width = draw(st.integers(1, 4))
    height = draw(st.integers(0, 12))
    return [draw(st.lists(values, min_size=height, max_size=height)) for _ in range(width)]


@st.composite
def array_columns(draw):
    """Columns as the bundle builds them (float64, integer and flag arrays), and float32."""
    height = draw(st.integers(0, 12))
    floats = draw(st.lists(python_floats, min_size=height, max_size=height))
    ints = draw(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=height, max_size=height))
    flags = draw(st.lists(st.booleans(), min_size=height, max_size=height))
    singles = draw(st.lists(st.floats(width=32), min_size=height, max_size=height))
    return [
        np.array(floats, dtype=np.float64),
        np.array(ints, dtype=np.int64),
        np.array(flags).astype(int),
        np.array(flags),
        np.array(singles, dtype=np.float32),
    ]


@settings(max_examples=300, deadline=None)
@given(tables(), st.sampled_from([None, "abc123"]))
def test_csv_text_matches_cell_by_cell(columns, digest):
    header = [f"c{k}" for k in range(len(columns))]
    rows = list(zip(*columns))
    assert _table_text(dict(zip(header, columns)), digest) == reference_csv(header, rows, digest)


@settings(max_examples=200, deadline=None)
@given(array_columns())
def test_array_columns_match_cell_by_cell(columns):
    header = ["f", "i", "flag", "bool", "f32"]
    text = _table_text(dict(zip(header, columns)), "d")
    reference_rows = list(zip(*columns))
    assert text == reference_csv(header, reference_rows, "d")
    # the cells, row by row, under the digest line and the header
    cells = [tuple(cell_text(v) for v in row) for row in reference_rows]
    assert text.splitlines()[2:] == [",".join(row) for row in cells]


VIRIDIS = [
    (0.0, (68, 1, 84)),
    (0.25, (59, 82, 139)),
    (0.5, (33, 145, 140)),
    (0.75, (94, 201, 98)),
    (1.0, (253, 231, 37)),
]


def viridis_scalar(t: float) -> str:
    """Reference: the colour of one value."""
    t = min(max(t, 0.0), 1.0)
    for (t0, c0), (t1, c1) in zip(VIRIDIS, VIRIDIS[1:]):
        if t <= t1:
            f = (t - t0) / (t1 - t0)
            r, g, b = (round(a + f * (b_ - a)) for a, b_ in zip(c0, c1))
            return f"#{r:02x}{g:02x}{b:02x}"
    return "#fde725"


def channel_ties():
    """Values of t whose interpolated channel is exactly k + 0.5."""
    ties = []
    for (t0, c0), (t1, c1) in zip(VIRIDIS, VIRIDIS[1:]):
        for m in range(1, 64):
            f = m / 64
            t = t0 + f * (t1 - t0)
            for a, b in zip(c0, c1):
                channel = a + (t - t0) / (t1 - t0) * (b - a)
                if channel % 1 == 0.5:
                    ties.append((t, channel))
    return ties


def test_viridis_knots_ties_and_clipping():
    ties = channel_ties()
    # half to even differs from half up only at an even integer part
    assert any(int(channel) % 2 == 0 for _, channel in ties)
    t = [knot for knot, _ in VIRIDIS] + [t for t, _ in ties] + [
        -1.0, -1e-300, -0.0, 1.0 + 2**-52, 2.0, math.inf, -math.inf, math.nan,
    ]
    assert _viridis(np.array(t)) == [viridis_scalar(v) for v in t]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-0.5, 1.5, allow_subnormal=True), max_size=30))
def test_viridis_matches_scalar(t):
    assert _viridis(np.array(t, dtype=float)) == [viridis_scalar(v) for v in t]


def reference_cells(grid, cohort_shading) -> str:
    """Reference: the heatmap's cell rects, row by row, each formatted on its own."""
    ni, nj = grid.shape
    cell = max(6, min(22, int(640 / max(ni, nj))))
    finite = np.isfinite(grid)
    lo, hi = float(grid[finite].min()), float(grid[finite].max())
    span = hi - lo if hi > lo else 1.0
    rects = []
    for i in range(ni):
        for j in range(nj):
            t = (float(grid[i, j]) - lo) / span
            if not finite[i, j]:
                fill = "#eeeeee"
            elif cohort_shading:
                fill = _cohort_color(j - i, t)
            else:
                fill = viridis_scalar(t)
            rects.append(
                f'<rect x="{70 + j * cell}" y="{40 + (ni - 1 - i) * cell}" '
                f'width="{cell}" height="{cell}" fill="{fill}"/>'
            )
    return "".join(rects)


def check_heatmap(grid, cohort_shading, annotations):
    ni, nj = grid.shape
    svg = svg_heatmap(
        grid, list(range(2000, 2000 + ni)), list(range(30, 30 + nj)), "title", "value",
        cohort_shading=cohort_shading, manifest="abc123", annotations=annotations,
    )
    head, found, tail = svg.partition(reference_cells(grid, cohort_shading))
    assert found
    # the cells come right after the title and before the dots and the labels
    assert head.endswith(">title</text>")
    assert tail.startswith("<circle" if annotations else "<text")
    assert svg.count("<rect") == 1 + ni * nj + 24  # the background and the colour key


def heatmap_grid(rng, shape, nan_share):
    grid = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4)
    grid[rng.random(shape) < nan_share] = np.nan
    grid.flat[rng.integers(grid.size)] = rng.normal()  # at least one finite value
    return grid


def test_heatmap_cells_match_reference():
    rng = np.random.default_rng(7)
    shapes = [(1, 1), (1, 6), (5, 1), (3, 7), (29, 30), (45, 40), (80, 3)]
    for shape in shapes:
        for nan_share in (0.0, 0.3):
            grid = heatmap_grid(rng, shape, nan_share)
            marks = [tuple(cell) for cell in np.argwhere(rng.random(shape) < 0.1).tolist()]
            for cohort_shading in (False, True):
                check_heatmap(grid, cohort_shading, marks)
    check_heatmap(np.array([[np.nan, 2.0], [2.0, np.nan]]), False, [(0, 1)])  # one value: span 1
    check_heatmap(np.array([[-0.0]]), True, None)


@settings(max_examples=100, deadline=None)
@given(
    arrays(float, st.tuples(st.integers(1, 6), st.integers(1, 6)),
           elements=st.one_of(st.floats(-1e6, 1e6), st.just(math.nan))),
    st.booleans(),
)
def test_heatmap_cells_match_reference_on_small_grids(grid, cohort_shading):
    assume(np.isfinite(grid).any())
    check_heatmap(grid, cohort_shading, [(0, 0)])
