"""Dataset containers, CSV round-trips, and the planted-data generator."""

import csv
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from calr import dataset
from calr.calf import overlapping_training_points
from calr.dataset import (
    Dataset,
    GroundTruth,
    generate_separable,
    load_csv,
    load_matrix,
    write_csv,
)
from calr.exceptions import (
    CsvFormatError,
    DimensionMismatchError,
    InputError,
    PlacementError,
)
from calr.linreg import coefficient_distance


def test_dataset_defaults_and_validation():
    data = Dataset(X=np.array([[1.0, 2.0], [3.0, 4.0]]), y=np.array([5.0, 6.0]))
    assert data.n == 2 and data.d == 2 and len(data) == 2
    assert data.column_names == ("x1", "x2", "y")
    with pytest.raises(ValueError):
        data.X[0, 0] = 99.0  # stored arrays are read-only
    sub = data.subset([1])
    assert sub.n == 1 and sub.y[0] == 6.0
    assert data == Dataset(X=data.X, y=data.y)
    with pytest.raises(InputError):
        Dataset(X=np.array([1.0, 2.0]), y=np.array([1.0, 2.0]))
    with pytest.raises(DimensionMismatchError):
        Dataset(X=np.zeros((3, 1)), y=np.zeros(2))
    with pytest.raises(InputError):
        Dataset(X=np.array([[np.nan]]), y=np.array([1.0]))
    with pytest.raises(InputError):
        Dataset(X=np.zeros((2, 1)), y=np.zeros(2), column_names=("a", "b", "c"))


def test_csv_round_trip_preserves_every_bit(tmp_path):
    rng = np.random.default_rng(3)
    data = Dataset(X=rng.normal(size=(20, 3)) * 1e3, y=rng.normal(size=20) / 7.0)
    path = tmp_path / "data.csv"
    write_csv(data, path)
    back = load_csv(path)
    assert back == data
    assert_array_equal(back.X, data.X)
    assert_array_equal(back.y, data.y)


def test_csv_target_column_selection(tmp_path):
    path = tmp_path / "named.csv"
    path.write_text("a,b,c\n1,2,3\n4,5,6\n")
    default = load_csv(path)
    assert default.column_names == ("a", "b", "c")
    assert_array_equal(default.y, [3.0, 6.0])
    named = load_csv(path, target_column="a")
    assert named.column_names == ("b", "c", "a")
    assert_array_equal(named.X, [[2.0, 3.0], [5.0, 6.0]])
    assert_array_equal(named.y, [1.0, 4.0])
    with pytest.raises(CsvFormatError):
        load_csv(path, target_column="zz")


def test_csv_format_errors(tmp_path):
    cases = {
        "empty.csv": "",
        "header_only.csv": "a,b\n",
        "one_column.csv": "a\n1\n2\n",
    }
    for name, text in cases.items():
        p = tmp_path / name
        p.write_text(text)
        with pytest.raises(CsvFormatError):
            load_csv(p)
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("a,b\n1,2\n3\n")
    with pytest.raises(CsvFormatError) as exc:
        load_csv(ragged)
    assert exc.value.row == 3
    bad_cell = tmp_path / "cell.csv"
    bad_cell.write_text("a,b\n1,2\n3,oops\n")
    with pytest.raises(CsvFormatError) as exc:
        load_csv(bad_cell)
    assert exc.value.row == 3 and exc.value.column == 2
    with pytest.raises(InputError):
        load_matrix(tmp_path / "missing.csv")


def test_oversized_quoted_cells_raise_csv_format_errors(tmp_path):
    # csv's field limit is 131,072 characters; past it the reader raises
    # csv.Error, in the header read and in the cell-by-cell body parse.
    huge = '"' + "1" * 200_000 + '"'
    in_body = tmp_path / "body.csv"
    in_body.write_text("x,y\n1,2\n\n3," + huge + "\n")
    with pytest.raises(CsvFormatError, match="field larger than field limit") as exc:
        load_matrix(in_body)
    assert exc.value.row == 3
    in_header = tmp_path / "header.csv"
    in_header.write_text("x," + huge + "\n1,2\n")
    with pytest.raises(CsvFormatError, match="field larger than field limit") as exc:
        load_matrix(in_header)
    assert exc.value.row == 1


def reference_load_matrix(path):
    """load_matrix as it was before its numpy path: one float() per cell."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows = [r for r in rows if r and any(cell.strip() for cell in r)]
    if not rows:
        raise CsvFormatError("empty file")
    header = [c.strip() for c in rows[0]]
    body = rows[1:]
    if not body:
        raise CsvFormatError("no data rows after the header")
    values = np.empty((len(body), len(header)), dtype=float)
    for i, row in enumerate(body):
        if len(row) != len(header):
            raise CsvFormatError(f"expected {len(header)} cells, found {len(row)}", row=i + 2)
        for j, cell in enumerate(row):
            try:
                values[i, j] = float(cell)
            except ValueError:
                raise CsvFormatError(
                    f"non-numeric cell {cell.strip()!r}", row=i + 2, column=j + 1
                ) from None
    return tuple(header), values


CELL_FORMATS = {
    "repr": repr,
    "g6": lambda v: "%.6g" % v,
    "padded": lambda v: f" \t{v!r}  ",
}
# Each defect rewrites one cell (or one row's cell count) of a clean file.
DEFECTS = {
    "cell_count": lambda cells, j: cells[:-1] if len(cells) > 1 else cells + ["1.0"],
    "word": lambda cells, j: cells[:j] + ["oops"] + cells[j + 1 :],
    "hash": lambda cells, j: ["#" + cells[0]] + cells[1:],
    "quoted": lambda cells, j: cells[:j] + [f'"{cells[j]}"'] + cells[j + 1 :],
    "underscore": lambda cells, j: cells[:j] + ["1_000"] + cells[j + 1 :],
}


@st.composite
def csv_files(draw):
    """(text, defect or None, whether every blank line after the header is empty)."""
    k = draw(st.integers(1, 4))
    n = draw(st.integers(1, 6))
    names = [f" col{j} " for j in range(k)]
    # A quoted line break makes the header two physical lines.
    split = draw(st.sampled_from([None, "\n", "\r\n"]))
    if split is not None:
        names[0] = f'"col0{split}part"'
    lines = [",".join(names)]
    for _ in range(n):
        cells = []
        for _ in range(k):
            v = draw(st.floats(allow_nan=False, allow_infinity=False))
            cells.append(CELL_FORMATS[draw(st.sampled_from(sorted(CELL_FORMATS)))](v))
        lines.append(cells)
    defect = draw(st.sampled_from([None, "header_cell"] + sorted(DEFECTS)))
    if defect == "header_cell":  # every data row one cell short
        lines[0] += ",extra"
    elif defect is not None:
        i = draw(st.integers(1, n))
        lines[i] = DEFECTS[defect](lines[i], draw(st.integers(0, k - 1)))
    lines = [line if isinstance(line, str) else ",".join(line) for line in lines]
    blanks = draw(st.lists(st.tuples(st.integers(1, n + 1), st.sampled_from(["", "", "  ", " , "]))))
    for at, blank in blanks:
        lines.insert(at, blank)
    lead = draw(st.lists(st.sampled_from(["", "  ", "\t", " , "]), max_size=3))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = newline.join(lead + lines) + newline
    return text, defect, all(b == "" for _, b in blanks)


def outcome(read, path):
    try:
        header, values = read(path)
    except CsvFormatError as exc:
        return "error", str(exc), exc.row, exc.column
    return "ok", header, values.shape, values.tobytes()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(csv_files())
def test_numpy_reader_matches_the_cell_by_cell_reference(tmp_path_factory, case):
    text, defect, empty_blanks = case
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    path.write_bytes(text.encode())
    with mock.patch.object(dataset, "_parse_cells", wraps=dataset._parse_cells) as cells:
        got = outcome(load_matrix, path)
    assert got == outcome(reference_load_matrix, path)
    if defect is None and empty_blanks:
        assert cells.call_count == 0  # clean files take the numpy path


def test_numpy_only_separators_take_the_cell_by_cell_path(tmp_path):
    # numpy would strip \x1c..\x1f around a number; float() refuses them.
    path = tmp_path / "data.csv"
    path.write_text("a,b\n1,\x1c2\n")
    with pytest.raises(CsvFormatError) as exc:
        load_matrix(path)
    assert (exc.value.row, exc.value.column) == (2, 2)


def test_a_plain_file_with_a_compressed_suffix_reads_as_text(tmp_path):
    # np.loadtxt would decompress a path ending in .gz.
    path = tmp_path / "data.csv.gz"
    path.write_text("a,b\n1,2\n3,4\n")
    assert_array_equal(load_matrix(path)[1], [[1.0, 2.0], [3.0, 4.0]])


def test_header_only_and_blank_bodies_raise_without_a_warning(tmp_path):
    path = tmp_path / "data.csv"
    for text in ("a,b\n", "a,b", "\n a , b \n\n  \n", "a,b\r\n \t\r\n , \r\n"):
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CsvFormatError, match="no data rows after the header"):
                load_matrix(path)


@pytest.mark.parametrize(
    "text, row",
    [
        (b"a,\xffb\n1,2\n", 1),  # in the header
        (b"a,b\n1,2\n\n3,\xff\n", 3),  # a body numpy would read
        (b'a,b\n"1",2\n3,4\xff\n', 3),  # a body only the cell-by-cell path reads
    ],
    ids=["header", "numpy_body", "cell_body"],
)
def test_undecodable_bytes_raise_csv_format_errors_with_their_row(tmp_path, text, row):
    path = tmp_path / "data.csv"
    path.write_bytes(text)
    with pytest.raises(CsvFormatError, match="does not decode") as exc:
        load_matrix(path)
    assert exc.value.row == row


def test_an_undecodable_byte_deep_in_the_body_names_its_row(tmp_path):
    # Far past the first block the text layer decodes, and after a quoted
    # header cell that spans two lines.
    lines = ['"x\n1",y'] + [f"{i},{i}.5" for i in range(20_000)]
    lines[15_000] = "7,\xff"
    path = tmp_path / "data.csv"
    path.write_bytes("\n".join(lines).encode("latin-1"))
    with pytest.raises(CsvFormatError) as exc:
        load_matrix(path)
    assert exc.value.row == 15_001


def _load_traced(path):
    """load_matrix's values and its peak of traced memory."""
    tracemalloc.start()
    try:
        _, values = load_matrix(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return values, peak


def test_reading_holds_less_than_three_times_the_file(tmp_path):
    data, _ = generate_separable(50_000, 2, 2, 0.01, 1.0, seed=0)
    path = tmp_path / "data.csv"
    write_csv(data, path)
    values, peak = _load_traced(path)
    assert values.shape == (50_000, 3)
    assert peak < 3 * path.stat().st_size


def test_reading_quoted_cells_holds_less_than_three_times_the_file(tmp_path):
    # Quoted cells, as spreadsheet exports write them, take the
    # cell-by-cell path.
    data, _ = generate_separable(50_000, 2, 2, 0.01, 1.0, seed=0)
    path = tmp_path / "data.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, quoting=csv.QUOTE_ALL)
        writer.writerow(data.column_names)
        writer.writerows(np.column_stack([data.X, data.y]).tolist())
    values, peak = _load_traced(path)
    assert_array_equal(values, np.column_stack([data.X, data.y]))
    assert peak < 3 * path.stat().st_size


def test_generator_is_deterministic():
    a_data, a_truth = generate_separable(60, 2, 2, 0.05, 1.0, seed=9)
    b_data, b_truth = generate_separable(60, 2, 2, 0.05, 1.0, seed=9)
    assert a_data.X.tobytes() == b_data.X.tobytes()
    assert a_data.y.tobytes() == b_data.y.tobytes()
    assert a_truth.model == b_truth.model
    assert_array_equal(a_truth.assignments, b_truth.assignments)
    c_data, _ = generate_separable(60, 2, 2, 0.05, 1.0, seed=10)
    assert a_data.y.tobytes() != c_data.y.tobytes()


def test_generator_plants_what_it_reports():
    data, truth = generate_separable(120, 2, 3, 0.1, 0.8, seed=21)
    assert data.n == 120 and data.d == 2
    assert truth.model.m == 3
    # Assignments agree with the areas, with the default clear of all boxes.
    assert_array_equal(truth.model.assign_batch(data.X), truth.assignments)
    assert len(overlapping_training_points(truth.model, data.X)) == 0
    # Every region, including the default, holds at least d + 2 points.
    for k in range(4):
        assert int(np.sum(truth.assignments == k)) >= 4
    # Planted functions are pairwise separated in coefficient space.
    fs = truth.functions
    assert len(fs) == 4
    for i in range(4):
        for j in range(i + 1, 4):
            assert coefficient_distance(fs[i], fs[j]) >= 0.8
    # Residuals against the planted model stay strictly inside the margin.
    resid = np.abs(data.y - truth.model.predict_batch(data.X))
    assert np.all(resid < truth.margin_epsilon)
    assert truth.noise_sigma == 0.1 and truth.separation_delta == 0.8


def test_generator_noise_scale_is_plausible():
    sigma = 0.1
    data, truth = generate_separable(500, 2, 2, sigma, 1.0, seed=33)
    resid = data.y - truth.model.predict_batch(data.X)
    within = np.mean(np.abs(resid) <= 3.0 * sigma)
    assert within >= 0.95
    assert 0.05 <= float(np.std(resid)) <= 0.2
    assert truth.margin_epsilon > float(np.max(np.abs(resid)))


def test_generator_noiseless_is_exact():
    data, truth = generate_separable(50, 1, 2, 0.0, 0.5, seed=4)
    assert_array_equal(data.y, truth.model.predict_batch(data.X))
    assert truth.margin_epsilon == 1e-9


def test_generator_rejects_bad_parameters():
    with pytest.raises(InputError):
        generate_separable(5, 2, 1, 0.1, 1.0, seed=0)  # n < (m+1)(d+2)
    with pytest.raises(InputError):
        generate_separable(50, 2, 1, -0.1, 1.0, seed=0)
    for sigma, delta, seed in (
        (0.1, 0.0, 0),
        (float("nan"), 1.0, 0),
        (float("inf"), 1.0, 0),
        (0.1, float("nan"), 0),
        (0.1, float("inf"), 0),
        (0.1, 1.0, -1),
        (0.1, 1.0, 1.5),
        ("0.1", 1.0, 0),
        (None, 1.0, 0),
        (True, 1.0, 0),
        (0.1, "1.0", 0),
        (0.1, None, 0),
        (0.1, True, 0),
        (0.1, 1.0, True),
    ):
        with pytest.raises(InputError):
            generate_separable(50, 2, 1, sigma, delta, seed=seed)
    with pytest.raises(PlacementError):
        generate_separable(200, 1, 7, 0.1, 1.0, seed=0)  # only 6 slots on a line
    with pytest.raises(InputError):
        generate_separable(50, 0, 1, 0.1, 1.0, seed=0)
    # Counts are integers: a float or a string is not truncated or parsed.
    for n, d, m in (
        (10.7, 1, 1), ("10", 1, 1), (50, 2.0, 1), (50, 2, 1.0), (50, 2, "1"), (50, 2, True)
    ):
        with pytest.raises(InputError):
            generate_separable(n, d, m, 0.01, 1.0, seed=0)
    wide = generate_separable(np.int64(50), np.int64(2), np.int64(1), 0.1, 1.0, seed=0)[0]
    assert wide == generate_separable(50, 2, 1, 0.1, 1.0, seed=0)[0]
    narrow = generate_separable(50, 2, 1, np.float64(0.1), np.float32(1.0), seed=0)[0]
    assert narrow == generate_separable(50, 2, 1, 0.1, 1.0, seed=0)[0]


def test_ground_truth_rejects_scalars_that_are_not_finite_reals():
    _, truth = generate_separable(50, 2, 1, 0.1, 1.0, seed=0)
    fields = dict(model=truth.model, assignments=truth.assignments,
                  noise_sigma=0.1, separation_delta=1.0, margin_epsilon=0.5)
    GroundTruth(**{**fields, "noise_sigma": 0, "margin_epsilon": np.float32(0.5)})
    for name in ("noise_sigma", "separation_delta", "margin_epsilon"):
        for bad in (float("nan"), float("inf"), -1.0, "0.1", None, True):
            with pytest.raises(InputError, match="must be finite"):
                GroundTruth(**{**fields, name: bad})
