"""File format round trips and parse error reporting."""

import json
import re

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from patchfit import (
    ExperimentSpec,
    FileFormatError,
    FitSettings,
    PointCloud,
    VoxelGrid,
    fit_surface,
    sigma2_hat,
)
from patchfit.io import (
    load_study_config,
    parse_study_config,
    read_point_cloud,
    read_surface_model,
    read_voxel_grid,
    read_xyzw,
    write_point_cloud,
    write_study_long,
    write_study_table,
    write_surface_model,
    write_voxel_grid,
)
from patchfit.simulate import StudyRow, TrialRecord


class TestVoxelGridFormat:
    def test_round_trip_binary(self, tmp_path):
        rng = np.random.default_rng(0)
        grid = VoxelGrid(rng.integers(0, 2, (4, 5, 6)), (0.5, 1.0, 2.0), (-1.0, 0.0, 3.5))
        path = tmp_path / "grid.vox"
        write_voxel_grid(grid, path)
        back = read_voxel_grid(path)
        npt.assert_array_equal(back.data, grid.data)
        npt.assert_array_equal(back.spacing, grid.spacing)
        npt.assert_array_equal(back.origin, grid.origin)
        assert np.issubdtype(back.data.dtype, np.integer)

    def test_round_trip_real_weights(self, tmp_path):
        rng = np.random.default_rng(1)
        grid = VoxelGrid(rng.uniform(0.1, 1.0, (3, 3, 3)), (1, 1, 1), (0, 0, 0))
        path = tmp_path / "weights.vox"
        write_voxel_grid(grid, path)
        back = read_voxel_grid(path)
        npt.assert_array_equal(back.data, grid.data)

    def test_x_fastest_ordering(self, tmp_path):
        data = np.arange(8).reshape(2, 2, 2)
        path = tmp_path / "order.vox"
        write_voxel_grid(VoxelGrid(data, (1, 1, 1), (0, 0, 0)), path)
        tokens = path.read_text().split("\n")[1:]
        flat = [int(t) for line in tokens for t in line.split()]
        # value at (i, j, k) sits at index i + 2j + 4k
        expected = [data[i, j, k] for k in range(2) for j in range(2) for i in range(2)]
        assert flat == expected

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.vox"
        path.write_text("VOX2 1 1 1 1 1 1 0 0 0\n1\n")
        with pytest.raises(FileFormatError, match="bad.vox:1"):
            read_voxel_grid(path)

    @pytest.mark.parametrize("text, message", [
        ("", ": empty file"),
        ("VOX1 2 x 2 1 1 1 0 0 0\n1 1 1 1\n",
         ":1: bad header value (invalid literal for int() with base 10: 'x')"),
        ("VOX1 1 1 1 0 1 1 0 0 0\n1\n", ":1: spacing must be strictly positive, got [0. 1. 1.]"),
        ("VOX1 1 1 1 1 -1 1 0 0 0\n1\n",
         ":1: spacing must be strictly positive, got [ 1. -1.  1.]"),
        ("VOX1 1 1 1 1 1 nan 0 0 0\n1\n",
         ":1: spacing must be strictly positive, got [ 1.  1. nan]"),
        ("VOX1 1 1 1 inf 1 1 0 0 0\n1\n",
         ":1: spacing must be strictly positive, got [inf  1.  1.]"),
        ("VOX1 1 1 1 1 1 1 0 nan 0\n1\n", ":1: origin must be finite"),
    ], ids=["empty", "bad_value", "spacing_0", "spacing_-1", "spacing_nan", "spacing_inf",
            "origin_nan"])
    def test_header_error_messages(self, tmp_path, text, message):
        path = tmp_path / "bad.vox"
        path.write_text(text)
        with pytest.raises(FileFormatError) as err:
            read_voxel_grid(path)
        assert str(err.value) == f"{path}{message}"

    def test_bad_value_reports_line(self, tmp_path):
        path = tmp_path / "bad.vox"
        path.write_text("VOX1 1 1 2 1 1 1 0 0 0\n1\nx\n")
        with pytest.raises(FileFormatError, match="bad.vox:3"):
            read_voxel_grid(path)

    def test_wrong_count(self, tmp_path):
        path = tmp_path / "bad.vox"
        path.write_text("VOX1 2 2 2 1 1 1 0 0 0\n1 2 3\n")
        with pytest.raises(FileFormatError, match="expected 8 values"):
            read_voxel_grid(path)

    def test_negative_dimensions_report_header(self, tmp_path):
        # (-2) * (-2) * 2 matches the 8 values, so only the sign check catches it
        path = tmp_path / "bad.vox"
        path.write_text("VOX1 -2 -2 2 1 1 1 0 0 0\n1 1 1 1 1 1 1 1\n")
        with pytest.raises(FileFormatError, match="bad.vox:1: grid dimensions must be positive"):
            read_voxel_grid(path)

    def test_zero_dimension_reports_header(self, tmp_path):
        path = tmp_path / "bad.vox"
        path.write_text("VOX1 0 4 4 1 1 1 0 0 0\n")
        with pytest.raises(FileFormatError, match="bad.vox:1: grid dimensions must be positive"):
            read_voxel_grid(path)


class TestVoxelGridTokens:
    """The body is every whitespace-separated token after the header, read as float() reads it."""

    HEADER = "VOX1 2 1 1 1 1 1 0 0 0"

    def read(self, tmp_path, body, newline="\n"):
        path = tmp_path / "grid.vox"
        path.write_bytes((self.HEADER + newline + body + newline).encode())
        return read_voxel_grid(path)

    @pytest.mark.parametrize("token", ["1_0", "nan", "Infinity", "+1.5", "1e400", "\u0661", "-iNF"])
    def test_accepted_as_float_accepts(self, tmp_path, token):
        # the 0.5 keeps the grid real-valued
        grid = self.read(tmp_path, f"{token} 0.5")
        npt.assert_array_equal(grid.data[:, 0, 0], [float(token), 0.5])
        assert grid.data.dtype == np.float64

    @pytest.mark.parametrize("token", ["0x10", "1__0", "_1", "1,5", "NaN(1)", "1.5j", "."])
    def test_rejected_as_float_rejects(self, tmp_path, token):
        with pytest.raises(ValueError):
            float(token)
        with pytest.raises(FileFormatError, match=re.escape(f"grid.vox:2: bad value {token!r}")):
            self.read(tmp_path, f"{token} 1")

    @pytest.mark.parametrize("newline", ["\r", "\r\n", "\f", "\v", "\x85", "\u2028"])
    def test_line_breaks(self, tmp_path, newline):
        text = newline.join(["VOX1 2 2 1 0.5 1 1 0 0 0", "1 0", "0", "1"]) + newline
        path = tmp_path / "grid.vox"
        path.write_text(text, newline="")
        grid = read_voxel_grid(path)
        npt.assert_array_equal(grid.data[:, :, 0], [[1, 0], [0, 1]])
        npt.assert_array_equal(grid.spacing, [0.5, 1, 1])

    def test_values_split_anywhere_across_lines(self, tmp_path):
        rng = np.random.default_rng(4)
        grid = VoxelGrid(rng.integers(0, 2, (3, 4, 5)), (1, 1, 1), (0, 0, 0))
        tokens = [str(v) for v in grid.data.flatten(order="F")]
        for _ in range(5):
            breaks = rng.choice(["\n", " ", "\t", "\r\n", " \n\n "], size=len(tokens))
            body = "".join(f"{tok}{sep}" for tok, sep in zip(tokens, breaks))
            path = tmp_path / "split.vox"
            path.write_text("VOX1 3 4 5 1 1 1 0 0 0\n" + body, newline="")
            npt.assert_array_equal(read_voxel_grid(path).data, grid.data)

    def test_first_bad_token_in_file_order(self, tmp_path):
        path = tmp_path / "bad.vox"
        path.write_text("VOX1 2 2 2 1 1 1 0 0 0\n1 1\n\n1 zz 1\n1 yy 1\n")
        with pytest.raises(FileFormatError, match=re.escape("bad.vox:4: bad value 'zz'")):
            read_voxel_grid(path)

    def test_bad_token_beats_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.vox"
        path.write_text("VOX1 2 2 2 1 1 1 0 0 0\n1 1\n1 x\n")
        with pytest.raises(FileFormatError, match=re.escape("bad.vox:3: bad value 'x'")):
            read_voxel_grid(path)

    @pytest.mark.parametrize("body, count", [("1 2 3", 3), ("1 2 3 4 5 6 7 8 9", 9), ("", 0)])
    def test_count_mismatch_message(self, tmp_path, body, count):
        path = tmp_path / "bad.vox"
        path.write_text(f"VOX1 2 2 2 1 1 1 0 0 0\n{body}\n")
        with pytest.raises(FileFormatError) as info:
            read_voxel_grid(path)
        assert str(info.value) == f"{path}: expected 8 values for dims (2, 2, 2), got {count}"

    @pytest.mark.parametrize("body, dtype", [
        ("0 1", np.int64), ("1.0 2e0", np.int64), ("-3 1e2", np.int64),
        ("0 0.5", np.float64), ("1 nan", np.float64),
        # integral, but with no int64 value
        ("1 inf", np.float64), ("-inf 0", np.float64), ("1 1e300", np.float64),
    ])
    def test_dtype_decision(self, tmp_path, body, dtype):
        assert self.read(tmp_path, body).data.dtype == dtype


def text_path_read_voxel_grid(path):
    """Oracle: the VOX1 reader that decodes every file and reads each
    str.split() token with float(), int64 when all are integral and in range."""
    raw = path.read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"{path}: not UTF-8 text ({exc})") from exc
    lines = text.splitlines()
    if not lines:
        raise FileFormatError(f"{path}: empty file")
    header = lines[0].split()
    if len(header) != 10 or header[0] != "VOX1":
        raise FileFormatError(f"{path}:1: expected 'VOX1 n m p sx sy sz ox oy oz' header")
    n, m, p = (int(tok) for tok in header[1:4])
    if min(n, m, p) < 1:
        raise FileFormatError(f"{path}:1: grid dimensions must be positive, got ({n}, {m}, {p})")
    for lineno, line in enumerate(lines[1:], start=2):
        for tok in line.split():
            try:
                float(tok)
            except ValueError:
                raise FileFormatError(f"{path}:{lineno}: bad value {tok!r}") from None
    arr = np.array([float(tok) for tok in text.split()[10:]], dtype=np.float64)
    if arr.size != n * m * p:
        raise FileFormatError(
            f"{path}: expected {n * m * p} values for dims ({n}, {m}, {p}), got {arr.size}"
        )
    if arr.size and np.abs(arr).max() < 2.0**63 and np.all(arr == np.round(arr)):
        arr = arr.astype(np.int64)
    return VoxelGrid(arr.reshape((n, m, p), order="F"), header[4:7], header[7:10])


def read_outcome(reader, path):
    """What a reader gives for a file: the grid's exact bytes, or its exception."""
    try:
        grid = reader(path)
    except Exception as exc:
        return type(exc), str(exc)
    data = grid.data
    return (data.dtype, data.shape, data.flags.f_contiguous, data.tobytes(),
            grid.spacing.tobytes(), grid.origin.tobytes())


# One-byte 0/1 tokens between these separators are read bytewise.
BYTE_PATH_SEPARATORS = [b" ", b"\t", b"\n", b"\r", b"\v", b"\f"]
# Each of these sends a body to the text path: a token float() reads as one
# value that is not a lone 0/1 byte, or a separator that is not one of the
# six ASCII whitespace bytes (str.split() whitespace, a NUL that joins two
# tokens into a bad one, an empty one that joins them into one, and a byte
# that is not UTF-8).
TEXT_PATH_TOKENS = [b"01", b"10", b"1.0", b"+1", b"-0", b"1_0", b"2", b"0.5",
                    "\u0661".encode(), b"x"]
TEXT_PATH_SEPARATORS = [b"\x1c", "\x85".encode(), b"\x00", b"", b"\xff"]
HEADER_BREAKS = [b"\n", b"\r\n", b"\r", b"\v", b"\f", b"\x1c", "\x85".encode()]


@st.composite
def vox1_files(draw):
    size = draw(st.integers(0, 24))
    tokens = draw(st.lists(st.sampled_from([b"0", b"1"]), min_size=size, max_size=size))
    runs = st.lists(st.sampled_from(BYTE_PATH_SEPARATORS), min_size=1, max_size=3)
    seps = draw(st.lists(runs.map(b"".join), min_size=size + 1, max_size=size + 1))
    for _ in range(draw(st.integers(0, 2))):
        if size and draw(st.booleans()):
            tokens[draw(st.integers(0, size - 1))] = draw(st.sampled_from(TEXT_PATH_TOKENS))
        else:
            seps[draw(st.integers(0, size))] = draw(st.sampled_from(TEXT_PATH_SEPARATORS))
    count = size + draw(st.sampled_from([0, 0, 0, 1, -1]))
    m = draw(st.sampled_from([d for d in (1, 2, 3) if count % d == 0]))
    header = f"VOX1 {count // m} 1 {m} 0.5 1 2 -1 0 3".encode()
    body = seps[0] + b"".join(tok + sep for tok, sep in zip(tokens, seps[1:]))
    return header + draw(st.sampled_from(HEADER_BREAKS)) + body


class TestVoxelGridBytePath:
    """A body of one-byte 0/1 tokens between ASCII whitespace is read bytewise;
    the grid, or the error, is the one the text path gives."""

    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("bodies") / "grid.vox"

    @settings(max_examples=400, deadline=None)
    @given(data=vox1_files())
    @example(data=b"VOX1 2 1 1 1 1 1 0 0 0\n0\t\f1\r\n")
    @example(data=b"VOX1 2 1 1 1 1 1 0 0 0\n01 1")
    @example(data=b"VOX1 2 1 1 1 1 1 0 0 0\x1c1 0\n")
    @example(data=b"VOX1 2 1 1 1 1 1 0 0 0\n1\x1c0")
    @example(data=b"VOX1 2 1 1 1 1 1 0 0 0\n1 \xff")
    def test_equals_text_path(self, path, data):
        path.write_bytes(data)
        assert read_outcome(read_voxel_grid, path) == read_outcome(text_path_read_voxel_grid, path)

    def test_binary_body_needs_no_text(self, tmp_path, monkeypatch):
        path = tmp_path / "grid.vox"
        path.write_bytes(b"VOX1 3 1 1 1 1 1 0 0 0\r\n1\t0\f\v1\n")

        def no_decoding(*args, **kwargs):
            raise AssertionError("a 0/1 body was decoded")

        monkeypatch.setattr("patchfit.io._read_text", no_decoding)
        grid = read_voxel_grid(path)
        npt.assert_array_equal(grid.data[:, 0, 0], [1, 0, 1])
        assert grid.data.dtype == np.int64


class TestUndecodableInput:
    """Bytes that are not UTF-8 are a format error that names the file."""

    @pytest.mark.parametrize("reader, text", [
        (read_voxel_grid, "VOX1 2 1 1 1 1 1 0 0 0\n1 "),
        (read_xyzw, "x,y,z,w\n0,0,0,1\n"),
        (read_surface_model, '{"n_u": 1}\n'),
        (load_study_config, "[spec]\nsurface = plane\n"),
    ], ids=["voxel_grid", "xyzw", "surface_model", "study_config"])
    def test_reader_names_the_file(self, tmp_path, reader, text):
        path = tmp_path / "input.txt"
        path.write_bytes(text.encode() + b"\xff\n")
        with pytest.raises(FileFormatError) as info:
            reader(path)
        assert str(info.value) == (f"{path}: not UTF-8 text ('utf-8' codec can't decode byte "
                                   f"0xff in position {len(text)}: invalid start byte)")


class TestPointCloudFormat:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        cloud = PointCloud(rng.normal(size=(7, 3)), rng.uniform(0.1, 2.0, 7))
        path = tmp_path / "cloud.csv"
        write_point_cloud(cloud, path)
        back = read_point_cloud(path)
        npt.assert_array_equal(back.points, cloud.points)
        npt.assert_array_equal(back.weights, cloud.weights)

    def test_header_required(self, tmp_path):
        path = tmp_path / "cloud.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(FileFormatError, match="cloud.csv:1"):
            read_point_cloud(path)

    def test_bad_row_reports_line(self, tmp_path):
        path = tmp_path / "cloud.csv"
        path.write_text("x,y,z,w\n1,2,3,1\n1,2,3\n")
        with pytest.raises(FileFormatError, match="cloud.csv:3"):
            read_point_cloud(path)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "cloud.csv"
        path.write_text("x,y,z,w\n1,2,3,1\n\n  \n4,5,6,0.5\n")
        points, weights = read_xyzw(path)
        npt.assert_array_equal(points, [[1, 2, 3], [4, 5, 6]])
        npt.assert_array_equal(weights, [1, 0.5])

    def test_non_numeric_field_reports_line(self, tmp_path):
        path = tmp_path / "cloud.csv"
        path.write_text("x,y,z,w\n1,2,3,1\n1,two,3,1\n")
        with pytest.raises(FileFormatError) as err:
            read_xyzw(path)
        assert str(err.value) == f"{path}:3: bad value (could not convert string to float: 'two')"

    @pytest.mark.parametrize("row", ["nan,2,3,1", "1,inf,3,1", "1,2,3,inf"])
    def test_non_finite_row_is_a_format_error(self, tmp_path, row):
        path = tmp_path / "cloud.csv"
        path.write_text(f"x,y,z,w\n1,2,3,1\n{row}\n")
        with pytest.raises(FileFormatError, match="finite"):
            read_point_cloud(path)

    def test_probe_points_may_be_non_finite(self, tmp_path):
        path = tmp_path / "probes.csv"
        path.write_text("x,y,z,w\n1,2,3,1\nnan,nan,nan,1\n")
        probes, _ = read_xyzw(path)
        assert probes.shape == (2, 3)
        assert np.isnan(probes[1]).all()


def bilinear_document():
    """A valid surface document of orders (1, 1) with three point records."""
    return {"n_u": 1, "n_v": 1, "control": np.zeros((2, 2, 3)).tolist(), "sigma2": 0.5,
            "t": 1.0, "centroid": [0.0, 0.0, 0.0],
            "points": [{"u": 0.1, "v": 0.2, "residual": 0.3}] * 3}


class TestSurfaceDocument:
    def test_round_trip_and_sigma2_consistency(self, tmp_path):
        rng = np.random.default_rng(3)
        xy = rng.uniform(-1, 1, (60, 2))
        points = np.column_stack([xy, 0.2 * xy[:, 0] * xy[:, 1]])
        points += 0.01 * rng.normal(size=points.shape)
        cloud = PointCloud(points, np.ones(60))
        model, _ = fit_surface(cloud, FitSettings())
        path = tmp_path / "surface.json"
        write_surface_model(model, cloud, path)
        back, residuals = read_surface_model(path)
        npt.assert_array_equal(back.surface.control, model.surface.control)
        npt.assert_array_equal(back.u, model.u)
        npt.assert_array_equal(back.centroid, model.centroid)
        assert back.sigma2 == model.sigma2
        assert back.t == model.t
        recomputed = sigma2_hat(cloud, back.surface, back.u, back.v)
        assert abs(recomputed - back.sigma2) <= 1e-12 * max(1.0, back.sigma2)
        assert residuals.shape == (60,)

    def test_malformed_document(self, tmp_path):
        path = tmp_path / "surface.json"
        path.write_text('{"n_u": 1}')
        with pytest.raises(FileFormatError):
            read_surface_model(path)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["NaN", "Infinity"])
    @pytest.mark.parametrize("name", ["u", "v", "residual", "sigma2", "t", "centroid"])
    def test_non_finite_value_is_a_format_error(self, tmp_path, name, value):
        # Python's json reads the NaN and Infinity tokens that json.dumps writes
        doc = bilinear_document()
        if name in ("sigma2", "t"):
            doc[name] = value
        elif name == "centroid":
            doc[name] = [0.0, value, 0.0]
        else:
            doc["points"] = doc["points"][:2] + [{**doc["points"][0], name: value}]
        path = tmp_path / "surface.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(FileFormatError, match=f"^{re.escape(str(path))}: {name} values must "
                                                  "be finite$"):
            read_surface_model(path)

    @pytest.mark.parametrize("name, value, message", [
        ("n_u", 2.9, "n_u must be an integer, got 2.9$"),
        ("n_u", "1", "n_u must be an integer, got '1'$"),
        ("n_v", 1.0, "n_v must be an integer, got 1.0$"),
        ("n_v", True, "n_v must be an integer, got True$"),
        ("n_u", 0, "n_u must be at least 1, got 0$"),
        ("centroid", [0.0, 0.0], r"centroid must be 3 numbers, got \[0\.0, 0\.0\]"),
        ("centroid", [0.0, 0.0, 0.0, 0.0], "centroid must be 3 numbers"),
        ("centroid", ["0", 0.0, 0.0], "centroid must be 3 numbers"),
        ("centroid", 0.0, "centroid must be 3 numbers"),
        # float() and numpy read these as 0.5, 1.0, 0.1, 0.0 and 2.0
        ("sigma2", "0.5", r"malformed surface document \(sigma2 values must be JSON numbers, "
                          r"got '0\.5'\)$"),
        ("t", True, r"malformed surface document \(t values must be JSON numbers, got True\)$"),
        ("u", "0.1", r"malformed surface document \(u values must be JSON numbers, got '0\.1'\)$"),
        ("v", False, r"malformed surface document \(v values must be JSON numbers, got False\)$"),
        ("control", "2", r"malformed surface document \(control values must be JSON numbers, "
                         r"got '2'\)$"),
        ("control", None, r"malformed surface document \(control values must be JSON numbers, "
                          r"got None\)$"),
    ], ids=["n_u_fraction", "n_u_text", "n_v_float", "n_v_bool", "n_u_zero", "centroid_2",
            "centroid_4", "centroid_text", "centroid_scalar", "sigma2_text", "t_bool",
            "record_u_text", "record_v_bool", "control_text", "control_null"])
    def test_field_type_is_a_format_error(self, tmp_path, name, value, message):
        doc = bilinear_document()
        if name in ("u", "v"):
            doc["points"] = doc["points"][:2] + [{**doc["points"][0], name: value}]
        elif name == "control":
            doc["control"][1][0][2] = value
        else:
            doc[name] = value
        path = tmp_path / "surface.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(FileFormatError, match=f"^{re.escape(str(path))}: {message}"):
            read_surface_model(path)

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "surface.json"
        path.write_text("{\n  broken\n}")
        with pytest.raises(FileFormatError, match="surface.json:2"):
            read_surface_model(path)

    def test_orders_must_match_control_shape(self, tmp_path):
        path = tmp_path / "surface.json"
        path.write_text(json.dumps({**bilinear_document(), "n_u": 2}))
        with pytest.raises(FileFormatError, match=f"^{re.escape(str(path))}: control tensor shape "
                                                  r"does not match recorded orders \(2, 1\)$"):
            read_surface_model(path)

    @pytest.mark.parametrize("t, message", [
        ("1" + "0" * 400, r"malformed surface document \(int too large to convert to float\)$"),
        ("[" * 100_000 + "]" * 100_000, r"unreadable JSON \(maximum recursion depth exceeded"),
        ("1" * 5000, r"unreadable JSON \(Exceeds the limit \(4300 digits\)"),
    ], ids=["400_digit_integer", "nested_100000_deep", "5000_digit_integer"])
    def test_unconvertible_json_is_a_format_error(self, tmp_path, t, message):
        # float() overflows, and json.loads recurses or refuses, inside the reader
        path = tmp_path / "surface.json"
        path.write_text(json.dumps({**bilinear_document(), "t": 7}).replace('"t": 7', f'"t": {t}'))
        with pytest.raises(FileFormatError, match=f"^{re.escape(str(path))}: {message}"):
            read_surface_model(path)


class TestStudyConfig:
    def test_parse_minimal(self):
        specs = parse_study_config(
            """
            # comment
            [spec]
            surface = plane
            n_tr = 40
            sigma2_y = 0.01
            seed = 3
            """
        )
        assert len(specs) == 1
        assert specs[0].surface == "plane"
        assert specs[0].n_tr == 40
        assert specs[0].trials == 20

    def test_parse_full_fields(self):
        specs = parse_study_config(
            """
            [spec]
            name = demo
            surface = rosenbrock
            n_tr = 50
            n_te = 25
            sigma2_y = 2.5e-3
            seed = 11
            trials = 4
            mode = fixed
            orders = 2 3
            lam = 1e-4
            """
        )
        spec = specs[0]
        assert spec.name == "demo"
        assert spec.orders == (2, 3)
        assert spec.mode == "fixed"
        assert spec.lam == 1e-4

    def test_unknown_field_named(self):
        with pytest.raises(FileFormatError, match="sigma"):
            parse_study_config("[spec]\nsurface = plane\nsigma = 1\n")

    def test_missing_required_field(self):
        with pytest.raises(FileFormatError, match="sigma2_y"):
            parse_study_config("[spec]\nsurface = plane\nn_tr = 10\nseed = 1\n")

    @pytest.mark.parametrize("line", ["n_tr = 20", "seed = 1"])
    def test_repeated_field_names_its_line(self, line):
        spec = "[spec]\nsurface = plane\nn_tr = 10\nsigma2_y = 0.1\nseed = 1\n"
        with pytest.raises(FileFormatError) as err:
            parse_study_config(spec + line + "\n", "cfg")
        field = line.split()[0]
        assert str(err.value) == f"cfg:6: field {field} given twice in one [spec]"
        # the same field in another [spec] is not a repeat
        assert len(parse_study_config(spec + spec, "cfg")) == 2

    def test_value_before_section(self):
        with pytest.raises(FileFormatError, match=":1"):
            parse_study_config("surface = plane\n")

    @pytest.mark.parametrize("line, message", [
        ("n_tr = 4.5", "field n_tr needs an integer"),
        ("lam = abc", "field lam needs a number"),
        ("orders = 2", "field orders needs two integers"),
        ("orders = 1 2 3", "field orders needs two integers"),
        ("orders = 1 x", "field orders needs two integers"),
        ("n_tr 10", "expected 'key = value'"),
    ])
    def test_bad_value_message_per_field_type(self, line, message):
        with pytest.raises(FileFormatError) as err:
            parse_study_config(f"[spec]\nsurface = plane\n{line}\n", "cfg")
        assert str(err.value) == f"cfg:3: {message}"

    @pytest.mark.parametrize("line, message", [
        ("brute_cap = 0 0", "brute_cap[0] must be at least 1, got 0"),
        ("orders = 0 3", "orders[0] must be at least 1, got 0"),
        ("sigma2_y = nan", "noise variance must be finite and nonnegative"),
        ("lam = -1", "lam must be finite and nonnegative"),
        ("lam = inf", "lam must be finite and nonnegative"),
        ("surface = sphere", "unknown latent surface kind: 'sphere'"),
    ])
    def test_spec_check_names_the_spec(self, line, message):
        spec = "[spec]\nsurface = plane\nn_tr = 10\nsigma2_y = 0.1\nseed = 1\n"
        # spec 2 takes the bad value in place of its own line for that field
        key = line.split()[0]
        bad = "".join(f"{row}\n" for row in spec.splitlines() if row.split()[0] != key)
        with pytest.raises(FileFormatError) as err:
            parse_study_config(spec + bad + line + "\n", "cfg")
        assert str(err.value) == f"cfg: spec 2: {message}"

    def test_no_spec_sections(self):
        with pytest.raises(FileFormatError) as err:
            parse_study_config("# a comment only\n", "cfg")
        assert str(err.value) == "cfg: no [spec] sections found"

    def test_bundled_configs_load(self):
        for name in ("table1_trends", "fig4_plane"):
            specs = load_study_config(name)
            assert len(specs) >= 4
            assert all(isinstance(s, ExperimentSpec) for s in specs)

    def test_missing_config(self):
        with pytest.raises(FileFormatError):
            load_study_config("no_such_config")


class TestStudyOutputs:
    def test_tables_are_deterministic_without_timings(self, tmp_path):
        row = StudyRow("demo", "plane", "auto", 10, 0.1, 2, 0, 3.0, 4.0,
                       1e-3, 2e-3, 123.4, 0)
        rec = TrialRecord("demo", 0, "plane", "auto", 10, 0.1, 3, 4, 1, 1,
                          1e-3, 2e-3, 456.7, 0)
        t1 = tmp_path / "a.csv"
        t2 = tmp_path / "b.csv"
        write_study_table([row], t1)
        write_study_long([rec], t2)
        assert "123.4" not in t1.read_text()
        assert "456.7" not in t2.read_text()
        assert t1.read_text().splitlines()[0].startswith("name,")
