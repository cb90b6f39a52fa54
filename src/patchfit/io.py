"""Plain-text file formats.

All formats are diffable text. Grids use the VOX1 layout: one ASCII header
line ``VOX1 n m p sx sy sz ox oy oz`` followed by n*m*p whitespace-separated
values in x-fastest order (i, then j, then k). Point clouds are ``x,y,z,w``
delimited text. Fitted surfaces are JSON documents; field names are fixed in
the README. Floats are serialized at full double precision via repr, and
files are read as UTF-8.
"""

from __future__ import annotations

import json
import re
from dataclasses import fields
from importlib import resources
from pathlib import Path

import numpy as np

from .bezier import BezierSurface, _dot3, design_matrix
from .errors import FileFormatError
from .selection import FitModel
from .simulate import ExperimentSpec, StudyRow, TrialRecord
from .voxel import PointCloud, VoxelGrid

VOX_MAGIC = "VOX1"
CLOUD_HEADER = "x,y,z,w"


def _fmt(value: float) -> str:
    return repr(float(value))


def _read_text(path: Path, raw: bytes | None = None) -> str:
    """The file's text, decoded as UTF-8; bytes that are not UTF-8 are a format error.

    Read here, the text gets universal newlines as ``Path.read_text`` gives
    them; bytes already read (``raw``) are decoded as they are.
    """
    try:
        return path.read_text(encoding="utf-8") if raw is None else raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"{path}: not UTF-8 text ({exc})") from exc


# ---------------------------------------------------------------------------
# Voxel grids
# ---------------------------------------------------------------------------

def write_voxel_grid(grid: VoxelGrid, path) -> None:
    n, m, p = grid.dims
    integral = np.issubdtype(grid.data.dtype, np.integer)
    header = " ".join(
        [VOX_MAGIC, str(n), str(m), str(p)]
        + [_fmt(s) for s in grid.spacing]
        + [_fmt(o) for o in grid.origin]
    )
    flat = grid.data.flatten(order="F")
    lines = [header]
    for start in range(0, flat.size, n):
        chunk = flat[start:start + n]
        if integral:
            lines.append(" ".join(str(int(v)) for v in chunk))
        else:
            lines.append(" ".join(_fmt(v) for v in chunk))
    Path(path).write_text("\n".join(lines) + "\n")


# The bytes that both bytes.split() and str.split() take as whitespace.
_ASCII_SPACE = b" \t\n\r\v\f"
# An ASCII header line ended by an ASCII line break, with no other
# str.splitlines() boundary (\x1c-\x1e, or a non-ASCII one) before it.
_ASCII_HEADER_LINE = re.compile(rb"[^\n\r\v\f\x1c-\x1e\x80-\xff]*[\n\r\v\f]")


def read_voxel_grid(path) -> VoxelGrid:
    path = Path(path)
    raw = path.read_bytes()
    head = _ASCII_HEADER_LINE.match(raw)
    values = _binary_values(raw[head.end():]) if head else None
    if values is None:
        text = _read_text(path, raw)
        lines = text.splitlines()
        if not lines:
            raise FileFormatError(f"{path}: empty file")
        header_line = lines[0]
    else:
        header_line = raw[:head.end() - 1].decode("ascii")
    header = header_line.split()
    if len(header) != 10 or header[0] != VOX_MAGIC:
        raise FileFormatError(f"{path}:1: expected 'VOX1 n m p sx sy sz ox oy oz' header")
    try:
        n, m, p = (int(tok) for tok in header[1:4])
        spacing = [float(tok) for tok in header[4:7]]
        origin = [float(tok) for tok in header[7:10]]
    except ValueError as exc:
        raise FileFormatError(f"{path}:1: bad header value ({exc})") from exc
    if min(n, m, p) < 1:
        raise FileFormatError(f"{path}:1: grid dimensions must be positive, got ({n}, {m}, {p})")
    if values is None:
        values = _float_values(path, text, lines)
    if values.size != n * m * p:
        raise FileFormatError(
            f"{path}: expected {n * m * p} values for dims ({n}, {m}, {p}), got {values.size}"
        )
    try:
        return VoxelGrid(values.reshape((n, m, p), order="F"), spacing, origin)
    except ValueError as exc:  # a spacing or origin that the grid rejects
        raise FileFormatError(f"{path}:1: {exc}") from exc


def _binary_values(body: bytes) -> np.ndarray | None:
    """The int64 values of a body of one-byte ``0``/``1`` tokens, else None.

    Between ASCII whitespace such tokens read as ``float()`` reads them, and
    the integral rule of ``_float_values`` makes them int64, so this bytewise
    scan gives the same grid as the text path without splitting the text.
    """
    digits = body.translate(None, _ASCII_SPACE)
    if digits.translate(None, b"01"):
        return None
    # Every byte is now a digit or ASCII whitespace, which sorts below "0".
    is_digit = np.frombuffer(body, np.uint8) >= ord("0")
    if np.any(is_digit[1:] & is_digit[:-1]):
        return None
    return np.subtract(np.frombuffer(digits, np.uint8), ord("0"), dtype=np.int64)


def _float_values(path: Path, text: str, lines: list[str]) -> np.ndarray:
    """The body values of VOX1 text, int64 when all are integral and in range."""
    # Every line break is whitespace to str.split, so the body is the tokens
    # after the header's ten; numpy parses str with the float() grammar.
    try:
        arr = np.array(text.split()[10:], dtype=np.float64)
    except ValueError:
        _raise_first_bad_value(path, lines)
        raise
    # inf and 1e300 equal their rounding but have no int64 value.
    if arr.size and np.abs(arr).max() < 2.0**63 and np.all(arr == np.round(arr)):
        arr = arr.astype(np.int64)
    return arr


def _raise_first_bad_value(path: Path, lines: list[str]) -> None:
    for lineno, line in enumerate(lines[1:], start=2):
        for tok in line.split():
            try:
                float(tok)
            except ValueError as exc:
                raise FileFormatError(f"{path}:{lineno}: bad value {tok!r}") from exc


# ---------------------------------------------------------------------------
# Point clouds
# ---------------------------------------------------------------------------

def write_point_cloud(cloud: PointCloud, path) -> None:
    lines = [CLOUD_HEADER]
    for pt, w in zip(cloud.points, cloud.weights):
        lines.append(",".join([_fmt(pt[0]), _fmt(pt[1]), _fmt(pt[2]), _fmt(w)]))
    Path(path).write_text("\n".join(lines) + "\n")


def read_xyzw(path) -> tuple[np.ndarray, np.ndarray]:
    """Unchecked (n, 3) points and (n,) weights of an ``x,y,z,w`` file.

    Probes to project use this directly: a non-finite probe only fails its
    own projection, while a cloud to fit must pass the ``PointCloud`` checks.
    """
    path = Path(path)
    lines = _read_text(path).splitlines()
    if not lines or lines[0].strip() != CLOUD_HEADER:
        raise FileFormatError(f"{path}:1: expected '{CLOUD_HEADER}' header")
    points = []
    weights = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise FileFormatError(f"{path}:{lineno}: expected 4 comma-separated values")
        try:
            values = [float(tok) for tok in parts]
        except ValueError as exc:
            raise FileFormatError(f"{path}:{lineno}: bad value ({exc})") from exc
        points.append(values[:3])
        weights.append(values[3])
    return np.array(points).reshape(-1, 3), np.array(weights)


def read_point_cloud(path) -> PointCloud:
    points, weights = read_xyzw(path)
    try:
        return PointCloud(points, weights)
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Fitted surface documents
# ---------------------------------------------------------------------------

def write_surface_model(model: FitModel, cloud: PointCloud, path) -> None:
    """JSON document for a fitted model, including per-point records.

    The residual of each record is the Euclidean distance from the cloud
    point to the surface at the fitted parameters.
    """
    b = design_matrix(model.u, model.v, model.n_u, model.n_v)
    fitted = b.T @ model.surface.flat
    offsets = cloud.points - fitted
    residuals = np.sqrt(_dot3(offsets, offsets))
    doc = {
        "n_u": model.n_u,
        "n_v": model.n_v,
        "control": model.surface.control.tolist(),
        "sigma2": float(model.sigma2),
        "t": float(model.t),
        "centroid": [float(c) for c in model.centroid],
        "points": [
            {"u": float(u), "v": float(v), "residual": float(r)}
            for u, v, r in zip(model.u, model.v, residuals)
        ],
    }
    Path(path).write_text(json.dumps(doc, indent=1) + "\n")


def _number(value, name: str) -> float:
    """A JSON number as a float; ``float()`` alone also reads "0.5" and true."""
    if type(value) not in (int, float):  # bool is an int subclass, not a JSON number
        raise TypeError(f"{name} values must be JSON numbers, got {value!r}")
    return float(value)


def read_surface_model(path) -> tuple[FitModel, np.ndarray]:
    """Parse a surface document; returns the model and stored residuals."""
    path = Path(path)
    try:
        doc = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}:{exc.lineno}: {exc.msg}") from exc
    except (RecursionError, ValueError) as exc:  # too deep, or an int of over 4 300 digits
        raise FileFormatError(f"{path}: unreadable JSON ({exc})") from exc
    try:
        n_u, n_v = doc["n_u"], doc["n_v"]
        control = np.array(doc["control"], dtype=np.float64)
        for entry in np.array(doc["control"], dtype=object).flat:  # numpy reads "2" as 2.0
            _number(entry, "control")
        surface = BezierSurface(control)
        records = doc["points"]
        u, v, residuals = (np.array([_number(rec[name], name) for rec in records])
                           for name in ("u", "v", "residual"))
        model = FitModel(
            surface=surface,
            u=u,
            v=v,
            sigma2=_number(doc["sigma2"], "sigma2"),
            t=_number(doc["t"], "t"),
            centroid=np.array(doc["centroid"], dtype=np.float64),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FileFormatError(f"{path}: malformed surface document ({exc})") from exc
    for name, value in (("u", u), ("v", v), ("residual", residuals), ("sigma2", model.sigma2),
                        ("t", model.t), ("centroid", model.centroid)):
        if not np.isfinite(value).all():
            raise FileFormatError(f"{path}: {name} values must be finite")
    if not (type(n_u) is int and type(n_v) is int):  # a bool or 2.9 is no order
        raise FileFormatError(f"{path}: n_u and n_v must be integers, got {n_u!r} and {n_v!r}")
    if model.centroid.shape != (3,) or not all(type(c) in (int, float) for c in doc["centroid"]):
        raise FileFormatError(f"{path}: centroid must be 3 numbers, got {doc['centroid']!r}")
    if (surface.n_u, surface.n_v) != (n_u, n_v):
        raise FileFormatError(
            f"{path}: control tensor shape does not match recorded orders ({n_u}, {n_v})"
        )
    return model, residuals


# ---------------------------------------------------------------------------
# Study configs and results
# ---------------------------------------------------------------------------

def _int_pair(value: str) -> tuple[int, int]:
    first, second = value.split()
    return int(first), int(second)


# Each field's parser, and what a value that the parser rejects should be,
# by the field's annotation.
_SPEC_PARSERS = {
    "int": (int, "an integer"),
    "float": (float, "a number"),
    "str": (str, "text"),
    "tuple[int, int]": (_int_pair, "two integers"),
}
_SPEC_FIELDS = {f.name: _SPEC_PARSERS[f.type] for f in fields(ExperimentSpec)}


def parse_study_config(text: str, source: str = "<config>") -> list[ExperimentSpec]:
    """Parse ``[spec]`` blocks of ``key = value`` lines into experiment specs."""
    blocks: list[dict] = []
    current: dict | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line == "[spec]":
            current = {}
            blocks.append(current)
            continue
        if current is None:
            raise FileFormatError(f"{source}:{lineno}: expected a [spec] section before values")
        if "=" not in line:
            raise FileFormatError(f"{source}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _SPEC_FIELDS:
            raise FileFormatError(f"{source}:{lineno}: unknown field {key!r}")
        parse, kind = _SPEC_FIELDS[key]
        try:
            current[key] = parse(value.strip())
        except ValueError:
            raise FileFormatError(f"{source}:{lineno}: field {key} needs {kind}") from None
    if not blocks:
        raise FileFormatError(f"{source}: no [spec] sections found")
    specs = []
    for idx, block in enumerate(blocks):
        for required in ("surface", "n_tr", "sigma2_y", "seed"):
            if required not in block:
                raise FileFormatError(f"{source}: spec {idx + 1} is missing field {required!r}")
        try:
            specs.append(ExperimentSpec(**block))
        except ValueError as exc:
            raise FileFormatError(f"{source}: spec {idx + 1}: {exc}") from exc
    return specs


def load_study_config(name_or_path) -> list[ExperimentSpec]:
    """Load a config from a path, or from the bundled configs by name."""
    path = Path(name_or_path)
    if path.exists():
        return parse_study_config(_read_text(path), str(path))
    name = str(name_or_path)
    if not name.endswith(".cfg"):
        name += ".cfg"
    bundle = resources.files("patchfit").joinpath("configs", name)
    if bundle.is_file():
        return parse_study_config(bundle.read_text(encoding="utf-8"), f"bundled:{name}")
    raise FileFormatError(f"no such config file or bundled config: {name_or_path}")


_TABLE_COLUMNS = tuple(f.name for f in fields(StudyRow) if f.name != "mean_ms")
_LONG_COLUMNS = tuple(f.name for f in fields(TrialRecord) if f.name != "ms")


def _cell(value) -> str:
    if isinstance(value, float):
        return _fmt(value)
    # error messages may carry delimiters; keep rows parseable
    return str(value).replace(",", ";").replace("\n", " ")


def _write_rows(items, columns, path) -> None:
    lines = [",".join(columns)]
    lines += [",".join(_cell(getattr(item, col)) for col in columns) for item in items]
    Path(path).write_text("\n".join(lines) + "\n")


def write_study_table(rows: list[StudyRow], path) -> None:
    """Aggregate results, one row per spec. Wall times are reported on stdout
    only so that re-runs produce byte-identical files."""
    _write_rows(rows, _TABLE_COLUMNS, path)


def write_study_long(records: list[TrialRecord], path) -> None:
    """Plot-ready long format, one row per trial."""
    _write_rows(records, _LONG_COLUMNS, path)
