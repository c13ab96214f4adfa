"""Text serialization: field CSV blocks, frame/primitive bundles, OBJ meshes, tables.

Every format is line-oriented ASCII so artifacts stay inspectable. Floats
are written with 17 significant digits, making all round trips lossless.
Readers take a file's non-blank, stripped lines and read each block by index;
numbers follow ``np.loadtxt``'s syntax, and a file holds exactly its blocks.
"""

from __future__ import annotations

import io

import numpy as np

from .errors import InputError
from .grid import ImmersionField, MetricField, PeriodicGrid, ScalarField

FLOAT_FMT = "%.17g"


def _row_format(width: int) -> str:
    return ",".join([FLOAT_FMT] * width)


def _fmt_row(row) -> str:
    values = np.asarray(row, dtype=float).tolist()
    return _row_format(len(values)) % tuple(values)


#: rows formatted per write: whole blocks at a time, without a whole-array tolist()
WRITE_CHUNK = 4096


def _write_rows(out, line: str, rows: np.ndarray):
    """Each row of a 2-D array through the %-template ``line``."""
    for start in range(0, len(rows), WRITE_CHUNK):
        chunk = rows[start:start + WRITE_CHUNK]
        out.write((line * len(chunk)) % tuple(chunk.ravel().tolist()))


#: field classes by the kind name in a block header
FIELD_KINDS = {cls.kind: cls for cls in (ScalarField, MetricField, ImmersionField)}


def write_field_block(field, out: io.TextIOBase):
    """One field as a header line plus one CSV row of ``data`` per node (row-major)."""
    grid = field.grid
    payload = field.data.reshape(grid.num_nodes, -1)
    res = ",".join(str(r) for r in grid.shape)
    out.write(f"# field {field.kind} dim={grid.dim} res={res} N={payload.shape[1]}\n")
    if isinstance(field, ImmersionField):
        rows = ";".join(_fmt_row(field.offsets[a]) for a in range(grid.dim))
        out.write(f"# offsets {rows}\n")
    _write_rows(out, _row_format(payload.shape[1]) + "\n", payload)


def _lines(path) -> list[str]:
    """The file's non-blank lines, stripped: what every reader here parses."""
    with open(path) as fh:
        return [line for line in map(str.strip, fh) if line]


def _numbers(rows: list[str]) -> np.ndarray | None:
    """Rows of comma-separated floats as a 2-D array; None if loadtxt refuses them."""
    try:
        return np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None


def read_field_block(lines: list[str], at: int):
    """Inverse of write_field_block: the field whose block (header, at most one
    offsets line, one row per node) starts at ``lines[at]``, and the index after it."""
    if at == len(lines):
        raise InputError("empty field block")
    header = lines[at]
    parts = header.split()
    if len(parts) != 6 or parts[0] != "#" or parts[1] != "field":
        raise InputError(f"malformed field header: {header!r}")
    try:
        cls = FIELD_KINDS[parts[2]]
        attrs = dict(p.split("=", 1) for p in parts[3:])
        dim = int(attrs["dim"])
        shape = tuple(int(r) for r in attrs["res"].split(","))
        ncomp = int(attrs["N"])
    except (KeyError, ValueError):
        raise InputError(f"malformed field header: {header!r}") from None
    if len(shape) != dim:
        raise InputError("res entry count does not match dim")
    grid = PeriodicGrid(shape)
    at += 1
    offsets = None
    if at < len(lines) and lines[at].startswith("# offsets"):
        if cls is not ImmersionField:
            raise InputError(f"offsets line in a {cls.kind} field block")
        rows = lines[at][len("# offsets"):].split(";")
        offsets = _numbers(rows) if all(map(str.strip, rows)) else None
        if offsets is None:
            raise InputError(f"malformed field line: {lines[at]!r}")
        at += 1
    rows = lines[at:at + grid.num_nodes]
    if len(rows) != grid.num_nodes:
        raise InputError(f"field block truncated: {len(rows)} of {grid.num_nodes} rows")
    data = _numbers(rows)
    if data is None or data.shape[1] != ncomp:
        for line in rows:  # the first row the same rule refuses, quoted
            row = _numbers([line])
            if row is None:
                raise InputError(f"malformed field line: {line!r}")
            if row.shape[1] != ncomp:
                raise InputError(f"row width {row.shape[1]} != declared N={ncomp}: {line!r}")
    shape = grid.shape + cls.component_shape(grid, (ncomp,))
    if int(np.prod(shape)) != data.size:
        raise InputError(f"{cls.kind} field on a {dim}-dimensional grid cannot have N={ncomp}")
    field = cls.from_periodic(grid, data.reshape(shape), *([] if offsets is None else [offsets]))
    return field, at + grid.num_nodes


def _read_blocks(path, count: int) -> list:
    """The ``count`` field blocks that make up the file, and nothing after them."""
    lines = _lines(path)
    fields, at = [], 0
    for _ in range(count):
        field, at = read_field_block(lines, at)
        fields.append(field)
    if at < len(lines):
        raise InputError(f"line after the last field block: {lines[at]!r}")
    return fields


def write_field(field, path):
    with open(path, "w") as fh:
        write_field_block(field, fh)


def read_field(path):
    return _read_blocks(path, 1)[0]


def write_frame(frame, path):
    """FramePair as two immersion-style blocks (nu then b)."""
    with open(path, "w") as fh:
        write_field_block(ImmersionField.from_periodic(frame.grid, frame.nu), fh)
        write_field_block(ImmersionField.from_periodic(frame.grid, frame.b), fh)


def read_frame(path):
    """Two immersion blocks on one grid whose lifts pass ``FramePair.validate``."""
    from .frame import FramePair
    nu, b = _read_blocks(path, 2)
    if not (isinstance(nu, ImmersionField) and isinstance(b, ImmersionField)):
        raise InputError(f"frame blocks must be immersion fields, got {nu.kind} and {b.kind}")
    if nu.data.shape != b.data.shape:
        raise InputError(f"frame blocks differ: nu has shape {nu.data.shape}, "
                         f"b has shape {b.data.shape}")
    pair = FramePair(nu.grid, nu.values, b.values)
    pair.validate()
    return pair


def write_primitives(primitives, path):
    """Each primitive: one manifest line, then its amplitude block."""
    with open(path, "w") as fh:
        for k, prim in enumerate(primitives):
            lin = _fmt_row(prim.psi_linear)
            fh.write(f"primitive id={k} patch={prim.support_id} psi_linear={lin}\n")
            write_field_block(prim.amplitude, fh)


def read_primitives(path):
    from .decompose import PrimitiveMetric
    lines = _lines(path)
    prims, at = [], 0
    while at < len(lines):
        line = lines[at]
        if not line.startswith("primitive "):
            raise InputError(f"expected primitive manifest, got {line!r}")
        try:
            attrs = dict(p.split("=", 1) for p in line.split()[1:])
            support_id = int(attrs["patch"])
            # the blocks' number rule; loadtxt only warns on an empty row
            psi_linear = _numbers([attrs["psi_linear"]]) if attrs["psi_linear"] else None
            if psi_linear is None:
                raise ValueError
        except (KeyError, ValueError):
            raise InputError(f"malformed primitive manifest: {line!r}") from None
        amplitude, at = read_field_block(lines, at + 1)
        prims.append(PrimitiveMetric(amplitude, psi_linear[0], support_id))
    return prims


def export_obj(w: ImmersionField, path):
    """Quad mesh of a torus immersion: first three ambient coordinates.

    Faces wrap around both periodic seams; indices are 1-based per the OBJ
    text format.
    """
    if w.grid.dim != 2:
        raise InputError("OBJ export needs a 2-dimensional chart")
    r1, r2 = w.grid.shape
    values = w.values
    coords = np.zeros((r1, r2, 3))
    take = min(3, w.ambient_dim)
    coords[..., :take] = values[..., :take]
    with open(path, "w") as fh:
        _write_rows(fh, "v " + " ".join([FLOAT_FMT] * 3) + "\n", coords.reshape(-1, 3))
        # quad (i, j), (i+1, j), (i+1, j+1), (i, j+1), indices wrapped
        a = np.arange(1, r1 * r2 + 1).reshape(r1, r2)
        below = np.roll(a, -1, axis=0)
        quads = np.stack([a, below, np.roll(below, -1, axis=1), np.roll(a, -1, axis=1)], axis=-1)
        _write_rows(fh, "f %d %d %d %d\n", quads.reshape(-1, 4))


def parse_obj_counts(path) -> tuple[int, int]:
    """Vertex and face counts of an OBJ file (round-trip check helper)."""
    nv = nf = 0
    with open(path) as fh:
        for line in fh:
            if line.startswith("v "):
                nv += 1
            elif line.startswith("f "):
                nf += 1
    return nv, nf


def _cell(value) -> str:
    """Text as given, a number at FLOAT_FMT, a list of numbers joined by ';'."""
    if isinstance(value, (list, tuple)):
        return ";".join(map(_cell, value))
    return value if isinstance(value, str) else FLOAT_FMT % float(value)


def write_table(header, rows, path):
    """Plain CSV: one header line then the data rows (cells as ``_cell``)."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_cell(v) for v in row) + "\n")


def read_table(path) -> tuple[list[str], list[list[str]]]:
    lines = _lines(path)
    if not lines:
        raise InputError("empty table")
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:]]
