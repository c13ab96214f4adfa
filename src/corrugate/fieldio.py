"""Text serialization: field CSV blocks, frame/primitive bundles, OBJ meshes, tables.

Every format is line-oriented ASCII so artifacts stay inspectable. Floats
are written with 17 significant digits, making all round trips lossless.
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
    # row by row: a whole-block tolist() would raise the peak memory
    line = _row_format(payload.shape[1]) + "\n"
    out.writelines(line % tuple(row.tolist()) for row in payload)


def read_field_block(lines):
    """Inverse of write_field_block; consumes lines from an iterator."""
    header = next((line.strip() for line in lines if line.strip()), None)
    if header is None:
        raise InputError("empty field block")
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

    offsets = None
    rows = []
    needed = grid.num_nodes
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            if line.startswith("# offsets"):
                body = line[len("# offsets"):].strip()
                offsets = np.array([[float(v) for v in part.split(",")]
                                    for part in body.split(";")])
                continue
            rows.append([float(v) for v in line.split(",")])
        except ValueError:
            raise InputError(f"malformed field line: {line!r}") from None
        if len(rows[-1]) != ncomp:
            raise InputError(f"row width {len(rows[-1])} != declared N={ncomp}: {line!r}")
        if len(rows) == needed:
            break
    if len(rows) != needed:
        raise InputError(f"field block truncated: {len(rows)} of {needed} rows")
    data = np.asarray(rows)
    shape = grid.shape + cls.component_shape(grid, (ncomp,))
    if int(np.prod(shape)) != data.size:
        raise InputError(f"{cls.kind} field on a {dim}-dimensional grid cannot have N={ncomp}")
    if offsets is not None and cls is not ImmersionField:
        raise InputError(f"offsets line in a {cls.kind} field block")
    return cls.from_periodic(grid, data.reshape(shape), *([] if offsets is None else [offsets]))


def write_field(field, path):
    with open(path, "w") as fh:
        write_field_block(field, fh)


def read_field(path):
    with open(path) as fh:
        return read_field_block(iter(fh))


def write_frame(frame, path):
    """FramePair as two immersion-style blocks (nu then b)."""
    with open(path, "w") as fh:
        write_field_block(ImmersionField.from_periodic(frame.grid, frame.nu), fh)
        write_field_block(ImmersionField.from_periodic(frame.grid, frame.b), fh)


def read_frame(path):
    from .frame import FramePair

    with open(path) as fh:
        lines = iter(fh)
        nu = read_field_block(lines)
        b = read_field_block(lines)
    return FramePair(nu.grid, nu.data, b.data)


def write_primitives(primitives, path):
    """Each primitive: one manifest line, then its amplitude block."""
    with open(path, "w") as fh:
        for k, prim in enumerate(primitives):
            lin = _fmt_row(prim.psi_linear)
            fh.write(f"primitive id={k} patch={prim.support_id} psi_linear={lin}\n")
            write_field_block(prim.amplitude, fh)


def read_primitives(path):
    from .decompose import PrimitiveMetric

    prims = []
    with open(path) as fh:
        lines = iter(fh)
        for line in lines:
            line = line.strip()
            if not line:
                continue
            if not line.startswith("primitive "):
                raise InputError(f"expected primitive manifest, got {line!r}")
            try:
                attrs = dict(p.split("=", 1) for p in line.split()[1:])
                psi_linear = np.array([float(v) for v in attrs["psi_linear"].split(",")])
                support_id = int(attrs["patch"])
            except (KeyError, ValueError):
                raise InputError(f"malformed primitive manifest: {line!r}") from None
            prims.append(PrimitiveMetric(
                amplitude=read_field_block(lines),
                psi_linear=psi_linear,
                support_id=support_id,
            ))
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
        line = "v " + " ".join([FLOAT_FMT] * 3) + "\n"
        fh.writelines(line % tuple(c.tolist()) for c in coords.reshape(-1, 3))
        # quad (i, j), (i+1, j), (i+1, j+1), (i, j+1), indices wrapped
        a = np.arange(1, r1 * r2 + 1).reshape(r1, r2)
        below = np.roll(a, -1, axis=0)
        quads = np.stack([a, below, np.roll(below, -1, axis=1), np.roll(a, -1, axis=1)], axis=-1)
        fh.writelines("f %d %d %d %d\n" % tuple(q) for q in quads.reshape(-1, 4).tolist())


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
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines:
        raise InputError("empty table")
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:]]
