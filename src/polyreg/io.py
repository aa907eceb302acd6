"""File formats: field CSV, image CSV/PGM, cell-mask CSV, certificate bundles.

Fields are written as `i,j,x,y,u1,u2` rows in row-major node order (j varies
fastest).  Scalar images use `i,j,value` triplets on the same convention, or
16-bit binary PGM with the physical value range declared in a comment line.
Cell masks are plain 0/1 matrices, one text row per i index.  Certificate
bundles are directories holding a JSON header plus one CSV per component.

All floats are written with repr, which round-trips exactly.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from .bregman import PolySubgradient
from .fields import CellMask, Grid, MatrixField
from .registration import ScalarImage


_FIELD_HEADER = "i,j,x,y,u1,u2"
_IMAGE_HEADER = "i,j,value"


def _bundle_tables(grid, tau2):
    """File name, header and table shape of the u0, u1 and v2 bundle CSVs."""
    v2_header = "i,j," + ",".join(f"v{k + 1}" for k in range(tau2))
    return (("u0.csv", "i,j,g1,g2", grid.node_shape + (2,)),
            ("u1.csv", "i,j,a11,a12,a21,a22", grid.cell_shape + (4,)),
            ("v2.csv", v2_header, grid.cell_shape + (tau2,)))


def _write_table(path, header, table) -> None:
    """Write an (n1, n2, k) array as ``i,j,c1..ck`` rows, j varying fastest."""
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(header + "\n")
        for i, block in enumerate(np.asarray(table, dtype=float)):
            for j, row in enumerate(block.tolist()):
                fh.write(f"{i},{j}," + ",".join(map(repr, row)) + "\n")


def _read_table(path, header, shape) -> np.ndarray:
    """Parse a ``_write_table`` file into an array of ``shape`` (n1, n2, k).

    Rejects, naming the file and line, a wrong header or column count, bad,
    out-of-range or repeated indices, non-finite values and missing rows."""
    n1, n2, k = shape
    table = np.empty(shape)
    seen = np.zeros((n1, n2), dtype=bool)
    with open(path, encoding="ascii") as fh:
        found = fh.readline().strip()
        if found != header:
            raise ValueError(f"{path}: line 1: expected header {header!r}, got {found!r}")
        for lineno, line in enumerate(fh, start=2):
            cells = line.split(",")
            try:  # every row error is re-raised below with the file and line
                if len(cells) != k + 2:
                    raise ValueError(f"expected {k + 2} columns, got {len(cells)}")
                i, j, row = int(cells[0]), int(cells[1]), [float(c) for c in cells[2:]]
                if not (0 <= i < n1 and 0 <= j < n2):
                    raise ValueError(f"index ({i}, {j}) outside {n1} x {n2}")
                if seen[i, j]:
                    raise ValueError(f"repeated index ({i}, {j})")
                if not all(map(math.isfinite, row)):
                    raise ValueError("non-finite value")
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
            seen[i, j] = True
            table[i, j] = row
    if not seen.all():
        i, j = np.argwhere(~seen)[0]
        raise ValueError(f"{path}: no row for index ({i}, {j}) of {n1} x {n2}")
    return table


def save_field(path, u) -> None:
    _write_table(path, _FIELD_HEADER, np.concatenate([u.grid.node_points, u.values], axis=-1))


def load_field(path, grid) -> MatrixField:
    return MatrixField(grid, _read_table(path, _FIELD_HEADER, grid.node_shape + (4,))[..., 2:])


def save_image_csv(path, image) -> None:
    _write_table(path, _IMAGE_HEADER, image.samples[..., None])


def load_image_csv(path, grid) -> ScalarImage:
    return ScalarImage(grid, _read_table(path, _IMAGE_HEADER, grid.node_shape + (1,))[..., 0])


def save_pgm(path, image) -> None:
    """16-bit binary PGM; the physical range is declared in a comment.

    Raster rows run over the j (y) index top-down starting from the largest
    j, columns over i; values are quantized linearly onto 0..65535.
    """
    lo, hi = image.min_max()
    span = hi - lo if hi > lo else 1.0
    quant = np.rint((image.samples - lo) / span * 65535.0).astype(">u2")
    raster = quant.T[::-1, :]  # rows: j descending; cols: i ascending
    header = (
        f"P5\n# scale {float(lo)!r} {float(hi)!r}\n"
        f"{image.grid.nx} {image.grid.ny}\n65535\n"
    )
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(raster.tobytes())


def load_pgm(path, grid) -> ScalarImage:
    with open(path, "rb") as fh:
        data = fh.read()
    parts = data.split(b"\n", 1)
    if parts[0].strip() != b"P5":
        raise ValueError("not a binary PGM file")
    rest = parts[1]
    lo, hi = 0.0, 65535.0
    tokens = []
    while len(tokens) < 3:
        line, rest = rest.split(b"\n", 1)
        line = line.strip()
        if line.startswith(b"#"):
            fields = line.split()
            if len(fields) == 4 and fields[1] == b"scale":
                lo, hi = float(fields[2]), float(fields[3])
            continue
        tokens.extend(line.split())
    width, height, maxval = (int(t) for t in tokens[:3])
    if maxval != 65535:
        raise ValueError("expected a 16-bit PGM")
    if (width, height) != grid.node_shape:
        raise ValueError(f"PGM size {(width, height)} does not match the grid")
    raster = np.frombuffer(rest, dtype=">u2", count=width * height)
    quant = raster.reshape(height, width)[::-1, :].T.astype(float)
    return ScalarImage(grid, lo + (hi - lo) * quant / 65535.0)


def save_mask(path, mask) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        for row in mask.active.astype(int):
            fh.write(",".join(str(v) for v in row) + "\n")


def load_mask(path) -> CellMask:
    """Read a rectangular 0/1 matrix, one text row per i index."""
    rows = []
    with open(path, encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            row = [v.strip() for v in line.split(",")]
            if not set(row) <= {"0", "1"}:
                raise ValueError(f"{path}: line {lineno}: mask entries must be 0 or 1")
            if rows and len(row) != len(rows[0]):
                raise ValueError(f"{path}: line {lineno}: ragged row of {len(row)} entries")
            rows.append([v == "1" for v in row])
    return CellMask(rows, kind="cells")


def save_subgradient(directory, w, protocol=None) -> None:
    """Write a certificate bundle: JSON header plus per-component CSVs."""
    os.makedirs(directory, exist_ok=True)
    grid = w.base_point.grid
    tau2 = int(w.v2.shape[-1])
    header = {"nx": grid.nx, "ny": grid.ny, "bounds": [list(b) for b in grid.bounds],
              "tau2": tau2, "base_energy": float(w.base_energy), "protocol": protocol or {}}
    with open(os.path.join(directory, "header.json"), "w", encoding="ascii") as fh:
        json.dump(header, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for (name, head, shape), table in zip(_bundle_tables(grid, tau2), (w.u0, w.u1, w.v2)):
        _write_table(os.path.join(directory, name), head, table.reshape(shape))
    save_field(os.path.join(directory, "base_field.csv"), w.base_point)


def _is_number(value) -> bool:
    return type(value) in (int, float)  # bool is not a number here


# Required keys of a bundle's header.json: (key, check, what the value must be).
_HEADER_KEYS = (
    ("bounds", lambda v: type(v) is list and len(v) == 2 and all(
        type(b) is list and len(b) == 2 and all(map(_is_number, b)) for b in v),
     "two [lo, hi] pairs of numbers"),
    ("nx", lambda v: type(v) is int, "an integer"),
    ("ny", lambda v: type(v) is int, "an integer"),
    ("tau2", lambda v: type(v) is int, "an integer"),
    ("base_energy", _is_number, "a number"),
)


def _read_header(path) -> dict:
    """A bundle's ``header.json``, rejected naming the file when it is not a
    JSON object holding every key of ``_HEADER_KEYS`` with a value of its type."""
    with open(path, encoding="ascii") as fh:
        try:
            header = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}") from None
    if type(header) is not dict:
        raise ValueError(f"{path}: expected a JSON object")
    for key, check, what in _HEADER_KEYS:
        if key not in header:
            raise ValueError(f"{path}: missing key {key!r}")
        if not check(header[key]):
            raise ValueError(f"{path}: key {key!r} must be {what}, got {header[key]!r}")
    return header


def load_subgradient(directory, mask=None) -> PolySubgradient:
    header = _read_header(os.path.join(directory, "header.json"))
    grid = Grid(tuple(map(tuple, header["bounds"])), header["nx"], header["ny"], mask)
    base = load_field(os.path.join(directory, "base_field.csv"), grid)
    u0, u1, v2 = (_read_table(os.path.join(directory, name), head, shape)
                  for name, head, shape in _bundle_tables(grid, int(header["tau2"])))
    return PolySubgradient(u0, u1.reshape(grid.cell_shape + (2, 2)), v2, base_point=base,
                           base_energy=float(header["base_energy"]))
