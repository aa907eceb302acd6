"""File formats: what the commands write, and the cell-mask CSV they read.

`register` writes the field CSV and a PGM image of the warped reference;
`verify-subgradient --out` writes a certificate bundle.  Fields are written as
`i,j,x,y,u1,u2` rows in row-major node order (j varies fastest).  Images are
16-bit binary PGM with the physical value range declared in a comment line.
Certificate bundles are directories holding a JSON header plus one CSV per
component.  Cell masks are plain 0/1 matrices, one text row per i index; they
are the one file polyreg reads, and it reads them strictly.

All floats are written with repr, which round-trips exactly.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .fields import CellMask


_FIELD_HEADER = "i,j,x,y,u1,u2"


def _write_table(path, header, table) -> None:
    """Write an (n1, n2, k) array as ``i,j,c1..ck`` rows, j varying fastest."""
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(header + "\n")
        for i, block in enumerate(np.asarray(table, dtype=float)):
            for j, row in enumerate(block.tolist()):
                fh.write(f"{i},{j}," + ",".join(map(repr, row)) + "\n")


def save_field(path, u) -> None:
    _write_table(path, _FIELD_HEADER, np.concatenate([u.grid.node_points, u.values], axis=-1))


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
    v2_header = "i,j," + ",".join(f"v{k + 1}" for k in range(tau2))
    for name, head, table in (
            ("u0.csv", "i,j,g1,g2", w.u0.reshape(grid.node_shape + (2,))),
            ("u1.csv", "i,j,a11,a12,a21,a22", w.u1.reshape(grid.cell_shape + (4,))),
            ("v2.csv", v2_header, w.v2.reshape(grid.cell_shape + (tau2,)))):
        _write_table(os.path.join(directory, name), head, table)
    save_field(os.path.join(directory, "base_field.csv"), w.base_point)
