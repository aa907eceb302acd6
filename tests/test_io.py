import json
import re

import numpy as np
import pytest

from polyreg import (
    Grid,
    MatrixField,
    ScalarImage,
    detsq_energy,
    disk_mask,
    identity_field,
    pairing,
    poly_subgradient,
    pq_energy,
    random_smooth_field,
)
from polyreg.bregman import PolySubgradient
from polyreg.io import (
    load_mask,
    save_field,
    save_pgm,
    save_subgradient,
)

from oracles import write_mask_csv


def _parse_table(path, shape):
    """Header and ``c1..ck`` columns of an ``i,j,c1..ck`` CSV, checking that
    its rows list every index of ``shape`` (n1, n2) once, j varying fastest."""
    header, *lines = path.read_text().splitlines()
    rows = [line.split(",") for line in lines]
    assert [(int(r[0]), int(r[1])) for r in rows] == list(np.ndindex(shape))
    return header, np.array([[float(c) for c in r[2:]] for r in rows]).reshape(shape + (-1,))


def _decode_pgm(path):
    """The declared (lo, hi) range and the (height, width) raster of a 16-bit PGM."""
    magic, scale, size, maxval, raster = path.read_bytes().split(b"\n", 4)
    assert (magic, maxval) == (b"P5", b"65535")
    comment, keyword, lo, hi = scale.split()
    assert (comment, keyword) == (b"#", b"scale")
    width, height = map(int, size.split())
    quant = np.frombuffer(raster, dtype=">u2")
    assert quant.size == width * height
    return float(lo), float(hi), quant.reshape(height, width)


class TestFieldCsv:
    def test_round_trip_exact(self, tmp_path, unit_grid):
        u = random_smooth_field(unit_grid, seed=17)
        path = tmp_path / "field.csv"
        save_field(path, u)
        _, table = _parse_table(path, unit_grid.node_shape)
        assert np.array_equal(table[..., :2], unit_grid.node_points)
        assert np.array_equal(table[..., 2:], u.values)  # repr round-trips exactly

    def test_header_written(self, tmp_path, unit_grid):
        path = tmp_path / "field.csv"
        save_field(path, identity_field(unit_grid))
        assert path.read_text().splitlines()[0] == "i,j,x,y,u1,u2"


class TestImageFormats:
    def test_pgm_round_trip_quantized(self, tmp_path, unit_grid, rng):
        img = ScalarImage(unit_grid, rng.uniform(-1, 2, unit_grid.node_shape))
        path = tmp_path / "img.pgm"
        save_pgm(path, img)
        lo, hi, quant = _decode_pgm(path)
        assert (lo, hi) == (img.samples.min(), img.samples.max())
        assert quant.shape == (unit_grid.ny, unit_grid.nx)
        back = lo + (hi - lo) * quant[::-1, :].T / 65535.0
        assert np.max(np.abs(back - img.samples)) <= (hi - lo) / 65535.0

    def test_pgm_rows_run_in_descending_j(self, tmp_path):
        grid = Grid(((0.0, 1.0), (0.0, 1.0)), 3, 4)
        img = ScalarImage(grid, grid.node_points[..., 1])  # increases with j only
        path = tmp_path / "img.pgm"
        save_pgm(path, img)
        _, _, quant = _decode_pgm(path)
        assert quant.tolist() == [[65535] * 3, [43690] * 3, [21845] * 3, [0] * 3]

    def test_pgm_header_structure(self, tmp_path, unit_grid):
        img = ScalarImage(unit_grid, np.zeros(unit_grid.node_shape))
        path = tmp_path / "img.pgm"
        save_pgm(path, img)
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n# scale ")
        assert b"65535" in raw

    def test_pgm_constant_image(self, tmp_path, unit_grid):
        img = ScalarImage(unit_grid, np.full(unit_grid.node_shape, 2.5))
        path = tmp_path / "img.pgm"
        save_pgm(path, img)
        lo, hi, quant = _decode_pgm(path)
        assert (lo, hi) == (2.5, 2.5)
        assert not quant.any()


class TestMaskCsv:
    def test_round_trip(self, tmp_path):
        base = Grid(((-1.0, 1.0), (-1.0, 1.0)), 12, 12)
        mask = disk_mask(base, radius=0.8)
        path = tmp_path / "mask.csv"
        write_mask_csv(path, mask)
        back = load_mask(path)
        assert np.array_equal(back.active, mask.active)
        assert back.kind == "cells"  # provenance is not serialized

    @pytest.mark.parametrize("entry", ["2", "-1"])
    def test_non_binary_entry_rejected(self, tmp_path, entry):
        # such entries used to become active cells
        path = tmp_path / "mask.csv"
        path.write_text(f"0,1,1\n1,{entry},0\n")
        message = f"{path}: line 2: mask entries must be 0 or 1"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_mask(path)

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "mask.csv"
        path.write_text("0,1,1\n1,1,0\n1,1\n")
        message = f"{path}: line 3: ragged row of 2 entries"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_mask(path)


class TestCertificateBundle:
    def test_round_trip_preserves_action(self, tmp_path, unit_grid):
        base = random_smooth_field(unit_grid, seed=23, amplitude=0.5)
        w = poly_subgradient(pq_energy(4.0, 2.0), base)
        save_subgradient(tmp_path / "cert", w, protocol={"trials": 10})
        nodes, cells = unit_grid.node_shape, unit_grid.cell_shape
        tables = {name: _parse_table(tmp_path / "cert" / name, shape)
                  for name, shape in (("u0.csv", nodes), ("u1.csv", cells),
                                      ("v2.csv", cells), ("base_field.csv", nodes))}
        assert [head for head, _ in tables.values()] == [
            "i,j,g1,g2", "i,j,a11,a12,a21,a22", "i,j,v1", "i,j,x,y,u1,u2"]
        u0, u1, v2, field = (table for _, table in tables.values())
        assert np.array_equal(u0, w.u0)
        assert np.array_equal(u1.reshape(cells + (2, 2)), w.u1)
        assert np.array_equal(v2, w.v2)
        assert np.array_equal(field[..., 2:], base.values)
        header = json.loads((tmp_path / "cert" / "header.json").read_text())
        assert header["base_energy"] == w.base_energy
        back = PolySubgradient(u0, u1.reshape(cells + (2, 2)), v2,
                               base_point=MatrixField(unit_grid, field[..., 2:]),
                               base_energy=header["base_energy"])
        probe = random_smooth_field(unit_grid, seed=29)
        assert pairing(back, probe) == pairing(w, probe)

    def test_header_contents(self, tmp_path, unit_grid):
        w = poly_subgradient(detsq_energy(), identity_field(unit_grid))
        save_subgradient(tmp_path / "cert", w, protocol={"trials": 7, "radius": 0.5})
        header = json.loads((tmp_path / "cert" / "header.json").read_text())
        assert header["nx"] == unit_grid.nx
        assert header["tau2"] == 1
        assert header["protocol"]["trials"] == 7
        assert header["base_energy"] == pytest.approx(1.0)

# Full text of each writer's output on a 3 x 4 grid with non-round values, so
# that any change to the number format, row order, header or newline shows.
GOLDEN_FIELD = (
    'i,j,x,y,u1,u2\n'
    '0,0,-1.0,0.2,-1.0,0.34285714285714286\n'
    '0,1,-1.0,0.5666666666666667,-0.7142857142857143,0.9952380952380953\n'
    '0,2,-1.0,0.9333333333333333,-0.4285714285714286,1.6476190476190475\n'
    '0,3,-1.0,1.3,-0.1428571428571429,2.3\n'
    '1,0,-0.15000000000000002,0.2,0.9928571428571428,1.4857142857142858\n'
    '1,1,-0.15000000000000002,0.5666666666666667,1.2785714285714285,2.138095238095238\n'
    '1,2,-0.15000000000000002,0.9333333333333333,1.564285714285714,2.7904761904761903\n'
    '1,3,-0.15000000000000002,1.3,1.85,3.442857142857143\n'
    '2,0,0.7,0.2,2.9857142857142858,2.6285714285714286\n'
    '2,1,0.7,0.5666666666666667,3.2714285714285714,3.280952380952381\n'
    '2,2,0.7,0.9333333333333333,3.557142857142857,3.9333333333333336\n'
    '2,3,0.7,1.3,3.8428571428571425,4.585714285714285\n'
)

GOLDEN_U0 = (
    'i,j,g1,g2\n'
    '0,0,0.0,0.1111111111111111\n'
    '0,1,0.2222222222222222,0.3333333333333333\n'
    '0,2,0.4444444444444444,0.5555555555555556\n'
    '0,3,0.6666666666666666,0.7777777777777778\n'
    '1,0,0.8888888888888888,1.0\n'
    '1,1,1.1111111111111112,1.2222222222222223\n'
    '1,2,1.3333333333333333,1.4444444444444444\n'
    '1,3,1.5555555555555556,1.6666666666666667\n'
    '2,0,1.7777777777777777,1.8888888888888888\n'
    '2,1,2.0,2.111111111111111\n'
    '2,2,2.2222222222222223,2.3333333333333335\n'
    '2,3,2.4444444444444446,2.5555555555555554\n'
)

GOLDEN_U1 = (
    'i,j,a11,a12,a21,a22\n'
    '0,0,0.0,-0.09090909090909091,-0.18181818181818182,-0.2727272727272727\n'
    '0,1,-0.36363636363636365,-0.45454545454545453,-0.5454545454545454,-0.6363636363636364\n'
    '0,2,-0.7272727272727273,-0.8181818181818182,-0.9090909090909091,-1.0\n'
    '1,0,-1.0909090909090908,-1.1818181818181819,-1.2727272727272727,-1.3636363636363635\n'
    '1,1,-1.4545454545454546,-1.5454545454545454,-1.6363636363636365,-1.7272727272727273\n'
    '1,2,-1.8181818181818181,-1.9090909090909092,-2.0,-2.090909090909091\n'
)

GOLDEN_V2 = (
    'i,j,v1,v2\n'
    '0,0,0.0,0.07692307692307693\n'
    '0,1,0.15384615384615385,0.23076923076923078\n'
    '0,2,0.3076923076923077,0.38461538461538464\n'
    '1,0,0.46153846153846156,0.5384615384615384\n'
    '1,1,0.6153846153846154,0.6923076923076923\n'
    '1,2,0.7692307692307693,0.8461538461538461\n'
)

GOLDEN_HEADER = (
    '{\n'
    '  "base_energy": 0.30000000000000004,\n'
    '  "bounds": [\n'
    '    [\n'
    '      -1.0,\n'
    '      0.7\n'
    '    ],\n'
    '    [\n'
    '      0.2,\n'
    '      1.3\n'
    '    ]\n'
    '  ],\n'
    '  "nx": 3,\n'
    '  "ny": 4,\n'
    '  "protocol": {\n'
    '    "radius": 0.25,\n'
    '    "trials": 7\n'
    '  },\n'
    '  "tau2": 2\n'
    '}\n'
)


class TestGoldenBytes:
    @pytest.fixture
    def field(self):
        grid = Grid(((-1.0, 0.7), (0.2, 1.3)), 3, 4)
        return MatrixField(grid, grid.node_points + np.arange(24).reshape(3, 4, 2) / 7.0)

    def test_field(self, tmp_path, field):
        save_field(tmp_path / "field.csv", field)
        assert (tmp_path / "field.csv").read_bytes() == GOLDEN_FIELD.encode("ascii")

    def test_certificate_bundle(self, tmp_path, field):
        w = PolySubgradient(
            np.arange(24).reshape(3, 4, 2) / 9.0,
            -np.arange(24).reshape(2, 3, 2, 2) / 11.0,
            np.arange(12).reshape(2, 3, 2) / 13.0,
            base_point=field,
            base_energy=0.1 + 0.2,
        )
        save_subgradient(tmp_path / "cert", w, protocol={"trials": 7, "radius": 0.25})
        expected = {
            "header.json": GOLDEN_HEADER,
            "u0.csv": GOLDEN_U0,
            "u1.csv": GOLDEN_U1,
            "v2.csv": GOLDEN_V2,
            "base_field.csv": GOLDEN_FIELD,
        }
        assert sorted(p.name for p in (tmp_path / "cert").iterdir()) == sorted(expected)
        for name, text in expected.items():
            assert (tmp_path / "cert" / name).read_bytes() == text.encode("ascii"), name
