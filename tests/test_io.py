import numpy as np
import pytest

from polyreg import (
    Grid,
    ScalarImage,
    detsq_energy,
    disk_mask,
    identity_field,
    pairing,
    poly_subgradient,
    pq_energy,
    random_smooth_field,
)
from polyreg.io import (
    load_field,
    load_image_csv,
    load_mask,
    load_pgm,
    load_subgradient,
    save_field,
    save_image_csv,
    save_mask,
    save_pgm,
    save_subgradient,
)


class TestFieldCsv:
    def test_round_trip_exact(self, tmp_path, unit_grid):
        u = random_smooth_field(unit_grid, seed=17)
        path = tmp_path / "field.csv"
        save_field(path, u)
        back = load_field(path, unit_grid)
        assert np.array_equal(back.values, u.values)

    def test_header_written(self, tmp_path, unit_grid):
        path = tmp_path / "field.csv"
        save_field(path, identity_field(unit_grid))
        assert path.read_text().splitlines()[0] == "i,j,x,y,u1,u2"

    def test_bad_header_rejected(self, tmp_path, unit_grid):
        path = tmp_path / "field.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(ValueError):
            load_field(path, unit_grid)

    def test_nan_entry_rejected(self, tmp_path, unit_grid):
        path = tmp_path / "field.csv"
        save_field(path, identity_field(unit_grid))
        lines = path.read_text().splitlines()
        i, j, x, y, u1, _ = lines[5].split(",")
        lines[5] = ",".join([i, j, x, y, u1, "nan"])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="finite"):
            load_field(path, unit_grid)


class TestImageFormats:
    def test_csv_round_trip_exact(self, tmp_path, unit_grid, rng):
        img = ScalarImage(unit_grid, rng.uniform(-3, 5, unit_grid.node_shape))
        path = tmp_path / "img.csv"
        save_image_csv(path, img)
        back = load_image_csv(path, unit_grid)
        assert np.array_equal(back.samples, img.samples)

    def test_pgm_round_trip_quantized(self, tmp_path, unit_grid, rng):
        img = ScalarImage(unit_grid, rng.uniform(-1, 2, unit_grid.node_shape))
        path = tmp_path / "img.pgm"
        save_pgm(path, img)
        back = load_pgm(path, unit_grid)
        span = img.samples.max() - img.samples.min()
        assert np.max(np.abs(back.samples - img.samples)) <= span / 65535.0

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
        back = load_pgm(path, unit_grid)
        assert np.allclose(back.samples, 2.5, atol=1e-12)


class TestMaskCsv:
    def test_round_trip(self, tmp_path):
        base = Grid(((-1.0, 1.0), (-1.0, 1.0)), 12, 12)
        mask = disk_mask(base, radius=0.8)
        path = tmp_path / "mask.csv"
        save_mask(path, mask)
        back = load_mask(path)
        assert np.array_equal(back.active, mask.active)
        assert back.kind == "cells"  # provenance is not serialized


class TestCertificateBundle:
    def test_round_trip_preserves_action(self, tmp_path, unit_grid):
        F = pq_energy(4.0, 2.0)
        base = random_smooth_field(unit_grid, seed=23, amplitude=0.5)
        w = save_me = poly_subgradient(F, base)
        save_subgradient(tmp_path / "cert", save_me, protocol={"trials": 10})
        back = load_subgradient(tmp_path / "cert")
        assert np.array_equal(back.u0, w.u0)
        assert np.array_equal(back.u1, w.u1)
        assert np.array_equal(back.v2, w.v2)
        assert back.base_energy == w.base_energy
        probe = random_smooth_field(unit_grid, seed=29)
        assert pairing(back, probe) == pairing(w, probe)

    def test_header_contents(self, tmp_path, unit_grid):
        import json

        w = poly_subgradient(detsq_energy(), identity_field(unit_grid))
        save_subgradient(tmp_path / "cert", w, protocol={"trials": 7, "radius": 0.5})
        header = json.loads((tmp_path / "cert" / "header.json").read_text())
        assert header["nx"] == unit_grid.nx
        assert header["tau2"] == 1
        assert header["protocol"]["trials"] == 7
        assert header["base_energy"] == pytest.approx(1.0)
