import json
from pathlib import Path

import numpy as np
import pytest

from polyreg.cli import main
from polyreg.config import build_experiment, build_grid, default_config, load_config


@pytest.fixture
def small_config(tmp_path):
    """Config scaled down for CLI tests: coarse grid, short ladder."""
    cfg = {
        "grid": {"nx": 20, "ny": 20},
        "experiment": {"levels": 3, "fit_levels": 3, "delta0": 0.1, "seeds": [0]},
        "solver": {"tol": 1e-6, "max_iter": 1500},
        "verify": {"trials": 40, "radius": 0.4, "seed": 3},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


class TestConfig:
    def test_defaults_complete(self):
        cfg = default_config()
        assert set(cfg) == {"grid", "mask", "integrand", "image",
                            "experiment", "solver", "source_condition", "verify"}

    def test_overlay_merges(self, small_config):
        cfg = load_config(small_config)
        assert cfg["grid"]["nx"] == 20
        assert cfg["grid"]["bounds"] == [[-1.0, 1.0], [-1.0, 1.0]]  # default kept

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        for overlay, key in (({"grd": {}}, "grd"), ({"solver": {"starts": 2}}, "solver.starts")):
            path.write_text(json.dumps(overlay))
            with pytest.raises(ValueError, match=rf"unknown config key '{key}'"):
                load_config(str(path))

    def test_build_grid_disk(self, small_config):
        grid = build_grid(load_config(small_config))
        assert grid.mask is not None and grid.mask.kind == "disk"
        assert grid.nx == 20

    def test_build_grid_without_mask(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"grid": {"nx": 9, "ny": 7}, "mask": {"type": "none"}}))
        grid = build_grid(load_config(str(path)))
        assert grid.mask.kind == "box"
        assert grid.active_cells.shape == (8, 6) and grid.active_cells.all()

    def test_build_experiment_shapes(self, small_config):
        exp = build_experiment(load_config(small_config))
        assert len(exp.deltas) == 3
        assert exp.forward.q == 2.0
        assert exp.w.base_energy == pytest.approx(
            6.0 * exp.u_dagger.grid.domain_measure, rel=1e-12
        )

    @pytest.mark.parametrize("section, key, value", [
        ("solver", "tol", 0.0),
        ("solver", "tol", -3e-7),
        ("solver", "tol", float("nan")),
        ("solver", "tol", 1.0),
        ("solver", "tol", 3.0),
        ("solver", "max_iter", 0),
        ("solver", "memory", 0),
        ("solver", "max_iter", -1),
        ("experiment", "fit_levels", 2),
        ("experiment", "levels", 2),
        ("experiment", "delta0", 0.0),
        ("experiment", "delta0", -0.1),
        ("experiment", "delta0", float("nan")),
        ("experiment", "delta0", float("inf")),
        ("experiment", "alpha0", 0.0),
        ("experiment", "alpha0", -0.05),
        ("experiment", "alpha0", float("nan")),
        ("experiment", "alpha0", float("inf")),
        ("experiment", "epsilon", -0.1),
        ("experiment", "epsilon", 1.0),
        ("experiment", "epsilon", float("nan")),
        ("experiment", "seeds", []),
        ("experiment", "seeds", [0, -1]),
        ("image", "seed", -1),
        ("image", "seed", None),  # with image.blobs null: a fresh image per build
        ("mask", "radius", 0.0),
        ("mask", "radius", -1.0),
        ("mask", "radius", float("nan")),
    ])
    def test_out_of_range_value_rejected(self, small_config, section, key, value):
        cfg = load_config(small_config)
        cfg[section][key] = value
        with pytest.raises(ValueError, match=rf"'{section}\.{key}'"):
            build_experiment(cfg)

    def test_explicit_blobs_build_without_an_image_seed(self, small_config):
        cfg = load_config(small_config)
        cfg["image"] = {"blobs": [[1.0, 0.2, -0.1, 0.3], [0.5, -0.3, 0.2, 0.2]], "seed": None}
        first, second = build_experiment(cfg), build_experiment(cfg)
        assert np.array_equal(first.forward.reference.samples,
                              second.forward.reference.samples)
        assert np.any(first.forward.reference.samples)

    def test_fit_window_longer_than_ladder_rejected(self):
        cfg = default_config()
        cfg["experiment"]["levels"] = 3  # default fit_levels is 4
        with pytest.raises(ValueError, match=r"'experiment\.levels' must be >= "
                                             r"experiment\.fit_levels = 4, got 3"):
            build_experiment(cfg)

    def test_csv_mask_config(self, tmp_path):
        import numpy as np

        from polyreg import Grid, disk_mask
        from polyreg.io import save_mask

        base = Grid(((-1.0, 1.0), (-1.0, 1.0)), 12, 12)
        mask_path = tmp_path / "mask.csv"
        save_mask(mask_path, disk_mask(base, radius=0.7))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "grid": {"nx": 12, "ny": 12},
            "mask": {"type": "csv", "path": str(mask_path)},
        }))
        grid = build_grid(load_config(str(cfg_path)))
        assert grid.mask.kind == "cells"
        assert np.array_equal(grid.mask.active, disk_mask(base, radius=0.7).active)

    @pytest.mark.filterwarnings("ignore:rotation field on a domain")
    def test_csv_mask_the_rotation_moves_out_names_theta_and_path(self, tmp_path):
        # the rotation moves corners of a pixelated disk out of the union of
        # its cells, so the strict warp of the exact data fails
        from polyreg import Grid, disk_mask
        from polyreg.io import save_mask

        mask_path = tmp_path / "mask.csv"
        save_mask(mask_path, disk_mask(Grid(((-1.0, 1.0), (-1.0, 1.0)), 32, 32)))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"grid": {"nx": 32, "ny": 32},
                                      "mask": {"type": "csv", "path": str(mask_path)}}))
        with pytest.raises(ValueError, match=r"experiment\.theta = 0\.5235987755982988 "
                                             r"rotates the mask at mask\.path") as err:
            main(["register", "--config", str(config), "--delta", "0.0125",
                  "--out", str(tmp_path / "reg")])
        message = str(err.value)
        assert "node (19, 31) maps 4.344e-02 outside" in message
        assert message.endswith("needs experiment.theta = 0 or a mask that the rotation "
                                "maps into itself")

    @pytest.mark.parametrize("mask, keys, node", [
        ({"type": "none"}, "grid.bounds [[-1.0, 1.0], [-1.0, 1.0]]",
         "node (0, 0) maps 3.660e-01 outside"),
        ({"center": [0.3, 0], "radius": 0.6}, "mask.center [0.3, 0] and mask.radius 0.6",
         "node (12, 11) maps 1.043e-01 outside"),
    ], ids=["box", "off-centre-disk"])
    @pytest.mark.filterwarnings("ignore:rotation field on a domain")
    def test_mask_the_rotation_moves_out_names_theta_and_mask_keys(self, mask, keys, node):
        from polyreg.registration import DomainViolationError

        cfg = default_config()
        cfg["grid"].update(nx=16, ny=16)
        cfg["mask"].update(mask)
        with pytest.raises(ValueError) as err:
            build_experiment(cfg)
        message = str(err.value)
        assert message.startswith(f"experiment.theta = 0.5235987755982988 rotates the mask "
                                  f"at {keys} out of itself")
        assert node in message
        assert f"with mask.type {cfg['mask']['type']!r} this needs experiment.theta = 0" in message
        assert isinstance(err.value.__cause__, DomainViolationError)

    def test_readme_schema_block_is_the_default_config(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
        section = readme.split("### Config schema (defaults shown)\n", 1)[1]
        block = section.split("```json\n", 1)[1].split("```", 1)[0]
        assert json.loads(block) == default_config()


class TestCheckGradient:
    def test_exit_zero(self, small_config, capsys):
        assert main(["check-gradient", "--config", small_config]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 7  # minors + 3 density + 3 energy checks
        assert "FAIL" not in out


class TestRegister:
    def test_writes_outputs(self, small_config, tmp_path, capsys):
        out_dir = tmp_path / "reg"
        code = main(["register", "--config", small_config,
                     "--delta", "0.05", "--out", str(out_dir)])
        assert code == 0
        assert (out_dir / "deformation.csv").exists()
        assert (out_dir / "warped.pgm").exists()
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["converged"] is True
        assert summary["stop_reason"] in ("gradient", "small-decrease")
        assert summary["d_poly"] >= 0.0
        assert summary["admissibility_gap"] < 0.05

    @pytest.mark.parametrize("delta, code", [("0", 1), ("0.0125", 0)])
    def test_field_leaving_the_domain_fails(self, tmp_path, capsys, delta, code):
        # at 16^2 the unregularized solve folds the field 1.3 cells out of
        # the disk; the regularized one stays well inside a cell width
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"grid": {"nx": 16, "ny": 16}}))
        out_dir = tmp_path / "reg"
        assert main(["register", "--config", str(config),
                     "--delta", delta, "--out", str(out_dir)]) == code
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["converged"] is True
        cell = 2.0 / 15
        assert (summary["admissibility_gap"] > cell) == bool(code)
        err = capsys.readouterr().err
        assert ("leaves the domain" in err) == bool(code)

    def test_zero_noise_solves_unregularized(self, tmp_path, capsys):
        # register --delta 0 is the exact, alpha = 0 solve; the sweep's
        # noise-free row is regularized instead
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"grid": {"nx": 16, "ny": 16},
                                      "solver": {"max_iter": 5}}))
        out_dir = tmp_path / "reg"
        main(["register", "--config", str(config), "--delta", "0", "--out", str(out_dir)])
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["delta"] == 0.0
        assert summary["alpha"] == 0.0

    @pytest.mark.parametrize("alpha0, metric", [(0.05, "scalar"), (5.0, "H1 with shift 0.643")])
    def test_stdout_names_the_initial_metric(self, tmp_path, capsys, alpha0, metric):
        # at 16^2 the default weight leaves the misfit dominant per cell; a
        # hundred times the weight makes the regularizer dominate
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"grid": {"nx": 16, "ny": 16},
                                      "experiment": {"alpha0": alpha0}}))
        assert main(["register", "--config", str(config), "--delta", "0.0125",
                     "--out", str(tmp_path / "reg")]) == 0
        assert f"initial metric {metric})" in capsys.readouterr().out

    def test_stdout_names_the_coarse_levels(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"grid": {"nx": 128, "ny": 128},
                                      "solver": {"max_iter": 2}}))
        main(["register", "--config", str(config), "--delta", "0.0125",
              "--out", str(tmp_path / "reg")])
        out = capsys.readouterr().out
        assert out.rstrip().endswith(
            ", started from coarse solves 16x16: 2, 32x32: 2, 64x64: 2 iterations)")
        summary = json.loads((tmp_path / "reg" / "summary.json").read_text())
        assert summary["iterations"] == 2  # the fine solve's alone

    @pytest.mark.filterwarnings("ignore:rotation field on a domain")
    def test_csv_mask_solves_cold_at_128_nodes(self, tmp_path, capsys, monkeypatch):
        # a CSV mask has no coarse version, so the ladder does not run
        from polyreg import Grid, disk_mask, solver
        from polyreg.io import save_mask

        base = Grid(((-1.0, 1.0), (-1.0, 1.0)), 128, 128)
        mask_path = tmp_path / "mask.csv"
        save_mask(mask_path, disk_mask(base, radius=0.9))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"grid": {"nx": 128, "ny": 128},
                                      "mask": {"type": "csv", "path": str(mask_path)},
                                      "experiment": {"theta": 0.0},  # u_dagger stays inside
                                      "solver": {"max_iter": 2}}))
        calls = []
        minimize = solver.minimize
        monkeypatch.setattr(solver, "minimize",
                            lambda *a, **k: calls.append(1) or minimize(*a, **k))
        main(["register", "--config", str(config), "--delta", "0.0125",
              "--out", str(tmp_path / "reg")])
        assert len(calls) == 1
        assert "coarse" not in capsys.readouterr().out
        summary = json.loads((tmp_path / "reg" / "summary.json").read_text())
        assert summary["iterations"] == 2

    @pytest.mark.parametrize("delta", ["-0.1", "nan", "inf"])
    def test_bad_noise_level_rejected(self, small_config, tmp_path, capsys, delta):
        out_dir = tmp_path / "reg"
        with pytest.raises(SystemExit) as exc:
            main(["register", "--config", small_config,
                  "--delta", delta, "--out", str(out_dir)])
        assert exc.value.code == 2
        assert "noise level must be a finite number >= 0" in capsys.readouterr().err
        assert not out_dir.exists()


class TestRates:
    def test_end_to_end_and_determinism(self, small_config, tmp_path):
        out1 = tmp_path / "report1.csv"
        out2 = tmp_path / "report2.csv"
        assert main(["rates", "--config", small_config, "--out", str(out1)]) == 0
        assert main(["rates", "--config", small_config, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        slopes = json.loads((tmp_path / "report1_slopes.json").read_text())
        assert "d_poly" in slopes
        lines = out1.read_text().strip().split("\n")
        assert lines[0] == "delta,alpha,seed,D_poly,residual,objective,iters,converged"
        assert len(lines) == 1 + 3 + 1  # header + levels + exact row

    def test_rows_leaving_the_domain_warn(self, tmp_path, capsys):
        # with almost no regularization every level folds the field 1.5 to
        # 3 cells out of the disk (cell width 0.182 at 12^2)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "grid": {"nx": 12, "ny": 12},
            "experiment": {"alpha0": 1e-6, "levels": 3, "fit_levels": 3,
                           "exact_row": False},
            "solver": {"max_iter": 200},
        }))
        assert main(["rates", "--config", str(config),
                     "--out", str(tmp_path / "report.csv")]) == 0
        warned = [line for line in capsys.readouterr().err.splitlines()
                  if "leaves the domain" in line]
        assert len(warned) == 3
        for line, delta in zip(warned, (0.05, 0.025, 0.0125)):
            assert line.startswith(f"warning: the row at delta {delta!r} (seed 0) ")


class TestVerifySubgradient:
    def test_exit_zero_and_bundle(self, small_config, tmp_path, capsys):
        out_dir = tmp_path / "cert"
        code = main(["verify-subgradient", "--config", small_config,
                     "--out", str(out_dir)])
        assert code == 0
        out = capsys.readouterr().out
        assert "0 violations" in out
        assert (out_dir / "header.json").exists()
        header = json.loads((out_dir / "header.json").read_text())
        assert header["protocol"]["violations"] == 0

    @pytest.mark.parametrize("key, value", [
        ("trials", 0),
        ("radius", 0.0),
        ("radius", -0.5),
        ("radius", float("nan")),
        ("seed", -1),
    ])
    def test_vacuous_protocol_rejected(self, small_config, tmp_path, capsys, key, value):
        with open(small_config, encoding="utf-8") as fh:
            cfg = json.load(fh)
        cfg["verify"][key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        out_dir = tmp_path / "cert"
        with pytest.raises(ValueError, match=rf"'verify\.{key}'"):
            main(["verify-subgradient", "--config", str(path), "--out", str(out_dir)])
        assert capsys.readouterr().out == ""
        assert not out_dir.exists()
