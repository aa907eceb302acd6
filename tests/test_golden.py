"""Golden bytes of the deterministic CLI outputs on 16 x 16 and 32 x 32 grids.

The digests pin ``report.csv`` and ``report_slopes.json`` of ``polyreg rates``
and ``deformation.csv`` and ``summary.json`` of ``polyreg register --delta
0.0125``, each run on the default config with the grid size overridden to
16 x 16; the two ``rates`` files are also pinned at 32 x 32, the benchmark's
rates-32 workload.  Those solves all run the scalar initial metric, so the same two
``register`` files are also pinned for ``--delta 0.2`` at 32 x 32, a solve
that runs the H1 metric.  ``polyreg verify-subgradient --out`` on the same
16 x 16 config is pinned by its stdout and the digests of its bundle.  A
change that is meant to keep every iterate bit for bit must leave them
unchanged; a change that moves the iterates on purpose records new digests
here and says why.

Recorded with numpy 2.4.6 (OpenBLAS) on x86-64.  On these grids every solver
inner product and matrix-vector product runs over fewer than 10,000
unknowns, in one ``np.dot`` or ``np.matmul``, and every H1 matmul is one
``np.matmul`` below OpenBLAS's threading threshold, so the bytes do not
depend on the BLAS thread count; another numpy or libm may round
differently.
"""

import hashlib
import json

import pytest

from polyreg.cli import main

# Recorded with the closed-form p = 4 rotation density; earlier digests came
# from its singular-value path, which rounds differently.
RATES = {
    "report.csv": "82691e7903f069c3020c31f74f58dd8fd117a5aef3bc778dd9da78bf82ae1cbf",
    "report_slopes.json": "ea8f474e3f3327f13a160b091c834b9c1b436c0ce0ffa11b3c70d75f23eb6f26",
}
RATES_32 = {
    "report.csv": "01ba2e746a49c19b4a519317d3c722117321b97eb8c0be1a1e5a3182dfb58c26",
    "report_slopes.json": "26df67520bd744486832498a9c23701105e34f2d3aaa926bd46458b7caf89201",
}
REGISTER = {
    "deformation.csv": "039dbfd3777afa1d52f7027b71299e8fac6423cc4def674450d75aace4bada94",
    "summary.json": "baafd2d46409456c36dcd86d057694e1e411e3e2daf70b9fe7f05bc54101f03b",
}

REGISTER_H1 = {
    "deformation.csv": "cd8434990e963a898845e1fd6d4d93c5e0b81f371c35f31dce193293ab978473",
    "summary.json": "3e975373eeaa4c580276f125b58fc5b768822e207cfa75a881d52da2f93febd5",
}

VERIFY_STDOUT = """\
certificate at rotation: 0 violations, worst gap 1.130e-05
certificate at identity: 0 violations, worst gap 1.126e-05
certificate at random-0: 0 violations, worst gap 5.136e-06
certificate at random-1: 0 violations, worst gap 7.406e-06
certificate at random-2: 0 violations, worst gap 8.008e-06
certificate at rotation (zero functional): 0 violations, worst gap 1.189e-05
"""
VERIFY_BUNDLE = {
    "base_field.csv": "1b36213f0314152f3fe215ce1dbbe936f6f483da03bf214db0d8c548c9145f76",
    "header.json": "36bdd6a04774a19f1c443888ea8c52b3a6a04b34372c35d36b0b3bb9680013da",
    "u0.csv": "07d8d428baf5aa3ef2215cc4967640bbc8e920690d94e90a5ea2b5572a56506c",
    "u1.csv": "29676f4bb51744355176f79edb154bd2de32335fce03be5bb1397ab47414488d",
    "v2.csv": "3e7a8950d5c0b843caf8892eaeffb9cbbb5cf74bbd90463377cf117b08798bd1",
}


def _config(tmp_path, n):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"grid": {"nx": n, "ny": n}}))
    return str(path)


@pytest.fixture
def config_16(tmp_path):
    return _config(tmp_path, 16)


def _digests(directory, names):
    return {name: hashlib.sha256((directory / name).read_bytes()).hexdigest()
            for name in names}


def test_rates_16_bytes(config_16, tmp_path, capsys):
    out = tmp_path / "rates"
    out.mkdir()
    assert main(["rates", "--config", config_16, "--out", str(out / "report.csv")]) == 0
    assert _digests(out, RATES) == RATES
    assert "leaves the domain" not in capsys.readouterr().err


def test_rates_32_bytes(tmp_path, capsys):
    out = tmp_path / "rates"
    out.mkdir()
    assert main(["rates", "--config", _config(tmp_path, 32),
                 "--out", str(out / "report.csv")]) == 0
    assert _digests(out, RATES_32) == RATES_32
    assert "leaves the domain" not in capsys.readouterr().err


def test_register_16_bytes(config_16, tmp_path, capsys):
    out = tmp_path / "register"
    assert main(["register", "--config", config_16, "--delta", "0.0125",
                 "--out", str(out)]) == 0
    assert _digests(out, REGISTER) == REGISTER


def test_register_32_h1_metric_bytes(tmp_path, capsys):
    out = tmp_path / "register"
    assert main(["register", "--config", _config(tmp_path, 32), "--delta", "0.2",
                 "--out", str(out)]) == 0
    assert "initial metric H1 with shift 0.963" in capsys.readouterr().out
    assert _digests(out, REGISTER_H1) == REGISTER_H1


def test_verify_subgradient_16_bytes(config_16, tmp_path, capsys):
    out = tmp_path / "certificate"
    assert main(["verify-subgradient", "--config", config_16, "--out", str(out)]) == 0
    assert capsys.readouterr().out == VERIFY_STDOUT
    assert sorted(p.name for p in out.iterdir()) == sorted(VERIFY_BUNDLE)
    assert _digests(out, VERIFY_BUNDLE) == VERIFY_BUNDLE
