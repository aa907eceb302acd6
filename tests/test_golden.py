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

RATES = {
    "report.csv": "ef38a968961e11074812f65a5c0e465dc457e5f2d78817d1138bb30d72575ab1",
    "report_slopes.json": "e06f22738625fb797174236de9acfce7484e4aa80bd3abc47aa82eae4684a3c4",
}
RATES_32 = {
    "report.csv": "e500117f541eb9ed503e80cbdd8f16ee08c2557bc7c878cde6e2f5e6d6db927e",
    "report_slopes.json": "ac90b72ce66a6552ca9325563e86a4a44c60367f0df2d68b275136d2d9355e8e",
}
REGISTER = {
    "deformation.csv": "ff132eafc1706940f0fb5a8128798abb01e86497f0c0b214cf04039d0712afbb",
    "summary.json": "fc5773b27d44f7a6b68b3ed9c2789941adc3e6fa4caaeffe192d31417b0cb1e2",
}

REGISTER_H1 = {
    "deformation.csv": "9e94cb37323a206b6dcf9c7e51511dccb9b8645d694468267456d3c7e4a11031",
    "summary.json": "cafd0de93bb93e022ce79279a4bbe4c9aec9ec0108edb959ee4f4f303facd78b",
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
    "u1.csv": "bc054832b21a97df224fd07a1a7fa09159ebc4ef516aa072c82fde0783a3919f",
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
