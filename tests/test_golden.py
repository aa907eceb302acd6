"""Golden bytes of the deterministic CLI outputs on 16 x 16 and 32 x 32 grids.

The digests pin ``report.csv`` and ``report_slopes.json`` of ``polyreg rates``
and ``deformation.csv`` and ``summary.json`` of ``polyreg register --delta
0.0125``, each run on the default config with the grid size overridden to
16 x 16.  Those solves all run the scalar initial metric, so the same two
``register`` files are also pinned for ``--delta 0.2`` at 32 x 32, a solve
that runs the H1 metric.  A change that is meant to keep every iterate bit
for bit must leave them unchanged; a change that moves the iterates on
purpose records new digests here and says why.

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
REGISTER = {
    "deformation.csv": "ff132eafc1706940f0fb5a8128798abb01e86497f0c0b214cf04039d0712afbb",
    "summary.json": "fc5773b27d44f7a6b68b3ed9c2789941adc3e6fa4caaeffe192d31417b0cb1e2",
}

REGISTER_H1 = {
    "deformation.csv": "9e94cb37323a206b6dcf9c7e51511dccb9b8645d694468267456d3c7e4a11031",
    "summary.json": "cafd0de93bb93e022ce79279a4bbe4c9aec9ec0108edb959ee4f4f303facd78b",
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
