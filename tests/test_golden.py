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
inner product is one ``np.dot`` of fewer than 10,000 entries and every H1
matmul one ``np.matmul`` below OpenBLAS's threading threshold, so the bytes
do not depend on the BLAS thread count; another numpy or libm may round
differently.
"""

import hashlib
import json

import pytest

from polyreg.cli import main

RATES = {
    "report.csv": "260d9d0ab95b3d03b57080cacd56dd493bd909bc2efdcb839dd5eb4cd025c569",
    "report_slopes.json": "2f982f8a38d2da882f409641ede8719e68e209384167cc47649ebe26210af4c4",
}
REGISTER = {
    "deformation.csv": "14f91a3e840ba9e52c6d7ceb957794218600ea51b98d8262fe8917308b3a9af2",
    "summary.json": "c2a98f12ac0e869b4a408b817b464cd05c7238d82937451dc7dd814838d2fec1",
}

REGISTER_H1 = {
    "deformation.csv": "bfefeec6395e643122e90fc71419cffa923f6a78bdd5f682fe1bef345b86e54f",
    "summary.json": "1db2168564565381d53bce8c059882899da703b106e82365edcbf7c648df1c01",
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
