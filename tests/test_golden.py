"""Golden bytes of the deterministic CLI outputs on a 16 x 16 grid.

The digests pin ``report.csv`` and ``report_slopes.json`` of ``polyreg rates``
and ``deformation.csv`` and ``summary.json`` of ``polyreg register --delta
0.0125``, each run on the default config with only the grid size overridden.
A change that is meant to keep every iterate bit for bit must leave them
unchanged; a change that moves the iterates on purpose records new digests
here and says why.

Recorded with numpy 2.4.6 (OpenBLAS) on x86-64.  At 16 x 16 every solver
inner product is one ``np.dot`` of fewer than 10,000 entries, so the bytes do
not depend on the BLAS thread count; another numpy or libm may round
differently.
"""

import hashlib
import json

import pytest

from polyreg.cli import main

RATES = {
    "report.csv": "1af745c2cf8343be13750947292b3ee99d1846ffe329fdb65718c888405fe640",
    "report_slopes.json": "2f982f8a38d2da882f409641ede8719e68e209384167cc47649ebe26210af4c4",
}
REGISTER = {
    "deformation.csv": "14f91a3e840ba9e52c6d7ceb957794218600ea51b98d8262fe8917308b3a9af2",
    "summary.json": "c2a98f12ac0e869b4a408b817b464cd05c7238d82937451dc7dd814838d2fec1",
}


@pytest.fixture
def config_16(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"grid": {"nx": 16, "ny": 16}}))
    return str(path)


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
