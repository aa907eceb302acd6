"""Workloads of the polyreg benchmark and the reference table they check against.

Each workload is one ``polyreg`` CLI command run on the default config with
the grid size and one seed overridden; the image seed stays at its default.

The solver workloads time one fixed problem: noise seed 0 unless the run asks
for another.  The noise realisation alone moves a solve's iteration count by
up to a factor of two (register-128 took 16 to 32 s over noise seeds 0-4,
rates-32 14 to 21.5 s), more than any bound on wall time could absorb, so the
benchmark's ``--seed`` varies only the certificate trials (``verify.seed``).
Tight-tolerance references exist for noise seeds 0-9 of every solver
workload, so a claimed gain can be checked on a noise seed it was not tuned on.

This module imports nothing from polyreg, so the runner can report a missing
source tree before anything else happens.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_PATH = BENCH_DIR / "reference.json"
WORK_DIR = ROOT / ".bench_run"

SMOKE_GRID = 16


@dataclass(frozen=True)
class Workload:
    name: str
    command: str        # polyreg subcommand: rates, register or verify-subgradient
    grid: int           # nx = ny
    delta: float = 0.0  # noise level of the register command
    timed: bool = True  # listed in BENCHMARK.json; False: run by hand only

    @property
    def solves(self) -> bool:
        return self.command in ("rates", "register")


WORKLOADS = {w.name: w for w in (
    # The whole sweep pipeline (precheck, 7 warm-started levels with 3 starts,
    # exact row) at 32^2: 23 minimize calls in about 19 s.
    Workload("rates-32", "rates", 32),
    # One solve at 128^2, where per-call arrays outgrow L2 and the absolute
    # stopping tolerance acts at a different point than at 64^2.
    Workload("register-128", "register", 128, delta=0.0125),
    # Value-only energy and pairing plus random fields: no solver, no warp,
    # and density gradients only to build the five certificates.
    Workload("certify-default", "verify-subgradient", 64),
    # The north-star command on the default 64^2 config.  One run takes about
    # 100 s, too long for the timed runs, so it is run by name only.
    Workload("rates-default", "rates", 64, timed=False),
)}


def config_overrides(workload, seed, grid=None, noise_seed=0) -> dict:
    """Keys that differ from polyreg's default config for this run."""
    n = int(grid or workload.grid)
    cfg = {"grid": {"nx": n, "ny": n}}
    if workload.solves:
        cfg["experiment"] = {"seeds": [int(noise_seed)]}
    else:
        cfg["verify"] = {"seed": int(seed)}
    return cfg


def require_source() -> None:
    """Put the repository's ``src`` on the import path, or exit with code 2."""
    if not (SRC / "polyreg" / "__init__.py").is_file():
        sys.stderr.write(f"benchmark: no polyreg source tree at {SRC}\n")
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def load_reference() -> list:
    if not REFERENCE_PATH.is_file():
        return []
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)["entries"]


def find_reference(entries, command, grid, seed):
    for entry in entries:
        if (entry["command"], entry["nx"], entry["ny"], entry["seed"]) == (
                command, grid, grid, seed):
            return entry
    return None
