"""JSON experiment configuration: defaults, loading, object builders.

The config describes the grid and domain mask, the regularization density,
the synthetic reference image, the noise sweep and the solver settings.
Unknown keys are rejected early, so typos fail loudly rather than silently
falling back to defaults; out-of-range solver and sweep settings are rejected,
naming the key, when the experiment is built, and out-of-range ``verify``
settings before the certificate protocol runs.
"""

from __future__ import annotations

import copy
import json
import math

from .bregman import SourceConditionParams, poly_subgradient, zero_subgradient
from .fields import Grid, disk_mask
from .integrands import detsq_energy, pq_energy, rotation_energy
from .rates import RateExperiment, geometric_levels
from .registration import (DomainViolationError, ForwardModel, blob_image, random_blobs,
                           rotation_field, warp)


def default_config() -> dict:
    return {
        "grid": {"bounds": [[-1.0, 1.0], [-1.0, 1.0]], "nx": 64, "ny": 64},
        "mask": {"type": "disk", "center": [0.0, 0.0], "radius": 1.0, "path": None},
        "integrand": {"name": "rotation", "p": 4.0, "q": 2.0},
        "image": {"blobs": None, "seed": 7},
        "experiment": {
            "theta": math.pi / 6.0,
            "delta0": 0.1,
            "levels": 7,
            "alpha0": 0.05,
            "epsilon": 0.5,
            "seeds": [0],
            "subgradient": "zero",
            "fit_levels": 4,
            "exact_row": True,
        },
        "solver": {"tol": 3e-5, "max_iter": 4000, "memory": 12},
        "source_condition": {
            "beta1": 0.5,
            "beta2": 1.0,
            "alpha_bar": None,
            "rho": None,
        },
        "verify": {"trials": 200, "radius": 0.5, "seed": 11},
    }


def _merge(base, override, path=""):
    out = copy.deepcopy(base)
    for key, value in override.items():
        if key not in base:
            raise ValueError(f"unknown config key {path + key!r}")
        if isinstance(base[key], dict) and isinstance(value, dict):
            out[key] = _merge(base[key], value, path + key + ".")
        else:
            out[key] = copy.deepcopy(value)
    return out


def load_config(path=None) -> dict:
    """Defaults overlaid with the JSON file at ``path`` (if given)."""
    cfg = default_config()
    if path is None:
        return cfg
    with open(path, encoding="utf-8") as fh:
        user = json.load(fh)
    return _merge(cfg, user)


def build_grid(cfg) -> Grid:
    g = cfg["grid"]
    bounds = tuple(tuple(float(v) for v in b) for b in g["bounds"])
    bare = Grid(bounds, int(g["nx"]), int(g["ny"]))
    m = cfg["mask"]
    kind = m["type"]
    if kind == "none":
        return bare  # a grid built without a mask carries the box mask
    if kind == "disk":
        _reject_out_of_range((("mask.radius", m["radius"], "finite and > 0",
                               _finite_positive(m["radius"])),))
        mask = disk_mask(bare, center=tuple(m["center"]), radius=float(m["radius"]))
    elif kind == "csv":
        from .io import load_mask
        mask = load_mask(m["path"])
    else:
        raise ValueError(f"unknown mask type {kind!r}")
    return bare.with_mask(mask)


def build_integrand(cfg):
    spec = cfg["integrand"]
    name = spec["name"]
    if name == "rotation":
        return rotation_energy(spec["p"])
    if name == "pq":
        return pq_energy(spec["p"], spec["q"])
    if name == "detsq":
        return detsq_energy()
    raise ValueError(f"unknown integrand {name!r}")


def _finite_positive(value) -> bool:
    return math.isfinite(float(value)) and float(value) > 0


def _reject_out_of_range(checks) -> None:
    """Raise on the first ``(key, value, rule, ok)`` check that fails, naming the key."""
    for key, value, rule, ok in checks:
        if not ok:
            raise ValueError(f"config key {key!r} must be {rule}, got {value!r}")


def _check_ranges(cfg) -> None:
    """Reject solver, sweep and seed settings outside their ranges, naming the key."""
    sol, ecfg = cfg["solver"], cfg["experiment"]
    fit_levels = int(ecfg["fit_levels"])
    image_seed, blobs = cfg["image"]["seed"], cfg["image"]["blobs"]
    _reject_out_of_range((
        ("solver.tol", sol["tol"], "in (0, 1)", 0 < float(sol["tol"]) < 1),
        ("solver.max_iter", sol["max_iter"], ">= 1", int(sol["max_iter"]) >= 1),
        ("solver.memory", sol["memory"], ">= 1", int(sol["memory"]) >= 1),
        ("experiment.delta0", ecfg["delta0"], "finite and > 0",
         _finite_positive(ecfg["delta0"])),
        ("experiment.alpha0", ecfg["alpha0"], "finite and > 0",
         _finite_positive(ecfg["alpha0"])),
        ("experiment.epsilon", ecfg["epsilon"], "in [0, 1)",
         0 <= float(ecfg["epsilon"]) < 1),
        ("experiment.fit_levels", fit_levels, ">= 3", fit_levels >= 3),
        ("experiment.levels", ecfg["levels"], f">= experiment.fit_levels = {fit_levels}",
         int(ecfg["levels"]) >= fit_levels),
        ("experiment.seeds", ecfg["seeds"], "a nonempty list of seeds >= 0",
         len(ecfg["seeds"]) >= 1 and all(int(s) >= 0 for s in ecfg["seeds"])),
        ("image.seed", image_seed, ">= 0, or null when image.blobs lists the bumps",
         int(image_seed) >= 0 if image_seed is not None else blobs is not None),
    ))


def _check_verify_ranges(cfg) -> None:
    """Reject certificate protocol settings that would make the check vacuous."""
    vcfg = cfg["verify"]
    _reject_out_of_range((
        ("verify.trials", vcfg["trials"], ">= 1", int(vcfg["trials"]) >= 1),
        ("verify.radius", vcfg["radius"], "finite and > 0", _finite_positive(vcfg["radius"])),
        ("verify.seed", vcfg["seed"], ">= 0", int(vcfg["seed"]) >= 0),
    ))


def build_experiment(cfg) -> RateExperiment:
    _check_ranges(cfg)
    grid = build_grid(cfg)
    integrand = build_integrand(cfg)
    blobs = cfg["image"]["blobs"]
    if blobs is None:
        blobs = random_blobs(cfg["image"]["seed"])
    reference = blob_image(grid, blobs)
    ecfg = cfg["experiment"]

    u_dagger = rotation_field(float(ecfg["theta"]), grid)
    try:
        exact_data = warp(reference, u_dagger, strict=True)
    except DomainViolationError as err:
        # a csv mask's domain is the union of its cells, whose corners a
        # rotation moves out; a box or an off-centre disk can leave too
        m = cfg["mask"]
        keys = {"disk": ("center", "radius"), "csv": ("path",)}.get(m["type"], ())
        where = (" and ".join(f"mask.{k} {m[k]!r}" for k in keys)
                 or f"grid.bounds {cfg['grid']['bounds']!r}")
        raise ValueError(
            f"experiment.theta = {ecfg['theta']!r} rotates the mask at {where} out of "
            f"itself ({err}); with mask.type {m['type']!r} this needs "
            "experiment.theta = 0 or a mask that the rotation maps into itself"
        ) from err
    forward = ForwardModel(reference=reference, exact_data=exact_data,
                           q=float(cfg["integrand"]["q"]))

    which = ecfg["subgradient"]
    if which == "zero":
        w = zero_subgradient(integrand, u_dagger)
    elif which == "gradient":
        w = poly_subgradient(integrand, u_dagger)
    else:
        raise ValueError(f"unknown subgradient choice {which!r}")

    scfg = cfg["source_condition"]
    alpha_bar = scfg["alpha_bar"]
    if alpha_bar is None:
        alpha_bar = float(ecfg["alpha0"])
    rho = scfg["rho"]
    if rho is None:
        rho = 10.0 * alpha_bar * w.base_energy
    params = SourceConditionParams(
        beta1=float(scfg["beta1"]), beta2=float(scfg["beta2"]),
        rho=float(rho), alpha_bar=float(alpha_bar),
    )

    sol = cfg["solver"]
    return RateExperiment(
        integrand=integrand,
        forward=forward,
        u_dagger=u_dagger,
        w=w,
        deltas=geometric_levels(float(ecfg["delta0"]), int(ecfg["levels"])),
        alpha0=float(ecfg["alpha0"]),
        epsilon=float(ecfg["epsilon"]),
        seeds=tuple(int(s) for s in ecfg["seeds"]),
        source_params=params,
        solver_tol=float(sol["tol"]),
        solver_max_iter=int(sol["max_iter"]),
        solver_memory=int(sol["memory"]),
        fit_levels=int(ecfg["fit_levels"]),
        exact_row=bool(ecfg["exact_row"]),
    )
