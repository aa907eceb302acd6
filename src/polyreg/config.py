"""JSON experiment configuration: defaults, loading, object builders.

The config describes the grid and domain mask, the regularization density,
the synthetic reference image, the noise sweep and the solver settings.
Unknown keys fail when a file is merged onto the defaults.  ``_RULES`` gives
every leaf key of ``default_config()`` its kind (a JSON number, real or
integer, a bool, a string, a choice or a list) and, where it has one, its
range; ``_typed`` walks it once, in order, and returns a typed copy or names
the first key that fails.  ``load_config`` returns that copy and each builder
walks the dict it is given, so every command checks every key before it runs.
"""

from __future__ import annotations

import copy
import json
import math
import numbers

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


def _merge(base, override, name, prefix=""):
    if not isinstance(override, dict):
        raise ValueError(f"{name} must be a JSON object, got {override!r}")
    out = copy.deepcopy(base)
    for key, value in override.items():
        if key not in base:
            raise ValueError(f"unknown config key {prefix + key!r}")
        if isinstance(base[key], dict):
            out[key] = _merge(base[key], value, f"config key {prefix + key!r}",
                              prefix + key + ".")
        else:
            out[key] = copy.deepcopy(value)
    return out


def load_config(path=None) -> dict:
    """Defaults overlaid with the JSON file at ``path`` (if given), typed and checked."""
    cfg = default_config()
    if path is not None:
        with open(path, encoding="utf-8") as fh:
            cfg = _merge(cfg, json.load(fh), f"config file {str(path)!r}")
    return _typed(cfg)


def _as(kind, value):
    """``value`` as ``kind`` (a type in ``_NAMES``, a tuple of choices or a
    ``[what, item kind, length or None]`` list), or a ``ValueError`` saying what it wants."""
    if isinstance(kind, list):
        what, item, length = kind
        if isinstance(value, (list, tuple)) and length in (None, len(value)):
            try:
                return [_as(item, v) for v in value]
            except ValueError:
                pass
        raise ValueError(what)
    if isinstance(kind, tuple):
        if isinstance(value, str) and value in kind:
            return value
        raise ValueError("one of " + ", ".join(map(repr, kind)))
    if kind in (bool, str):
        if isinstance(value, kind):
            return value
    elif isinstance(value, numbers.Real) and not isinstance(value, bool) and (
            kind is float or isinstance(value, numbers.Integral) or float(value).is_integer()):
        return kind(value)  # a JSON number; an integer has no fraction
    raise ValueError(_NAMES[kind])


_NAMES = {float: "a number", int: "an integer", bool: "true or false", str: "a string"}
_POSITIVE = "finite and > 0", lambda v: math.isfinite(v) and v > 0
_AT_LEAST_1 = ">= 1", lambda v: v >= 1
_AT_LEAST_2 = ">= 2", lambda v: v >= 2
_UNIT = "in [0, 1)", lambda v: 0 <= v < 1
_PAIRS = ["2 pairs of numbers", ["a pair of numbers", float, 2], 2]

# key -> (kind,) or (kind, rule, ok), in the order of default_config()
_RULES = {
    "grid.bounds": (_PAIRS, "2 finite pairs [low, high] with low < high",
                    lambda v: all(math.isfinite(a) and a < b and math.isfinite(b) for a, b in v)),
    "grid.nx": (int, *_AT_LEAST_2), "grid.ny": (int, *_AT_LEAST_2),
    "mask.type": (("disk", "csv", "none"),),
    "mask.center": (["2 numbers", float, 2],),
    "mask.radius": (float, *_POSITIVE),
    "mask.path": (str,),
    "integrand.name": (("rotation", "pq", "detsq"),),
    "integrand.p": (float,),
    "integrand.q": (float, ">= 1", lambda v: v >= 1),
    "image.blobs": (["rows of 4 numbers", ["4 numbers", float, 4], None],),
    "image.seed": (int, ">= 0, or null when image.blobs lists the bumps", lambda v: v >= 0),
    "experiment.theta": (float, "finite", math.isfinite),
    "experiment.delta0": (float, *_POSITIVE),
    "experiment.levels": (int,),
    "experiment.alpha0": (float, *_POSITIVE),
    "experiment.epsilon": (float, *_UNIT),
    "experiment.seeds": (["a list of integers", int, None], "a nonempty list of seeds >= 0",
                         lambda v: len(v) >= 1 and min(v) >= 0),
    "experiment.subgradient": (("zero", "gradient"),),
    "experiment.fit_levels": (int, ">= 3", lambda v: v >= 3),
    "experiment.exact_row": (bool,),
    "solver.tol": (float, "in (0, 1)", lambda v: 0 < v < 1),
    "solver.max_iter": (int, *_AT_LEAST_1),
    "solver.memory": (int, *_AT_LEAST_1),
    "source_condition.beta1": (float, *_UNIT),
    "source_condition.beta2": (float, *_POSITIVE),
    "source_condition.alpha_bar": (float, *_POSITIVE),
    "source_condition.rho": (float, *_POSITIVE),
    "verify.trials": (int, *_AT_LEAST_1),
    "verify.radius": (float, *_POSITIVE),
    "verify.seed": (int, ">= 0", lambda v: v >= 0),
}
_NULLABLE = {"image.blobs", "image.seed", "source_condition.alpha_bar", "source_condition.rho"}
# mask keys that one mask type reads; other types keep them unchecked (a null path)
_MASK_ONLY = {"mask.center": "disk", "mask.radius": "disk", "mask.path": "csv"}


def _reject(key, rule, value):
    raise ValueError(f"config key {key!r} must be {rule}, got {value!r}") from None


def _typed(cfg) -> dict:
    """A typed copy of ``cfg``; a ``ValueError`` names the first key that fails."""
    out = {}
    for key, (kind, *limit) in _RULES.items():
        section, leaf = key.split(".")
        value = typed = cfg[section][leaf]
        only = _MASK_ONLY.get(key)  # "mask.type" is walked before these
        if (only is None or out["mask"]["type"] == only) and not (
                value is None and key in _NULLABLE):
            try:
                typed = _as(kind, value)
            except ValueError as err:
                _reject(key, err, value)
            if limit and not limit[1](typed):
                _reject(key, limit[0], value)
        out.setdefault(section, {})[leaf] = typed
    ecfg = out["experiment"]
    if ecfg["levels"] < ecfg["fit_levels"]:
        _reject("experiment.levels", f">= experiment.fit_levels = {ecfg['fit_levels']}",
                cfg["experiment"]["levels"])
    if out["image"]["seed"] is None and out["image"]["blobs"] is None:
        _reject("image.seed", _RULES["image.seed"][1], None)
    spec = out["integrand"]  # the exponents each density reads
    if spec["name"] in ("rotation", "pq") and not (math.isfinite(spec["p"]) and spec["p"] > 2):
        _reject("integrand.p", f"finite and > 2 for integrand.name {spec['name']!r}",
                cfg["integrand"]["p"])
    if spec["name"] == "pq" and not (math.isfinite(spec["q"]) and spec["q"] > 1):
        _reject("integrand.q", "finite and > 1 for integrand.name 'pq'", cfg["integrand"]["q"])
    return out


def build_grid(cfg) -> Grid:
    cfg = _typed(cfg)
    g, m = cfg["grid"], cfg["mask"]
    bare = Grid(tuple(map(tuple, g["bounds"])), g["nx"], g["ny"])
    if m["type"] == "none":
        return bare  # a grid built without a mask carries the box mask
    if m["type"] == "disk":
        mask = disk_mask(bare, center=tuple(m["center"]), radius=m["radius"])
        where = f"mask.center {m['center']!r} and mask.radius {m['radius']!r}"
    else:
        from .io import load_mask
        mask = load_mask(m["path"])
        where = f"mask.path {m['path']!r}"
        if mask.active.shape != bare.cell_shape:
            raise ValueError(f"the mask at {where} has shape {mask.active.shape}, but the "
                             f"{g['nx']} x {g['ny']} grid has {bare.cell_shape} cells")
    grid = bare.with_mask(mask)
    if not mask.active.any():
        raise ValueError(f"the mask at {where} has no active cell on the "
                         f"{g['nx']} x {g['ny']} grid")
    return grid


def build_integrand(cfg):
    spec = _typed(cfg)["integrand"]
    if spec["name"] == "rotation":
        return rotation_energy(spec["p"])
    if spec["name"] == "pq":
        return pq_energy(spec["p"], spec["q"])
    return detsq_energy()


def build_experiment(cfg) -> RateExperiment:
    raw, cfg = cfg, _typed(cfg)
    grid = build_grid(cfg)
    integrand = build_integrand(cfg)
    image = cfg["image"]
    blobs = random_blobs(image["seed"]) if image["blobs"] is None else image["blobs"]
    reference = blob_image(grid, blobs)
    ecfg = cfg["experiment"]

    u_dagger = rotation_field(ecfg["theta"], grid)
    try:
        exact_data = warp(reference, u_dagger, strict=True)
    except DomainViolationError as err:
        # a csv mask's domain is the union of its cells, whose corners a rotation
        # moves out; a box or an off-centre disk can leave too.  Quote values as given.
        m = raw["mask"]
        keys = {"disk": ("center", "radius"), "csv": ("path",)}.get(m["type"], ())
        where = (" and ".join(f"mask.{k} {m[k]!r}" for k in keys)
                 or f"grid.bounds {raw['grid']['bounds']!r}")
        raise ValueError(
            f"experiment.theta = {raw['experiment']['theta']!r} rotates the mask at {where} "
            f"out of itself ({err}); with mask.type {m['type']!r} this needs "
            "experiment.theta = 0 or a mask that the rotation maps into itself"
        ) from err
    forward = ForwardModel(reference=reference, exact_data=exact_data, q=cfg["integrand"]["q"])
    build = zero_subgradient if ecfg["subgradient"] == "zero" else poly_subgradient
    w = build(integrand, u_dagger)

    scfg = cfg["source_condition"]
    alpha_bar = ecfg["alpha0"] if scfg["alpha_bar"] is None else scfg["alpha_bar"]
    rho = 10.0 * alpha_bar * w.base_energy if scfg["rho"] is None else scfg["rho"]
    params = SourceConditionParams(beta1=scfg["beta1"], beta2=scfg["beta2"],
                                   rho=rho, alpha_bar=alpha_bar)

    sol = cfg["solver"]
    return RateExperiment(
        integrand=integrand, forward=forward, u_dagger=u_dagger, w=w,
        deltas=geometric_levels(ecfg["delta0"], ecfg["levels"]), alpha0=ecfg["alpha0"],
        epsilon=ecfg["epsilon"], seeds=tuple(ecfg["seeds"]), source_params=params,
        solver_tol=sol["tol"], solver_max_iter=sol["max_iter"], solver_memory=sol["memory"],
        fit_levels=ecfg["fit_levels"], exact_row=ecfg["exact_row"],
    )
