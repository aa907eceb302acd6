"""Spans around the public functions of polyreg's layers, from outside the package.

``Tracer.install`` replaces each listed function in every ``polyreg`` module
namespace that holds it (``solver``, ``bregman``, ``rates`` and ``cli`` import
names directly, so patching only the defining module would miss calls), and
each listed method on its class.  A span records its name, start, end and the
span that was open when it began; spans are kept in flat arrays, so the
memory per call is a few dozen bytes.  ``uninstall`` puts the originals back.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

import numpy as np

# span name: (module, attribute) or (module, class, method).  Two targets may
# share a name; minors_gradient is counted with pull_back, its only consumer.
TARGETS = (
    ("minors.all_minors", ("polyreg.minors", "all_minors")),
    ("minors.pull_back", ("polyreg.minors", "pull_back")),
    ("minors.pull_back", ("polyreg.minors", "minors_gradient")),
    ("integrands.value", ("polyreg.integrands", "Integrand", "value")),
    ("integrands.gradient", ("polyreg.integrands", "Integrand", "gradient")),
    ("fields.energy", ("polyreg.fields", "energy")),
    ("fields.energy_with_gradient", ("polyreg.fields", "energy_with_gradient")),
    ("fields.pairing", ("polyreg.fields", "pairing")),
    ("fields.random_smooth_field", ("polyreg.fields", "random_smooth_field")),
    ("registration.sample", ("polyreg.registration", "ScalarImage", "sample")),
    ("registration.sample_with_gradient",
     ("polyreg.registration", "ScalarImage", "sample_with_gradient")),
    ("registration.warp", ("polyreg.registration", "warp")),
    ("registration.data_term", ("polyreg.registration", "data_term")),
    ("registration.admissibility_gap", ("polyreg.registration", "admissibility_gap")),
    ("solver.objective", ("polyreg.solver", "TikhonovProblem", "objective")),
    ("solver.objective_and_gradient",
     ("polyreg.solver", "TikhonovProblem", "objective_and_gradient")),
    ("solver.minimize", ("polyreg.solver", "minimize")),
    ("solver.solve_multi_start", ("polyreg.solver", "solve_multi_start")),
    ("bregman.bregman_poly", ("polyreg.bregman", "bregman_poly")),
    ("bregman.verify_subgradient", ("polyreg.bregman", "verify_subgradient")),
    ("rates.precheck", ("polyreg.rates", "_precheck")),
    ("config.build_experiment", ("polyreg.config", "build_experiment")),
    ("io.save_field", ("polyreg.io", "save_field")),
    ("io.save_pgm", ("polyreg.io", "save_pgm")),
)
LAYERS = tuple(dict.fromkeys(name for name, _ in TARGETS))


def replace(target, make_wrapper, undo) -> None:
    """Swap a polyreg function or method for ``make_wrapper(original)``.

    ``target`` is ``(module, attribute)`` for a function, which is replaced in
    every loaded polyreg namespace that holds it, or ``(module, class, method)``.
    What is needed to put the originals back is appended to ``undo``.
    """
    if len(target) == 3:
        owner = getattr(sys.modules[target[0]], target[1])
        original = owner.__dict__[target[2]]
        places = [(owner, target[2])]
    else:
        original = getattr(sys.modules[target[0]], target[1])
        places = [(module, attr)
                  for name, module in list(sys.modules.items())
                  if module is not None and (name == "polyreg" or name.startswith("polyreg."))
                  for attr, value in list(vars(module).items()) if value is original]
    wrapper = make_wrapper(original)
    for owner, attr in places:
        setattr(owner, attr, wrapper)
        undo.append((owner, attr, original))


def restore(undo) -> None:
    while undo:
        owner, attr, original = undo.pop()
        setattr(owner, attr, original)


class Tracer:
    def __init__(self):
        self.names = list(LAYERS)
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open = []
        self._restore = []

    def wrap(self, name, fn):
        nid = self.names.index(name)
        name_id, parent, start, end, stack = (
            self.name_id, self.parent, self.start, self.end, self._open)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        for name, target in TARGETS:
            replace(target, functools.partial(self.wrap, name), self._restore)

    def uninstall(self) -> None:
        restore(self._restore)

    def table(self) -> dict:
        """Per layer: calls, total, median, p99 (from 1000 calls) and self time.

        Self time is a span's duration minus the durations of the spans it
        directly caused, summed over the layer's spans.
        """
        names = np.frombuffer(self.name_id, dtype=np.int32)
        parents = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        own = dur - child
        out = {}
        for nid, name in enumerate(self.names):
            sel = names == nid
            d = dur[sel]
            out[name] = {
                "calls": int(d.size),
                "total_s": float(d.sum()),
                "median_ms": float(np.median(d) * 1e3) if d.size else 0.0,
                "p99_ms": float(np.percentile(d, 99) * 1e3) if d.size >= 1000 else None,
                "self_s": float(own[sel].sum()),
            }
        return out

    def top_level_seconds(self) -> float:
        """Time inside spans that no other span caused: the traced share of a run."""
        parents = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        return float(dur[parents < 0].sum())

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names),
                 name_id=np.frombuffer(self.name_id, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=float),
                 end=np.frombuffer(self.end, dtype=float))
