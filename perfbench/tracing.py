"""In-memory spans around the public functions of each symcap layer.

``Tracer.install`` replaces every reference to a traced function inside the
``symcap`` modules with a wrapper, so calls the library makes to itself (for
example ``nonsqueeze_verify`` -> ``random_symplectic``) are recorded too.
``uninstall`` puts the originals back, so untraced rounds run the program
untouched.  Spans stay in memory and are written as JSON lines at the end.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# (module, public function) pairs; each span is named "<module>.<function>".
TRACED = [
    ("symcore", "random_symplectic"),
    ("symcore", "quad_propagator"),
    ("squeeze", "nonsqueeze_verify"),
    ("squeeze", "shadow_report"),
    ("squeeze", "mc_projection_area"),
    ("squeeze", "mc_intersection_area"),
    ("williamson", "williamson_decompose"),
    ("williamson", "symplectic_spectrum"),
    ("regions", "capacity"),
    ("regions", "inclusion_check"),
    ("maslov", "torus_cycle_loop"),
    ("maslov", "transport_loop"),
    ("maslov", "maslov_index"),
    ("ebk", "energy_levels"),
    ("ebk", "capacity_condition"),
    ("ebk", "verify_energy_bound"),
    ("ebk", "action_quadrature_1d"),
    ("cli", "dispatch"),
]


def _counters(name: str, result) -> dict:
    """Counts read off a traced call's return value."""
    if name == "regions.inclusion_check":
        return {"regions.inclusion_check.sampled": int(not result.exact)}
    if name == "maslov.maslov_index":
        return {"maslov.refinement_depth": result.refinement_depth}
    if name == "ebk.energy_levels":
        return {"ebk.levels": len(result.entries)}
    return {}


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent, name, start, end, counters)
        self.frames = 0  # LagrangianFrame constructions
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)  # reserve the id; filled in on return
            self._stack.append(span_id)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                counters = {} if result is None else _counters(name, result)
                self.spans[span_id] = (span_id, parent, name, start, end, counters)
            return result
        return traced

    def install(self):
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "symcap" or name.startswith("symcap.")}
        for modname, fname in TRACED:
            mod = mods.get("symcap." + modname)
            if mod is None:
                continue
            original = getattr(mod, fname)
            wrapper = self._wrap(f"{modname}.{fname}", original)
            for m in mods.values():
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._patches.append((m, attr, original))
                        setattr(m, attr, wrapper)
        maslov = mods.get("symcap.maslov")
        if maslov is not None:
            cls = maslov.LagrangianFrame
            original = cls.__post_init__

            def counted(frame):
                self.frames += 1
                original(frame)

            self._patches.append((cls, "__post_init__", original))
            cls.__post_init__ = counted

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def layer_totals(self, spans) -> dict:
        """Per-layer calls, seconds and counters over a list of spans.

        Seconds are inclusive and counted once per outermost call of a name,
        so a function that recurses into itself is not counted twice.
        """
        parent_of = {s[0]: s[1] for s in spans}
        name_of = {s[0]: s[2] for s in spans}
        out = defaultdict(float)
        for span_id, parent, name, start, end, counters in spans:
            out[name + ".calls"] += 1
            p = parent
            while p is not None and name_of.get(p) != name:
                p = parent_of.get(p)
            if p is None:
                out[name + ".s"] += end - start
            for key, value in counters.items():
                if key == "maslov.refinement_depth":
                    out["maslov.refinement_depth.max"] = max(
                        out["maslov.refinement_depth.max"], value)
                else:
                    out[key] += value
        return out

    def write(self, path, round_of):
        """Write every span as a JSON line; ``round_of(start)`` labels its round."""
        with open(path, "w") as fh:
            for span_id, parent, name, start, end, counters in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                     "start": start, "end": end,
                                     "round": round_of(start), **counters}) + "\n")
