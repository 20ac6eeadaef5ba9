"""Out-of-package tracing: wrap public functions of ``rieszvar`` and record spans.

Each wrapped call records one span (name, start, end, parent) in compact
in-memory arrays; ``dump`` writes them out when the run ends. A module
that did ``from .x import y`` holds its own reference to ``y``, and the
harness keeps its suites in a dict, so ``install`` replaces the function
in every ``rieszvar`` module namespace and module-level dict that holds it.

Self time of a span is its duration minus the durations of its direct
children; calls are sequential in one thread, so children never overlap.
"""

import functools
import sys
import time
from array import array

# (module, function, span name). Every call opens a span.
SPANNED = [
    ("riesz", n, f"riesz.{n}") for n in (
        "candidate_balls", "measure_balls", "make_scores", "pack_1d_exact",
        "pack_greedy", "pack_local_search", "riesz_variation",
        "weak_type_check", "lipschitz_field",
    )
] + [
    ("grid", "region_mask", "grid.region_mask"),
    ("grid", "gradient_magnitude", "grid.gradient_magnitude"),
] + [
    ("weights", n, f"weights.{n}") for n in (
        "generate_cubes", "ap_constant", "rh_constant", "estimate_rw",
    )
] + [
    ("sobolev", n, f"sobolev.{n}") for n in (
        "weighted_lp_norm", "mollify", "morrey_check", "mollify_gradient_bound",
    )
] + [
    ("varexp", n, f"varexp.{n}") for n in (
        "explore_packings", "rbv_collection_norm", "luxemburg_norm", "g_operator",
        "gd_equivalence_check", "varexp_sobolev_equivalence", "rbv_var_seminorm",
        "char_norm", "harmonic_mean_exponent", "seq_norm",
    )
] + [
    ("config", "load_config", "config.load_config"),
    ("config", "materialize_level", "config.materialize_level"),
    ("harness", "run_config", "harness.run_config"),
    ("report", "emit_report", "report.emit"),
]
# Scalar helpers called up to millions of times per pass: counted, no span.
COUNTED = [
    ("grid", "balls_disjoint", "grid.balls_disjoint"),
    ("grid", "ball_in_domain", "grid.ball_in_domain"),
]


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts = {}
        self._patched = []

    def _intern(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def add(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    def spanned(self, name, fn, on_result=None):
        nid = self._intern(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1])
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self._stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def counted(self, name, fn):
        key = f"{name}.calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[key] = self.counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, original, wrapper):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "rieszvar" or mod_name.startswith("rieszvar.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if item is original:
                            self._patched.append((value, key, original))
                            value[key] = wrapper

    def install(self):
        """Wrap every traced function in every rieszvar module that holds it."""
        import rieszvar.harness as harness

        hooks = {
            "riesz.candidate_balls": lambda a, r: self.add("riesz.n_candidates", len(r)),
            "weights.generate_cubes": lambda a, r: self.add("weights.n_cubes", len(r)),
            "riesz.pack_local_search": lambda a, r: self.add(
                "riesz.ls_improved", int(r.total > a[0].total)),
        }
        for mod_name, fn_name, span in SPANNED:
            mod = sys.modules[f"rieszvar.{mod_name}"]
            original = getattr(mod, fn_name)
            self._patch(original, self.spanned(span, original, hooks.get(span)))
        for suite, original in list(harness._SUITES.items()):
            self._patch(original, self.spanned(f"harness.{suite}", original))
        for mod_name, fn_name, name in COUNTED:
            mod = sys.modules[f"rieszvar.{mod_name}"]
            original = getattr(mod, fn_name)
            self._patch(original, self.counted(name, original))

    def uninstall(self):
        for holder, key, original in reversed(self._patched):
            if isinstance(holder, dict):
                holder[key] = original
            else:
                setattr(holder, key, original)
        self._patched.clear()

    def summary(self):
        """Per span name: (calls, inclusive seconds, self seconds)."""
        import numpy as np

        names = np.frombuffer(self.name_id, dtype=np.uint16)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_time = dur - child
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        incl = np.bincount(names, weights=dur, minlength=k)
        excl = np.bincount(names, weights=self_time, minlength=k)
        return {n: (int(calls[i]), float(incl[i]), float(excl[i]))
                for i, n in enumerate(self.names)}

    def dump(self, path):
        """Write every span and counter to a compressed .npz file."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            counter_names=np.array(sorted(self.counts)),
            counter_values=np.array([self.counts[k] for k in sorted(self.counts)]),
        )
