"""Spans around the public functions of saitodual, recorded from outside.

Each traced function is replaced by a wrapper in every saitodual module
that holds it by name (``saitodual.zeta.isotropy_subgroup`` is the same
object as ``saitodual.groups.isotropy_subgroup`` until it is patched, and a
patch on ``saitodual.groups`` alone would miss the call made from
``zeta``).  Spans are kept in memory as (name, start, end, parent,
operation) columns and written once, when the run ends.  Self time is a
span's duration minus the time its child spans cover; calls are
single-threaded, so children never overlap and that is a plain
subtraction.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array

# Public functions wrapped by the traced run, as "module.function".
TRACED = (
    "linalg.lattice_basis",
    "linalg.scaled_inverse",
    "linalg.smith_normal_form",
    "linalg.lattice_solve",
    "linalg.determinant",
    "polynomials.parse_polynomial",
    "polynomials.canonical_weights",
    "groups.symmetry_group",
    "groups.isotropy_subgroup",
    "groups.subgroup_meet",
    "groups.enumerate_subgroups",
    "groups.dual_subgroup",
    "groups.geometric_roots",
    "burnside.element_zeta",
    "burnside.saito_dual",
    "burnside.multiply",
    "burnside.restrict",
    "burnside.mark",
    "zeta.equivariant_zeta",
    "zeta.verify_zeta_duality",
    "zeta.verify_root_duality",
    "enumeration.generate_corpus",
    "enumeration.canonical_matrix_key",
    "enumeration.run_batch",
    "cli.main",
)


class Tracer:
    """Installs span-recording wrappers and accumulates per-function call
    counts, self time and the counters the per-layer metrics need."""

    def __init__(self, package):
        self._package = package
        self.names = list(TRACED)
        n = len(self.names)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self._name_ids = array("H")
        self._starts = array("d")
        self._ends = array("d")
        self._parents = array("q")
        self._ops = array("q")
        self._stack = []  # [span index, time covered by children]
        self._patched = []  # (module, attribute, original)
        self.operation = -1
        self.roots_returned = 0
        self.roots_generating = 0
        self.max_order = 0
        self._keys = []
        self.keys_computed = 0
        self.keys_distinct = 0

    # -- installation -------------------------------------------------

    def install(self):
        hooks = {
            "groups.geometric_roots": self._count_roots,
            "groups.symmetry_group": self._count_order,
            "enumeration.canonical_matrix_key": self._keys.append,
            "enumeration.generate_corpus": self._count_dedup,
        }
        prefix = self._package.__name__
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None
                   and (name == prefix or name.startswith(prefix + "."))]
        for idx, qualified in enumerate(self.names):
            module_name, func_name = qualified.split(".")
            home = sys.modules[f"{prefix}.{module_name}"]
            original = getattr(home, func_name)
            wrapper = self._wrap(idx, original, hooks.get(qualified))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, idx, fn, hook):
        stack = self._stack
        starts, ends = self._starts, self._ends
        name_ids, parents, ops = self._name_ids, self._parents, self._ops
        calls, self_s = self.calls, self.self_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = len(starts)
            name_ids.append(idx)
            parents.append(stack[-1][0] if stack else -1)
            ops.append(self.operation)
            ends.append(0.0)
            frame = [span, 0.0]
            stack.append(frame)
            start = clock()
            starts.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                ends[span] = end
                duration = end - start
                calls[idx] += 1
                self_s[idx] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if hook is not None:
                hook(result)
            return result

        return wrapper

    def begin_operation(self):
        """Spans from here on belong to a new operation of the run."""
        self.operation += 1

    # -- counters -----------------------------------------------------

    def _count_roots(self, roots):
        self.roots_returned += len(roots)
        self.roots_generating += sum(
            1 for g in roots if g.order == g.presentation.order)

    def _count_order(self, presentation):
        self.max_order = max(self.max_order, presentation.order)

    def _count_dedup(self, _result):
        self.keys_computed += len(self._keys)
        self.keys_distinct += len(set(self._keys))
        self._keys.clear()

    # -- output -------------------------------------------------------

    @property
    def span_count(self):
        return len(self._starts)

    def write(self, path):
        """Write every span as gzip-compressed JSON columns."""
        origin = self._starts[0] if self._starts else 0.0
        payload = {
            "names": self.names,
            "columns": ["name", "start_s", "end_s", "parent", "operation"],
            "name": list(self._name_ids),
            "start_s": [round(t - origin, 7) for t in self._starts],
            "end_s": [round(t - origin, 7) for t in self._ends],
            "parent": list(self._parents),
            "operation": list(self._ops),
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))
