"""Per-layer spans for the traced run, recorded from outside the program.

``Tracer.install`` replaces every binding of each function in ``LAYERS``,
in every loaded ``tracezero.*`` module namespace, with a timing wrapper;
``uninstall`` puts the originals back.  Because module code looks its
callees up by name at call time, calls between the program's own modules
go through the wrappers too.  A span's self time is its duration minus the
time of the spans it encloses.  A function that calls itself is timed only
at its outermost call.  A listed function that no longer exists is reported
in ``absent`` and counts zero.
"""
from __future__ import annotations

import functools
import sys
import time

LAYERS = {
    "cli": ("encode", "compare_json"),
    "schemas": ("validate",),
    "jsonio": ("matrix_from_json", "matrix_to_json", "field_from_json", "field_to_json"),
    "matcore": ("hermitian_eig", "operator_norm", "verify_decomposition"),
    "selfcomm": ("self_commutator_decompose", "tight_commutator_decompose",
                 "greedy_nonneg_order", "signed_order", "collapse_orthogonal",
                 "orthogonality_defect"),
    "ozfield": ("barycentric_subdivide", "subdivide_field", "greedy_coloring",
                "decompose_field"),
    "towers": ("TowerModel", "tower_iterate", "push_step", "cuntz_witness", "apply_ramp",
               "support_basis", "support_projection", "thresholded_rank"),
    "obstruct": ("obstruction_certificate", "euler_class", "linear_power", "sqfree_mul"),
    "rand": ("random_trace_zero_hermitian",),
}
ROOT = "cli"  # the run_from_args span: parsing and glue outside every listed call


class Tracer:
    def __init__(self, layers=LAYERS):
        self.layers = layers
        self.labels = tuple(f"{layer}.{name}" for layer, names in layers.items() for name in names)
        self.calls = dict.fromkeys(self.labels + (ROOT,), 0)
        self.self_s = dict.fromkeys(self.labels + (ROOT,), 0.0)
        self.absent = []
        self._stack = []  # enclosed-span time of each open span
        self._open = set()  # labels with an open span
        self._patches = []  # (owner, attribute, original value)

    def wrap(self, label: str, fn):
        @functools.wraps(fn)
        def span(*args, **kwargs):
            if label in self._open:
                return fn(*args, **kwargs)
            self._open.add(label)
            enclosed = [0.0]
            self._stack.append(enclosed)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                self._open.discard(label)
                self.calls[label] += 1
                self.self_s[label] += elapsed - enclosed[0]
                if self._stack:
                    self._stack[-1][0] += elapsed
        return span

    def _patch(self, owner, attribute: str, label: str):
        original = getattr(owner, attribute)
        setattr(owner, attribute, self.wrap(label, original))
        self._patches.append((owner, attribute, original))

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "tracezero" or name.startswith("tracezero."))]
        for layer, names in self.layers.items():
            home = sys.modules.get(f"tracezero.{layer}")
            for name in names:
                label = f"{layer}.{name}"
                targets = _targets(home, layer, name)
                if not targets:
                    self.absent.append(label)
                for target in targets:
                    if isinstance(target, type):
                        # A class is timed around its __post_init__.
                        self._patch(target, "__post_init__", label)
                        continue
                    for module in modules:
                        for attribute, value in list(vars(module).items()):
                            if value is target:
                                self._patch(module, attribute, label)
                    jsonschema = sys.modules.get("jsonschema")
                    if target is getattr(jsonschema, "validate", None):
                        self._patch(jsonschema, "validate", label)

    def uninstall(self):
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    def per_document(self, docs: int) -> dict:
        """Self milliseconds and call counts per document, by metric name."""
        out = {f"{ROOT}.self_ms": self.self_s[ROOT] * 1000.0 / docs}
        for label in self.labels:
            out[f"{label}.self_ms"] = self.self_s[label] * 1000.0 / docs
            out[f"{label}.calls"] = self.calls[label] / docs
        return out


def _targets(home, layer: str, name: str) -> list:
    """The objects a (layer, name) entry stands for; empty when absent."""
    found = []
    value = getattr(home, name, None) if home is not None else None
    if isinstance(value, type):
        if "__post_init__" in vars(value):
            found.append(value)
    elif callable(value):
        found.append(value)
    if (layer, name) == ("schemas", "validate"):
        # The CLI validates its input with jsonschema.validate and INPUT_SCHEMAS.
        jsonschema = sys.modules.get("jsonschema")
        if jsonschema is not None and jsonschema.validate not in found:
            found.append(jsonschema.validate)
    return found
