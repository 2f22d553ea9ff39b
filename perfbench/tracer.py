"""Outside-in tracer for the qrtorsion library.

The library has no trace hooks, so this module wraps its public functions
from the outside and restores them afterwards.  Functions are imported by
name across the package (``page1`` is bound in ``spectral``, ``models``,
``verifier`` and ``cli``), so each wrapped function is rebound in every
``qrtorsion.*`` namespace that holds it; ``Matrix`` and ``Contraction``
methods are wrapped on the class.

A span stack gives self time: a call's self time is its duration minus the
time of the wrapped calls nested in it (``solve`` -> ``rref``, ``inverse`` ->
``solve`` + ``matmul``).  Each op is the root span; its self time is the time
spent outside every wrapped function, reported as ``unattributed``.  Spans
stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (module, attribute, layer name).  A dotted attribute is a method wrapped on
# its class.  superpotential and laurent lie on no path that generate,
# verify or batch takes, so they are deliberately not traced.
TRACED = [
    ("linalg", "Matrix.rref", "linalg.rref"),
    ("linalg", "Matrix.solve", "linalg.solve"),
    ("linalg", "Matrix.kernel_basis", "linalg.kernel_basis"),
    ("linalg", "Matrix.determinant", "linalg.determinant"),
    ("linalg", "Matrix.inverse", "linalg.inverse"),
    ("linalg", "Matrix.__mul__", "linalg.matmul"),
    ("linalg", "smith_normal_form", "linalg.smith_normal_form"),
    ("models", "realize_morse", "models.realize_morse"),
    ("models", "homology_bases", "models.homology_bases"),
    ("models", "solve_leibniz_derivation", "models.solve_leibniz_derivation"),
    ("models", "lift_derivation_page2", "models.lift_derivation_page2"),
    ("models", "lift_derivation_page3", "models.lift_derivation_page3"),
    ("spectral", "page1", "spectral.page1"),
    ("spectral", "Contraction.__init__", "spectral.Contraction"),
    ("spectral", "page2_rate", "spectral.page2_rate"),
    ("spectral", "closed_form_r", "spectral.closed_form_r"),
    ("spectral", "collapsing_page", "spectral.collapsing_page"),
    ("torsion", "quantum_torsion", "torsion.quantum_torsion"),
    ("torsion", "periodic_torsion", "torsion.periodic_torsion"),
    ("torsion", "milnor_torsion", "torsion.milnor_torsion"),
    ("complexes", "validate_pearl", "complexes.validate_pearl"),
    ("complexes", "fold_periodic", "complexes.fold_periodic"),
    ("complexes", "integral_homology", "complexes.integral_homology"),
    ("threefold", "find_slice", "threefold.find_slice"),
    ("threefold", "symplectic_slice", "threefold.symplectic_slice"),
    ("verifier", "verify_main_theorem", "verifier.verify_main_theorem"),
    ("verifier", "q_form", "verifier.q_form"),
    ("verifier", "torsion_via_page2_formula", "verifier.torsion_via_page2_formula"),
    ("verifier", "torsion_via_page3_formula", "verifier.torsion_via_page3_formula"),
    ("generate", "generate_instance", "generate.generate_instance"),
    ("generate", "mutate_d2", "generate.mutate_d2"),
    ("schemas", "instance_from_json", "schemas.instance_from_json"),
    ("schemas", "instance_to_json", "schemas.instance_to_json"),
    ("schemas", "report_to_json", "schemas.report_to_json"),
    ("schemas", "dump", "schemas.dump"),
]

UNTRACED_MODULES = ("superpotential", "laurent")

PACKAGE = "qrtorsion"
ROOT_SPAN = "op"
MAX_SPANS = 100_000     # spans kept for the trace file; the rest are counted


def _leibniz_entries(b: int) -> int:
    """Entries of the (2b^3 + b^2 + b) x b^2 Leibniz system."""
    return (2 * b ** 3 + b * b + b) * b * b


class Tracer:
    """Per-layer call counts, self time, counters and spans for one run.

    ``stats[layer]`` is ``[calls, self_ns, raised]``; ``paths`` maps a stack
    path such as ``op/models.solve_leibniz_derivation/linalg.solve/linalg.rref``
    to the self time spent there.
    """

    def __init__(self):
        self.stats = {layer: [0, 0, 0] for _, _, layer in TRACED}
        self.stats[ROOT_SPAN] = [0, 0, 0]
        self.counters = {"linalg.rref.entries": 0, "linalg.rref.max_entries": 0,
                         "linalg.matrix_new.calls": 0,
                         "models.solve_leibniz_derivation.entries": 0,
                         "models.lift.attempts": 0, "models.lift.lifts": 0,
                         "verify.page1.calls": 0, "verify.Contraction.calls": 0}
        self.paths = {}
        self.spans = []
        self.spans_dropped = 0
        self.stack = []
        self.op_ids = []
        self._next_id = 0
        self._in_verify = 0
        self._saved = []
        self._t0 = time.perf_counter_ns()

    # -- installing and removing the wrappers ------------------------------

    def install(self):
        """Wrap every function in TRACED, in every namespace that holds it."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        mods = package_modules()
        for modname, attr, layer in TRACED:
            owner = mods[f"{PACKAGE}.{modname}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._set(cls, meth, self._wrap(layer, cls.__dict__[meth]))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(layer, original)
            for mod in mods.values():
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, name, wrapped)
        # validate_pearl calls made from models are the lift attempts
        models = mods[f"{PACKAGE}.models"]
        self._set(models, "validate_pearl",
                  self._counting(models.validate_pearl, "models.lift.attempts"))
        matrix = mods[f"{PACKAGE}.linalg"].Matrix
        self._set(matrix, "__init__",
                  self._counting(matrix.__dict__["__init__"],
                                 "linalg.matrix_new.calls"))

    def uninstall(self):
        """Restore every original binding, newest first."""
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def _set(self, owner, name, value):
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    # -- wrappers ------------------------------------------------------------

    def _counting(self, fn, counter):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[counter] += 1
            return fn(*args, **kwargs)
        wrapper.__perfbench_wrapped__ = True
        return wrapper

    def _wrap(self, layer, fn):
        stat = self.stats[layer]
        stack, paths, spans, counters = (self.stack, self.paths, self.spans,
                                         self.counters)
        clock = time.perf_counter_ns
        on_call = self._on_call.get(layer)
        in_verify = layer == "verifier.verify_main_theorem"
        is_lift = layer.startswith("models.lift_derivation_page")
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:           # outside an op: not measured
                return fn(*args, **kwargs)
            if on_call is not None:
                on_call(tracer, args)
            parent = stack[-1]
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [parent[0] + "/" + layer, 0, span_id]
            stack.append(frame)
            if in_verify:
                tracer._in_verify += 1
            ok = False
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                t1 = clock()
                stack.pop()
                if in_verify:
                    tracer._in_verify -= 1
                dur = t1 - t0
                self_ns = dur - frame[1]
                parent[1] += dur
                stat[0] += 1
                stat[1] += self_ns
                if not ok:
                    stat[2] += 1
                elif is_lift:
                    counters["models.lift.lifts"] += 1
                paths[frame[0]] = paths.get(frame[0], 0) + self_ns
                if len(spans) < MAX_SPANS:
                    spans.append((tracer.op_ids[-1], span_id, parent[2], layer,
                                  t0 - tracer._t0, t1 - tracer._t0))
                else:
                    tracer.spans_dropped += 1
        wrapper.__perfbench_wrapped__ = True
        return wrapper

    def _rref_call(self, args):
        m = args[0]
        n = m.nrows * m.ncols
        c = self.counters
        c["linalg.rref.entries"] += n
        c["linalg.rref.max_entries"] = max(c["linalg.rref.max_entries"], n)

    def _leibniz_call(self, args):
        self.counters["models.solve_leibniz_derivation.entries"] += \
            _leibniz_entries(args[0].b)

    def _page1_call(self, args):
        if self._in_verify:
            self.counters["verify.page1.calls"] += 1

    def _contraction_call(self, args):
        if self._in_verify:
            self.counters["verify.Contraction.calls"] += 1

    _on_call = {"linalg.rref": _rref_call,
                "models.solve_leibniz_derivation": _leibniz_call,
                "spectral.page1": _page1_call,
                "spectral.Contraction": _contraction_call}

    # -- ops -------------------------------------------------------------------

    def begin_op(self, op_index):
        if self.stack:
            raise RuntimeError("op already open")
        self.op_ids.append(op_index)
        self.stack.append([ROOT_SPAN, 0, self._next_id])
        self._next_id += 1
        self._op_start = time.perf_counter_ns()

    def end_op(self):
        t1 = time.perf_counter_ns()
        frame = self.stack.pop()
        dur = t1 - self._op_start
        self_ns = dur - frame[1]
        stat = self.stats[ROOT_SPAN]
        stat[0] += 1
        stat[1] += self_ns
        self.paths[ROOT_SPAN] = self.paths.get(ROOT_SPAN, 0) + self_ns
        if len(self.spans) < MAX_SPANS:
            self.spans.append((self.op_ids[-1], frame[2], None, ROOT_SPAN,
                               self._op_start - self._t0, t1 - self._t0))
        else:
            self.spans_dropped += 1

    # -- results -----------------------------------------------------------------

    def write(self, path, meta):
        """Write the spans and path totals collected so far as one JSON file."""
        doc = dict(meta)
        doc["span_fields"] = ["op", "id", "parent", "layer", "start_ns", "end_ns"]
        doc["spans"] = self.spans
        doc["spans_dropped"] = self.spans_dropped
        doc["self_ns_by_path"] = dict(sorted(self.paths.items()))
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def package_modules():
    return {name: mod for name, mod in list(sys.modules.items())
            if mod is not None
            and (name == PACKAGE or name.startswith(PACKAGE + "."))}


def leftover_wrappers():
    """Names in the package still bound to a tracer wrapper; empty after a
    clean uninstall."""
    left = []
    for modname, mod in package_modules().items():
        for name, value in vars(mod).items():
            if getattr(value, "__perfbench_wrapped__", False):
                left.append(f"{modname}.{name}")
            if isinstance(value, type) and value.__module__ == modname:
                for meth, fn in vars(value).items():
                    if getattr(fn, "__perfbench_wrapped__", False):
                        left.append(f"{modname}.{name}.{meth}")
    return left
