"""Span tracing of hkgeom's layers from outside the package.

The tracer replaces functions and methods of the library with wrappers
that open a span around each call.  A span has a name, a start, an end
and the span that was open when it started; the wrapper counts the call
and adds the span's self time (its duration minus the time covered by
its child spans) to its name.  Nothing under ``src/`` is edited: names
are rebound in every ``hkgeom`` module namespace that holds them,
because the modules import one another's functions with
``from .forms import ddc`` and so keep their own references.

Layers are the package's modules plus ``linalg`` for calls into
``numpy.linalg`` made by any of them.  ``dynkin`` costs under 0.1% of a
run and is not traced; its time shows as ``suites`` self time.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import time
from array import array

import numpy as np

#: modules whose public functions are all traced, so each layer's self
#: time covers its own code and not only the named counters
GEOMETRY_MODULES = ("flatspace", "cotangent", "gibbonshawking", "quotient", "twistor")

#: every module whose namespace may hold a reference to a traced function
NAMESPACES = (
    "hkgeom",
    "hkgeom.forms",
    "hkgeom.flatspace",
    "hkgeom.cotangent",
    "hkgeom.gibbonshawking",
    "hkgeom.quotient",
    "hkgeom.twistor",
    "hkgeom.dynkin",
    "hkgeom.suites",
    "hkgeom.report",
    "hkgeom.cli",
)

FORMS_GROUPS = {
    "stencil": (
        "partial_derivative",
        "fd_gradient",
        "fd_jacobian",
        "ext_deriv",
        "dc_deriv",
        "ddc",
        "laplacian",
    ),
    "algebra": (
        "wedge",
        "interior_product",
        "pullback",
        "hodge_star",
        "form_metric_norm",
        "type11_residual",
    ),
    "quadrature": ("surface_integral",),
}

#: field callbacks: every stencil point is one of these calls
FIELD_METHODS = (("ScalarField", "__call__"), ("FormField", "__call__"))

#: QuotientChart methods run inside forms stencils as callbacks; tracing
#: them keeps the quotient code they run out of the forms self time
CHART_METHODS = (
    "__init__",
    "point",
    "tangents",
    "form",
    "omega_bar",
    "metric",
    "structure",
    "scalar_gradient",
)

#: functions that return a closure the stencils call back into
FACTORIES = {"twistor.twistor_structure": "twistor.structure"}

#: numpy.linalg entry points; norm is left out because it is called on
#: every Newton step and clearance test and is not a dense solve.  They
#: are rebound in numpy's implementation module too, so the svd that
#: ``norm(A, 2)`` runs inside numpy is counted.
LINALG = ("eigh", "eigvalsh", "lstsq", "svd", "solve", "inv", "det")

#: (outer span, inner span): inner calls made while an outer span is open
NESTED = (
    ("forms.ddc", "forms.ScalarField.__call__"),
    ("quotient.QuotientChart.point", "quotient.hk_moment"),
)


def _module(name: str):
    return importlib.import_module(name)


def _public_functions(mod):
    for name, value in vars(mod).items():
        if (
            not name.startswith("_")
            and inspect.isfunction(value)
            and value.__module__ == mod.__name__
        ):
            yield name, value


class Tracer:
    """Counts, self times and (optionally) raw spans of the library's layers.

    ``install()`` patches the library and ``uninstall()`` restores every
    original object; between the two each patched call opens a span.
    ``record_spans`` keeps the raw spans of the calls made while it is
    set, in compact arrays, for ``write_spans`` to write out at the end.
    """

    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.targets: list = []  # original function per span name
        self._index: dict[str, int] = {}
        self.count: list[int] = []
        self.self_s: list[float] = []
        self.total_s: list[float] = []
        self.nested = {pair: 0 for pair in NESTED}
        self._stack = [[0.0, -1]]  # [child seconds, span id]; root frame
        self._spans = None
        self._kept = None
        self._next_id = [0]
        self._patches: list = []
        self._plan = None

    # -- span bookkeeping ------------------------------------------------------------

    def _sid(self, name: str, layer: str, target) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(layer)
            self.targets.append(target)
            self.count.append(0)
            self.self_s.append(0.0)
            self.total_s.append(0.0)
        return self._index[name]

    def reset(self) -> None:
        """Zero every counter and timer; keep the installed wrappers."""
        for i in range(len(self.names)):
            self.count[i] = 0
            self.self_s[i] = 0.0
            self.total_s[i] = 0.0
        for pair in self.nested:
            self.nested[pair] = 0

    def wrap(self, name: str, layer: str, fn):
        """A wrapper around ``fn`` that records one ``name`` span per call."""
        sid = self._sid(name, layer, fn)
        stack = self._stack
        count, self_s, total_s = self.count, self.self_s, self.total_s
        next_id = self._next_id
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0, next_id[0]]
            next_id[0] += 1
            parent = stack[-1][1]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                dur = t1 - t0
                stack.pop()
                stack[-1][0] += dur
                count[sid] += 1
                self_s[sid] += dur - frame[0]
                total_s[sid] += dur
                spans = tracer._spans
                if spans is not None:
                    spans[0].append(frame[1])
                    spans[1].append(parent)
                    spans[2].append(sid)
                    spans[3].append(t0)
                    spans[4].append(t1)

        return wrapper

    def _wrap_nested(self, outer_fn, outer: str, inner: str):
        inner_sid = self._index[inner]
        count, nested = self.count, self.nested

        @functools.wraps(outer_fn)
        def wrapper(*args, **kwargs):
            before = count[inner_sid]
            try:
                return outer_fn(*args, **kwargs)
            finally:
                nested[(outer, inner)] += count[inner_sid] - before

        return wrapper

    def _wrap_factory(self, factory, name: str, layer: str):
        tracer = self
        tracer._sid(name, layer, None)

        @functools.wraps(factory)
        def wrapper(*args, **kwargs):
            inner = factory(*args, **kwargs)
            if tracer.targets[tracer._index[name]] is None:
                tracer.targets[tracer._index[name]] = inner
            return tracer.wrap(name, layer, inner)

        return wrapper

    # -- patch plan --------------------------------------------------------------------

    def _build_plan(self):
        """List (kind, owner, attribute, span name, layer) for every target.

        A target the library no longer has is left out, so its counts read
        zero instead of the traced run failing.
        """
        plan = []
        forms = _module("hkgeom.forms")
        for group, names in FORMS_GROUPS.items():
            for name in names:
                plan.append(("func", forms, name, f"forms.{name}", f"forms.{group}"))
        for cls_name, meth in FIELD_METHODS:
            cls = getattr(forms, cls_name)
            plan.append(("attr", cls, meth, f"forms.{cls_name}.{meth}", "forms.field"))
        for mod_name in GEOMETRY_MODULES:
            mod = _module(f"hkgeom.{mod_name}")
            for name, _ in _public_functions(mod):
                plan.append(("func", mod, name, f"{mod_name}.{name}", mod_name))
        quotient = _module("hkgeom.quotient")
        for meth in CHART_METHODS:
            plan.append(
                ("attr", quotient.QuotientChart, meth, f"quotient.QuotientChart.{meth}", "quotient")
            )
        suites = _module("hkgeom.suites")
        for name, _ in _public_functions(suites):
            if name != "run_suite":
                plan.append(("func", suites, name, f"suites.{name}", "suites"))
        report = _module("hkgeom.report")
        plan.append(("attr", report.Report, "to_json", "report.Report.to_json", "report"))
        for name in LINALG:
            plan.append(("func", np.linalg, name, f"linalg.{name}", "linalg"))
        return [
            entry for entry in plan
            if (entry[2] in vars(entry[1]) if entry[0] == "attr" else hasattr(entry[1], entry[2]))
        ]

    def install(self) -> None:
        """Patch every target; raises if the tracer is already installed."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        if self._plan is None:
            self._plan = self._build_plan()
        replacements = {}
        for kind, owner, attr, name, layer in self._plan:
            original = owner.__dict__[attr] if kind == "attr" else getattr(owner, attr)
            if name in FACTORIES:
                new = self._wrap_factory(original, FACTORIES[name], layer)
            else:
                new = self.wrap(name, layer, original)
            replacements[name] = [kind, owner, attr, original, new]
        for outer, inner in NESTED:
            if outer in replacements and inner in replacements:
                replacements[outer][4] = self._wrap_nested(replacements[outer][4], outer, inner)
        by_original = {}
        for kind, owner, attr, original, new in replacements.values():
            if kind == "attr":
                self._set(owner, attr, new)
            else:
                by_original[id(original)] = (original, new)

        def replacement(value):
            hit = by_original.get(id(value))
            return hit[1] if hit is not None and hit[0] is value else None

        linalg_impl = _module(inspect.unwrap(np.linalg.svd).__module__)
        for ns in [_module(n) for n in NAMESPACES] + [np.linalg, linalg_impl]:
            for key, value in list(vars(ns).items()):
                new = replacement(value)
                if new is not None:
                    self._set(ns, key, new)
                elif isinstance(value, dict) and not key.startswith("__"):
                    for dkey, dval in list(value.items()):
                        new = replacement(dval)
                        if new is not None:
                            self._set_item(value, dkey, new)

    def _set(self, owner, attr, new):
        self._patches.append(("attr", owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _set_item(self, mapping, key, new):
        self._patches.append(("item", mapping, key, mapping[key]))
        mapping[key] = new

    def uninstall(self) -> None:
        """Restore every patched object, newest patch first."""
        while self._patches:
            kind, owner, key, original = self._patches.pop()
            if kind == "attr":
                setattr(owner, key, original)
            else:
                owner[key] = original

    # -- raw spans ---------------------------------------------------------------------

    def record_spans(self, on: bool) -> None:
        """Start (or stop) keeping raw spans in memory."""
        if on:
            self._spans = (array("q"), array("q"), array("q"), array("d"), array("d"))
            self._next_id[0] = 0
        elif self._spans is not None:
            self._kept, self._spans = self._spans, None

    def write_spans(self, path) -> int:
        """Write the kept spans as gzipped CSV (id, parent, name, start_s, end_s)."""
        spans = self._kept
        if spans is None:
            return 0
        ids, parents, sids, starts, ends = spans
        t_base = min(starts) if starts else 0.0
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8", newline="\n") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for i in range(len(ids)):
                fh.write(
                    f"{ids[i]},{parents[i]},{self.names[sids[i]]},"
                    f"{starts[i] - t_base:.9f},{ends[i] - t_base:.9f}\n"
                )
        return len(ids)

    # -- readouts ----------------------------------------------------------------------

    def counts(self) -> dict:
        """Calls per span name since the last reset."""
        return {name: self.count[i] for i, name in enumerate(self.names)}

    def calls(self, name: str) -> int:
        i = self._index.get(name)
        return 0 if i is None else self.count[i]

    def total(self, name: str) -> float:
        i = self._index.get(name)
        return 0.0 if i is None else self.total_s[i]

    def self_time(self, *, layer: str | None = None, names=()) -> float:
        """Summed self time of one layer, or of the listed span names."""
        out = 0.0
        for i, name in enumerate(self.names):
            if name in names or (layer is not None and (
                self.layer_of[i] == layer or self.layer_of[i].startswith(layer + ".")
            )):
                out += self.self_s[i]
        return out
