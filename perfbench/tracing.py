"""Spans around the public functions of each diracosc layer.

Every cross-layer call in diracosc goes through a module attribute
(``numerics.eigensolve``, ``kernels.assemble_dirac``,
``cli.write_wavefunction_csv`` ...), and calls inside a module go through
that module's globals, which are the same dictionary. Replacing those
attributes with timing wrappers therefore sees every call without editing
the package. Profile methods are wrapped on their classes.

A span records its name, start, end, the span that caused it and the
operation it belongs to. Probes read counts from the arguments and results
at the same boundary, using only fields that stay stable as the solvers
change: ``EigenResult.values``, ``.residuals`` and ``.bound_flags``, the
shape of a matrix's storage, and the size of what was written. A function
that no longer exists is recorded as absent instead of failing the run.
"""

import functools
import importlib
import json
import os
import time
from collections import defaultdict

import numpy as np

LAYERS = ("model", "susy", "analytic", "kernels", "numerics", "zeromodes", "cli")

# every per-layer metric the traced run prints, with its unit; per pass
# unless the name ends in _max. "<layer>.s" is the time inside the layer,
# "<name>.self_s" excludes the spans it caused.
REPORTED = [
    ("numerics.eigensolve.s", "s"),
    ("numerics.eigensolve.share", "ratio"),
    ("numerics.eigensolve.calls", "count"),
    ("numerics.eigensolve.dim_max", "count"),
    ("numerics.eigensolve.pairs", "count"),
    ("numerics.bound_yield", "ratio"),
    ("numerics.eigensolve.residual_max", "1"),
    ("numerics.build_dirac.self_s", "s"),
    ("numerics.classify_bound.s", "s"),
    ("numerics.build_schrodinger.self_s", "s"),
    ("numerics.selfconsistent_level.iterations", "count"),
    ("numerics.dirac_residual.s", "s"),
    ("kernels.assemble_dirac.s", "s"),
    ("kernels.assemble_dirac.bytes", "B"),
    ("kernels.assemble_schrodinger.s", "s"),
    ("kernels.assemble_schrodinger.bytes", "B"),
    ("kernels.dirac_apply.s", "s"),
    ("kernels.cumulative_simpson_center.s", "s"),
    ("model.profile_value.s", "s"),
    ("model.profile_value.calls", "count"),
    ("susy.reduce.s", "s"),
    ("susy.reduce.calls", "count"),
    ("analytic.tables.s", "s"),
    ("zeromodes.self_s", "s"),
    ("cli.parse_config.s", "s"),
    ("cli.run.self_s", "s"),
    ("cli.write_wavefunction_csv.s", "s"),
    ("cli.write_wavefunction_csv.share", "ratio"),
    ("cli.bytes_written", "B"),
    ("trace.overhead_s", "s"),
] + [(f"{layer}.s", "s") for layer in LAYERS]


class Span:
    __slots__ = ("name", "parent", "op", "start", "end")

    def __init__(self, name, parent, op, start):
        self.name = name
        self.parent = parent
        self.op = op
        self.start = start
        self.end = None

    @property
    def layer(self):
        return self.name.split(".", 1)[0]

    @property
    def duration(self):
        return self.end - self.start


def storage_bytes(obj):
    """Computed storage size: dense ``nbytes`` or sparse/banded data plus indices."""
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, (tuple, list)):
        return sum(storage_bytes(item) for item in obj)
    total = 0
    for attr in ("data", "indices", "indptr", "offsets", "row", "col"):
        part = getattr(obj, attr, None)
        if isinstance(part, np.ndarray):
            total += int(part.nbytes)
    return total


def _matrix_dim(matrix):
    shape = getattr(getattr(matrix, "storage", None), "shape", None)
    return int(max(shape)) if shape else 0


def _probe_eigensolve(counts, args, kwargs, out):
    counts["numerics.eigensolve.pairs"] += len(out.values)
    if len(out.residuals):
        counts["numerics.eigensolve.residual_max"] = max(
            counts["numerics.eigensolve.residual_max"], float(np.max(out.residuals)))
    if args:
        counts["numerics.eigensolve.dim_max"] = max(
            counts["numerics.eigensolve.dim_max"], _matrix_dim(args[0]))


def _probe_classify(counts, args, kwargs, out):
    counts["numerics.classify_bound.pairs"] += len(out.values)
    counts["numerics.classify_bound.bound"] += int(np.sum(out.bound_flags))


def _probe_selfconsistent(counts, args, kwargs, out):
    if isinstance(out, tuple) and len(out) >= 3:
        counts["numerics.selfconsistent_level.iterations"] += int(out[2])


def _probe_bytes(name):
    def probe(counts, args, kwargs, out):
        counts[name] += storage_bytes(out)
    return probe


def _probe_csv(counts, args, kwargs, out):
    path = args[0] if args else kwargs.get("path")
    counts["cli.bytes_written"] += os.path.getsize(path)


def _probe_run(counts, args, kwargs, out):
    if isinstance(out, tuple) and len(out) == 2 and isinstance(out[1], str):
        counts["cli.bytes_written"] += os.path.getsize(out[1])


def _targets(mods):
    """(owner, attribute, span name, probe) for every wrapped entry point."""
    model = mods["model"]
    base = getattr(model, "Profile", None)
    profile_classes = [
        cls for cls in (vars(model).values() if model is not None else ())
        if isinstance(cls, type) and base is not None and issubclass(cls, base)
        and "value" in vars(cls)
    ]
    targets = [(cls, "value", "model.profile_value", None) for cls in profile_classes]
    if not profile_classes:
        targets.append((None, "Profile.value", "model.profile_value", None))
    for fn in ("reduce", "spin_eigensystem", "critical_field", "is_subcritical"):
        targets.append((mods["susy"], fn, f"susy.{fn}", None))
    for fn in ("scarf2_levels", "rosen_morse2_levels", "rm2_with_field_levels",
               "transformed_potential_parameters"):
        targets.append((mods["analytic"], fn, "analytic.tables", None))
    targets += [
        (mods["kernels"], "assemble_dirac", "kernels.assemble_dirac",
         _probe_bytes("kernels.assemble_dirac.bytes")),
        (mods["kernels"], "assemble_schrodinger", "kernels.assemble_schrodinger",
         _probe_bytes("kernels.assemble_schrodinger.bytes")),
        (mods["kernels"], "dirac_apply", "kernels.dirac_apply", None),
        (mods["kernels"], "cumulative_simpson_center",
         "kernels.cumulative_simpson_center", None),
    ]
    numerics = mods["numerics"]
    targets += [
        (numerics, "build_dirac", "numerics.build_dirac", None),
        (numerics, "build_schrodinger", "numerics.build_schrodinger", None),
        (numerics, "eigensolve", "numerics.eigensolve", _probe_eigensolve),
        (numerics, "classify_bound", "numerics.classify_bound", _probe_classify),
        (numerics, "dirac_continuum_edge", "numerics.dirac_continuum_edge", None),
        (numerics, "schrodinger_continuum_edge", "numerics.schrodinger_continuum_edge",
         None),
        (numerics, "dirac_residual", "numerics.dirac_residual", None),
        (numerics, "reconstruct_spinor", "numerics.reconstruct_spinor", None),
        (numerics, "selfconsistent_level", "numerics.selfconsistent_level",
         _probe_selfconsistent),
    ]
    for fn in ("zero_mode_quadrature", "step_match", "match_interface",
               "zero_mode_transformed"):
        targets.append((mods["zeromodes"], fn, f"zeromodes.{fn}", None))
    cli = mods["cli"]
    targets += [
        (cli, "parse_config", "cli.parse_config", None),
        (cli, "run", "cli.run", _probe_run),
        (cli, "write_wavefunction_csv", "cli.write_wavefunction_csv", _probe_csv),
    ]
    return targets


class Tracer:
    """Installs the wrappers, keeps spans in memory, aggregates them per layer."""

    def __init__(self):
        self.mods = {}
        for layer in LAYERS:
            try:
                self.mods[layer] = importlib.import_module(f"diracosc.{layer}")
            except ModuleNotFoundError:
                self.mods[layer] = None
        self.spans = []
        self.counts = defaultdict(float)
        self.absent = []
        self.op = None
        self._stack = []
        self._saved = []

    def install(self):
        for owner, attr, name, probe in _targets(self.mods):
            if isinstance(owner, type):
                fn = vars(owner).get(attr)
            else:
                fn = getattr(owner, attr, None)
            if not callable(fn):
                note = f"{name}: no {attr}"
                if note not in self.absent:
                    self.absent.append(note)
                continue
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, probe))

    def uninstall(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def keep_setup_under(self, name):
        """Drop set-up spans outside calls to `name`.

        While the inputs are built, the benchmark also computes its own
        closed-form references; those calls are not the program's work.
        """
        def root(span):
            while span.parent is not None:
                span = span.parent
            return span
        self.spans = [s for s in self.spans if s.op != "setup" or root(s).name == name]
        self.counts.clear()

    def _wrap(self, fn, name, probe):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(name, parent, tracer.op, time.perf_counter())
            tracer._stack.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append(span)
            if probe is not None:
                try:
                    probe(tracer.counts, args, kwargs, out)
                except (AttributeError, TypeError, OSError) as err:
                    note = f"{name} probe: {err}"
                    if note not in tracer.absent:
                        tracer.absent.append(note)
            return out

        return wrapper

    def metrics(self, passes, pass_wall):
        """Per-pass layer metrics from the spans of `passes` traced passes.

        Spans recorded while the inputs were built (op "setup") count once;
        spans of the passes are divided by the pass count. A span nested in
        another of the same name (or, for layer totals, of the same layer)
        is already inside its ancestor's time and is not added again.
        """
        child_time = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child_time[id(span.parent)] += span.duration
        out = defaultdict(float)
        for span in self.spans:
            weight = 1.0 if span.op == "setup" else 1.0 / passes
            self_s = span.duration - child_time[id(span)]
            out[f"{span.name}.self_s"] += weight * self_s
            out[f"{span.layer}.self_s"] += weight * self_s
            ancestors = []
            node = span.parent
            while node is not None:
                ancestors.append(node)
                node = node.parent
            if all(a.name != span.name for a in ancestors):
                out[f"{span.name}.s"] += weight * span.duration
                out[f"{span.name}.calls"] += weight
            if all(a.layer != span.layer for a in ancestors):
                out[f"{span.layer}.s"] += weight * span.duration
        for key, value in self.counts.items():
            out[key] = value if key.endswith("_max") else value / passes
        pairs = self.counts.get("numerics.classify_bound.pairs", 0.0)
        if pairs:
            out["numerics.bound_yield"] = self.counts["numerics.classify_bound.bound"] / pairs
        for name in ("numerics.eigensolve", "cli.write_wavefunction_csv"):
            if f"{name}.s" in out and pass_wall > 0:
                out[f"{name}.share"] = out[f"{name}.s"] / pass_wall
        return dict(out)

    def dump(self, path):
        index = {id(span): i for i, span in enumerate(self.spans)}
        rows = [
            {"id": i, "name": s.name, "op": s.op,
             "parent": index.get(id(s.parent)) if s.parent is not None else None,
             "start": s.start, "end": s.end}
            for i, s in enumerate(self.spans)
        ]
        with open(path, "w") as handle:
            json.dump({"absent": self.absent, "spans": rows}, handle)
