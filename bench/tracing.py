"""Spans around the public functions of each ``adjoint_cauchy`` module.

The program has no tracing of its own, so the benchmark wraps functions
from outside: each wrapper replaces the name where its caller looks it up
(``iteration`` binds most of them at import), records one span per call,
and is removed again when the traced pass ends. A span is
``[name, start, end, parent, count]``; ``count`` carries the CG iterations
of a ``fem.cg`` span and the trial solves of a ``steps.armijo_step`` span.
Self time is a span's duration minus the durations of its direct children.
"""

import contextlib
import importlib
import json
import time
from collections import defaultdict

# span name -> (module path, attribute) pairs where callers look the function up
PATCH_POINTS = {
    "mesh.generate_mesh": [("adjoint_cauchy", "generate_mesh")],
    "fem.assemble_stiffness": [("adjoint_cauchy.iteration", "assemble_stiffness")],
    "problems.cauchy_data": [("adjoint_cauchy", "cauchy_data")],
    "iteration.run": [("adjoint_cauchy", "run")],
    "fem.solve_mixed_bvp": [("adjoint_cauchy.iteration", "solve_mixed_bvp")],
    "fem.cg": [("scipy.sparse.linalg", "cg")],
    "fem.normal_flux": [("adjoint_cauchy.iteration", "normal_flux")],
    "fem.trace": [("adjoint_cauchy.iteration", "trace")],
    "fourier.analyze": [("adjoint_cauchy.iteration", "analyze")],
    "fourier.synthesize": [("adjoint_cauchy.iteration", "synthesize")],
    "spectral.solve_series": [("adjoint_cauchy.iteration", "solve_series")],
    "steps.armijo_step": [("adjoint_cauchy.steps", "armijo_step")],
    "boundary.ring_mass_apply": [
        ("adjoint_cauchy.iteration", "ring_mass_apply"),
        ("adjoint_cauchy.fem", "ring_mass_apply"),
    ],
    "boundary.boundary_norm": [("adjoint_cauchy.iteration", "boundary_norm")],
}


class Tracer:
    """Spans kept in memory until the benchmark writes them out."""

    def __init__(self):
        self.spans = []
        self._open = []

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._open[-1] if self._open else -1, 0]
            self.spans.append(span)
            self._open.append(index)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()

        return traced

    def count(self, n):
        """Add ``n`` to the count of the innermost open span."""
        self.spans[self._open[-1]][4] += n

    def totals(self):
        """Per span name: calls, summed duration, summed self time, summed count."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "count": 0})
        for (name, start, end, _, count), inner in zip(self.spans, child):
            entry = out[name]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - inner
            entry["count"] += count
        return out

    def write(self, path, phase, mode="w"):
        with open(path, mode, encoding="utf-8") as handle:
            for name, start, end, parent, count in self.spans:
                handle.write(
                    json.dumps(
                        {"phase": phase, "name": name, "start": start, "end": end,
                         "parent": parent, "count": count}
                    )
                    + "\n"
                )


def _counting_cg(tracer, cg):
    def counted(*args, **kwargs):
        iterations = 0
        user_callback = kwargs.pop("callback", None)

        def callback(xk):
            nonlocal iterations
            iterations += 1
            if user_callback is not None:
                user_callback(xk)

        try:
            return cg(*args, callback=callback, **kwargs)
        finally:
            tracer.count(iterations)

    return counted


def _counting_armijo(tracer, armijo_step):
    def counted(*args, **kwargs):
        rho, trials = armijo_step(*args, **kwargs)
        tracer.count(trials)
        return rho, trials

    return counted


@contextlib.contextmanager
def installed(tracer):
    """Route every patch point through ``tracer`` until the block ends.

    A patch point the program no longer has is skipped, so its metrics
    read zero instead of breaking the benchmark.
    """
    saved = []
    try:
        for name, points in PATCH_POINTS.items():
            for module_name, attr in points:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    continue
                inner = original
                if name == "fem.cg":
                    inner = _counting_cg(tracer, original)
                elif name == "steps.armijo_step":
                    inner = _counting_armijo(tracer, original)
                setattr(module, attr, tracer.wrap(name, inner))
                saved.append((module, attr, original))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
