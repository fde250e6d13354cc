"""Spans and counters recorded around calls into the cbfed modules.

The tracer patches names where callers look them up, so nothing under
``src/`` changes: module attributes (``operators.power_damping``), methods
(``SpectralField.physical``), names imported with ``from ... import``
(``controllers.simulate``), and the feedback closures returned by the
controller factories.  Spans live in memory as (name, start, end, parent)
and are written out once, when the traced process ends.
"""
from __future__ import annotations

import functools
import inspect
import json
import math
import time


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.spans: list[list] = []          # [name index, start, end, parent]
        self._stack: list[int] = []
        self.counters: dict[str, float] = {}

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name: str, fn, on_result=None):
        """fn inside a span called `name`; on_result(args, kwargs, result) counts."""
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        name_id = self._index[name]
        clock = time.perf_counter
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name_id, clock(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(args, kwargs, out)
            return out

        return traced

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {"run_id": self.run_id, "names": self.names, "spans": self.spans,
                 "counters": self.counters},
                fh,
            )


def install(tracer: Tracer) -> None:
    """Patch the cbfed modules so that calls into them record spans."""
    from cbfed import cli, controllers, convex, eigen, galerkin, operators, spectral
    from cbfed import stationary, timestep

    def arguments(fn, args, kwargs):
        bound = inspect.signature(fn).bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    def computed(_args, _kwargs, out):
        arr = out.c if isinstance(out, spectral.SpectralField) else out
        tracer.count("spectral.computed_bytes", arr.nbytes)

    def patch(module, attr, name, on_result=None):
        setattr(module, attr, tracer.wrap(name, getattr(module, attr), on_result))

    field_cls = spectral.SpectralField
    field_cls.physical = tracer.wrap("spectral.fft_base", field_cls.physical, computed)
    field_cls.from_physical = classmethod(
        tracer.wrap("spectral.fft_base", field_cls.from_physical.__func__, computed)
    )
    patch(spectral, "oversample", "spectral.oversample", computed)
    patch(spectral, "fine_to_coeffs", "spectral.fine_to_coeffs", computed)
    patch(spectral, "gradient_physical", "spectral.gradient_physical", computed)
    patch(spectral, "leray", "spectral.leray")
    patch(spectral, "norm_Lp", "spectral.norm_Lp")

    patch(operators, "power_damping", "operators.power_damping")
    patch(operators, "shifted_damping", "operators.shifted_damping")
    patch(operators, "convective", "operators.convective")
    # the time stepper evaluates the shifted convection exactly once per step
    patch(operators, "shifted_convective", "operators.shifted_convective")

    simulate = tracer.wrap("timestep.simulate", timestep.simulate)
    timestep.simulate = simulate
    controllers.simulate = simulate          # imported by name

    def closures(factory):
        @functools.wraps(factory)
        def make(*args, **kwargs):
            return tracer.wrap("controllers.apply", factory(*args, **kwargs))
        return make

    controllers.make_theta_controller = closures(controllers.make_theta_controller)
    controllers.make_proportional_controller = closures(controllers.make_proportional_controller)
    galerkin.make_galerkin_controller = closures(galerkin.make_galerkin_controller)
    patch(controllers, "theta_threshold", "controllers.theta_threshold")

    for cls in (convex.BallConstraint, convex.SpanConstraint):
        cls.project = tracer.wrap("convex.project", cls.project)
        cls.distance = tracer.wrap("convex.distance", cls.distance)

    def power_iters(_args, _kwargs, out):
        tracer.count("eigen.power_iters", out[2])

    patch(eigen, "smallest_eigenvalue_Ak", "eigen.smallest_eigenvalue_Ak", power_iters)
    patch(eigen, "apply_Ak", "eigen.apply_Ak")

    def picard(args, kwargs, res):
        relax = arguments(solve_stationary, args, kwargs)["relax"]
        tracer.count("stationary.picard_iters", res.iterations)
        tracer.count("stationary.relax_halvings", round(math.log2(relax / res.relaxation)))

    solve_stationary = stationary.solve_stationary
    patch(stationary, "solve_stationary", "stationary.solve_stationary", picard)

    reduced_simulate = galerkin.reduced_simulate

    def rk4_steps(args, kwargs, out):
        dt = arguments(reduced_simulate, args, kwargs)["dt"]
        tracer.count("galerkin.rk4_steps", round(out[0][-1] / dt))

    patch(galerkin, "nonlinear_term", "galerkin.nonlinear_term")
    patch(galerkin, "quadratic_term", "galerkin.quadratic_term")
    patch(galerkin, "reduced_simulate", "galerkin.reduced_simulate", rk4_steps)
    patch(galerkin, "assemble_reduction", "galerkin.assemble_reduction")
    patch(galerkin, "synthesize_gain", "galerkin.synthesize_gain")

    patch(cli, "run", "cli.run")


def self_times(spans) -> list:
    """Each span's duration minus the durations of its direct children.

    Spans are properly nested because the traced program is one thread.
    """
    out = [end - start for _name, start, end, _parent in spans]
    for _name, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def summarize(names, spans) -> dict:
    """Per span name: {"calls", "total_s", "self_s"}."""
    out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in names}
    for (name, start, end, _parent), own in zip(spans, self_times(spans)):
        row = out[names[name]]
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += own
    return out
