"""Spans around falsikit's layer boundaries, recorded from outside the package.

``install`` replaces the module attributes that ``run_pipeline`` and the
simulation helpers look up at call time with wrappers that record a span
(name, start, end, parent) per call, and wraps the isolated system's ``rhs``
to count its calls.  Spans stay in memory until ``Tracer.dump``.  A name
that no longer exists is listed as missing instead of failing the run.
"""

from __future__ import annotations

import json
import time


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self.counts: dict[str, int] = {}
        self._open: list[int] = []

    def wrap(self, module, attr: str, name: str, describe=None):
        """Record a span named ``name`` around every call of ``module.attr``.

        ``describe(args, kwargs, result)`` adds attributes to the span.
        """
        fn = getattr(module, attr, None)
        if fn is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return

        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name,
                    "parent": self._open[-1] if self._open else None,
                    "start": time.perf_counter(), "end": None}
            self.spans.append(span)
            self._open.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            if describe is not None:
                span.update(describe(args, kwargs, result))
            return result

        setattr(module, attr, traced)

    def count_calls(self, owner, attr: str, counter: str):
        """Count the calls of ``owner.attr`` under ``counter``."""
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(f"{owner.__module__}.{owner.__name__}.{attr}")
            return
        self.counts.setdefault(counter, 0)

        def counted(*args, **kwargs):
            self.counts[counter] += 1
            return fn(*args, **kwargs)

        setattr(owner, attr, counted)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "missing": self.missing,
                       "counts": self.counts}, fh)


def _simulation(args, kwargs, result):
    """Work of one batched simulation: models, record steps and substeps per step."""
    system, record = args[0], args[1]
    dt_int = kwargs.get("dt_int", args[2] if len(args) > 2 else None)
    n_sub = 10 if dt_int is None else max(1, int(round(record.dt / dt_int)))
    return {"models": int(system.n_models), "steps": int(record.n_steps),
            "substeps": n_sub,
            "kind": "hysteretic" if getattr(system, "nonlinear", False) else "linear"}


def _candidates(args, kwargs, result):
    return {"models": sum(len(samples) for samples in result.values())}


def _scored(args, kwargs, result):
    return {"models": sum(len(eps) for eps in args[0].values())}


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries that one ``falsikit run`` crosses."""
    from falsikit import cli, dynamics, pipeline

    tracer.wrap(cli, "run_pipeline", "pipeline.run_pipeline")
    tracer.wrap(pipeline, "generate_ensemble", "priors.generate_ensemble", _candidates)
    # the outermost of these nested spans is one simulation
    tracer.wrap(pipeline, "simulate_batch", "dynamics.simulate", _simulation)
    tracer.wrap(dynamics, "integrate_rk4", "dynamics.simulate", _simulation)
    tracer.wrap(pipeline, "residuals", "falsification.residuals")
    tracer.wrap(pipeline, "falsify_classes", "falsification.falsify_classes", _scored)
    tracer.wrap(pipeline, "post_falsification_weights", "prediction.weights")
    tracer.wrap(pipeline, "estimate_parameters", "prediction.weights")
    tracer.wrap(pipeline, "predict_response", "prediction.predict_response")
    tracer.wrap(pipeline, "ingest_timeseries", "pipeline.ingest")
    tracer.wrap(pipeline, "ingest_measurement", "pipeline.ingest")
    tracer.wrap(pipeline, "write_timeseries", "pipeline.write_timeseries")
    tracer.count_calls(dynamics.IsolatedSystem, "rhs", "rhs_calls")
