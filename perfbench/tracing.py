"""In-memory span tracing for the traced benchmark run.

Spans are recorded from the benchmark's own files, around the public calls
into each ustvol layer: a proxy model handed to ``price_surface``, timed
copies of registry entries handed to ``calibrate``, and timed rebinds of
module-level functions at the seams where one module calls another.  The
program itself is not modified; the rebinds are undone when a traced
operation ends, so untraced operations run the plain code.
"""

from __future__ import annotations

import dataclasses
import time
from contextlib import contextmanager

import numpy as np

# CF calls of at most this many points are the pricer's normalizer and
# u_max probes, not a frequency grid
PROBE_POINTS = 8
PROBE_SPAN = "fourier_pricer.cf_probe"

# span name of each model's frequency-grid CF evaluations, by layer
CF_SPAN = {
    "edgeworth_pp": "cf_edgeworth.cf",
    "bs_pp": "registry.bs_pp.cf",
    "heston_merton_2f": "benchmarks.heston_merton_2f.cf",
    "rough_heston_pp": "benchmarks.rough_heston_pp.cf",
}


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    error: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans and counters of one traced operation, single-threaded."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append(Span(name, 0.0, parent=self._open[-1] if self._open else -1))
        self._open.append(idx)
        self.spans[idx].start = time.perf_counter()
        try:
            yield
        except Exception as exc:
            self.spans[idx].error = type(exc).__name__
            raise
        finally:
            self.spans[idx].end = time.perf_counter()
            self._open.pop()

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, name: str, fn):
        def timed(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return timed

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.named(name))

    def self_time(self, name: str) -> float:
        """Summed duration of ``name`` spans minus their direct children."""
        idx = {i for i, s in enumerate(self.spans) if s.name == name}
        child = sum(s.duration for s in self.spans if s.parent in idx)
        return self.total(name) - child

    def top_level(self) -> float:
        return sum(s.duration for s in self.spans if s.parent == -1)


def timed_cf(tracer: Tracer, model_id: str, cf):
    """Wrap ``cf(u, tau, theta)``: probes and grids land in separate spans."""
    grid_span = CF_SPAN[model_id]

    def traced(u, tau, theta):
        n = int(np.size(u))
        tracer.count("cf_points", n)
        with tracer.span(PROBE_SPAN if n <= PROBE_POINTS else grid_span):
            return cf(u, tau, theta)

    return traced


class TracedModel:
    """Stand-in for a registry entry in ``price_surface``: the two calls the
    pricer makes on its model are timed, everything else is delegated."""

    def __init__(self, spec, tracer: Tracer) -> None:
        self._spec = spec
        self._tracer = tracer
        self._cf = timed_cf(tracer, spec.model_id, spec.cf_standardized)

    def spot_vol(self, theta):
        with self._tracer.span("registry.spot_vol"):
            return self._spec.spot_vol(theta)

    def cf_standardized(self, u, tau, theta):
        return self._cf(u, tau, theta)


def traced_spec(spec, tracer: Tracer):
    """Copy of a registry entry whose CF and vector unpacking are timed."""
    return dataclasses.replace(
        spec,
        _cf=timed_cf(tracer, spec.model_id, spec._cf),
        _unpack=tracer.wrap("registry.unpack", spec._unpack),
    )


def timed_seams(tracer: Tracer, *seams) -> list:
    """(module, attr, timed wrapper) for each (module, attr, span name)."""
    return [(mod, attr, tracer.wrap(name, getattr(mod, attr)))
            for mod, attr, name in seams]


@contextmanager
def replaced(seams):
    """Set ``module.attr = value`` for each (module, attr, value) seam,
    restoring the originals on exit."""
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in seams]
    for mod, attr, value in seams:
        setattr(mod, attr, value)
    try:
        yield
    finally:
        for mod, attr, original in saved:
            setattr(mod, attr, original)
