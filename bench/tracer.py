"""In-memory span tracer for the per-layer metrics.

Each public function is wrapped at the name its caller looks it up by: a
module that does ``from .drift import stabilize`` calls its own global
``stabilize``, so the wrapper must replace ``montecarlo.stabilize``, not
``drift.stabilize``.  Every span knows its layer; a layer's self time is
its spans' duration minus the part covered by child spans.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import Counter
from contextlib import contextmanager

import udiscrim.cli
import udiscrim.detection
import udiscrim.drift
import udiscrim.montecarlo
import udiscrim.network
import udiscrim.output
import udiscrim.sweeps

# (module, attribute, layer, span name).  click_matrix gets a layer of its
# own so that montecarlo's self time is run_experiment minus click_matrix,
# evolve and stabilize.
WRAPPED = (
    (udiscrim.cli, "main", "cli", "cli.main"),
    (udiscrim.cli, "nstate_report", "sweeps", "sweeps.nstate_report"),
    (udiscrim.sweeps, "ring_programs", "sweeps", "sweeps.ring_programs"),
    (udiscrim.sweeps, "run_experiment", "montecarlo", "montecarlo.run_experiment"),
    (udiscrim.montecarlo, "run_experiment", "montecarlo", "montecarlo.run_experiment"),
    (udiscrim.montecarlo, "click_matrix", "click_matrix", "montecarlo.click_matrix"),
    (udiscrim.montecarlo, "port_contributions", "network", "network.port_contributions"),
    (udiscrim.montecarlo, "nstate_port_contributions", "network", "network.port_contributions"),
    (udiscrim.montecarlo, "port_mean_photons", "detection", "detection.port_mean_photons"),
    (udiscrim.montecarlo, "click_probability", "detection", "detection.click_probability"),
    (udiscrim.drift, "click_probability", "detection", "detection.click_probability"),
    (udiscrim.sweeps, "analytic_nstate_success", "detection", "detection.analytic"),
    (udiscrim.network, "bs_transform", "optics", "optics.bs_transform"),
    (udiscrim.network, "apply_phase", "optics", "optics.apply_phase"),
    (udiscrim.montecarlo, "intensity", "optics", "optics.intensity"),
    (udiscrim.detection, "intensity", "optics", "optics.intensity"),
    (udiscrim.montecarlo, "evolve", "drift", "drift.evolve"),
    (udiscrim.montecarlo, "stabilize", "drift", "drift.stabilize"),
    (udiscrim.cli, "emit", "output", "output.emit"),
    (udiscrim.output, "write_csv", "output", "output.write_csv"),
    (udiscrim.output, "write_svg", "output", "output.write_svg"),
)

class Tracer:
    """Collects per-layer self time, per-span totals and call counts.

    While ``keep_spans`` is on, every finished span is also kept as
    ``(name, span_id, parent_id, start_ns, duration_ns)``.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._undo: list[tuple[object, str, object]] = []
        self.keep_spans = True
        self.spans: list[tuple[str, int, int, int, int]] = []
        self.reset()

    def reset(self) -> None:
        self.self_ns: Counter[str] = Counter()
        self.total_ns: Counter[str] = Counter()
        self.calls: Counter[str] = Counter()
        self.bytes_written = 0

    def _wrap(self, func, layer: str, name: str):
        tracer = self
        local = self._local
        lock = self._lock
        ids = self._ids
        clock = time.perf_counter_ns
        counts_bytes = name in ("output.write_csv", "output.write_svg")

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            frame = [0, next(ids)]  # child nanoseconds, span id
            parent = stack[-1][1] if stack else -1
            stack.append(frame)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                with lock:
                    tracer.self_ns[layer] += dur - frame[0]
                    tracer.total_ns[name] += dur
                    tracer.calls[name] += 1
                    if tracer.keep_spans:
                        tracer.spans.append((name, frame[1], parent, start, dur))
            if counts_bytes:
                with lock:
                    tracer.bytes_written += result.stat().st_size
            return result

        traced.__wrapped__ = func
        traced.__name__ = getattr(func, "__name__", name)
        return traced

    def self_s(self, layer: str) -> float:
        return self.self_ns[layer] * 1e-9

    def total_s(self, name: str) -> float:
        return self.total_ns[name] * 1e-9

    @contextmanager
    def installed(self):
        """Wrap every name in ``WRAPPED`` for the duration of the block."""
        wrapped: dict[int, object] = {}
        try:
            for module, attr, layer, name in WRAPPED:
                func = getattr(module, attr)
                # One wrapper per function object, so a function exported
                # under two names is not traced twice when one calls the other.
                if id(func) not in wrapped:
                    wrapped[id(func)] = self._wrap(func, layer, name)
                self._undo.append((module, attr, func))
                setattr(module, attr, wrapped[id(func)])
            yield self
        finally:
            while self._undo:
                module, attr, func = self._undo.pop()
                setattr(module, attr, func)
