"""Per-pulse Monte Carlo engine.

Every trial is one triggered laser pulse: a true hypothesis is drawn from
the priors, the detector-port mean photon numbers follow from the network
(with the current block's phase errors), independent clicks are sampled
and the exclusion classifier labels the outcome.  Trials are grouped into
blocks; drift and stabilization act between blocks.

Randomness is counter based: trial ``i`` owns a fixed window of a Philox
stream keyed by the experiment seed, so the outcome of a trial depends
only on (config, seed, trial index).  Sharding the trial range over any
number of workers cannot change a single result, and a one-worker mode
reproduces the parallel output exactly.

The first draw of a trial picks the truth by a search in the prior CDF.
When the CDF is 0 below some index k and at least 1 from k on, every draw
in [0, 1) picks k, so the search is skipped; the draw is still consumed,
so the stream layout does not depend on the priors.  A slice of trials
(see below) is then tallied in one pass: the 0/1 rows of hypotheses that
no click excluded, times a weight vector, give exact integers that a
lookup table turns into a class (the lone survivor's index, no click, or
ambiguous), and one ``bincount`` over ``truth * (n + 2) + class`` yields
every count.  With a constant truth every trial compares against the same
row, so the compare is written transposed, as n rows of slice length.

A block is cut into at most ``_CHUNK``-trial chunks of equal size, which
worker threads share.  Each chunk is drawn and tallied in consecutive
slices of about ``_SLICE_DRAWS`` draws that add into one table; they read
the stream in order, so the counts do not depend on the slice size.  Each
worker thread keeps, for the whole run, one slice-sized draw buffer and
one Philox generator, which every chunk moves to its first counter; so a
thread's memory does not grow with the block size, and a chunk builds no
generator of its own.

``click_matrix`` is evaluated once per block through the network's
per-port path (``port_contributions`` or ``nstate_port_contributions``);
the plans keep their splitters and the splitters their coefficients, so
that path builds no splitter per call.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .detection import DetectorModel, InterferenceModel, click_probability, port_mean_photons
from .drift import DriftModel, ProbeModel, StabilizerConfig, evolve, stabilize
from .network import (
    Plan,
    SplitterPlan,
    TrialOutcome,
    nstate_port_contributions,
    outcome_from_clicks,
    port_contributions,
)
from .optics import ComplexAmplitude, intensity

_CHUNK = 1 << 16
# Draws per slice of a chunk (393 KB; 4096 trials at n = 8).  A budget in
# draws, not trials, keeps the slice memory and the share of per-slice call
# overhead the same at every n; 4096-trial slices ran n = 2 3-10 % slower.
_SLICE_DRAWS = 12 << 12
# Philox advances its counter in blocks of four 64-bit draws.
_DRAWS_PER_COUNTER_STEP = 4
# Philox's 256-bit counter is set as four 64-bit words.
_U64 = (1 << 64) - 1

# Run-size caps, checked before anything is allocated.  A run keeps one
# Counts and one row of phases per block, and a block lists its chunks
# (~150 000 at the trials cap) before it draws; the draws themselves are
# bounded by the slice size, not by the block.
MAX_BLOCKS = 100_000
MAX_TRIALS_PER_BLOCK = 10**10


class InvariantViolation(RuntimeError):
    """A runtime bookkeeping invariant failed; results cannot be trusted."""


def binomial_stderr(p: float, n: int) -> float:
    """Standard error of a fraction ``p`` estimated from ``n`` trials."""
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"fraction must lie in [0, 1], got {p}")
    if n < 1:
        raise ValueError(f"need n >= 1 trials, got {n}")
    return math.sqrt(p * (1.0 - p) / n)


@dataclass(frozen=True)
class Counts:
    """Outcome tallies; every trial lands in exactly one bucket.

    ``double_clicks`` counts every click pattern that leaves more than one
    hypothesis alive (for two program states those are exactly the double
    clicks).
    """

    c_plus: tuple[int, ...]
    c_minus: tuple[int, ...]
    double_clicks: int
    no_clicks: int
    c_tot: int

    def __add__(self, other: "Counts") -> "Counts":
        return Counts(
            tuple(a + b for a, b in zip(self.c_plus, other.c_plus, strict=True)),
            tuple(a + b for a, b in zip(self.c_minus, other.c_minus, strict=True)),
            self.double_clicks + other.double_clicks,
            self.no_clicks + other.no_clicks,
            self.c_tot + other.c_tot,
        )

    @classmethod
    def zero(cls, n: int) -> "Counts":
        return cls((0,) * n, (0,) * n, 0, 0, 0)

    @property
    def conclusive(self) -> int:
        return sum(self.c_plus) + sum(self.c_minus)

    @property
    def inconclusive(self) -> int:
        return self.double_clicks + self.no_clicks

    def check(self) -> None:
        if self.conclusive + self.inconclusive != self.c_tot:
            raise InvariantViolation(
                f"outcome buckets sum to {self.conclusive + self.inconclusive}, expected {self.c_tot}"
            )


@dataclass(frozen=True)
class Fractions:
    """Measured fractions P_j^+ = C_j^+/C_tot etc., with block standard errors."""

    p_plus: np.ndarray
    p_minus: np.ndarray
    p_inconclusive: float
    se_p_plus: np.ndarray
    se_p_minus: np.ndarray
    se_p_inconclusive: float


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one simulated experiment needs.

    ``detectors`` and ``interference`` accept either one entry per program
    state or a single entry that applies to all of them.  Priors default
    to uniform.  Ten blocks of 1e5 trials mirror the ten-measurement
    averaging the block statistics are designed for.
    """

    programs: tuple[ComplexAmplitude, ...]
    plan: Plan
    detectors: tuple[DetectorModel, ...]
    interference: tuple[InterferenceModel, ...]
    priors: tuple[float, ...] | None = None
    trials_per_block: int = 100_000
    blocks: int = 10
    seed: int = 0
    drift: DriftModel | None = None
    stabilizer: StabilizerConfig | None = None

    def __post_init__(self) -> None:
        n = len(self.programs)
        if n < 2:
            raise ValueError("need at least two program states")
        if self.plan.n_ports != n:
            raise ValueError(f"plan serves {self.plan.n_ports} states, got {n} programs")
        object.__setattr__(self, "detectors", _broadcast(self.detectors, n, "detectors"))
        object.__setattr__(self, "interference", _broadcast(self.interference, n, "interference"))
        if self.priors is None:
            object.__setattr__(self, "priors", (1.0 / n,) * n)
        else:
            if len(self.priors) != n:
                raise ValueError(f"expected {n} priors, got {len(self.priors)}")
            # The range test is written so that NaN fails it.
            if not all(0.0 <= p <= 1.0 for p in self.priors) or abs(sum(self.priors) - 1.0) > 1e-9:
                raise ValueError("priors must be nonnegative and sum to 1")
        if self.trials_per_block < 1 or self.blocks < 1:
            raise ValueError("need at least one block of at least one trial")
        if self.blocks > MAX_BLOCKS or self.trials_per_block > MAX_TRIALS_PER_BLOCK:
            raise ValueError(
                f"need at most {MAX_BLOCKS} blocks of at most {MAX_TRIALS_PER_BLOCK} trials, "
                f"got {self.blocks} of {self.trials_per_block}"
            )

    @property
    def n_states(self) -> int:
        return len(self.programs)

    @property
    def total_trials(self) -> int:
        return self.trials_per_block * self.blocks


def _broadcast(items, n: int, what: str) -> tuple:
    items = tuple(items)
    if len(items) == 1:
        return items * n
    if len(items) != n:
        raise ValueError(f"expected 1 or {n} {what}, got {len(items)}")
    return items


@dataclass(frozen=True)
class ExperimentResult:
    counts: Counts
    block_counts: tuple[Counts, ...]
    fractions: Fractions
    phase_history: np.ndarray  # (blocks, n_states) phase error during each block
    probe_pulses: int = 0


def click_matrix(cfg: ExperimentConfig, phases) -> np.ndarray:
    """Click probabilities P[k, j]: detector j firing when state k was sent."""
    # Python floats, since np.float64 arithmetic is slow in the per-port loops.
    phases = tuple(float(p) for p in phases)
    programs, plan = cfg.programs, cfg.plan
    ports = tuple(zip(cfg.interference, cfg.detectors))
    rows = []
    for alpha in programs:
        if isinstance(plan, SplitterPlan):
            pairs = port_contributions(alpha, programs[0], programs[1], plan, phases)
        else:
            pairs = nstate_port_contributions(alpha, programs, plan, phases)
        rows.append([
            click_probability(port_mean_photons(u + p, intensity(u) + intensity(p), vis), det)
            for (u, p), (vis, det) in zip(pairs, ports)
        ])
    return np.array(rows)


def _stride(n_states: int) -> int:
    draws = 1 + n_states  # one for the hypothesis, one per detector
    steps = -(-draws // _DRAWS_PER_COUNTER_STEP)
    return steps * _DRAWS_PER_COUNTER_STEP


def _prior_cdf(priors: tuple[float, ...]) -> np.ndarray:
    cdf = np.cumsum(np.asarray(priors, dtype=float))
    cdf[-1] = 1.0
    return cdf


def _constant_truth(cdf: np.ndarray) -> int | None:
    """The truth that every draw u in [0, 1) picks, or None if it varies.

    ``searchsorted(cdf, u, side="right")`` counts the CDF entries <= u.  That
    count is k for every u exactly when the first k entries are 0 and the
    rest at least 1; a prior as small as 1e-10 makes the truth vary.
    """
    k = int(np.count_nonzero(cdf <= 0.0))
    return k if bool(np.all(cdf[k:] >= 1.0)) else None


def _class_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Weights and a lookup table that classify a trial by its survivors.

    For the 0/1 row ``alive`` of hypotheses no click excluded,
    ``alive @ weights`` is the exact integer ``count * m + index_sum``;
    ``m`` exceeds every index sum, so the integer fixes the count and, for
    a lone survivor, its index.  ``classes`` maps that integer to the
    survivor's index for one survivor, to n for no click (all n alive) and
    to n + 1 for every other pattern.
    """
    m = n * (n - 1) // 2 + 1
    weights = m + np.arange(n, dtype=float)
    classes = np.full((n + 1) * m, n + 1, dtype=np.intp)
    classes[m : m + n] = np.arange(n)
    classes[n * m + m - 1] = n
    return weights, classes


def _measurement_stream(seed: int) -> np.random.SeedSequence:
    meas, _, _ = np.random.SeedSequence(seed).spawn(3)
    return meas


def _kept(scratch: threading.local, name: str, size: int, dtype) -> np.ndarray:
    """A flat buffer of at least ``size`` items that the thread keeps."""
    buf = getattr(scratch, name, None)
    if buf is None or len(buf) < size:
        buf = np.empty(size, dtype)
        setattr(scratch, name, buf)
    return buf


def _philox_at(
    scratch: threading.local, meas_ss: np.random.SeedSequence, counter: int
) -> np.random.Generator:
    """The thread's kept measurement generator, moved to ``counter``.

    A fresh ``Philox(meas_ss)`` starts at counter 0 with an empty buffer,
    and ``advance(k)`` adds k to the counter and empties the buffer, so
    setting the counter with the buffer empty gives exactly the stream of
    a fresh generator advanced by k, without building one per chunk.
    """
    kept = getattr(scratch, "philox", None)
    if kept is None or kept[0] is not meas_ss:
        gen = np.random.Generator(np.random.Philox(meas_ss))
        kept = scratch.philox = (meas_ss, gen, gen.bit_generator.state["state"]["key"].tolist())
    _, gen, key = kept
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": [(counter >> s) & _U64 for s in (0, 64, 128, 192)], "key": key},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": _DRAWS_PER_COUNTER_STEP,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen


def _chunk_counts(
    bounds: tuple[int, int],
    matrix: np.ndarray,
    meas_ss: np.random.SeedSequence,
    cdf: np.ndarray,
    truth: int | None,
    stride: int,
    weights: np.ndarray,
    classes: np.ndarray,
    scratch: threading.local,
) -> Counts:
    start, stop = bounds
    n = matrix.shape[0]
    gen = _philox_at(scratch, meas_ss, start * (stride // _DRAWS_PER_COUNTER_STEP))
    step = max(1, _SLICE_DRAWS // stride)
    # Each thread keeps its buffers for the whole run.  Freed per chunk or
    # slice, the memory went back to the OS and was faulted in again, which
    # slowed the one-worker two-state sweeps by 15-30 %.
    size = min(step, stop - start)
    draws = _kept(scratch, "draws", size * stride, float)
    if truth is not None:
        # A constant truth compares against one row, so the compare writes
        # (n, slice) rows: much faster than the (slice, n) layout at n = 2.
        alive_t = _kept(scratch, "alive_t", n * size, bool)
        row = matrix[truth][:, None]
    table = None
    for lo in range(start, stop, step):
        m = min(step, stop - lo)
        u = gen.random(out=draws[: m * stride].reshape(m, stride))
        if truth is None:
            t = np.searchsorted(cdf, u[:, 0], side="right")
            alive = u[:, 1 : 1 + n] >= np.take(matrix, t, axis=0)
            key = np.take(classes, (alive @ weights).astype(np.intp))
        else:
            t = truth
            alive = np.greater_equal(u[:, 1 : 1 + n].T, row, out=alive_t[: n * m].reshape(n, m))
            key = np.take(classes, (weights @ alive).astype(np.intp))
        key += t * (n + 2)
        part = np.bincount(key, minlength=n * (n + 2))
        table = part if table is None else np.add(table, part, out=table)
    # Row t holds what truth t gave: survivor j in column j, then no click,
    # then ambiguous.
    rows = table.reshape(n, n + 2).tolist()
    return Counts(
        tuple(r[t] for t, r in enumerate(rows)),
        tuple(sum(r[:n]) - r[t] for t, r in enumerate(rows)),
        sum(r[n + 1] for r in rows),
        sum(r[n] for r in rows),
        stop - start,
    )


def _chunk_tally(
    cfg: ExperimentConfig, meas_ss: np.random.SeedSequence, scratch: threading.local
) -> partial:
    """``_chunk_counts`` bound to everything of ``cfg`` that no block changes;
    a block binds its click matrix."""
    cdf = _prior_cdf(cfg.priors)
    weights, classes = _class_table(cfg.n_states)
    return partial(
        _chunk_counts,
        meas_ss=meas_ss,
        cdf=cdf,
        truth=_constant_truth(cdf),
        stride=_stride(cfg.n_states),
        weights=weights,
        classes=classes,
        scratch=scratch,
    )


def run_trial(
    cfg: ExperimentConfig,
    trial_index: int,
    phase_errors=None,
) -> TrialOutcome:
    """Outcome of a single pulse, reproducing exactly what the vectorized
    engine does for the same (seed, trial index, phase errors)."""
    n = cfg.n_states
    phases = np.zeros(n) if phase_errors is None else np.asarray(phase_errors, dtype=float)
    matrix = click_matrix(cfg, phases)
    stride = _stride(n)
    bg = np.random.Philox(_measurement_stream(cfg.seed))
    bg.advance(trial_index * (stride // _DRAWS_PER_COUNTER_STEP))
    u = np.random.Generator(bg).random(stride)
    truth = int(np.searchsorted(_prior_cdf(cfg.priors), u[0], side="right"))
    clicks = tuple(bool(u[1 + j] < matrix[truth, j]) for j in range(n))
    return outcome_from_clicks(clicks, truth)


def _probe_models(cfg: ExperimentConfig) -> list[ProbeModel]:
    return [
        ProbeModel(
            coupling=c,
            program_intensity=intensity(cfg.programs[j]),
            visibility=cfg.interference[j].visibility,
            detector=cfg.detectors[j],
        )
        for j, c in enumerate(cfg.plan.couplings)
    ]


def _chunk_bounds(base: int, trials: int) -> list[tuple[int, int]]:
    """``[base, base + trials)`` cut into the fewest chunks of at most
    ``_CHUNK`` trials, their sizes differing by at most one, so that
    threads sharing a block get equal work."""
    chunks = -(-trials // _CHUNK)
    edges = [base + i * trials // chunks for i in range(chunks + 1)]
    return list(zip(edges[:-1], edges[1:]))


def _run_block(
    cfg: ExperimentConfig,
    block_index: int,
    phases,
    draw: partial,
    pool: ThreadPoolExecutor | None,
) -> Counts:
    bounds = _chunk_bounds(block_index * cfg.trials_per_block, cfg.trials_per_block)
    work = partial(draw, matrix=click_matrix(cfg, phases))
    parts = map(work, bounds) if pool is None else pool.map(work, bounds)
    total = next(parts)
    for part in parts:
        total = total + part
    total.check()
    if total.c_tot != cfg.trials_per_block:
        raise InvariantViolation(
            f"block ran {total.c_tot} trials, expected {cfg.trials_per_block}"
        )
    return total


def fractions_from_blocks(block_counts: tuple[Counts, ...]) -> Fractions:
    """Pooled fractions with standard errors from the block-to-block spread.

    With a single block the spread is undefined and the binomial standard
    error of the pooled fraction is used instead.
    """
    pooled = block_counts[0]
    for c in block_counts[1:]:
        pooled = pooled + c
    n = len(pooled.c_plus)
    p_plus = np.array([c / pooled.c_tot for c in pooled.c_plus])
    p_minus = np.array([c / pooled.c_tot for c in pooled.c_minus])
    p_inc = pooled.inconclusive / pooled.c_tot
    nb = len(block_counts)
    if nb >= 2:
        f_plus = np.array([[c.c_plus[j] / c.c_tot for j in range(n)] for c in block_counts])
        f_minus = np.array([[c.c_minus[j] / c.c_tot for j in range(n)] for c in block_counts])
        f_inc = np.array([c.inconclusive / c.c_tot for c in block_counts])
        se_plus = f_plus.std(axis=0, ddof=1) / math.sqrt(nb)
        se_minus = f_minus.std(axis=0, ddof=1) / math.sqrt(nb)
        se_inc = float(f_inc.std(ddof=1) / math.sqrt(nb))
    else:
        se_plus = np.array([binomial_stderr(p, pooled.c_tot) for p in p_plus])
        se_minus = np.array([binomial_stderr(p, pooled.c_tot) for p in p_minus])
        se_inc = binomial_stderr(p_inc, pooled.c_tot)
    return Fractions(p_plus, p_minus, p_inc, se_plus, se_minus, se_inc)


def run_experiment(cfg: ExperimentConfig, workers: int = 1) -> ExperimentResult:
    """Run all blocks of one experiment.

    ``workers`` only shards each block's trial range over threads; the
    counts are identical for every worker count.  No more threads start
    than a block has chunks or the machine has cores.
    """
    if workers < 1:
        raise ValueError(f"need workers >= 1, got {workers}")
    n = cfg.n_states
    root = np.random.SeedSequence(cfg.seed)
    meas_ss, drift_ss, stab_ss = root.spawn(3)
    drift_rng = np.random.Generator(np.random.Philox(drift_ss))
    stab_rng = np.random.Generator(np.random.Philox(stab_ss))
    probes = _probe_models(cfg) if cfg.stabilizer is not None and cfg.stabilizer.enabled else None
    draw = _chunk_tally(cfg, meas_ss, threading.local())

    phases = np.zeros(n)
    history = np.empty((cfg.blocks, n), dtype=float)
    block_counts: list[Counts] = []
    probe_pulses = 0
    # More threads than chunks per block or than cores would only wait.
    chunks = -(-cfg.trials_per_block // _CHUNK)
    threads = min(workers, chunks, os.cpu_count() or 1)
    pool = ThreadPoolExecutor(max_workers=threads) if threads > 1 else None
    try:
        for b in range(cfg.blocks):
            if cfg.drift is not None:
                phases = evolve(phases, cfg.drift, drift_rng)
            if probes is not None:
                phases, used = stabilize(phases, cfg.stabilizer, probes, stab_rng)
                probe_pulses += used
            history[b] = phases
            block_counts.append(_run_block(cfg, b, phases, draw, pool))
    finally:
        if pool is not None:
            pool.shutdown()
    pooled = Counts.zero(n)
    for c in block_counts:
        pooled = pooled + c
    pooled.check()
    return ExperimentResult(
        counts=pooled,
        block_counts=tuple(block_counts),
        fractions=fractions_from_blocks(tuple(block_counts)),
        phase_history=history,
        probe_pulses=probe_pulses,
    )
