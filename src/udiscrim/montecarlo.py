"""Per-pulse Monte Carlo engine.

Every trial is one triggered laser pulse: a true hypothesis is drawn from
the priors, the detector-port mean photon numbers follow from the network
(with the current block's phase errors), independent clicks are sampled
and the exclusion classifier labels the outcome.  Trials are grouped into
blocks; drift and stabilization act between blocks.  The phases come only
from the drift and lock streams, never from the counts, so a run computes
its whole phase history first and then tallies the blocks in order.

Randomness is counter based: trial ``i`` owns a fixed window of a Philox
stream keyed by the experiment seed, so the outcome of a trial depends
only on (config, seed, trial index).  Sharding the trial range over any
number of workers cannot change a single result, and a one-worker mode
reproduces the parallel output exactly.

The first draw u of a trial picks the truth, the number of prior-CDF
entries <= u (``searchsorted(cdf, u, side="right")``).  One rule decides
it: [0, 1) is cut into ``2**_TRUTH_BITS`` equal buckets and a table holds
the truth that every draw of a bucket picks; ``u * 2**_TRUTH_BITS`` is
exact, so its floor indexes the table.  A bucket with a CDF entry strictly
inside (at most n - 1 of them) holds -1 and its draws are searched, so
every truth is the search's and ``run_trial`` replays it with the plain
search.  A table whose buckets all hold one k is a constant truth: no
truth is looked up, but the draw is still consumed, so the stream layout
does not depend on the priors.  A slice of trials (see below) is then
tallied in one pass: the 0/1 rows of hypotheses that no click excluded,
times a weight vector, give exact integers that a lookup table turns into
a class (the lone survivor's index, no click, or ambiguous), and one
``bincount`` over ``truth * (n + 2) + class`` yields every count.  With a
constant truth every trial compares against the same row, so the compare
is written transposed, as n rows of slice length.

A block is cut into at most ``_CHUNK``-trial chunks of equal size, which
worker threads share.  Each chunk is drawn and tallied in consecutive
slices of about ``_SLICE_DRAWS`` draws that add into one (n, n + 2) table
of counts by truth and class; they read the stream in order, so the counts
do not depend on the slice size.  A block adds its chunks' tables and
builds its ``Counts`` once; their partition check is the block invariant.
A run builds one thread-local ``_Tally``: each worker thread keeps what
no block changes, one slice-sized draw buffer and one Philox generator
with its fresh state for the run, so memory does not grow with the
block size.  Philox is counter based: restoring that state and calling
``advance``, as ``run_trial`` does, gives a fresh generator's stream.

``click_matrix`` is evaluated once per block through the network's one
per-port call, ``port_contributions``, one body for every plan: each plan
supplies the unknown's arms and its loops' splitters, which it builds once
and keeps, as the splitters keep their coefficients, so that call builds
no splitter.
"""

from __future__ import annotations

import math
import os
import sys
import threading
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial

import numpy as np

from .detection import DetectorModel, InterferenceModel, click_probability, port_mean_photons
from .drift import DriftModel, ProbeModel, StabilizerConfig, evolve, stabilize
from .network import Plan, TrialOutcome, outcome_from_clicks, port_contributions
# Never called here: an alias of port_contributions that bench/tracer.py wraps
# by name, with getattr, so the name must stay until that tracer changes.
from .network import nstate_port_contributions
from .optics import ComplexAmplitude, as_integer, as_real, as_reals, intensity

_CHUNK = 1 << 16
# Draws per slice of a chunk (393 KB; 4096 trials at n = 8).  A budget in
# draws, not trials, keeps the slice memory and the share of per-slice call
# overhead the same at every n; 4096-trial slices ran n = 2 3-10 % slower.
_SLICE_DRAWS = 12 << 12
# Philox advances its counter in blocks of four 64-bit draws.
_DRAWS_PER_COUNTER_STEP = 4
# Bits of a truth draw that index the bucket table of the prior CDF: 4096
# entries, 32 KB per thread.  16 bits (512 KB per thread) pushed an n = 8
# run past the engine's memory bounds; with uniform priors and n a power of
# two up to 4096, no CDF entry falls inside a bucket.
_TRUTH_BITS = 12

# Run-size caps, checked before anything is allocated.  A run keeps one
# Counts and one row of phases per block, and a block lists its chunks
# (~150 000 at the trials cap) before it draws; the draws themselves are
# bounded by the slice size, not by the block.
MAX_BLOCKS = 100_000
MAX_TRIALS_PER_BLOCK = 10**10
# Mean photons per program state.  Rounding lets a null port click with
# probability ~1e-19 at 1e12 photons but ~1e-11 at 1e20, and the exclusion
# law needs it far below one trial in MAX_BLOCKS * MAX_TRIALS_PER_BLOCK.
# The check allows 4 machine epsilons (relative) more: re^2 + im^2 of
# cmath.rect(sqrt(N), phi) reads up to 2 epsilons above N, so an amplitude
# built at exactly the cap would otherwise fail for about a quarter of phases.
MAX_INTENSITY = 1e12


class InvariantViolation(RuntimeError):
    """A runtime bookkeeping invariant failed; results cannot be trusted."""


def binomial_stderr(p: float, n: int) -> float:
    """Standard error of a fraction ``p`` estimated from ``n`` trials."""
    p, n = as_real("p", p, 0, 1), as_integer("n", n, 1)
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
        for j, alpha in enumerate(self.programs):
            as_real(f"programs[{j}] intensity", intensity(alpha), 0,
                    MAX_INTENSITY * (1 + 4 * sys.float_info.epsilon))
        if len(self.plan.couplings) != n:
            raise ValueError(f"plan serves {len(self.plan.couplings)} states, got {n} programs")
        object.__setattr__(self, "detectors", _broadcast(self.detectors, n, "detectors"))
        object.__setattr__(self, "interference", _broadcast(self.interference, n, "interference"))
        priors = (1.0 / n,) * n if self.priors is None else self.priors
        priors = tuple(as_reals("priors", priors, n, 0, 1))
        if abs(sum(priors) - 1.0) > 1e-9:
            raise ValueError(f"priors must sum to 1, got {sum(priors)}")
        object.__setattr__(self, "priors", priors)
        for name, hi in (("trials_per_block", MAX_TRIALS_PER_BLOCK), ("blocks", MAX_BLOCKS)):
            object.__setattr__(self, name, as_integer(name, getattr(self, name), 1, hi))
        object.__setattr__(self, "seed", as_integer("seed", self.seed, 0))

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


def click_matrix(
    cfg: ExperimentConfig,
    phase_errors: tuple[float, ...] | None = None,
) -> np.ndarray:
    """Click probabilities P[k, j]: detector j firing when state k was sent."""
    programs, plan = cfg.programs, cfg.plan
    ports = tuple(zip(cfg.interference, cfg.detectors))
    rows = []
    for alpha in programs:
        parts = port_contributions(alpha, programs, plan, phase_errors)
        rows.append([
            click_probability(port_mean_photons(u + p, intensity(u) + intensity(p), vis), det)
            for (u, p), (vis, det) in zip(parts, ports)
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


def _truth_table(cdf: np.ndarray) -> np.ndarray:
    """The truth every draw in bucket h, [h, h + 1) / 2**_TRUTH_BITS, picks.

    ``searchsorted(cdf, u, side="right")`` counts the CDF entries <= u, so
    over the bucket it runs from ``lo`` (entries <= its lower edge) to
    ``hi`` (entries below its upper edge).  They differ exactly when an
    entry lies strictly inside the bucket; that bucket holds -1.
    """
    edges = np.arange((1 << _TRUTH_BITS) + 1) / (1 << _TRUTH_BITS)
    lo = np.searchsorted(cdf, edges[:-1], side="right")
    hi = np.searchsorted(cdf, edges[1:], side="left")
    return np.where(lo == hi, lo, -1)


def _truths(table: np.ndarray, cdf: np.ndarray, u0: np.ndarray) -> np.ndarray:
    """``searchsorted(cdf, u0, side="right")``, read from the bucket table
    and searched only for the draws in a bucket that holds -1."""
    t = table[(u0 * (1 << _TRUTH_BITS)).astype(np.intp)]
    split = t < 0
    if split.any():
        t[split] = np.searchsorted(cdf, u0[split], side="right")
    return t


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


def _streams(seed: int) -> tuple[np.random.SeedSequence, np.random.Generator, np.random.Generator]:
    """The experiment seed, split once: the measurement stream's seed, then
    the drift and lock generators."""
    meas_ss, drift_ss, stab_ss = np.random.SeedSequence(seed).spawn(3)
    return meas_ss, *(np.random.Generator(np.random.Philox(ss)) for ss in (drift_ss, stab_ss))


class _Tally(threading.local):
    """One experiment's chunk kernel and the state each thread keeps for it.

    Python runs ``__init__`` once in each thread that uses the object, and
    every attribute is that thread's own: each call computes what no block
    changes, builds the thread's Philox generator and saves its fresh state.
    Buffers come with a thread's first chunk, so the thread that builds the
    object holds none it never uses.
    """

    def __init__(self, cfg: ExperimentConfig, meas_ss: np.random.SeedSequence) -> None:
        self.stride = _stride(cfg.n_states)
        self.step = max(1, _SLICE_DRAWS // self.stride)
        self.cdf = _prior_cdf(cfg.priors)
        self.truth_table = _truth_table(self.cdf)
        # Every draw picks truth k exactly when every bucket holds k; a prior
        # as small as 1e-10 can split a bucket and make the truth vary.
        lo, hi = int(self.truth_table.min()), int(self.truth_table.max())
        self.truth = lo if lo == hi >= 0 else None
        self.weights, self.classes = _class_table(cfg.n_states)
        self.gen = np.random.Generator(np.random.Philox(meas_ss))
        self.fresh = self.gen.bit_generator.state

    def _kept(self, name: str, size: int, dtype) -> np.ndarray:
        """A flat buffer of at least ``size`` items that the thread keeps."""
        if len(getattr(self, name, ())) < size:
            setattr(self, name, np.empty(size, dtype))
        return getattr(self, name)

    def tally(self, bounds: tuple[int, int], matrix: np.ndarray) -> np.ndarray:
        """The chunk's (n, n + 2) count table: row t holds what truth t gave,
        survivor j in column j, then no click, then ambiguous."""
        start, stop = bounds
        n, stride, step, truth, gen = matrix.shape[0], self.stride, self.step, self.truth, self.gen
        gen.bit_generator.state = self.fresh
        gen.bit_generator.advance(start * (stride // _DRAWS_PER_COUNTER_STEP))
        # Each thread keeps its buffers for the whole run.  Freed per chunk or
        # slice, the memory went back to the OS and was faulted in again, which
        # slowed the one-worker two-state sweeps by 15-30 %.
        size = min(step, stop - start)
        draws = self._kept("draws", size * stride, float)
        if truth is not None:
            # A constant truth compares against one row, so the compare writes
            # (n, slice) rows: much faster than the (slice, n) layout at n = 2.
            alive_t = self._kept("alive_t", n * size, bool)
            row = matrix[truth][:, None]
        table = None
        for lo in range(start, stop, step):
            m = min(step, stop - lo)
            u = gen.random(out=draws[: m * stride].reshape(m, stride))
            if truth is None:
                t = _truths(self.truth_table, self.cdf, u[:, 0])
                alive = u[:, 1 : 1 + n] >= np.take(matrix, t, axis=0)
                key = np.take(self.classes, (alive @ self.weights).astype(np.intp))
            else:
                t = truth
                alive = np.greater_equal(u[:, 1 : 1 + n].T, row, out=alive_t[: n * m].reshape(n, m))
                key = np.take(self.classes, (self.weights @ alive).astype(np.intp))
            key += t * (n + 2)
            part = np.bincount(key, minlength=n * (n + 2))
            table = part if table is None else np.add(table, part, out=table)
        return table.reshape(n, n + 2)


def run_trial(
    cfg: ExperimentConfig,
    trial_index: int,
    phase_errors: tuple[float, ...] | None = None,
) -> TrialOutcome:
    """Outcome of a single pulse, reproducing exactly what the vectorized
    engine does for the same (seed, trial index, phase errors)."""
    trial_index = as_integer("trial_index", trial_index, 0)
    n = cfg.n_states
    matrix = click_matrix(cfg, phase_errors)
    stride = _stride(n)
    bg = np.random.Philox(_streams(cfg.seed)[0])
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
    tally: Callable[[tuple[int, int], np.ndarray], np.ndarray],
    pool: ThreadPoolExecutor | None,
) -> Counts:
    """The block's counts, from the sum of its chunks' tables."""
    n = cfg.n_states
    bounds = _chunk_bounds(block_index * cfg.trials_per_block, cfg.trials_per_block)
    work = partial(tally, matrix=click_matrix(cfg, phases))
    rows = sum(map(work, bounds) if pool is None else pool.map(work, bounds)).tolist()
    counts = Counts(
        tuple(r[t] for t, r in enumerate(rows)),
        tuple(sum(r[:n]) - r[t] for t, r in enumerate(rows)),
        sum(r[n + 1] for r in rows),
        sum(r[n] for r in rows),
        cfg.trials_per_block,
    )
    counts.check()
    return counts


def fractions_from_blocks(block_counts: tuple[Counts, ...]) -> Fractions:
    """Pooled fractions with standard errors from the block-to-block spread.

    With a single block the spread is undefined and the binomial standard
    error of the pooled fraction is used instead.  Every count must lie
    below 2**53, as the run-size caps keep it, so that it converts to a
    float exactly.
    """
    if not block_counts:
        raise ValueError("block_counts is empty: fractions need at least one block")
    n = len(block_counts[0].c_plus)
    nb = len(block_counts)
    # One row per block: C_j^+, C_j^-, the inconclusive count, then C_tot.
    buckets = np.array([(*c.c_plus, *c.c_minus, c.inconclusive, c.c_tot) for c in block_counts])
    pooled = buckets.sum(axis=0)
    p = pooled[:-1] / pooled[-1]
    if nb >= 2:
        f = buckets[:, :-1] / buckets[:, -1:]
        se = f.std(axis=0, ddof=1) / math.sqrt(nb)
        # numpy sums a 1-D array pairwise but each column of a 2-D one in
        # order; the pinned bytes take the inconclusive spread as 1-D.
        se[-1] = f[:, -1].std(ddof=1) / math.sqrt(nb)
    else:
        se = np.array([binomial_stderr(q, pooled[-1]) for q in p])
    return Fractions(p[:n], p[n:-1], float(p[-1]), se[:n], se[n:-1], float(se[-1]))


def run_experiment(cfg: ExperimentConfig, workers: int = 1) -> ExperimentResult:
    """Run all blocks of one experiment.

    The phases come only from the drift and lock streams, never from the
    counts, so the whole phase history is computed first and the blocks
    are tallied after it.  ``workers`` only shards each block's trial range
    over threads; the counts are identical for every worker count.  No
    more threads start than a block has chunks or the machine has cores.
    """
    workers = as_integer("workers", workers, 1)
    meas_ss, drift_rng, stab_rng = _streams(cfg.seed)
    probes = None if cfg.stabilizer is None else _probe_models(cfg)
    phases = np.zeros(cfg.n_states)
    history = np.empty((cfg.blocks, cfg.n_states), dtype=float)
    probe_pulses = 0
    for b in range(cfg.blocks):
        if cfg.drift is not None:
            phases = evolve(phases, cfg.drift, drift_rng)
        if probes is not None:
            phases, used = stabilize(phases, cfg.stabilizer, probes, stab_rng)
            probe_pulses += used
        history[b] = phases

    tally = _Tally(cfg, meas_ss).tally
    # More threads than chunks per block or than cores would only wait.
    threads = min(workers, len(_chunk_bounds(0, cfg.trials_per_block)), os.cpu_count() or 1)
    with ThreadPoolExecutor(threads) if threads > 1 else nullcontext() as pool:
        block_counts = tuple(_run_block(cfg, b, history[b], tally, pool) for b in range(cfg.blocks))
    return ExperimentResult(
        counts=sum(block_counts[1:], block_counts[0]),
        block_counts=block_counts,
        fractions=fractions_from_blocks(block_counts),
        phase_history=history,
        probe_pulses=probe_pulses,
    )
