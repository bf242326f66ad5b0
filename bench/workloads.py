"""Workload process of the udiscrim benchmark.

Started by ``run.py`` in a fresh interpreter with ``PYTHONPATH=src``.  It
repeats whole rounds of one workload until the time is up, then checks
every round's outputs against the closed-form law in ``oracle.py`` and
writes one JSON record.  Round ``r`` of seed ``s`` always draws the same
inputs, so a traced and an untraced pass over the same rounds must give
identical outcome counts.

    PYTHONPATH=src python3 bench/workloads.py --workload nstate8-mixed \
        --seed 1 --seconds 10 --trace 0 --out result.json
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import udiscrim.cli
import udiscrim.montecarlo
import udiscrim.output
import udiscrim.sweeps
from udiscrim import (
    DetectorModel,
    ExperimentConfig,
    InterferenceModel,
    NStatePlan,
    StabilizerConfig,
    Table,
    ring_programs,
)

import oracle

ETA = 0.53
DARK = 4e-7
VIS = 0.98


@dataclass
class Experiment:
    cfg: object
    counts: object
    block_trials: int
    phase_history: np.ndarray
    probe_pulses: int
    seconds: float


@dataclass
class Round:
    index: int
    params: dict
    wall_s: float = 0.0
    ok: bool = True
    experiments: list[Experiment] = field(default_factory=list)
    files: dict[str, bytes] = field(default_factory=dict)
    # Margins the checks saw, for the record: worst |z|, lock residual share.
    margins: dict[str, float] = field(default_factory=dict)

    def digest(self) -> str:
        h = hashlib.sha256()
        for e in self.experiments:
            c = e.counts
            h.update(repr((c.c_plus, c.c_minus, c.double_clicks, c.no_clicks, c.c_tot)).encode())
        for name in sorted(self.files):
            h.update(name.encode())
            h.update(self.files[name])
        return h.hexdigest()


class Recorder:
    """Thin timer around ``run_experiment`` at the names its callers use:
    ``sweeps.run_experiment`` for the CLI and ``montecarlo.run_experiment``
    for library calls."""

    def __init__(self) -> None:
        self.sink: list[Experiment] = []
        original = udiscrim.montecarlo.run_experiment

        def recorded(cfg, workers=1):
            start = time.perf_counter()
            res = original(cfg, workers)
            elapsed = time.perf_counter() - start
            self.sink.append(
                Experiment(
                    cfg,
                    res.counts,
                    sum(c.c_tot for c in res.block_counts),
                    res.phase_history,
                    res.probe_pulses,
                    elapsed,
                )
            )
            return res

        udiscrim.sweeps.run_experiment = recorded
        udiscrim.montecarlo.run_experiment = recorded


def _round_rng(seed: int, r: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, r)))


# --- nstate8-mixed: library calls, 8-state ring, uniform priors ----------

MIXED_N = 8
MIXED_EXPERIMENTS = 4
MIXED_TRIALS = 1 << 18
MIXED_BLOCKS = 4
MIXED_WORKERS = 2


def mixed_params(rng: np.random.Generator) -> dict:
    return {
        "experiments": [
            {
                "intensity": float(rng.uniform(6.0, 14.0)),
                "phase_deg": float(rng.uniform(0.0, 360.0)),
                "seed": int(rng.integers(1, 2**31)),
            }
            for _ in range(MIXED_EXPERIMENTS)
        ]
    }


MIXED_COLUMNS = ("experiment", "k", "p_plus", "p_minus", "se_p_plus", "se_p_minus")


def mixed_round(rnd: Round, out_dir: Path) -> bool:
    """The library calls, then one CSV table of every hypothesis's
    fractions, as a notebook user would save them."""
    rows = []
    for i, e in enumerate(rnd.params["experiments"]):
        cfg = ExperimentConfig(
            programs=ring_programs(MIXED_N, e["intensity"], e["phase_deg"]),
            plan=NStatePlan(MIXED_N),
            detectors=(DetectorModel(ETA, DARK),),
            interference=(InterferenceModel(VIS),),
            trials_per_block=MIXED_TRIALS,
            blocks=MIXED_BLOCKS,
            seed=e["seed"],
        )
        f = udiscrim.montecarlo.run_experiment(cfg, MIXED_WORKERS).fractions
        rows += [
            (i, k, float(f.p_plus[k]), float(f.p_minus[k]),
             float(f.se_p_plus[k]), float(f.se_p_minus[k]))
            for k in range(MIXED_N)
        ]
    path = udiscrim.output.write_csv(Table("nstate8_mixed", MIXED_COLUMNS, tuple(rows)),
                                     out_dir / "mixed.csv")
    rnd.files[path.name] = path.read_bytes()
    return True


def mixed_check(rnd: Round) -> list[str]:
    """Uniform priors, and the CSV's fractions equal the recorded counts."""
    problems = []
    rows = list(csv.DictReader(rnd.files["mixed.csv"].decode("ascii").splitlines()))
    if len(rows) != MIXED_EXPERIMENTS * MIXED_N:
        return [f"CSV has {len(rows)} rows, expected {MIXED_EXPERIMENTS * MIXED_N}"]
    for i, e in enumerate(rnd.experiments):
        if any(abs(q - 1.0 / MIXED_N) > 1e-15 for q in e.cfg.priors):
            problems.append(f"priors not uniform: {e.cfg.priors}")
        for k in range(MIXED_N):
            row = rows[i * MIXED_N + k]
            if (float(row["p_plus"]), float(row["p_minus"])) != (
                e.counts.c_plus[k] / e.counts.c_tot, e.counts.c_minus[k] / e.counts.c_tot
            ):
                problems.append(f"CSV row {i}/{k} differs from the counts")
    return problems


# --- locked-drift: CLI nstate --n 8 with drift and the lock, SVG out -----

LOCKED_N = 8
LOCKED_TRIALS = 2000
LOCKED_BLOCKS = 40
LOCKED_SIGMA = 0.05
LOCKED_WORKERS = 2
# The lock must hold the RMS phase residual under this share of the free
# walk's sigma * sqrt(blocks).
LOCK_RMS_SHARE = 1.0 / 3.0
# Probe pulses per dither point of the CLI's stabilizer (its default).
LOCK_PROBE_TRIALS = StabilizerConfig().probe_trials


def locked_params(rng: np.random.Generator) -> dict:
    return {
        "seed": int(rng.integers(1, 2**31)),
        "intensity": float(rng.uniform(8.0, 14.0)),
        "phase_deg": float(rng.uniform(0.0, 360.0)),
    }


def locked_round(rnd: Round, out_dir: Path) -> bool:
    p = rnd.params
    path = out_dir / "nstate.svg"
    ok = udiscrim.cli.main([
        "nstate", "--n", str(LOCKED_N),
        "--alpha1", f"{p['intensity']!r}:{p['phase_deg']!r}",
        "--trials", str(LOCKED_TRIALS), "--blocks", str(LOCKED_BLOCKS),
        "--drift-sigma", repr(LOCKED_SIGMA), "--stabilize",
        "--workers", str(LOCKED_WORKERS), "--format", "svg",
        "--seed", str(p["seed"]), "--out", str(path),
    ]) == 0
    rnd.files[path.name] = path.read_bytes() if path.exists() else b""
    return ok


def locked_check(rnd: Round) -> list[str]:
    problems = []
    p = rnd.params
    want = ring_programs(LOCKED_N, p["intensity"], p["phase_deg"])
    free_walk = LOCKED_SIGMA * math.sqrt(LOCKED_BLOCKS)
    for k, e in enumerate(rnd.experiments):
        if e.cfg.programs != want or e.cfg.priors != tuple(float(j == k) for j in range(LOCKED_N)):
            problems.append(f"experiment {k}: programs or priors differ from the CLI inputs")
        if len(e.phase_history) != LOCKED_BLOCKS:
            problems.append(f"experiment {k}: {len(e.phase_history)} phase rows")
        rms = float(np.sqrt(np.mean(np.square(e.phase_history))))
        rnd.margins["lock_rms_share"] = max(rnd.margins.get("lock_rms_share", 0.0), rms / free_walk)
        if rms > LOCK_RMS_SHARE * free_walk:
            problems.append(f"experiment {k}: lock residual {rms:.4f} rad vs free walk {free_walk:.4f}")
        if e.probe_pulses != 2 * LOCK_PROBE_TRIALS * LOCKED_N * LOCKED_BLOCKS:
            problems.append(f"experiment {k}: {e.probe_pulses} probe pulses")
    svg = rnd.files["nstate.svg"]
    if not (svg.startswith(b"<svg") and svg.endswith(b"</svg>\n")):
        problems.append("SVG is not a complete document")
    elif svg.count(b"<circle") != 2 * (LOCKED_N + 1):
        problems.append(f"SVG has {svg.count(b'<circle')} markers, expected {2 * (LOCKED_N + 1)}")
    return problems


WORKLOADS = {
    "nstate8-mixed": (mixed_params, mixed_round, mixed_check, MIXED_EXPERIMENTS),
    "locked-drift": (locked_params, locked_round, locked_check, LOCKED_N),
}


def common_check(rnd: Round, per_round: int) -> list[str]:
    """Checks every workload shares: each experiment's pooled counts
    partition its trials and match the law evaluated per block on its
    recorded phase history."""
    problems = []
    if len(rnd.experiments) != per_round:
        problems.append(f"{len(rnd.experiments)} experiments, expected {per_round}")
    for k, e in enumerate(rnd.experiments):
        c = e.counts
        total = sum(c.c_plus) + sum(c.c_minus) + c.double_clicks + c.no_clicks
        if not (total == c.c_tot == e.block_trials == e.cfg.total_trials):
            problems.append(f"experiment {k}: counts do not partition {e.cfg.total_trials} trials")
        z = oracle.worst_z(e.cfg, c, e.phase_history)
        rnd.margins["worst_z"] = max(rnd.margins.get("worst_z", 0.0), z)
        if z > oracle.Z_BOUND:
            problems.append(f"experiment {k}: worst |z| {z:.2f} > {oracle.Z_BOUND}")
    return problems


def run_rounds(name: str, seed: int, seconds: float, out_dir: Path, recorder: Recorder,
               on_round=None) -> list[Round]:
    """Whole rounds 0, 1, ... until ``seconds`` have passed."""
    make_params, run_round, _, _ = WORKLOADS[name]
    rounds = []
    began = time.perf_counter()
    while not rounds or time.perf_counter() - began < seconds:
        rnd = Round(len(rounds), make_params(_round_rng(seed, len(rounds))))
        recorder.sink = rnd.experiments
        start = time.perf_counter()
        try:
            rnd.ok = run_round(rnd, out_dir)
        except Exception as exc:  # noqa: BLE001 - a failed round is counted, not fatal
            print(f"round {rnd.index} failed: {exc!r}", file=sys.stderr)
            rnd.ok = False
        rnd.wall_s = time.perf_counter() - start
        if on_round is not None:
            on_round(rnd)
        rounds.append(rnd)
    return rounds


def check_rounds(name: str, rounds: list[Round]) -> list[str]:
    _, _, check, per_round = WORKLOADS[name]
    problems = []
    for rnd in rounds:
        if rnd.ok:
            problems += [f"round {rnd.index}: {p}" for p in common_check(rnd, per_round) + check(rnd)]
    return problems


def end_to_end(rounds: list[Round]) -> dict:
    done = [r for r in rounds if r.ok]
    walls = [r.wall_s for r in done]
    trials = [sum(e.cfg.total_trials for e in r.experiments) for r in done]
    latencies = [e.seconds for r in done for e in r.experiments]
    return {
        "wall_s": statistics.median(walls),
        "mtrials_per_s": statistics.median(t / w / 1e6 for t, w in zip(trials, walls)),
        "experiment_ms_p50": statistics.median(latencies) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer, rnd: Round) -> dict:
    """Per-layer figures of one traced round."""
    t = tracer
    trials = sum(e.cfg.total_trials for e in rnd.experiments)
    probes = sum(e.probe_pulses for e in rnd.experiments)
    cm_calls = t.calls["montecarlo.click_matrix"]
    return {
        "cli.self_s": t.self_s("cli"),
        "sweeps.self_s": t.self_s("sweeps"),
        "sweeps.experiments": t.calls["montecarlo.run_experiment"] if t.calls["cli.main"] else 0,
        "montecarlo.self_s": t.self_s("montecarlo"),
        "montecarlo.ns_per_trial": t.self_s("montecarlo") / trials * 1e9,
        "montecarlo.trials": trials,
        "montecarlo.blocks": sum(e.cfg.blocks for e in rnd.experiments),
        "montecarlo.click_matrix_s": t.total_s("montecarlo.click_matrix"),
        "montecarlo.click_matrix_us": t.total_s("montecarlo.click_matrix") / max(cm_calls, 1) * 1e6,
        "network.self_s": t.self_s("network"),
        "network.port_contributions_calls": t.calls["network.port_contributions"],
        "optics.self_s": t.self_s("optics"),
        "optics.bs_transform_calls": t.calls["optics.bs_transform"],
        "detection.self_s": t.self_s("detection"),
        "detection.click_probability_calls": t.calls["detection.click_probability"],
        "drift.evolve_s": t.total_s("drift.evolve"),
        "drift.stabilize_s": t.total_s("drift.stabilize"),
        "drift.stabilize_calls": t.calls["drift.stabilize"],
        "drift.probe_pulses": probes,
        "drift.probe_per_trial": probes / trials,
        "output.csv_s": t.total_s("output.write_csv"),
        "output.svg_s": t.total_s("output.write_svg"),
        "output.bytes": t.bytes_written,
    }


def _median(values: list):
    """Median; counts stay whole numbers (they repeat in every round)."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, required=True, help="result JSON path")
    args = ap.parse_args()
    out_dir = args.out.parent
    out_dir.mkdir(parents=True, exist_ok=True)
    recorder = Recorder()
    _, _, _, per_round = WORKLOADS[args.workload]

    if not args.trace:
        rounds = run_rounds(args.workload, args.seed, args.seconds, out_dir, recorder)
        record = {"metrics": end_to_end(rounds)}
    else:
        # Untraced and traced passes over the same rounds share the time.
        from tracer import Tracer

        rounds = run_rounds(args.workload, args.seed, args.seconds / 2, out_dir, recorder)
        tracer = Tracer()
        layer_rows = []

        def snapshot(rnd: Round) -> None:
            layer_rows.append(per_layer(tracer, rnd))
            tracer.keep_spans = False
            tracer.reset()

        with tracer.installed():
            traced = run_rounds(args.workload, args.seed, args.seconds / 2, out_dir, recorder,
                                on_round=snapshot)
        metrics = {k: _median([row[k] for row in layer_rows]) for k in layer_rows[0]}
        metrics["trace.overhead_s"] = (
            statistics.median(r.wall_s for r in traced) - statistics.median(r.wall_s for r in rounds)
        )
        mismatched = [
            r.index for r, u in zip(traced, rounds) if r.ok and u.ok and r.digest() != u.digest()
        ]
        record = {"metrics": metrics, "trace_mismatch": mismatched}
        (out_dir / "trace.json").write_text(json.dumps({"spans": tracer.spans}))
        rounds = rounds + traced

    problems = check_rounds(args.workload, rounds)
    if args.trace and record["trace_mismatch"]:
        problems.append(f"traced rounds {record['trace_mismatch']} differ from untraced outcomes")
    record.update(
        attempted=per_round * len(rounds),
        failed=per_round * sum(not r.ok for r in rounds),
        problems=problems,
        rounds=len(rounds),
        digests=[r.digest() for r in rounds],
        round_walls=[r.wall_s for r in rounds],
        experiment_s=[e.seconds for r in rounds for e in r.experiments],
        margins={k: max(r.margins.get(k, 0.0) for r in rounds) for k in ("worst_z", "lock_rms_share")},
    )
    args.out.write_text(json.dumps(record, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
