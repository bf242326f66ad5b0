"""Command-line front end: scenario presets that regenerate the
discrimination curves as CSV tables or standalone SVG charts.

Exit codes: 0 success, 2 usage error, 3 I/O error, 4 runtime invariant
violation.  A plain-text ``key=value`` file passed with ``--config``
supplies defaults; explicit command-line flags win.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .montecarlo import InvariantViolation
from .output import emit
from .sweeps import (
    MAX_STATES,
    ScenarioParams,
    SweepSpec,
    Table,
    nstate_report,
    sweep_intensity,
    sweep_phase,
    sweep_ratio,
)

_FIG3_INTENSITIES = (0.25, 0.5, 1.0)

_X_LABELS = {
    "sweep-phase": "phase difference (deg)",
    "sweep-intensity": "mean photons per pulse",
    "sweep-ratio": "intensity ratio",
    "nstate": "hypothesis",
}

_TRUE_WORDS = {"1", "true", "yes", "on"}
_FALSE_WORDS = {"0", "false", "no", "off"}


class _UsageError(Exception):
    pass


def _amplitude(text: str) -> tuple[float, float]:
    """Parse ``n:deg`` into (mean photons per pulse, phase in degrees)."""
    try:
        n_text, _, deg_text = str(text).partition(":")
        n = float(n_text)
        deg = float(deg_text) if deg_text else 0.0
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected N:DEG, got {text!r}") from exc
    if n < 0.0:
        raise argparse.ArgumentTypeError(f"mean photon number must be >= 0, got {n}")
    return n, deg


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--t0", type=float, default=0.5, help="input splitter transmittance")
    sp.add_argument("--eta1", type=float, default=0.53, help="detector 1 quantum efficiency")
    sp.add_argument("--eta2", type=float, default=0.53, help="detector 2 quantum efficiency")
    sp.add_argument("--dark", type=float, default=4e-7, help="mean dark counts per window")
    sp.add_argument("--vis1", type=float, default=0.98, help="loop 1 fringe visibility")
    sp.add_argument("--vis2", type=float, default=0.98, help="loop 2 fringe visibility")
    sp.add_argument("--alpha1", type=_amplitude, default=None, metavar="N:DEG",
                    help="program state 1 as mean-photons:phase-degrees")
    sp.add_argument("--alpha2", type=_amplitude, default=None, metavar="N:DEG",
                    help="program state 2 as mean-photons:phase-degrees")
    sp.add_argument("--trials", type=int, default=100_000, help="trials per block")
    sp.add_argument("--blocks", type=int, default=10, help="measurement blocks")
    sp.add_argument("--seed", type=int, default=1, help="experiment seed")
    sp.add_argument("--out", type=Path, default=None, help="output file path")
    sp.add_argument("--format", choices=("csv", "svg"), default="csv")
    sp.add_argument("--drift-sigma", type=float, default=0.0,
                    help="phase drift in rad per sqrt(block)")
    sp.add_argument("--stabilize", action="store_true",
                    help="run the active phase lock between blocks")
    sp.add_argument("--workers", type=int, default=1, help="trial-sharding threads")


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="udiscrim",
        description="Programmable unambiguous discriminator of coherent states: "
        "Monte Carlo sweeps and analytic curve tables.",
    )
    parser.add_argument("--config", type=Path, default=None,
                        help="key=value file with flag defaults")
    sub = parser.add_subparsers(dest="command", required=True)
    commands: dict[str, argparse.ArgumentParser] = {}

    sp = sub.add_parser("sweep-phase", help="fractions vs phase difference")
    _add_common(sp)
    sp.add_argument("--start", type=float, default=0.0, help="first phase (deg)")
    sp.add_argument("--stop", type=float, default=360.0, help="last phase (deg)")
    sp.add_argument("--points", type=int, default=25)
    commands["sweep-phase"] = sp

    sp = sub.add_parser("sweep-intensity", help="conclusive fraction vs pulse intensity")
    _add_common(sp)
    sp.add_argument("--start", type=float, default=0.0, help="first mean photon number")
    sp.add_argument("--stop", type=float, default=3.0, help="last mean photon number")
    sp.add_argument("--points", type=int, default=25)
    commands["sweep-intensity"] = sp

    sp = sub.add_parser("sweep-ratio", help="conclusive fraction vs intensity ratio")
    _add_common(sp)
    sp.add_argument("--start", type=float, default=0.0, help="first ratio")
    sp.add_argument("--stop", type=float, default=4.0, help="last ratio")
    sp.add_argument("--points", type=int, default=21)
    commands["sweep-ratio"] = sp

    sp = sub.add_parser("nstate", help="per-hypothesis report for n program states")
    _add_common(sp)
    sp.add_argument("--n", type=int, default=3, help="number of program states")
    commands["nstate"] = sp

    return parser, commands


def _read_config(path: Path) -> dict[str, object]:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise _UsageError(f"cannot read config file: {exc}") from exc
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise _UsageError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _apply_config(
    commands: dict[str, argparse.ArgumentParser],
    overrides: dict[str, object],
) -> None:
    """Turn config strings into typed defaults on every subcommand."""
    seen: set[str] = set()
    for sp in commands.values():
        typed: dict[str, object] = {}
        for action in sp._actions:  # noqa: SLF001 - argparse has no public action list
            if action.dest not in overrides:
                continue
            seen.add(action.dest)
            raw = overrides[action.dest]
            if isinstance(action, (argparse._StoreTrueAction, argparse._StoreFalseAction)):  # noqa: SLF001
                low = str(raw).lower()
                if low in _TRUE_WORDS:
                    typed[action.dest] = True
                elif low in _FALSE_WORDS:
                    typed[action.dest] = False
                else:
                    raise _UsageError(f"{action.dest} wants true/false, got {raw!r}")
            elif action.type is not None:
                typed[action.dest] = action.type(raw)
            else:
                typed[action.dest] = raw
        sp.set_defaults(**typed)
    unknown = set(overrides) - seen
    if unknown:
        raise _UsageError(f"unknown config keys: {', '.join(sorted(unknown))}")


def _params_from(args: argparse.Namespace) -> ScenarioParams:
    alpha1 = args.alpha1 if args.alpha1 is not None else (1.0, 0.0)
    alpha2 = args.alpha2 if args.alpha2 is not None else (alpha1[0], alpha1[1] + 180.0)
    return ScenarioParams(
        t0=args.t0,
        eta1=args.eta1,
        eta2=args.eta2,
        dark=args.dark,
        vis1=args.vis1,
        vis2=args.vis2,
        intensity1=alpha1[0],
        phase1_deg=alpha1[1],
        intensity2=alpha2[0],
        phase2_deg=alpha2[1],
        trials=args.trials,
        blocks=args.blocks,
        seed=args.seed,
        drift_sigma=args.drift_sigma,
        stabilize=args.stabilize,
    )


def _build_tables(args: argparse.Namespace) -> list[Table]:
    if args.command == "sweep-phase":
        spec = SweepSpec("phase_difference", args.start, args.stop, args.points)
        if args.alpha1 is None and args.alpha2 is None:
            # Representative weak-pulse intensities when none are requested.
            tables = []
            for intensity in _FIG3_INTENSITIES:
                params = dataclasses.replace(
                    _params_from(args), intensity1=intensity, intensity2=intensity
                )
                table = sweep_phase(spec, params, args.workers)
                tables.append(Table(f"{table.name}_I{intensity:g}", table.columns, table.rows))
            return tables
        return [sweep_phase(spec, _params_from(args), args.workers)]
    if args.command == "sweep-intensity":
        spec = SweepSpec("intensity", args.start, args.stop, args.points)
        return [sweep_intensity(spec, _params_from(args), args.workers)]
    if args.command == "sweep-ratio":
        spec = SweepSpec("intensity_ratio", args.start, args.stop, args.points)
        params = _params_from(args)
        if args.alpha1 is None:
            # Reference first-state intensity of 1.33 photons per pulse.
            params = dataclasses.replace(params, intensity1=1.33)
        return [sweep_ratio(spec, params, args.workers)]
    if args.command == "nstate":
        if not 2 <= args.n <= MAX_STATES:
            raise _UsageError(f"--n must lie in [2, {MAX_STATES}], got {args.n}")
        return [nstate_report(args.n, _params_from(args), args.workers)]
    raise _UsageError(f"unknown command {args.command!r}")


def _output_paths(tables: list[Table], out: Path | None, fmt: str, command: str) -> list[Path]:
    base = out if out is not None else Path(f"{command.replace('-', '_')}.{fmt}")
    if len(tables) == 1:
        return [base]
    return [
        base.with_name(f"{base.stem}_{t.name.rsplit('_', 1)[-1]}{base.suffix}")
        for t in tables
    ]


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, commands = build_parser()
    try:
        config_path = _pre_scan_config(argv)
        if config_path is not None:
            _apply_config(commands, _read_config(config_path))
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return int(exc.code) if exc.code else 0
        if args.trials < 1 or args.blocks < 1:
            raise _UsageError("--trials and --blocks must be >= 1")
        if args.workers < 1:
            raise _UsageError("--workers must be >= 1")
        tables = _build_tables(args)
    except (_UsageError, ValueError, argparse.ArgumentTypeError) as exc:
        print(f"udiscrim: error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"udiscrim: invariant violation: {exc}", file=sys.stderr)
        return 4
    try:
        paths = _output_paths(tables, args.out, args.format, args.command)
        for table, path in zip(tables, paths, strict=True):
            emit(table, path, args.format, x_label=_X_LABELS[args.command])
            print(path)
    except OSError as exc:
        print(f"udiscrim: i/o error: {exc}", file=sys.stderr)
        return 3
    except InvariantViolation as exc:
        print(f"udiscrim: invariant violation: {exc}", file=sys.stderr)
        return 4
    return 0


def _pre_scan_config(argv: list[str]) -> Path | None:
    """Find --config without a full parse so its defaults can be installed
    before the subcommand parses."""
    for i, token in enumerate(argv):
        if token == "--config":
            if i + 1 >= len(argv):
                raise _UsageError("--config expects a file path")
            return Path(argv[i + 1])
        if token.startswith("--config="):
            return Path(token.split("=", 1)[1])
    return None


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
