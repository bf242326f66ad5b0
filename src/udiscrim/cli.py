"""Command-line front end: scenario presets that regenerate the
discrimination curves as CSV tables or standalone SVG charts.

Exit codes: 0 success, 2 usage error, 3 I/O error, 4 runtime invariant
violation.  A plain-text ``key=value`` file passed with ``--config``
supplies defaults; explicit command-line flags win.  Config values are
typed and checked like the flags they stand for, after the command line
itself, so a command-line error is reported before the file is read.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import re
import sys
import warnings
from pathlib import Path
from typing import NamedTuple

from .montecarlo import InvariantViolation
from .optics import as_real
from .output import emit
from .sweeps import ScenarioParams, SweepSpec, Table
from .sweeps import nstate_report, sweep_intensity, sweep_phase, sweep_ratio  # run by name


# Flags named after ScenarioParams fields; their defaults are ScenarioParams().
_PARAM_FLAGS = {
    "t0": "input splitter transmittance",
    "eta1": "detector 1 quantum efficiency",
    "eta2": "detector 2 quantum efficiency",
    "dark": "mean dark counts per window",
    "vis1": "loop 1 fringe visibility",
    "vis2": "loop 2 fringe visibility",
    "trials": "trials per block",
    "blocks": "measurement blocks",
    "seed": "experiment seed",
    "drift_sigma": "phase drift in rad per sqrt(block)",
    "stabilize": "run the active phase lock between blocks",
}
_AMPLITUDE_FLAGS = {
    "alpha1": "program state 1 as mean-photons:phase-degrees",
    "alpha2": "program state 2 as mean-photons:phase-degrees",
}
_AMPLITUDE_PARTS = ("intensity", "phase")
_TWO_STATE_FLAGS = (*_PARAM_FLAGS, *_AMPLITUDE_FLAGS)


class _Command(NamedTuple):
    function: str  # name in this module, looked up at call time
    help: str
    x_label: str
    grid: tuple[float, float, int] | None  # --start/--stop/--points defaults; None takes --n
    flags: tuple[str, ...]  # the _PARAM_FLAGS and _AMPLITUDE_FLAGS the command reads
    # (amplitude flag, part) pairs that the sweep sets from x, ignoring the given part
    swept: tuple[tuple[str, str], ...] = ()


_COMMANDS = {
    # State 2's phase is state 1's plus x.
    "sweep-phase": _Command("sweep_phase", "fractions vs phase difference",
                            "phase difference (deg)", (0.0, 360.0, 25), _TWO_STATE_FLAGS,
                            (("alpha2", "phase"),)),
    # Both states carry x photons per pulse; their phases stay.
    "sweep-intensity": _Command("sweep_intensity", "conclusive fraction vs pulse intensity",
                                "mean photons per pulse", (0.0, 3.0, 25), _TWO_STATE_FLAGS,
                                (("alpha1", "intensity"), ("alpha2", "intensity"))),
    # The state-2 amplitude is the swept ratio times state 1's, at 180 and 0 degrees.
    "sweep-ratio": _Command("sweep_ratio", "conclusive fraction vs intensity ratio",
                            "intensity ratio", (0.0, 4.0, 21), (*_PARAM_FLAGS, "alpha1")),
    # Every port uses detector 1 and loop 1; the ring needs no input splitter.
    "nstate": _Command("nstate_report", "per-hypothesis report for n program states",
                       "hypothesis", None,
                       ("eta1", "dark", "vis1", "trials", "blocks", "seed", "drift_sigma",
                        "stabilize", "alpha1")),
}

_DEFAULTS = ScenarioParams()
_PACKAGE = Path(__file__).parent
_FORMATS = ("csv", "svg")
_FIG3_INTENSITIES = (0.25, 0.5, 1.0)
_TRUE_WORDS = ("1", "true", "yes", "on")
_FALSE_WORDS = ("0", "false", "no", "off")


def _amplitude(text: str) -> tuple[float, float | None]:
    """Parse ``n:deg`` into (mean photons per pulse, phase in degrees); the
    phase is None when ``:deg`` is left out and then means 0.  Both parts
    are checked by the library's rule, under argparse's flag name."""
    try:
        n_text, _, deg_text = str(text).partition(":")
        n = float(n_text)
        deg = float(deg_text) if deg_text else None
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected N:DEG, got {text!r}") from exc
    try:
        n = as_real("mean photon number", n, 0)
        deg = None if deg is None else as_real("phase", deg, -math.inf)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    return n, deg


def _add_common(sp: argparse.ArgumentParser, command: _Command) -> None:
    swept = dict(command.swept)
    for name in command.flags:
        flag = "--" + name.replace("_", "-")
        if name in _AMPLITUDE_FLAGS:
            text = _AMPLITUDE_FLAGS[name]
            if name in swept:
                text += f"; the sweep sets its {swept[name]} from x and ignores the given one"
            sp.add_argument(flag, type=_amplitude, metavar="N:DEG", help=text)
            continue
        default = getattr(_DEFAULTS, name)
        if isinstance(default, bool):
            sp.add_argument(flag, action="store_true", default=default, help=_PARAM_FLAGS[name])
        else:
            sp.add_argument(flag, type=type(default), default=default, help=_PARAM_FLAGS[name])
    sp.add_argument("--out", type=Path, help="output file path")
    sp.add_argument("--format", choices=_FORMATS, default=_FORMATS[0])
    sp.add_argument("--workers", type=int, default=1, help="trial-sharding threads")


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="udiscrim",
        description="Programmable unambiguous discriminator of coherent states: "
        "Monte Carlo sweeps and analytic curve tables.",
    )
    parser.add_argument("--config", type=Path, help="key=value file with flag defaults")
    sub = parser.add_subparsers(dest="command", required=True)
    commands: dict[str, argparse.ArgumentParser] = {}
    for name, command in _COMMANDS.items():
        sp = sub.add_parser(name, help=command.help)
        _add_common(sp, command)
        if command.grid is None:
            sp.add_argument("--n", type=int, default=3, help="number of program states")
        else:
            start, stop, points = command.grid
            sp.add_argument("--start", type=float, default=start, help=f"first {command.x_label}")
            sp.add_argument("--stop", type=float, default=stop, help=f"last {command.x_label}")
            sp.add_argument("--points", type=int, default=points)
        commands[name] = sp
    return parser, commands


def _read_config(path: Path) -> dict[str, str]:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read config file: {exc}") from exc
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _apply_config(commands: dict[str, argparse.ArgumentParser], config: dict[str, str],
                  run: str) -> None:
    """Install config strings as defaults of every subcommand that reads
    them, and have argparse type them there, the command ``run`` first: a
    value is checked even where a flag overrides it or only another
    subcommand reads it, and the error names the key.  argparse neither
    converts a store_true default nor checks one against ``choices``, so
    ``stabilize`` and ``format`` are settled here."""
    overrides: dict[str, object] = dict(config)
    if "stabilize" in config:
        if config["stabilize"].lower() not in _TRUE_WORDS + _FALSE_WORDS:
            raise ValueError(f"stabilize wants true/false, got {config['stabilize']!r}")
        overrides["stabilize"] = config["stabilize"].lower() in _TRUE_WORDS
    if config.get("format", _FORMATS[0]) not in _FORMATS:
        raise ValueError(f"format wants one of {', '.join(_FORMATS)}, got {config['format']!r}")
    unknown = set(overrides)
    for name, sp in sorted(commands.items(), key=lambda item: item[0] != run):
        dests = vars(sp.parse_args([]))  # every key this subcommand parses
        sp.set_defaults(**{k: v for k, v in overrides.items() if k in dests})
        unknown -= dests.keys()
        sp.exit_on_error = False
        try:
            sp.parse_args([])
        except argparse.ArgumentError as exc:
            key = exc.argument_name.lstrip("-").replace("-", "_")
            commands[run].error(f"{exc} (config key {key}, read by {name})")
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(sorted(unknown))}")


def _params_from(args: argparse.Namespace) -> ScenarioParams:
    """ScenarioParams from the flags the command has; the rest keep their
    defaults."""
    given = vars(args)
    intensity1, phase1 = given.get("alpha1") or (_DEFAULTS.intensity1, _DEFAULTS.phase1_deg)
    phase1 = 0.0 if phase1 is None else phase1
    # Without --alpha2, state 2 is state 1 turned by the default phase difference.
    turn = _DEFAULTS.phase2_deg - _DEFAULTS.phase1_deg
    intensity2, phase2 = given.get("alpha2") or (intensity1, phase1 + turn)
    return ScenarioParams(
        **{name: given[name] for name in _PARAM_FLAGS if name in given},
        intensity1=intensity1, phase1_deg=phase1,
        intensity2=intensity2, phase2_deg=0.0 if phase2 is None else phase2,
    )


def _ignored_parts(args: argparse.Namespace) -> list[str]:
    """The given amplitude parts that the command's sweep replaces."""
    return [
        f"the {part} of --{flag}"
        for flag, part in _COMMANDS[args.command].swept
        if getattr(args, flag) is not None
        and getattr(args, flag)[_AMPLITUDE_PARTS.index(part)] is not None
    ]


def _build_tables(args: argparse.Namespace) -> list[tuple[Table, Path]]:
    """Every table the command makes, each with its output path."""
    run = globals()[_COMMANDS[args.command].function]
    params = _params_from(args)
    out = args.out or Path(f"{args.command.replace('-', '_')}.{args.format}")
    if args.command == "nstate":
        return [(run(args.n, params, args.workers), out)]
    spec = SweepSpec(args.start, args.stop, args.points)
    if args.command == "sweep-phase" and args.alpha1 is None and args.alpha2 is None:
        # Representative weak-pulse intensities when none are requested.
        tagged = []
        for intensity in _FIG3_INTENSITIES:
            each = dataclasses.replace(params, intensity1=intensity, intensity2=intensity)
            table = run(spec, each, args.workers)
            tag = f"I{intensity:g}"
            named = dataclasses.replace(table, name=f"{table.name}_{tag}")
            tagged.append((named, out.with_name(f"{out.stem}_{tag}{out.suffix}")))
        return tagged
    if args.command == "sweep-ratio" and args.alpha1 is None:
        # Reference first-state intensity of 1.33 photons per pulse.
        params = dataclasses.replace(params, intensity1=1.33)
    return [(run(spec, params, args.workers), out)]


def _warning_printer(show):
    """A ``showwarning`` that prints udiscrim's own UserWarnings as
    ``udiscrim: warning:`` lines, each distinct message once, and hands
    every other warning to ``show``."""
    shown: set[str] = set()

    def showwarning(message, category, filename, *rest):
        if not (issubclass(category, UserWarning) and Path(filename).parent == _PACKAGE):
            show(message, category, filename, *rest)
        elif str(message) not in shown:
            shown.add(str(message))
            print(f"udiscrim: warning: {message}", file=sys.stderr)

    return showwarning


def main(argv: list[str] | None = None) -> int:
    parser, commands = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            _apply_config(commands, _read_config(args.config), args.command)
            args = parser.parse_args(argv)
        with warnings.catch_warnings():
            # First among the filters, so that not even -W error raises our own;
            # this module is __main__ under ``python -m udiscrim.cli``.
            warnings.filterwarnings("always", category=UserWarning,
                                    module=rf"udiscrim\.|{re.escape(__name__)}$")
            warnings.showwarning = _warning_printer(warnings.showwarning)
            ignored = _ignored_parts(args)
            if ignored:
                warnings.warn(f"{args.command} ignores {' and '.join(ignored)}")
            for table, path in _build_tables(args):
                emit(table, path, args.format, x_label=_COMMANDS[args.command].x_label)
                print(path)
    except SystemExit as exc:  # argparse has printed help or a usage error
        return int(exc.code) if exc.code else 0
    except ValueError as exc:
        print(f"udiscrim: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"udiscrim: i/o error: {exc}", file=sys.stderr)
        return 3
    except InvariantViolation as exc:
        print(f"udiscrim: invariant violation: {exc}", file=sys.stderr)
        return 4
    return 0


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
