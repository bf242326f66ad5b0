import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import udiscrim
from udiscrim import cli, sweeps
from udiscrim.montecarlo import InvariantViolation
from udiscrim.sweeps import MAX_POINTS, MAX_STATES

FAST = ["--trials", "400", "--blocks", "2", "--dark", "0", "--vis1", "1", "--vis2", "1"]
# nstate has no loop 2: every port uses loop 1's visibility.
NSTATE_FAST = ["--trials", "400", "--blocks", "2", "--dark", "0", "--vis1", "1"]


def fast(command):
    return NSTATE_FAST if command == "nstate" else FAST


def run(args):
    return cli.main([str(a) for a in args])


def read_rows(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    return [dict(zip(header, map(float, line.split(",")))) for line in lines[1:]]


class TestHappyPaths:
    def test_intensity_sweep_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "fig.csv"
        rc = run(["sweep-intensity", "--points", "3", "--out", out, *FAST])
        assert rc == 0
        assert out.exists()
        assert str(out) in capsys.readouterr().out
        rows = read_rows(out)
        assert len(rows) == 3
        assert rows[0]["analytic_p1"] == 0.0

    def test_phase_sweep_default_emits_three_intensities(self, tmp_path):
        out = tmp_path / "phase.csv"
        rc = run(["sweep-phase", "--points", "3", "--out", out, *FAST])
        assert rc == 0
        for tag in ("I0.25", "I0.5", "I1"):
            assert (tmp_path / f"phase_{tag}.csv").exists()

    def test_phase_sweep_single_with_explicit_states(self, tmp_path):
        out = tmp_path / "phase.csv"
        rc = run([
            "sweep-phase", "--points", "3", "--out", out,
            "--alpha1", "1:0", "--alpha2", "1:180", *FAST,
        ])
        assert rc == 0
        assert out.exists()

    @pytest.mark.parametrize(
        "args, ignored",
        [
            pytest.param(["sweep-phase", "--alpha2", "0.7:100"], "the phase of --alpha2",
                         id="phase-of-alpha2"),
            pytest.param(["sweep-phase", "--alpha1", "1.2:10", "--alpha2", "0.7:0"],
                         "the phase of --alpha2", id="zero-phase-of-alpha2"),
            pytest.param(["sweep-intensity", "--alpha1", "0.3:0"], "the intensity of --alpha1",
                         id="intensity-of-alpha1"),
            pytest.param(["sweep-intensity", "--alpha1", "0.3", "--alpha2", "2:90"],
                         "the intensity of --alpha1 and the intensity of --alpha2",
                         id="both-intensities"),
            # A phase left out is not given, so nothing is ignored.
            pytest.param(["sweep-phase", "--alpha2", "0.7"], None, id="alpha2-without-phase"),
            pytest.param(["sweep-phase", "--alpha1", "1.2:10"], None, id="alpha1-only"),
            pytest.param(["sweep-intensity"], None, id="no-alpha"),
        ],
    )
    def test_ignored_amplitude_part_is_named(self, tmp_path, capsys, args, ignored):
        rc = run([*args, "--points", "2", "--out", tmp_path / "x.csv", *FAST])
        assert rc == 0
        want = "" if ignored is None else f"udiscrim: warning: {args[0]} ignores {ignored}\n"
        assert capsys.readouterr().err == want

    # Under an error filter the boundary warning still comes out as a line.
    @pytest.mark.filterwarnings("error::UserWarning")
    @pytest.mark.parametrize("t0", ["0", "1"])
    def test_library_warning_is_printed_once_in_cli_form(self, tmp_path, capsys, t0):
        rc = run(["sweep-phase", "--t0", t0, "--points", "3", "--out", tmp_path / "x.csv", *FAST])
        assert rc == 0
        want = f"t0={float(t0)} leaves one detector port without signal"
        assert capsys.readouterr().err == f"udiscrim: warning: {want}\n"

    @pytest.mark.filterwarnings("error::UserWarning")
    def test_other_warnings_keep_their_filters(self, monkeypatch, tmp_path):
        def tables(_args):
            warnings.warn("not from udiscrim")
            return []

        monkeypatch.setattr(cli, "_build_tables", tables)
        with pytest.raises(UserWarning, match="not from udiscrim"):
            run(["nstate", "--n", "2", "--out", tmp_path / "x.csv", *NSTATE_FAST])

    def test_foreign_warning_reaches_the_original_printer(self, monkeypatch, tmp_path, capsys):
        shown = []

        def tables(_args):
            warnings.warn("not from udiscrim")
            return []

        monkeypatch.setattr(cli, "_build_tables", tables)
        with warnings.catch_warnings():  # restores showwarning afterwards
            warnings.simplefilter("always")
            warnings.showwarning = lambda *args: shown.append(args)
            assert run(["nstate", "--n", "2", "--out", tmp_path / "x.csv", *NSTATE_FAST]) == 0
        [(message, category, filename, *_)] = shown
        assert (str(message), category, filename) == ("not from udiscrim", UserWarning, __file__)
        assert "udiscrim: warning:" not in capsys.readouterr().err

    def test_ignored_amplitude_part_from_config_is_named(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha2=0.7:100\n")
        rc = run(["--config", cfg, "sweep-phase", "--points", "2", "--out", tmp_path / "x.csv",
                  *FAST])
        assert rc == 0
        assert "ignores the phase of --alpha2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, text",
        [
            ("sweep-phase", "--alpha2 N:DEG program state 2 as mean-photons:phase-degrees; "
                            "the sweep sets its phase from x"),
            ("sweep-intensity", "--alpha1 N:DEG program state 1 as mean-photons:phase-degrees; "
                                "the sweep sets its intensity from x"),
        ],
    )
    def test_help_says_which_part_the_sweep_sets(self, capsys, command, text):
        assert run([command, "--help"]) == 0
        assert text in " ".join(capsys.readouterr().out.split())

    def test_ratio_sweep_defaults_to_reference_intensity(self, tmp_path):
        out = tmp_path / "ratio.csv"
        rc = run(["sweep-ratio", "--points", "2", "--start", "0", "--stop", "1",
                  "--out", out, *FAST])
        assert rc == 0
        rows = read_rows(out)
        want = -math.expm1(-0.53 * 1.33 / 3.0)
        assert rows[0]["analytic_p1"] == pytest.approx(want, rel=1e-12)

    def test_nstate_report(self, tmp_path):
        out = tmp_path / "n.csv"
        rc = run(["nstate", "--n", "4", "--out", out, *NSTATE_FAST])
        assert rc == 0
        rows = read_rows(out)
        assert [row["k"] for row in rows] == [1.0, 2.0, 3.0, 4.0]

    def test_svg_output(self, tmp_path):
        out = tmp_path / "fig.svg"
        rc = run(["sweep-intensity", "--points", "3", "--format", "svg",
                  "--out", out, *FAST])
        assert rc == 0
        assert out.read_bytes().startswith(b"<svg")


class TestDeterminism:
    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sweep-ratio", "--points", "3", "--seed", "42", *FAST]
        assert run([*args, "--out", a]) == 0
        assert run([*args, "--out", b]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_workers_do_not_change_bytes(self, tmp_path):
        a, b = tmp_path / "w1.csv", tmp_path / "w8.csv"
        args = ["sweep-intensity", "--points", "3", "--seed", "7", *FAST]
        assert run([*args, "--workers", "1", "--out", a]) == 0
        assert run([*args, "--workers", "8", "--out", b]) == 0
        assert a.read_bytes() == b.read_bytes()


# A value for every flag any command reads, and a second value that must
# change the output of every command that reads the flag.  Both amplitudes
# are given, so that no change is a global phase turn, which leaves the
# bytes as they are.  With the drift on, the lock moves the phases.
BASE = {
    "t0": 0.5, "eta1": 0.53, "eta2": 0.53, "dark": 0.0, "vis1": 0.98, "vis2": 0.98,
    "trials": 200, "blocks": 2, "seed": 1, "drift_sigma": 0.2, "stabilize": False,
    "alpha1": (1.0, 10.0), "alpha2": (0.7, 200.0),
}
CHANGED = {
    "t0": 0.3, "eta1": 0.8, "eta2": 0.8, "dark": 0.05, "vis1": 0.7, "vis2": 0.7,
    "trials": 201, "blocks": 3, "seed": 2, "drift_sigma": 0.5, "stabilize": True,
}
GRIDS = {
    "sweep-phase": ["--points", "2", "--start", "60", "--stop", "150"],
    "sweep-intensity": ["--points", "2", "--start", "0.5", "--stop", "1.5"],
    "sweep-ratio": ["--points", "2", "--start", "0.5", "--stop", "1.5"],
    "nstate": ["--n", "2"],
}


def _changed_part(value, part):
    intensity, phase = value
    return (0.4, phase) if part == "intensity" else (intensity, phase + 40.0)


def _output(tmp_path, command, **changes):
    """The CSV bytes of ``command`` run with every flag it reads at its BASE
    value, except for ``changes``."""
    out = tmp_path / "out.csv"
    args = [command, *GRIDS[command], "--out", out]
    for name in cli._COMMANDS[command].flags:
        value = changes.get(name, BASE[name])
        flag = "--" + name.replace("_", "-")
        if isinstance(value, tuple):
            args += [flag, f"{value[0]}:{value[1]}"]
        elif value is True:
            args.append(flag)
        elif value is not False:
            args += [flag, value]
    assert run(args) == 0
    return out.read_bytes()


class TestEveryAcceptedFlagIsRead:
    """``_Command.flags`` is kept by hand beside the sweeps: every flag it
    lists must change the output, and every part a sweep sets must not."""

    @pytest.mark.parametrize(
        "command, flag",
        [(name, flag) for name, command in cli._COMMANDS.items() for flag in command.flags],
    )
    def test_flag_changes_the_output(self, tmp_path, command, flag):
        if flag in cli._AMPLITUDE_FLAGS:
            swept = {part for f, part in cli._COMMANDS[command].swept if f == flag}
            part = next(p for p in cli._AMPLITUDE_PARTS if p not in swept)
            changed = _changed_part(BASE[flag], part)
        else:
            changed = CHANGED[flag]
        assert _output(tmp_path, command, **{flag: changed}) != _output(tmp_path, command)

    @pytest.mark.parametrize(
        "command, flag, part",
        [(name, *swept) for name, command in cli._COMMANDS.items() for swept in command.swept],
    )
    def test_swept_part_leaves_the_output(self, tmp_path, command, flag, part):
        changed = _changed_part(BASE[flag], part)
        assert _output(tmp_path, command, **{flag: changed}) == _output(tmp_path, command)


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("t0 = 0.4\nseed = 9\n# comment\ntrials = 400\nblocks = 2\n")
        out = tmp_path / "out.csv"
        rc = run(["--config", cfg, "sweep-intensity", "--points", "2",
                  "--start", "1", "--stop", "2", "--out", out,
                  "--dark", "0", "--vis1", "1", "--vis2", "1"])
        assert rc == 0
        rows = read_rows(out)
        want = -math.expm1(-0.53 * (1 - 0.4) / (2 - 0.4) * 4.0)
        assert rows[0]["analytic_p1"] == pytest.approx(want, rel=1e-12)

    def test_command_line_beats_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("t0=0.4\ntrials=400\nblocks=2\n")
        out = tmp_path / "out.csv"
        rc = run(["--config", cfg, "sweep-intensity", "--points", "2",
                  "--start", "1", "--stop", "2", "--t0", "0.5", "--out", out,
                  "--dark", "0", "--vis1", "1", "--vis2", "1"])
        assert rc == 0
        rows = read_rows(out)
        want = -math.expm1(-0.53 * 4.0 / 3.0)
        assert rows[0]["analytic_p1"] == pytest.approx(want, rel=1e-12)

    def test_boolean_and_alpha_keys(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("stabilize=false\nalpha1=1.33:0\ntrials=400\nblocks=2\n")
        out = tmp_path / "out.csv"
        rc = run(["--config", cfg, "sweep-ratio", "--points", "2",
                  "--start", "0", "--stop", "1", "--out", out,
                  "--dark", "0", "--vis1", "1", "--vis2", "1"])
        assert rc == 0

    def test_unknown_key_is_usage_error(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("warp_speed=9\n")
        assert run(["--config", cfg, "sweep-intensity"]) == 2

    def test_missing_config_file_is_usage_error(self, tmp_path):
        assert run(["--config", tmp_path / "absent.cfg", "sweep-intensity"]) == 2

    def test_command_line_error_comes_before_the_config_file(self, tmp_path, capsys):
        assert run(["--config", tmp_path / "absent.cfg", "nstate", "--t0", "0.5"]) == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --t0 0.5" in err
        assert "config" not in err.splitlines()[-1]

    def test_config_line_without_equals_is_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        Path("bad.cfg").write_text("eta1 0.5\n")
        assert run(["--config", "bad.cfg", "nstate", "--out", "x.csv", *NSTATE_FAST]) == 2
        assert capsys.readouterr().err == (
            "udiscrim: error: bad.cfg:1: expected key=value, got 'eta1 0.5'\n")
        assert not Path("x.csv").exists()

    @pytest.mark.parametrize(
        "line, args, code, err",
        [
            ("format=pdf", ["nstate", "--n", "2"], 2, "format"),
            ("stabilize=maybe", ["nstate", "--n", "2"], 2, "stabilize"),
            ("alpha1=banana", ["nstate", "--n", "2"], 2, "N:DEG"),
            # A value is checked even where a flag overrides it (FAST sets --trials).
            ("trials=1e5", ["nstate", "--n", "2"], 2, "trials"),
            ("n=banana", ["sweep-phase", "--points", "2", "--alpha1", "1:0"], 2, "--n"),
            # A key that only another subcommand knows is accepted.
            ("n=4", ["sweep-phase", "--points", "2", "--alpha1", "1:0"], 0, ""),
            ("t0=0.4", ["nstate", "--n", "2"], 0, ""),
            ("alpha2=1:90", ["nstate", "--n", "2"], 0, ""),
        ],
    )
    def test_config_values_are_checked_like_flags(self, tmp_path, capsys, line, args, code, err):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{line}\n")
        out = tmp_path / "x.csv"
        assert run(["--config", cfg, *args, "--out", out, *fast(args[0])]) == code
        stderr = capsys.readouterr().err
        assert err in stderr
        assert "Traceback" not in stderr
        assert out.exists() == (code == 0)


class TestFailureModes:
    def test_bad_points_is_usage_error(self):
        assert run(["sweep-intensity", "--points", "1", *FAST]) == 2

    def test_bad_alpha_is_usage_error(self, capsys):
        assert run(["sweep-phase", "--alpha1", "banana", *FAST]) == 2
        assert "N:DEG" in capsys.readouterr().err

    def test_negative_alpha_is_usage_error(self):
        assert run(["sweep-phase", "--alpha1", "-1:0", *FAST]) == 2

    def test_negative_alpha_reaches_the_amplitude_check(self, tmp_path, capsys):
        # The joined form gets past argparse, which takes "-1:0" for a flag.
        out = tmp_path / "x.csv"
        assert run(["nstate", "--alpha1=-1:0", "--out", out, *NSTATE_FAST]) == 2
        assert ("argument --alpha1: mean photon number must be a finite number in [0, inf], "
                "got -1.0" in capsys.readouterr().err)
        assert not out.exists()

    def test_negative_seed_is_named(self, tmp_path, capsys):
        assert run(["nstate", "--seed", "-5", "--out", tmp_path / "x.csv", *NSTATE_FAST]) == 2
        assert "udiscrim: error: seed must be an integer >= 0, got -5" in capsys.readouterr().err

    def test_bad_n_is_usage_error(self, tmp_path):
        assert run(["nstate", "--n", "1", "--out", tmp_path / "x.csv", *NSTATE_FAST]) == 2

    @pytest.mark.parametrize(
        "args",
        [
            ["sweep-phase", "--points", "1000000000000"],
            ["sweep-intensity", "--points", MAX_POINTS + 1],
            ["nstate", "--n", "1000000000000"],
            ["nstate", "--n", MAX_STATES + 1],
        ],
    )
    def test_huge_grid_is_usage_error(self, monkeypatch, tmp_path, args):
        # The caps must fire before anything is built: the sweeps that would
        # allocate the grid, and what nstate_report builds after its cap,
        # are replaced by tripwires.
        def tripwire(*_args, **_kwargs):
            pytest.fail("grid size reached a sweep unchecked")

        for name in ("sweep_phase", "sweep_intensity"):
            monkeypatch.setattr(cli, name, tripwire)
        for name in ("NStatePlan", "ring_programs", "run_experiment"):
            monkeypatch.setattr(sweeps, name, tripwire)
        assert run([*args, "--out", tmp_path / "x.csv", *fast(args[0])]) == 2

    @pytest.mark.parametrize(
        "size", [["--trials", "1", "--blocks", 10**12], ["--trials", 10**12, "--blocks", "1"]]
    )
    def test_huge_run_is_usage_error(self, monkeypatch, tmp_path, size):
        # The caps must fire before any experiment allocates its blocks.
        def tripwire(*_args, **_kwargs):
            pytest.fail("run size reached an experiment unchecked")

        monkeypatch.setattr(sweeps, "run_experiment", tripwire)
        assert run(["nstate", "--n", "2", *size, "--out", tmp_path / "x.csv"]) == 2

    @pytest.mark.parametrize(
        "args",
        [
            # nstate has no input splitter, no detector or loop 2 and
            # builds its states from --alpha1 alone.
            ["nstate", "--n", "2", "--t0", "1.5"],
            ["nstate", "--n", "2", "--eta2", "7"],
            ["nstate", "--n", "2", "--vis2", "-3"],
            ["nstate", "--n", "2", "--alpha2", "1:0"],
            # sweep-ratio derives state 2 from state 1 and the swept ratio.
            ["sweep-ratio", "--points", "2", "--alpha2", "0.5:30"],
        ],
    )
    def test_unread_flag_is_usage_error(self, tmp_path, capsys, args):
        out = tmp_path / "x.csv"
        assert run([*args, "--out", out, *fast(args[0])]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_path_is_io_error(self, tmp_path):
        out = tmp_path / "missing_dir" / "x.csv"
        rc = run(["sweep-intensity", "--points", "2", "--out", out, *FAST])
        assert rc == 3

    def test_missing_command_is_usage_error(self):
        assert run([]) == 2

    def test_bad_workers_is_usage_error(self):
        assert run(["sweep-intensity", "--workers", "0", *FAST]) == 2

    @pytest.mark.parametrize("sigma", ["nan", "inf", "-0.1"])
    def test_bad_drift_sigma_is_usage_error(self, sigma):
        assert run(["sweep-intensity", "--points", "2", "--drift-sigma", sigma, *FAST]) == 2

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            pytest.param("--alpha1", "inf:0", "mean photon number must be a finite number in "
                         "[0, inf], got inf", id="--alpha1-inf:0"),
            pytest.param("--alpha1", "1:nan", "phase must be a finite number, got nan",
                         id="--alpha1-1:nan"),
            pytest.param("--alpha1", "1:inf", "phase must be a finite number, got inf",
                         id="--alpha1-1:inf"),
            pytest.param("--alpha1", "1:-inf", "phase must be a finite number, got -inf",
                         id="--alpha1-1:-inf"),
            pytest.param("--alpha2", "nan:180", "mean photon number must be a finite number in "
                         "[0, inf], got nan", id="--alpha2-nan:180"),
        ],
    )
    def test_non_finite_alpha_names_the_flag(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "x.csv"
        assert run(["sweep-phase", "--points", "2", flag, value, "--out", out, *FAST]) == 2
        assert f"argument {flag}: {message}\n" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_alpha_in_config_names_the_flag(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha1=1:inf\n")
        out = tmp_path / "x.csv"
        assert run(["--config", cfg, "nstate", "--n", "2", "--out", out, *NSTATE_FAST]) == 2
        err = capsys.readouterr().err
        assert "argument --alpha1: phase must be a finite number, got inf" in err
        assert not out.exists()

    # The second value is overridden by NSTATE_FAST's --trials.
    @pytest.mark.parametrize("line, flag", [("alpha1=1:inf", "--alpha1"), ("trials=1e5", "--trials")])
    def test_config_error_names_the_command_run(self, tmp_path, capsys, line, flag):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{line}\n")
        out = tmp_path / "x.csv"
        assert run(["--config", cfg, "nstate", "--n", "2", "--out", out, *NSTATE_FAST]) == 2
        err = capsys.readouterr().err
        assert f"udiscrim nstate: error: argument {flag}:" in err
        assert "sweep" not in err
        assert not out.exists()

    def test_config_error_of_another_command_names_the_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n=banana\n")
        out = tmp_path / "x.csv"
        args = ["sweep-phase", "--points", "2", "--alpha1", "1:0", "--out", out]
        assert run(["--config", cfg, *args, *FAST]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: udiscrim sweep-phase ")
        assert err.endswith("udiscrim sweep-phase: error: argument --n: invalid int value: "
                            "'banana' (config key n, read by nstate)\n")
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("lock", [[], ["--stabilize"]], ids=["free", "locked"])
    def test_overflowing_drift_sigma_is_named(self, tmp_path, capsys, lock):
        # The first drift steps overflow a phase; numpy must not warn first.
        out = tmp_path / "x.csv"
        args = ["nstate", "--n", "3", "--drift-sigma", "1e308", *lock, "--out", out]
        assert run([*args, *NSTATE_FAST]) == 2
        assert "drift sigma 1e+308" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "args, program",
        [
            (["nstate", "--n", "3", "--alpha1", "1e13:0"], 0),
            # |a1|^2 = 1.33 by default, so state 2 carries 1.33e308 photons.
            (["sweep-ratio", "--start", "1e308", "--stop", "1e308", "--points", "2"], 1),
        ],
        ids=["nstate", "sweep-ratio"],
    )
    def test_intensity_past_the_cap_names_the_program(self, tmp_path, capsys, args, program):
        # Past montecarlo.MAX_INTENSITY a null port is no longer dark.
        out = tmp_path / "x.csv"
        assert run([*args, "--out", out, *fast(args[0])]) == 2
        assert f"udiscrim: error: programs[{program}] intensity must be" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_sweep_span_past_the_float_range_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        args = ["sweep-phase", "--start=-1.7e308", "--stop", "1.7e308", "--points", "3"]
        assert run([*args, "--alpha1", "1:0", "--out", out, *FAST]) == 2
        assert capsys.readouterr().err == (
            "udiscrim: error: stop - start must be a finite number, "
            "got start=-1.7e+308, stop=1.7e+308\n"
        )
        assert not out.exists()

    def test_invariant_violation_exits_4(self, monkeypatch, tmp_path, capsys):
        def broken(*_args, **_kwargs):
            raise InvariantViolation("outcome buckets sum to 3, expected 5")

        monkeypatch.setattr(sweeps, "run_experiment", broken)
        assert run(["nstate", "--n", "2", "--out", tmp_path / "x.csv", *NSTATE_FAST]) == 4
        err = capsys.readouterr().err
        assert err == "udiscrim: invariant violation: outcome buckets sum to 3, expected 5\n"
        assert "Traceback" not in err

    def test_blind_detector_with_lock_runs(self, tmp_path, capsys):
        out = tmp_path / "blind.csv"
        rc = run(["sweep-intensity", "--points", "2", "--eta1", "0", "--stabilize",
                  "--drift-sigma", "0.1", "--out", out, *FAST])
        assert rc == 0
        assert "Traceback" not in capsys.readouterr().err
        assert out.exists()


def test_python_m_runs_the_cli(tmp_path):
    out = tmp_path / "n2.csv"
    src = Path(udiscrim.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-m", "udiscrim", "nstate", "--n", "2", "--trials", "100",
         "--blocks", "2", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.read_text().startswith("k,")


def test_python_m_cli_prints_its_notice_under_an_error_filter(tmp_path):
    # Run as a script, cli's own notice comes from __main__, not udiscrim.cli.
    out = tmp_path / "x.csv"
    src = Path(udiscrim.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-W", "error::UserWarning", "-m", "udiscrim.cli", "sweep-phase",
         "--alpha2", "0.7:100", "--points", "2", "--trials", "10", "--blocks", "1",
         "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "udiscrim: warning: sweep-phase ignores the phase of --alpha2\n"
