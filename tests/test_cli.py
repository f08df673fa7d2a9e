"""The table-driven parser and the terminal-state CSV of the CLI.

``run`` registers the invoked subcommand only.  Each argv below must parse
to the same namespace as under the parser that holds every subcommand, and
the help, usage and error texts must be byte for byte those of that parser,
so the top-level help and errors still see all twelve subcommands.
"""

import contextlib
import io
import json
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from rsjd import cli

ARGV = {
    "simulate": ["--model", "example51", "--start", "0,1", "--t", "1", "--npz"],
    "couple": ["--model", "example51", "--start", "0,1", "--start2", "1,1", "--t", "1",
               "--kind", "reflection", "--lambda-r", "0.5"],
    "feller": ["--model", "example51", "--separations", "0.1,0.05", "--n", "64"],
    "strong-feller": ["--model", "example51", "--delta0", "0.5", "--eta", "0.1"],
    "irreducible": ["--model", "example51", "--start", "0,1", "--target", "0,1",
                    "--regime", "2", "--adapt", "--terminal-csv"],
    "killed": ["--model", "example51", "--start", "0,1", "--ball", "0,1",
               "--m-grid=-2:2:5", "--policy", "gaussian"],
    "invariant": ["--model", "example52", "--starts", "0,0,1;1,1,2", "--box=-3:3",
                  "--tv-tol", "0.2"],
    "lyapunov": ["--model", "example52:1.0", "--grid=-5:5:9", "--kmax", "10"],
    "g-function": ["--kappa", "8", "--lam", "1"],
    "f-function": ["--r-max-tab", "5", "--g", "power:-0.5"],
    "validate": ["--model", "example52", "--quad-crosscheck", "0"],
    "dynkin": ["--model", "example52", "--x", "0.5,0.5", "--seed", "3"],
}


def test_the_table_covers_every_subcommand():
    assert list(ARGV) == list(cli.COMMANDS)
    assert len(cli.COMMANDS) == 12


@pytest.mark.parametrize("name", list(ARGV))
def test_one_subcommand_parser_gives_the_same_namespace(name):
    argv = [name, *ARGV[name]]
    full = cli.build_parser().parse_args(argv)
    one = cli.build_parser(name).parse_args(argv)
    assert vars(one) == vars(full)
    assert one.func is cli.COMMANDS[name][2]


def test_help_lists_every_subcommand(capsys):
    assert cli.run(["--help"]) == 0
    out = capsys.readouterr().out
    for name, (help_text, _, _) in cli.COMMANDS.items():
        assert name in out and help_text in out


def test_subcommand_help_shows_its_options(capsys):
    assert cli.run(["lyapunov", "--help"]) == 0
    out = capsys.readouterr().out
    assert "--kmax" in out and "--alpha" in out


def test_unknown_subcommand_exits_2(capsys):
    assert cli.run(["no-such-command", "--model", "example51"]) == cli.EXIT_INPUT_ERROR
    err = capsys.readouterr().err
    assert "invalid choice" in err
    for name in cli.COMMANDS:
        assert repr(name) in err


@pytest.mark.parametrize("argv", [
    ["lyapunov"],                                    # --model missing
    ["irreducible", "--model", "example51", "--start", "0,1", "--target", "0,1"],
    ["g-function", "--kappa", "8"],
    [],
])
def test_missing_required_input_exits_2(argv, capsys):
    assert cli.run(argv) == cli.EXIT_INPUT_ERROR
    assert "required" in capsys.readouterr().err


@pytest.mark.parametrize("command, extra", [
    ("irreducible", ["--target", "0,1", "--regime", "2"]),
    ("killed", ["--ball", "0,1"]),
])
def test_terminal_csv_lines(command, extra, tmp_path, capsys):
    # the format of the per-value writer this output had before the shared
    # one: repr of each float, the regime as an integer, one path a line
    assert cli.run([command, "--model", "example51", "--start", "0,1", *extra,
                    "--t", "0.25", "--h", "0.0625", "--n", "40", "--seed", "5",
                    "--threads", "1", "--outdir", str(tmp_path), "--terminal-csv"]) in (0, 1)
    lines = (tmp_path / f"{command}_terminal.csv").read_text().splitlines()
    weighted = command == "killed"
    assert lines[0] == "x1,k" + (",weight" if weighted else "")
    assert len(lines) == 41
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[0] == repr(float(fields[0]))
        assert fields[1] == str(int(fields[1])) and int(fields[1]) >= 1
        if weighted:
            assert fields[2] == repr(float(fields[2])) and 0.0 <= float(fields[2]) <= 1.0
    assert np.isfinite([float(line.split(",")[0]) for line in lines[1:]]).all()


@pytest.mark.parametrize("command, ball", [
    ("irreducible", ["--target", "nan,1", "--regime", "2"]),
    ("irreducible", ["--target", "inf,1", "--regime", "2"]),
    ("killed", ["--ball", "nan,1"]),
    ("killed", ["--ball", "0,0,1"]),
])
def test_bad_ball_center_exits_2(command, ball, tmp_path, capsys):
    # a NaN center used to be hit by no path: killed printed "ok" with every
    # estimate 0 and irreducible exited 1, as if the check had run
    assert cli.run([command, "--model", "example51", "--start", "0,1", *ball,
                    "--t", "0.25", "--h", "0.0625", "--n", "8", "--seed", "5",
                    "--outdir", str(tmp_path)]) == cli.EXIT_INPUT_ERROR
    assert "target center" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("tol", ["nan", "-0.1", "-inf", "inf"])
def test_invariant_rejects_bad_tv_tol_before_simulating(tol, tmp_path, monkeypatch, capsys):
    # a NaN tolerance used to run the whole ensemble, then exit 1; an
    # infinite one passed every start
    def never(*args, **kwargs):
        raise AssertionError("simulated before checking --tv-tol")

    monkeypatch.setattr(cli.analysis, "estimate_invariant", never)
    argv = ["invariant", "--model", "example52", "--starts", "0,0,1;1,1,2", "--h", "0.1",
            "--t-burn", "0.5", "--t-end", "1", "--paths", "8", f"--tv-tol={tol}",
            "--outdir", str(tmp_path)]
    assert cli.run(argv) == 2
    assert "--tv-tol must be finite and nonnegative" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_invariant_needs_two_starts(tmp_path, monkeypatch, capsys):
    # one start printed "max pairwise TV=0.0000": with no pair, the check
    # between starts passed without comparing anything
    def never(*args, **kwargs):
        raise AssertionError("simulated before checking --starts")

    monkeypatch.setattr(cli.analysis, "estimate_invariant", never)
    argv = ["invariant", "--model", "example52", "--starts", "0,0,1", "--h", "0.1",
            "--t-burn", "0.5", "--t-end", "1", "--paths", "8", "--box=-3:3",
            "--outdir", str(tmp_path)]
    assert cli.run(argv) == cli.EXIT_INPUT_ERROR
    assert "--starts needs at least two states" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_dynkin_needs_two_paths(tmp_path, monkeypatch, capsys):
    # --n 1 printed z=nan (FAIL) and exit 1 after two RuntimeWarnings: the
    # stderr of one path is NaN
    def never(*args, **kwargs):
        raise AssertionError("simulated before checking --n")

    monkeypatch.setattr("rsjd.simulate.simulate_ensemble", never)
    argv = ["dynkin", "--model", "example51", "--n", "1", "--h", "0.001", "--t-small", "0.004",
            "--outdir", str(tmp_path)]
    assert cli.run(argv) == cli.EXIT_INPUT_ERROR
    assert "at least two paths" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("extra, message", [
    # --k 0 and --x nan exited 1 with "numeric failure: mark quadrature ...
    # value=nan" after two RuntimeWarnings; --x 0,0 exited 2 with a numpy
    # matmul message
    (["--k", "0"], "regime index must be >= 1"),
    (["--x", "nan"], "state vector must be finite"),
    (["--x", "0,0"], "state dimension 2 does not match model dimension 1"),
])
def test_dynkin_invalid_state_exits_2(extra, message, tmp_path, capsys):
    argv = ["dynkin", "--model", "example51", "--n", "64", "--t-small", "0.01", "--h", "0.001",
            *extra, "--outdir", str(tmp_path)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.run(argv) == cli.EXIT_INPUT_ERROR
    assert message in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


SEEDED_KILLED = ["killed", "--model", "example51", "--start", "0,1", "--ball", "0,1",
                 "--t", "0.1", "--n", "256"]


def test_negative_seed_exits_2(tmp_path, capsys):
    # -1 ran, on the numbers of 2^63 - 1
    argv = [*SEEDED_KILLED, "--seed", "-1", "--outdir", str(tmp_path)]
    assert cli.run(argv) == cli.EXIT_INPUT_ERROR
    assert "argument --seed: must be nonnegative, got -1" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("option", ["--seed", "--threads"])
@pytest.mark.parametrize("value", ["abc", "1.5"])
def test_non_integer_seed_and_threads_exit_2(option, value, tmp_path, capsys):
    # the message named the private type functions: "invalid _seed value"
    argv = [*SEEDED_KILLED, option, value, "--outdir", str(tmp_path)]
    assert cli.run(argv) == cli.EXIT_INPUT_ERROR
    assert f"argument {option}: invalid int value: '{value}'" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_seed_2_63_is_not_seed_0(tmp_path):
    # both wrote the estimate 0.928941...
    results = []
    for seed in ("0", str(2**63)):
        out = tmp_path / seed
        assert cli.run([*SEEDED_KILLED, "--seed", seed, "--threads", "1",
                        "--outdir", str(out)]) in (cli.EXIT_OK, cli.EXIT_CHECK_FAILED)
        results.append(json.loads((out / "killed.json").read_text())["result"])
    assert results[0] != results[1]


@pytest.mark.parametrize("argv, message", [
    # one path wrote stderr 0.0 and ci95 [0.1464, 0.1464], and trend_ok ran
    # with no noise allowance
    (["feller", "--model", "example51", "--x", "0", "--k", "1", "--separations", "0.2,0.1",
      "--t", "0.05", "--n", "1"], "at least two paths"),
    (["strong-feller", "--model", "example51", "--x", "0", "--k", "1",
      "--separations", "0.2,0.1", "--t", "0.05", "--n", "1"], "at least two paths"),
    (["killed", "--model", "example51", "--start", "0,1", "--ball", "0,1", "--t", "0.25",
      "--n", "1"], "at least two paths"),
    # a negative count printed "no violation found" and exited 0
    (["validate", "--model", "example51", "--quad-crosscheck", "-3"],
     "quad_crosscheck must be >= 0"),
])
def test_too_few_paths_or_probes_exit_2(argv, message, tmp_path, monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("simulated before checking the options")

    monkeypatch.setattr(cli.analysis, "simulate_ensemble", never)
    monkeypatch.setattr(cli.analysis, "couple_ensemble", never)
    assert cli.run([*argv, "--outdir", str(tmp_path)]) == cli.EXIT_INPUT_ERROR
    assert message in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


FELLER = ["feller", "--model", "example51", "--x", "0", "--k", "1", "--separations", "0.2,0.1",
          "--t", "0.05", "--n", "64"]
LYAPUNOV = ["lyapunov", "--model", "example52", "--grid=-5:5:3", "--kmax", "2"]
KILLED = ["killed", "--model", "example51", "--start", "0,1", "--ball", "0,1", "--t", "0.25",
          "--h", "0.0625", "--n", "8"]


@pytest.mark.parametrize("argv, message", [
    # feller passed with trend_ok=True at an infinite threshold (exit 0), and
    # failed as a check at NaN (exit 1)
    (FELLER + ["--threshold", "inf"], "--threshold must be finite and nonnegative"),
    (FELLER + ["--threshold", "nan"], "--threshold must be finite and nonnegative"),
    (FELLER + ["--threshold", "-0.5"], "--threshold must be finite and nonnegative"),
    (["strong-feller", *FELLER[1:], "--threshold", "inf"], "--threshold must be finite"),
    # lyapunov "held" at an infinite tolerance or beta, and failed at NaN
    (LYAPUNOV + ["--tol", "inf"], "tol must be finite"),
    (LYAPUNOV + ["--tol", "nan"], "tol must be finite"),
    (LYAPUNOV + ["--beta", "inf"], "beta must be finite"),
    (LYAPUNOV + ["--alpha=-inf"], "alpha must be finite"),
    # a NaN grid bound was reported as a violated certificate (exit 1)
    (["lyapunov", "--model", "example52", "--grid=-5:nan:3", "--kmax", "2"],
     "--grid needs finite bounds"),
    (["validate", "--model", "example52", "--grid=-inf:5:3"], "--grid needs finite bounds"),
    (["validate", "--model", "example52", "--grid=-5:5"], "--grid must read lo:hi:n"),
    # no regimes: numpy's "zero-size array to reduction operation maximum"
    (["lyapunov", "--model", "example52", "--grid=-5:5:3", "--kmax", "0"],
     "--kmax must be at least 1"),
    # a NaN --m-grid bound doubled L to 2^20 and exited 1; zero points exited
    # 2 with numpy's "zero-size array" message
    (KILLED + ["--m-grid=nan:20:11"], "--m-grid needs finite bounds"),
    (KILLED + ["--m-grid=-20:20:0"], "--m-grid needs finite bounds and at least one point"),
    # dynkin passed every z-score at an infinite --z-max (exit 0)
    (["dynkin", "--model", "example52", "--x", "0.5,0.5", "--n", "64", "--z-max", "inf"],
     "--z-max must be finite and nonnegative"),
    (["dynkin", "--model", "example52", "--x", "0.5,0.5", "--n", "64", "--z-max", "nan"],
     "--z-max must be finite and nonnegative"),
    # a zero separation starts the pair at --x: its estimate is exactly 0 and
    # strong-feller passed with trend_ok=True (exit 0)
    (["strong-feller", "--model", "example51", "--x", "0", "--k", "1", "--separations", "0",
      "--t", "0.05", "--n", "64"], "--separations must all be nonzero"),
    (FELLER[:8] + ["0.2,-0.0", "--t", "0.05", "--n", "64"], "--separations must all be nonzero"),
])
def test_vacuous_check_inputs_exit_2(argv, message, tmp_path, monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("ran before checking the options")

    for name in ("feller_modulus", "strong_feller_modulus", "estimate_killed_subtransition"):
        monkeypatch.setattr(cli.analysis, name, never)
    monkeypatch.setattr(cli, "validate_model", never)
    monkeypatch.setattr(cli, "dynkin_check", never)
    assert cli.run([*argv, "--outdir", str(tmp_path)]) == cli.EXIT_INPUT_ERROR
    assert message in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("threads", ["0", "-3"])
@pytest.mark.parametrize("name", [c for c, argv in ARGV.items() if "--model" in argv])
def test_thread_count_below_one_exits_2(name, threads, tmp_path, capsys):
    # each ran on one thread, or ignored the option, and exited 0 or 1
    argv = [name, *ARGV[name], "--threads", threads, "--outdir", str(tmp_path)]
    assert cli.run(argv) == cli.EXIT_INPUT_ERROR
    assert f"argument --threads: must be at least 1, got {threads}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


# help, usage and error texts of the parser that registered every subcommand,
# recorded with COLUMNS=80; the one-subcommand parser must reproduce them
TEXT = json.loads((Path(__file__).parent / "data" / "cli_text.json").read_text())


def _captured(call, argv):
    """(exit code, stdout, stderr) of ``call(argv)``, a SystemExit counted as
    ``run`` counts it."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = call(argv)
        except SystemExit as exc:
            code = cli.EXIT_INPUT_ERROR if exc.code not in (0, None) else 0
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def columns(monkeypatch):
    monkeypatch.setenv("COLUMNS", str(TEXT["columns"]))


@pytest.mark.skipif(sys.version_info[:2] != tuple(TEXT["python"]),
                    reason="the recorded argparse text is that of another Python version")
@pytest.mark.parametrize("case", TEXT["cases"], ids=lambda c: " ".join(c["argv"]) or "(none)")
def test_text_is_the_recorded_one(case, columns):
    assert _captured(cli.run, case["argv"]) == (case["exit"], case["stdout"], case["stderr"])


@pytest.mark.parametrize("argv", [c["argv"] for c in TEXT["cases"]],
                         ids=lambda a: " ".join(a) or "(none)")
def test_text_is_that_of_the_full_parser(argv, columns):
    # the same check on any Python version: what ``run`` prints against what
    # the parser holding every subcommand prints
    assert _captured(cli.run, argv) == _captured(lambda a: cli.build_parser().parse_args(a),
                                                 argv)


def test_one_subcommand_registered():
    sub = cli.build_parser("killed")._subparsers._group_actions[0]
    assert list(sub.choices) == ["killed"]
    assert sub.metavar == "{" + ",".join(cli.COMMANDS) + "}"
    full = cli.build_parser()._subparsers._group_actions[0]
    assert list(full.choices) == list(cli.COMMANDS) and full.metavar is None
