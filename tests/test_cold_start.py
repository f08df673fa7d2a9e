"""Import guard: scipy and yaml load only where a command uses them, and
``numpy.ma`` (which ``np.unique`` imports on its first call) not at all in
the commands below.

Each check runs in a fresh interpreter, since this test session has long
since imported both.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

LOADED = ("json.dumps(sorted(m for m in sys.modules "
          "if m.split('.')[0] in ('scipy', 'yaml') or m.split('.')[:2] == ['numpy', 'ma']))")


def loaded_after(code: str, cwd) -> set:
    """The scipy, yaml and numpy.ma modules a fresh interpreter holds after
    running ``code``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", f"import json, sys\n{code}\nprint({LOADED})"],
                         cwd=cwd, env=env, capture_output=True, text=True, check=True)
    return set(json.loads(out.stdout.splitlines()[-1]))


def cli_loaded(argv, tmp_path) -> set:
    argv = argv + ["--threads", "1", "--outdir", str(tmp_path)]
    return loaded_after("from rsjd.cli import run\n"
                        f"assert run({argv!r}) in (0, 1)", tmp_path)


def test_import_loads_neither(tmp_path):
    code = ("import rsjd, rsjd.cli\n"
            "from rsjd.config import resolve_model\n"
            "resolve_model('example52')")
    assert loaded_after(code, tmp_path) == set()


@pytest.mark.parametrize("argv", [
    ["invariant", "--model", "example51", "--starts", "0,1;1,1", "--h", "0.25",
     "--t-burn", "0.5", "--t-end", "1.0", "--paths", "4", "--box=-2:2", "--bins", "4",
     "--kmax", "3"],
    ["feller", "--model", "example51", "--n", "16", "--t", "0.1", "--h", "0.05",
     "--separations", "0.2,0.1"],
    ["strong-feller", "--model", "example51", "--n", "16", "--t", "0.1", "--h", "0.05",
     "--separations", "0.2,0.1", "--lambda-r", "1"],
    ["lyapunov", "--model", "example52:1.0", "--grid=-2:2:3", "--kmax", "3"],
], ids=lambda argv: argv[0])
def test_commands_without_scipy(argv, tmp_path):
    assert cli_loaded(argv, tmp_path) == set()


@pytest.mark.parametrize("argv", [["g-function", "--kappa", "1", "--lam", "1"],
                                  ["f-function"]], ids=lambda argv: argv[0])
def test_gauges_without_scipy(argv, tmp_path):
    # the gauges take no --threads, so not through cli_loaded
    argv = argv + ["--outdir", str(tmp_path)]
    loaded = loaded_after(f"from rsjd.cli import run\nassert run({argv!r}) == 0", tmp_path)
    assert not any(m.split(".")[0] == "scipy" for m in loaded)


def test_irreducible_loads_special_only(tmp_path):
    loaded = cli_loaded(["irreducible", "--model", "example51", "--start", "0,1",
                         "--target", "0,0.5", "--regime", "1", "--t", "0.1", "--h", "0.05",
                         "--n", "64"], tmp_path)
    assert "scipy.special" in loaded
    assert "scipy.stats" not in loaded and "scipy.integrate" not in loaded
    assert not any(m.startswith("yaml") for m in loaded)
