import json

import numpy as np
import pytest

from rsjd import (
    CouplingConfig,
    HybridState,
    IntegratorConfig,
    couple_ensemble,
    example51,
    simulate_path,
)
from rsjd.cli import run
from rsjd.config import load_model_config, resolve_model

DRIFT_ONLY_YAML = """
model:
  name: contraction
  dimension: 1
  drift: "-x"
  sigma: "0.0 * x[..., 0]"
"""

FULL_YAML = """
model:
  name: custom-switching
  dimension: 1
  drift: "-x/(2*k[..., None]**2)"
  sigma: "cbrt(x[..., 0])**2 + 1"
  jump:
    family: power_law
    exponent: 2.0
    coeff: "u * x / (sqrt(2.0) * k[..., None])"
    epsilon: 0.05
  rates:
    expr: "k*exp(-(l+k)*log(3.0))/(1+l*norm2(x))"
    tail_coeff: "0.5*k*3.0**(-k)"
    tail_ratio: 0.33333333333333333
  ellipticity_floor: 1.0
  growth_constant: 4.0
"""


class TestModelResolution:
    def test_builtins(self):
        assert resolve_model("example51").name == "example51"
        assert resolve_model("example52").name == "example52"
        m = resolve_model("example52:0.5")
        assert m.d == 2

    def test_unknown(self):
        with pytest.raises(ValueError):
            resolve_model("not-a-model")

    def test_drift_only_config(self, tmp_path):
        p = tmp_path / "m.yaml"
        p.write_text(DRIFT_ONLY_YAML)
        spec = load_model_config(p)
        rec = simulate_path(spec, HybridState(np.array([1.0]), 1),
                            IntegratorConfig(step=1e-3, horizon=1.0), 0)
        assert rec.xs[-1, 0] == pytest.approx(np.exp(-1.0), abs=5e-3)

    def test_full_config_matches_builtin_rows(self, tmp_path):
        from rsjd import example51, q_row_truncated
        p = tmp_path / "full.yaml"
        p.write_text(FULL_YAML)
        spec = load_model_config(p)
        ref = example51()
        x = np.array([0.5])
        got, gt = q_row_truncated(spec.rates, x, 1, 1e-10)
        want, wt = q_row_truncated(ref.rates, x, 1, 1e-10)
        assert len(got) >= len(want)
        for (l1, v1), (l2, v2) in zip(got, want):
            assert l1 == l2 and v1 == pytest.approx(v2, rel=1e-12)
        b = spec.drift(np.array([[2.0]]), np.array([3]))
        assert b[0, 0] == pytest.approx(-2.0 / 18.0)

    def test_builtin_shortcut_in_config(self, tmp_path):
        p = tmp_path / "b.yaml"
        p.write_text("model:\n  builtin: example52\n  delta: 0.75\n")
        spec = load_model_config(p)
        assert spec.d == 2

    def test_bad_config_rejected(self, tmp_path):
        p = tmp_path / "bad.yaml"
        p.write_text("nope: 1\n")
        with pytest.raises(ValueError):
            load_model_config(p)


class TestCli:
    def test_simulate_deterministic_bytes(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        argv = ["simulate", "--model", "example51", "--start", "0,1", "--t", "1",
                "--h", "0.001", "--seed", "7"]
        assert run(argv + ["--outdir", str(out1)]) == 0
        assert run(argv + ["--outdir", str(out2), "--threads", "3"]) == 0
        assert (out1 / "simulate.csv").read_bytes() == (out2 / "simulate.csv").read_bytes()
        assert (out1 / "simulate.json").read_bytes() == (out2 / "simulate.json").read_bytes()

    def test_unknown_model_exit_2(self, tmp_path, capsys):
        assert run(["simulate", "--model", "zzz", "--start", "0,1", "--t", "1",
                    "--outdir", str(tmp_path)]) == 2

    def test_bad_argv_exit_2(self):
        assert run(["no-such-command"]) == 2

    @pytest.mark.parametrize("bad", [["--bins", "0"], ["--box=1:-1"], ["--kmax", "0"],
                                     ["--paths", "0"]])
    def test_invariant_degenerate_input_exit_2(self, tmp_path, bad):
        # argparse keeps the last value of a repeated option
        argv = ["invariant", "--model", "example51", "--starts", "0,1;1,1", "--h", "0.25",
                "--t-burn", "0.5", "--t-end", "1.0", "--paths", "4", "--box=-2:2",
                "--bins", "4", "--kmax", "3", "--outdir", str(tmp_path), *bad]
        assert run(argv) == 2

    def test_couple_outputs(self, tmp_path):
        code = run(["couple", "--model", "example51", "--kind", "reflection",
                    "--start", "0,1", "--start2", "0.1,1", "--t", "0.5",
                    "--h", "0.0078125", "--lambda-r", "1.0", "--seed", "3",
                    "--outdir", str(tmp_path)])
        assert code == 0
        marks = json.loads((tmp_path / "couple_marks.json").read_text())
        assert "T" in marks and "zeta" in marks
        assert (tmp_path / "couple.csv").exists()

    @pytest.mark.parametrize("lam", ["-1", "0", "nan"])
    def test_strong_feller_bad_lambda_exit_2(self, tmp_path, lam):
        assert run(["strong-feller", "--model", "example51", "--n", "10", "--t", "0.1",
                    "--h", "0.01", "--lambda-r", lam, "--outdir", str(tmp_path)]) == 2
        assert not (tmp_path / "strong-feller.json").exists()

    def test_irreducible_regime_zero_exit_2(self, tmp_path):
        assert run(["irreducible", "--model", "example51", "--start", "0,1",
                    "--target", "0,0.5", "--regime", "0", "--t", "0.1", "--n", "16",
                    "--outdir", str(tmp_path)]) == 2

    def test_g_function_invariants(self, tmp_path):
        assert run(["g-function", "--kappa", "8.0", "--lam", "1.0",
                    "--outdir", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "g-function.json").read_text())
        assert payload["result"]["ok"] and payload["result"]["alpha"] > 0

    def test_f_function_invariants(self, tmp_path):
        assert run(["f-function", "--outdir", str(tmp_path)]) == 0

    def test_lyapunov_small_grid(self, tmp_path):
        code = run(["lyapunov", "--model", "example52:1.0", "--grid=-5:5:5",
                    "--kmax", "5", "--outdir", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "lyapunov.json").read_text())
        assert payload["result"]["max_margin"] <= 1e-6
        assert payload["config"]["model"] == "example52:1.0"  # provenance

    def test_validate_exit_codes(self, tmp_path):
        assert run(["validate", "--model", "example51", "--grid=-10:10:9",
                    "--kmax", "5", "--outdir", str(tmp_path)]) == 0

    def test_irreducible_small(self, tmp_path):
        code = run(["irreducible", "--model", "example51", "--start", "0,1",
                    "--target", "0,0.5", "--regime", "1", "--t", "0.5",
                    "--n", "2000", "--outdir", str(tmp_path), "--threads", "1",
                    "--seed", "5"])
        assert code == 0

    def test_dynkin_runs(self, tmp_path):
        code = run(["dynkin", "--model", "example51", "--x", "0.5", "--k", "1",
                    "--n", "20000", "--epsilon", "0.02", "--outdir", str(tmp_path),
                    "--threads", "2", "--seed", "1"])
        assert code == 0

    def test_json_includes_resolved_config(self, tmp_path):
        run(["simulate", "--model", "example51", "--start", "0,1", "--t", "0.5",
             "--seed", "2", "--outdir", str(tmp_path)])
        payload = json.loads((tmp_path / "simulate.json").read_text())
        cfg = payload["config"]
        for key in ("model", "seed", "h", "r_max", "policy", "start", "t"):
            assert key in cfg


NAN, INF = float("nan"), float("inf")


class TestPositiveFields:
    """Every positive config field rejects NaN and values <= 0, in the
    constructor and as a CLI option (exit 2); ``step``, ``horizon``,
    ``epsilon`` and ``eta`` reject +-inf too, while +inf turns the guard of
    ``r_max``, ``ball_radius`` and ``delta0`` off.  The gauge commands'
    inputs follow the same rule."""

    @staticmethod
    def _strong_feller(tmp_path, option, value):
        # "--opt=value" keeps argparse from reading "-inf" as an option
        return run(["strong-feller", "--model", "example51", "--n", "16", "--t", "0.1",
                    "--h", "0.05", "--separations", "0.2,0.1", "--outdir", str(tmp_path),
                    f"{option}={value!r}"])

    def _check(self, tmp_path, field, option, bads, match):
        for bad in bads:
            with pytest.raises(ValueError, match=match):
                CouplingConfig(step=0.05, horizon=0.1, **{field: bad})
            assert self._strong_feller(tmp_path, option, bad) == 2, bad
        assert not (tmp_path / "strong-feller.json").exists()

    def test_epsilon(self, tmp_path):
        self._check(tmp_path, "epsilon", "--epsilon", [-1.0, 0.0, NAN, INF, -INF],
                    "jump cutoff epsilon must be positive and finite")
        # a jump-free model never reads the cutoff: only the config check sees it
        p = tmp_path / "m.yaml"
        p.write_text(DRIFT_ONLY_YAML)
        assert run(["simulate", "--model", str(p), "--start", "1,1", "--t", "0.1",
                    "--h", "0.05", "--epsilon=nan", "--outdir", str(tmp_path)]) == 2

    def test_r_max(self, tmp_path):
        # before the check, --r-max -1 censored every pair and exited 1
        self._check(tmp_path, "r_max", "--r-max", [-1.0, 0.0, NAN, -INF],
                    "r_max must be positive")

    def test_ball_radius(self, tmp_path):
        self._check(tmp_path, "ball_radius", "--ball-radius", [-1.0, 0.0, NAN, -INF],
                    "ball_radius must be positive")

    def test_delta0(self, tmp_path):
        self._check(tmp_path, "delta0", "--delta0", [-1.0, 0.0, NAN, -INF],
                    "delta0 must be positive")

    def test_eta(self, tmp_path):
        self._check(tmp_path, "eta", "--eta", [-1.0, 0.0, NAN, INF, -INF],
                    "coalescence threshold eta must be positive and finite")

    def test_step_and_horizon(self, tmp_path):
        # before the check, an infinite horizon overflowed in grid() and exited 1
        for field, option in (("step", "--h"), ("horizon", "--t")):
            for bad in [-1.0, 0.0, NAN, INF, -INF]:
                with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
                    CouplingConfig(**{"step": 0.05, "horizon": 0.1, field: bad})
                assert self._strong_feller(tmp_path, option, bad) == 2, (option, bad)
        with pytest.raises(ValueError, match="need step <= horizon"):
            IntegratorConfig(step=0.2, horizon=0.1)
        assert not (tmp_path / "strong-feller.json").exists()
        assert run(["irreducible", "--model", "example51", "--start", "0,1", "--target", "0,1",
                    "--regime", "2", "--t=inf", "--outdir", str(tmp_path)]) == 2
        assert run(["invariant", "--model", "example51", "--starts", "0,1", "--t-end=inf",
                    "--outdir", str(tmp_path)]) == 2

    def test_step_count(self, tmp_path):
        # a finite step and horizon whose ratio overflows used to end in an
        # OverflowError from grid() and exit 1
        with pytest.raises(ValueError, match="step count horizon/step must be finite"):
            IntegratorConfig(step=1e-10, horizon=1e300)
        with pytest.raises(ValueError, match="step count horizon/step must be finite"):
            CouplingConfig(step=1e-10, horizon=1e300)
        assert run(["irreducible", "--model", "example51", "--start", "0,1", "--target", "0,1",
                    "--regime", "2", "--t=1e300", "--h=1e-10", "--outdir", str(tmp_path)]) == 2
        assert not (tmp_path / "irreducible.json").exists()

    @pytest.mark.parametrize("argv", [
        ["g-function", "--kappa=nan", "--lam=1"],
        ["g-function", "--kappa=1", "--lam=inf"],
        ["g-function", "--kappa=-1", "--lam=1"],
        ["f-function", "--r-max-tab=nan"],
        ["f-function", "--r-max-tab=inf"],
        ["f-function", "--r-max-tab=0"],
    ])
    def test_gauge_inputs(self, tmp_path, argv):
        # before the check, nan exited 1 and --lam inf wrote a table
        assert run(argv + ["--outdir", str(tmp_path)]) == 2
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("field, bad", [("ellipticity_floor", ".nan"),
                                            ("ellipticity_floor", "-1"),
                                            ("growth_constant", ".inf")])
    def test_declared_model_constants(self, tmp_path, field, bad):
        # a NaN floor used to load and make `validate` report a failed check (exit 1)
        p = tmp_path / "m.yaml"
        p.write_text(FULL_YAML.replace(f"  {field}: ", f"  {field}: {bad} #"))
        with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
            load_model_config(p)
        assert run(["validate", "--model", str(p), "--outdir", str(tmp_path)]) == 2
        assert not (tmp_path / "validate.json").exists()

    def test_infinite_guards_mean_none(self, tmp_path):
        cfg = CouplingConfig(step=0.05, horizon=0.5, r_max=INF, ball_radius=INF,
                             delta0=INF)
        ens = couple_ensemble(example51(), HybridState(np.array([0.0]), 1),
                              HybridState(np.array([2.0]), 1), cfg, 64, 5)
        assert ens.n_censored == 0
        assert np.all(np.isinf(ens.tau_r)) and np.all(np.isinf(ens.s_delta0))
        assert run(["couple", "--model", "example51", "--start", "0,1", "--start2", "2,1",
                    "--t", "0.5", "--h", "0.05", "--r-max=inf", "--ball-radius=inf",
                    "--delta0=inf", "--outdir", str(tmp_path)]) == 0
        marks = json.loads((tmp_path / "couple_marks.json").read_text())
        assert marks["tau_R"] is None and marks["S_delta0"] is None
