"""Experiment runner: every estimator and check as a subcommand.

Each subcommand writes ``<outdir>/<command>.json`` containing the fully
resolved configuration (for provenance) and the result, prints a one-line
summary, and exits 0 on success, 1 when an assertion-style check fails, and
2 on input errors.  Identical argv plus seed produce byte-identical outputs,
whatever ``--threads`` says.  See docs/cli.md for the grammar and schemas.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import analysis
from ._csv import write_csv
from .config import resolve_model
from .coupling import CouplingConfig, couple
from .errors import RsjdError
from .generator import LyapunovCertificate, TestFunction, dynkin_check, check_lyapunov
from .model import HybridState, RowTruncator, validate_model
from .simulate import IntegratorConfig, _check_positive, simulate_ensemble, simulate_path

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2


# ---------------------------------------------------------------------------
# Argument helpers


def _parse_state(text: str) -> HybridState:
    """Hybrid state as 'x1,...,xd,k' with the regime last."""
    parts = [p.strip() for p in text.split(",")]
    if len(parts) < 2:
        raise ValueError("state needs at least one coordinate and the regime")
    return HybridState(np.array([float(v) for v in parts[:-1]]), int(parts[-1]))


def _parse_ball(text: str):
    parts = [float(p) for p in text.split(",")]
    if len(parts) < 2:
        raise ValueError("ball needs center coordinates and a radius")
    return np.array(parts[:-1]), parts[-1]


def _parse_grid(text: str, option: str):
    """The grid 'lo:hi:n' of ``option``: finite bounds and n >= 1 points."""
    try:
        lo, hi, n = text.split(":")
        lo, hi, n = float(lo), float(hi), int(n)
    except ValueError:
        raise ValueError(f"{option} must read lo:hi:n, got {text!r}") from None
    if not (np.isfinite(lo) and np.isfinite(hi) and n >= 1):
        raise ValueError(f"{option} needs finite bounds and at least one point, got {text!r}")
    return lo, hi, n


def _probe_grid(text: str, kmax: int, d: int):
    """Probe arrays (xs, ks) for the ``--grid`` 'lo:hi:n' on every axis times
    the regimes 1..kmax, point-major: each grid point with all its regimes."""
    lo, hi, npts = _parse_grid(text, "--grid")
    if kmax < 1:
        raise ValueError(f"--kmax must be at least 1, got {kmax}")
    mesh = np.meshgrid(*[np.linspace(lo, hi, npts)] * d, indexing="ij")
    xs_space = np.stack([mm.ravel() for mm in mesh], axis=-1)
    ks = np.arange(1, kmax + 1)
    return np.repeat(xs_space, len(ks), axis=0), np.tile(ks, xs_space.shape[0])


def _named_function(name: str, d: int) -> TestFunction:
    if name == "tanh-over-1pk":
        return TestFunction(
            fn=lambda x, k: np.tanh(np.asarray(x, dtype=float)[..., 0])
            / (1.0 + np.asarray(k, dtype=float)),
            bounded=True, bound=0.5, label=name)
    if name == "first-coord-gauss":
        return TestFunction(
            fn=lambda x, k: np.asarray(x, dtype=float)[..., 0]
            * np.exp(-np.sum(np.asarray(x, dtype=float) ** 2, axis=-1)),
            bounded=True, bound=float(np.exp(-0.5) / np.sqrt(2.0)),
            k_independent=True, label=name)
    if name.startswith("regime-indicator:"):
        l = int(name.split(":")[1])
        return TestFunction(
            fn=lambda x, k: (np.asarray(k) == l).astype(float),
            bounded=True, bound=1.0, label=name)
    if name.startswith("halfline-regime:"):
        _, c, l = name.split(":")
        c, l = float(c), int(l)
        return TestFunction(
            fn=lambda x, k: ((np.asarray(x, dtype=float)[..., 0] >= c)
                             & (np.asarray(k) == l)).astype(float),
            bounded=True, bound=1.0, label=name)
    raise ValueError(
        f"unknown test function '{name}'; available: tanh-over-1pk, "
        "first-coord-gauss, regime-indicator:<l>, halfline-regime:<c>:<l>")


def _jsonify(obj):
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return None if np.isnan(v) else (v if np.isfinite(v) else ("inf" if v > 0 else "-inf"))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return _jsonify(obj.tolist())
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _emit(outdir: Path, command: str, config: dict, result: dict, summary: str) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    payload = {"command": command, "config": _jsonify(config), "result": _jsonify(result)}
    (outdir / f"{command}.json").write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n")
    print(summary)


def _integrator_args(p: argparse.ArgumentParser, default_h: float = 1.0 / 128):
    p.add_argument("--h", type=float, default=default_h, help="time step")
    p.add_argument("--epsilon", type=float, default=None, help="jump cutoff override")
    p.add_argument("--policy", choices=["drop", "gaussian"], default="drop",
                   help="small-jump policy")
    p.add_argument("--regime-tol", type=float, default=None,
                   help="rate-row truncation tolerance (default: the model's)")
    p.add_argument("--r-max", type=float, default=1e6)


def _coupling_args(p: argparse.ArgumentParser):
    p.add_argument("--lambda-r", dest="lambda_r", type=float, default=None)
    p.add_argument("--ball-radius", type=float, default=1e6)
    p.add_argument("--delta0", type=float, default=1.0)
    p.add_argument("--eta", type=float, default=None)


def _thread_count(text: str) -> int:
    """``--threads``: a worker count of at least 1."""
    threads = int(text)
    if threads < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {threads}")
    return threads


def _common_args(p: argparse.ArgumentParser):
    p.add_argument("--model", required=True, help="example51, example52[:delta], or config path")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=_thread_count, default=os.cpu_count() or 1)
    p.add_argument("--outdir", default=os.environ.get("RSJD_OUTDIR", "."),
                   help="output directory (env RSJD_OUTDIR)")


def _icfg(args, horizon: float) -> IntegratorConfig:
    return IntegratorConfig(step=args.h, horizon=horizon,
                            small_jump_policy=args.policy, epsilon=args.epsilon,
                            regime_tol=args.regime_tol, r_max=args.r_max)


def _ccfg(args, horizon: float, kind: str) -> CouplingConfig:
    return CouplingConfig(step=args.h, horizon=horizon,
                          small_jump_policy=args.policy, epsilon=args.epsilon,
                          regime_tol=args.regime_tol, r_max=args.r_max,
                          kind=kind, lambda_R=args.lambda_r, ball_radius=args.ball_radius,
                          delta0=args.delta0, eta=args.eta)


def _cfg_dict(args) -> dict:
    # threads and outdir cannot affect results (fixed chunking; see simulate)
    # and are excluded so reruns produce byte-identical JSON
    return {k: v for k, v in vars(args).items() if k not in ("func", "threads", "outdir")}


# ---------------------------------------------------------------------------
# Subcommand handlers (each returns an exit code)


def _cmd_simulate(args) -> int:
    spec = resolve_model(args.model)
    start = _parse_state(args.start)
    cfg = _icfg(args, args.t)
    rec = simulate_path(spec, start, cfg, args.seed)
    out = Path(args.outdir)
    out.mkdir(parents=True, exist_ok=True)
    rec.to_csv(out / "simulate.csv")
    if args.npz:
        rec.to_npz(out / "simulate.npz")
    result = {
        "terminal_x": rec.xs[-1].tolist(), "terminal_k": int(rec.ks[-1]),
        "n_switches": len(rec.switch_events), "n_jumps": len(rec.jump_events),
        "exited": rec.exited,
        "small_jump_var_dropped": rec.small_jump_var_dropped,
    }
    _emit(out, "simulate", _cfg_dict(args), result,
          f"simulate: X({args.t})={rec.xs[-1].tolist()} k={int(rec.ks[-1])} "
          f"switches={len(rec.switch_events)} jumps={len(rec.jump_events)}")
    return EXIT_OK


def _cmd_couple(args) -> int:
    spec = resolve_model(args.model)
    s1, s2 = _parse_state(args.start), _parse_state(args.start2)
    rec = couple(spec, s1, s2, _ccfg(args, args.t, args.kind), args.seed)
    out = Path(args.outdir)
    out.mkdir(parents=True, exist_ok=True)
    rec.to_csv(out / "couple.csv")
    (out / "couple_marks.json").write_text(
        json.dumps(_jsonify(rec.marks_dict()), sort_keys=True, indent=2) + "\n")
    result = {"marks": rec.marks_dict(), "final_delta": float(rec.delta[-1])}
    _emit(out, "couple", _cfg_dict(args), result,
          f"couple[{args.kind}]: T={rec.marks['T']} zeta={rec.marks['zeta']} "
          f"final |delta|={rec.delta[-1]:.3e}")
    return EXIT_OK


def _trend_command(args, kind: str) -> int:
    analysis._check_threshold(args.threshold, "--threshold")
    spec = resolve_model(args.model)
    x = np.array([float(v) for v in args.x.split(",")])
    seps = [float(s) for s in args.separations.split(",")]
    if 0.0 in seps:
        # the pair starts at x, so the estimate is exactly 0 and passes any trend
        raise ValueError(f"--separations must all be nonzero, got {args.separations}")
    xts = [x + s * np.eye(spec.d)[0] for s in seps]
    f = _named_function(args.f, spec.d)
    cfg = _ccfg(args, args.t, kind)
    if kind == "basic":
        results = analysis.feller_modulus(spec, f, x, xts, args.k, args.t, args.n,
                                          cfg, args.seed, threads=args.threads)
    else:
        results = analysis.strong_feller_modulus(spec, f, x, xts, args.k, args.t,
                                                 args.n, cfg, args.seed,
                                                 threads=args.threads)
    ok, detail = analysis.trend_ok(results, args.threshold)
    bound_ok = all(r.extra.get("bound_ok", True) for r in results)
    result = {"trend_ok": ok, "bound_ok": bound_ok, "detail": detail,
              "per_point": [r.to_dict() for r in results]}
    name = "feller" if kind == "basic" else "strong-feller"
    _emit(Path(args.outdir), name, _cfg_dict(args), result,
          f"{name}: estimates={['%.4g' % r.estimate for r in results]} "
          f"trend_ok={ok} bound_ok={bound_ok}")
    return EXIT_OK if (ok and bound_ok) else EXIT_CHECK_FAILED


def _cmd_feller(args) -> int:
    return _trend_command(args, "basic")


def _cmd_strong_feller(args) -> int:
    return _trend_command(args, "reflection")


def _write_terminal_csv(path: Path, terminal: dict) -> None:
    x = terminal["x"]
    extra = [c for c in ("weight",) if c in terminal]
    write_csv(path, [f"x{i+1}" for i in range(x.shape[1])] + ["k"] + extra,
              x, terminal["k"], *(terminal[c] for c in extra))


def _cmd_irreducible(args) -> int:
    spec = resolve_model(args.model)
    start = _parse_state(args.start)
    center, radius = _parse_ball(args.target)
    cfg = _icfg(args, args.t)
    res = analysis.estimate_transition(spec, start, args.t, center, radius,
                                       args.regime, args.n, cfg, args.seed,
                                       threads=args.threads,
                                       adapt_until_positive=args.adapt,
                                       keep_terminal=args.terminal_csv)
    if args.terminal_csv:
        out = Path(args.outdir)
        out.mkdir(parents=True, exist_ok=True)
        _write_terminal_csv(out / "irreducible_terminal.csv",
                            res.extra.pop("_terminal"))
    lower = res.extra["lower95"]
    result = {"estimate": res.to_dict(), "lower95": lower, "positive": lower > 0.0}
    _emit(Path(args.outdir), "irreducible", _cfg_dict(args), result,
          f"irreducible: P(t,(x,k),BxL) ~= {res.estimate:.5f}, 95% lower bound "
          f"{lower:.6f} ({'>0' if lower > 0 else 'NOT > 0'})")
    return EXIT_OK if lower > 0.0 else EXIT_CHECK_FAILED


def _cmd_killed(args) -> int:
    spec = resolve_model(args.model)
    start = _parse_state(args.start)
    center, radius = _parse_ball(args.ball)
    lo, hi, npts = _parse_grid(args.m_grid, "--m-grid")
    cfg = _icfg(args, args.t)
    killed = analysis.estimate_killed_subtransition(spec, start, args.t, center, radius,
                                                    args.n, cfg, args.seed,
                                                    threads=args.threads,
                                                    keep_terminal=args.terminal_csv)
    if args.terminal_csv:
        out = Path(args.outdir)
        out.mkdir(parents=True, exist_ok=True)
        _write_terminal_csv(out / "killed_terminal.csv", killed.extra.pop("_terminal"))
    # result unused; kept while perfbench's `killed` declares four ensembles of path-steps
    frozen = analysis.estimate_transition(spec, start, args.t, center, radius,
                                          start.k, args.n, cfg, args.seed + 1,
                                          threads=args.threads)
    ens = simulate_ensemble(spec, start, replace(cfg, horizon=args.t), args.n,
                            args.seed + 2, threads=args.threads, regime="frozen")
    p_frozen = float(np.mean(analysis._hits(ens, center, radius)))
    se_frozen = float(np.sqrt(max(p_frozen * (1 - p_frozen), 1e-300) / args.n))

    xs = np.linspace(lo, hi, npts)
    grid = np.zeros((npts, spec.d))
    grid[:, 0] = xs
    M = float(RowTruncator(spec.rates, 1e-12).row_sums(grid, np.full(npts, start.k)).max())

    full = analysis.estimate_transition(spec, start, args.t, center, radius,
                                        start.k, args.n, cfg, args.seed + 3,
                                        threads=args.threads)
    lower_ok = killed.estimate >= np.exp(-M * args.t) * p_frozen \
        - 3.0 * (killed.stderr + se_frozen)
    series_ok = full.estimate >= killed.estimate - 3.0 * (full.stderr + killed.stderr)
    result = {
        "killed_subtransition": killed.to_dict(),
        "frozen_transition": {"estimate": p_frozen, "stderr": se_frozen},
        "full_transition_same_regime": full.to_dict(),
        "sup_rate_M": M,
        "survival_lower_ok": bool(lower_ok),
        "series_first_term_ok": bool(series_ok),
    }
    _emit(Path(args.outdir), "killed", _cfg_dict(args), result,
          f"killed: Pt~={killed.estimate:.5f} >= e^(-Mt) P^(k)={np.exp(-M*args.t)*p_frozen:.5f} "
          f"({'ok' if lower_ok else 'FAIL'}); full >= killed ({'ok' if series_ok else 'FAIL'})")
    return EXIT_OK if (lower_ok and series_ok) else EXIT_CHECK_FAILED


def _cmd_invariant(args) -> int:
    analysis._check_threshold(args.tv_tol, "--tv-tol")
    spec = resolve_model(args.model)
    starts = [_parse_state(s) for s in args.starts.split(";")]
    if len(starts) < 2:
        raise ValueError("--starts needs at least two states to compare")
    lo, hi = (float(v) for v in args.box.split(":"))
    part = analysis.Partition(lo=(lo,) * spec.d, hi=(hi,) * spec.d,
                              bins=(args.bins,) * spec.d, k_max=args.kmax)
    cfg = _icfg(args, args.t_end)
    rep = analysis.estimate_invariant(spec, starts, args.t_burn, args.t_end, cfg,
                                      part, args.seed, n_paths=args.paths,
                                      threads=args.threads)
    ok = rep.max_pairwise_tv <= args.tv_tol and bool(np.all(rep.window_tv <= args.tv_tol))
    result = {"report": rep.to_dict(), "tv_tol": args.tv_tol, "ok": ok}
    _emit(Path(args.outdir), "invariant", _cfg_dict(args), result,
          f"invariant: max pairwise TV={rep.max_pairwise_tv:.4f}, "
          f"window TV={[round(v, 4) for v in rep.window_tv.tolist()]}, "
          f"tol={args.tv_tol} ({'ok' if ok else 'FAIL'})")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _cmd_lyapunov(args) -> int:
    spec = resolve_model(args.model)
    if spec.default_lyapunov is None:
        print("model declares no default Lyapunov function", file=sys.stderr)
        return EXIT_INPUT_ERROR
    xs, kk = _probe_grid(args.grid, args.kmax, spec.d)
    cert = LyapunovCertificate(V=spec.default_lyapunov, alpha=args.alpha,
                               beta=args.beta)
    rep = check_lyapunov(spec, cert, xs, kk, tol=args.tol)
    out = Path(args.outdir)
    out.mkdir(parents=True, exist_ok=True)
    rep.to_csv(out / "lyapunov.csv")
    result = {"ok": rep.ok, "max_margin": rep.max_margin,
              "max_bracket": rep.max_bracket, "n_points": int(len(rep.margins)),
              "failures": list(rep.failures)}
    _emit(out, "lyapunov", _cfg_dict(args), result, "lyapunov: " + rep.summary())
    return EXIT_OK if rep.ok else EXIT_CHECK_FAILED


def _g_of(args):
    if args.g.startswith("power:"):
        p = float(args.g.split(":", 1)[1])
        return lambda r: r ** p
    from .config import _compile
    return _compile(args.g, ("r",))


def _cmd_g_function(args) -> int:
    g = _g_of(args)
    Gf = analysis.build_G(args.kappa, args.lam, g)
    d1 = np.diff(Gf.values)
    d2 = np.diff(d1)
    ok = (Gf.values[0] == 0.0 and float(d1.min()) >= -1e-10
          and float(d2.max()) <= 1e-10 and (Gf.alpha > 0.0 or Gf.alpha_boundary))
    out = Path(args.outdir)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "g_function.csv", ["r", "G", "Gprime"], Gf.rs, Gf.values, Gf.deriv)
    result = {"alpha": Gf.alpha, "alpha_boundary": Gf.alpha_boundary,
              "min_increment": float(d1.min()), "max_second_difference": float(d2.max()),
              "G_at_1": float(Gf.values[-1]), "ok": ok}
    _emit(out, "g-function", _cfg_dict(args), result,
          f"g-function: alpha={Gf.alpha:.6f}{' (boundary)' if Gf.alpha_boundary else ''}, "
          f"G(1)={Gf.values[-1]:.6f}, invariants {'ok' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _cmd_f_function(args) -> int:
    _check_positive("--r-max-tab", args.r_max_tab, finite=True)
    g = _g_of(args)
    Ff = analysis.build_F(g)
    rgrid = np.linspace(0.0, args.r_max_tab, 2001)
    vals = Ff.tabulate_r(rgrid)
    cap = rgrid / (1.0 + rgrid)
    d2 = np.diff(vals, 2)
    ok = bool(np.all(vals >= -1e-15) and np.all(vals <= cap + 1e-12)
              and float(d2.max()) <= 1e-10)
    out = Path(args.outdir)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "f_function.csv", ["r", "F"], rgrid, vals)
    result = {"F_at_inf": float(Ff.f_tab[-1]), "max_second_difference": float(d2.max()),
              "ok": ok}
    _emit(out, "f-function", _cfg_dict(args), result,
          f"f-function: F(inf)={Ff.f_tab[-1]:.6f}, invariants {'ok' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _cmd_validate(args) -> int:
    spec = resolve_model(args.model)
    xs, ks = _probe_grid(args.grid, args.kmax, spec.d)
    rep = validate_model(spec, xs, ks, quad_crosscheck=args.quad_crosscheck)
    result = rep.to_dict()
    _emit(Path(args.outdir), "validate", _cfg_dict(args), result,
          "validate: " + ("no violation found at %d points" % rep.n_points
                          if rep.passed else "VIOLATION found"))
    return EXIT_OK if rep.passed else EXIT_CHECK_FAILED


def _cmd_dynkin(args) -> int:
    analysis._check_threshold(args.z_max, "--z-max")
    spec = resolve_model(args.model)
    x = np.array([float(v) for v in args.x.split(",")])
    f = _named_function(args.f, spec.d)
    cfg = _icfg(args, args.t_small)
    res = dynkin_check(spec, f, x, args.k, args.t_small, args.n, cfg, args.seed,
                       threads=args.threads)
    ok = res.z_score <= args.z_max
    result = {**res.to_dict(), "z_max": args.z_max, "ok": ok}
    _emit(Path(args.outdir), "dynkin", _cfg_dict(args), result,
          f"dynkin: lhs={res.lhs:.5f} rhs={res.rhs:.5f} z={res.z_score:.3f} "
          f"({'ok' if ok else 'FAIL'})")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# Parser: one argument builder per subcommand


def _simulate_args(p):
    _common_args(p)
    _integrator_args(p, default_h=1e-3)
    p.add_argument("--start", required=True, help="x1,...,xd,k")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--npz", action="store_true", help="also write the binary event log")


def _couple_args(p):
    _common_args(p)
    _integrator_args(p)
    p.add_argument("--kind", choices=["basic", "reflection"], default="basic")
    p.add_argument("--start", required=True)
    p.add_argument("--start2", required=True)
    p.add_argument("--t", type=float, required=True)
    _coupling_args(p)


def _trend_args(p, fdefault: str):
    _common_args(p)
    _integrator_args(p)
    p.add_argument("--x", default="0", help="base point coordinates")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--separations", default="0.2,0.1,0.05,0.025")
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--n", type=int, default=50000)
    p.add_argument("--f", default=fdefault)
    p.add_argument("--threshold", type=float, default=0.05)
    _coupling_args(p)


def _irreducible_args(p):
    _common_args(p)
    _integrator_args(p)
    p.add_argument("--start", required=True)
    p.add_argument("--target", required=True, help="a1,...,ad,r")
    p.add_argument("--regime", type=int, required=True)
    p.add_argument("--t", type=float, default=2.0)
    p.add_argument("--n", type=int, default=20000)
    p.add_argument("--adapt", action="store_true")
    p.add_argument("--terminal-csv", action="store_true",
                   help="also dump per-path terminal states")


def _killed_args(p):
    _common_args(p)
    _integrator_args(p)
    p.add_argument("--start", required=True)
    p.add_argument("--ball", required=True, help="c1,...,cd,r")
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--n", type=int, default=20000)
    p.add_argument("--m-grid", default="-20:20:2001",
                   help="grid for the sup of the switching rate (lo:hi:n)")
    p.add_argument("--terminal-csv", action="store_true",
                   help="also dump per-path terminal states and weights")


def _invariant_args(p):
    _common_args(p)
    _integrator_args(p, default_h=0.02)
    p.add_argument("--starts", required=True, help="semicolon-separated states")
    p.add_argument("--t-burn", type=float, default=20.0)
    p.add_argument("--t-end", type=float, default=200.0)
    p.add_argument("--box", default="-5:5")
    p.add_argument("--bins", type=int, default=10)
    p.add_argument("--kmax", type=int, default=10)
    p.add_argument("--paths", type=int, default=256)
    p.add_argument("--tv-tol", type=float, default=0.1)


def _lyapunov_args(p):
    _common_args(p)
    p.add_argument("--grid", default="-5:5:21")
    p.add_argument("--kmax", type=int, default=30)
    p.add_argument("--alpha", type=float, default=1.0 / 6.0)
    p.add_argument("--beta", type=float, default=2.5)
    p.add_argument("--tol", type=float, default=1e-6)


def _g_function_args(p):
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--lam", type=float, required=True)
    p.add_argument("--g", default="power:-0.3333333333333333")
    p.add_argument("--outdir", default=os.environ.get("RSJD_OUTDIR", "."))


def _f_function_args(p):
    p.add_argument("--g", default="power:-0.3333333333333333")
    p.add_argument("--r-max-tab", type=float, default=20.0)
    p.add_argument("--outdir", default=os.environ.get("RSJD_OUTDIR", "."))


def _validate_args(p):
    _common_args(p)
    p.add_argument("--grid", default="-10:10:41")
    p.add_argument("--kmax", type=int, default=20)
    p.add_argument("--quad-crosscheck", type=int, default=3)


def _dynkin_args(p):
    _common_args(p)
    _integrator_args(p, default_h=2.0 ** -14)
    p.add_argument("--x", default="0.5")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--f", default="first-coord-gauss")
    p.add_argument("--t-small", type=float, default=2.0 ** -8)
    p.add_argument("--n", type=int, default=100000)
    p.add_argument("--z-max", type=float, default=4.0)


# subcommand -> (help, argument builder, handler), in the order of --help
COMMANDS = {
    "simulate": ("one trajectory to CSV", _simulate_args, _cmd_simulate),
    "couple": ("one coupled pair to CSV + marks sidecar", _couple_args, _cmd_couple),
    "feller": ("feller modulus trend along a shrinking sequence",
               lambda p: _trend_args(p, "tanh-over-1pk"), _cmd_feller),
    "strong-feller": ("strong-feller modulus trend along a shrinking sequence",
                      lambda p: _trend_args(p, "halfline-regime:0:1"), _cmd_strong_feller),
    "irreducible": ("reachability with a positive lower bound", _irreducible_args,
                    _cmd_irreducible),
    "killed": ("killed sub-transition inequalities", _killed_args, _cmd_killed),
    "invariant": ("occupation-histogram self-consistency", _invariant_args, _cmd_invariant),
    "lyapunov": ("drift-certificate margin on a grid", _lyapunov_args, _cmd_lyapunov),
    "g-function": ("tabulate the contraction gauge", _g_function_args, _cmd_g_function),
    "f-function": ("tabulate the reachability gauge", _f_function_args, _cmd_f_function),
    "validate": ("assumption spot-checks on a probe grid", _validate_args, _cmd_validate),
    "dynkin": ("generator-integrator consistency z-score", _dynkin_args, _cmd_dynkin),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``rsjd`` argument parser.

    With ``command`` None, every subcommand of ``COMMANDS`` is registered
    with its options, so ``rsjd --help`` and the error for an unknown
    subcommand list them all.  With ``command`` one of ``COMMANDS``, only
    that subcommand is registered, which spares building the other eleven
    on every call; ``run`` names the one it is about to parse.  Its
    subparsers' metavar spells out the full ``{simulate,...,dynkin}`` list,
    so every usage line reads as in the full parser.  The full parser sets
    no metavar, as that would change its "invalid choice" message.
    """
    ap = argparse.ArgumentParser(
        prog="rsjd",
        description="Simulation and verification toolkit for regime-switching "
                    "jump diffusions with countably many regimes")
    if command is None:
        sub = ap.add_subparsers(dest="command", required=True)
        names = list(COMMANDS)
    else:
        sub = ap.add_subparsers(dest="command", required=True,
                                metavar="{" + ",".join(COMMANDS) + "}")
        names = [command]
    for name in names:
        help_text, add_args, handler = COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        add_args(p)
        p.set_defaults(func=handler)
    return ap


def run(argv) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    ap = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT_ERROR if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except RsjdError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
