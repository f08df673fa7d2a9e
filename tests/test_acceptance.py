"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every criterion helper takes a thread count and returns (ok, payload); the
final criterion re-runs all of them on a different thread count and demands
byte-identical JSON payloads.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import json

import numpy as np
import pytest

from rsjd import (
    CouplingConfig,
    HybridState,
    IntegratorConfig,
    Partition,
    TestFunction,
    build_F,
    build_G,
    dynkin_check,
    estimate_invariant,
    estimate_killed_subtransition,
    estimate_transition,
    example51,
    example52,
    feller_modulus,
    marginal_vs_independent,
    reflection_cross_covariance,
    strong_feller_modulus,
    trend_ok,
    verify_coupling_drift,
)
from rsjd.generator import LyapunovCertificate, check_lyapunov
from rsjd.cli import _jsonify
from rsjd.simulate import simulate_ensemble

from test_simulate import diag_sigma, make_model

SEED = 20260501


def f_tanh_over_1pk():
    return TestFunction(
        fn=lambda x, k: np.tanh(np.asarray(x, dtype=float)[..., 0])
        / (1.0 + np.asarray(k, dtype=float)),
        bounded=True, bound=0.5, label="tanh(x)/(1+k)")


def f_halfline_regime1():
    return TestFunction(
        fn=lambda x, k: ((np.asarray(x, dtype=float)[..., 0] >= 0.0)
                         & (np.asarray(k) == 1)).astype(float),
        bounded=True, bound=1.0, label="1{x>=0, k=1}")


def f_first_coord_gauss():
    return TestFunction(
        fn=lambda x, k: np.asarray(x, dtype=float)[..., 0]
        * np.exp(-np.sum(np.asarray(x, dtype=float) ** 2, axis=-1)),
        bounded=True, bound=float(np.exp(-0.5) / np.sqrt(2.0)), label="x1 exp(-|x|^2)")


def f_regime_2():
    return TestFunction(fn=lambda x, k: (np.asarray(k) == 2).astype(float),
                        bounded=True, bound=1.0, label="1{k=2}")


# ---------------------------------------------------------------------------
# Criteria 1..12


def crit_1_lyapunov(threads):
    """2-d model dissipation: max of A V + V/6 - 5/2 <= 1e-6 + bracket on the
    [-5,5]^2 x {1..30} grid."""
    spec = example52(1.0)
    axes = np.linspace(-5.0, 5.0, 21)
    mesh = np.meshgrid(axes, axes, indexing="ij")
    xs_space = np.stack([m.ravel() for m in mesh], axis=-1)
    xs = np.repeat(xs_space, 30, axis=0)
    ks = np.tile(np.arange(1, 31), xs_space.shape[0])
    cert = LyapunovCertificate(V=spec.default_lyapunov, alpha=1.0 / 6.0, beta=2.5)
    rep = check_lyapunov(spec, cert, xs, ks, tol=1e-6)
    payload = {"max_margin": rep.max_margin, "max_bracket": rep.max_bracket,
               "n_points": int(len(rep.margins)), "failures": list(rep.failures)}
    return rep.ok, payload


def crit_2_row_lipschitz(threads):
    """1-d model rate rows: truncated sum of |q_kl(x) - q_kl(y)| plus tail stays
    below 0.75 |x - y| + 1e-10 over 1e4 random pairs in [-10, 10]."""
    rates = example51().rates
    rng = np.random.default_rng(SEED)
    n, L = 10000, 80
    ls = np.arange(1, L + 1)
    xy = rng.uniform(-10.0, 10.0, size=(n, 2))
    karr = rng.integers(1, 31, size=n)
    qx = np.asarray(rates.rate(xy[:, :1][..., None, :], karr[:, None], ls[None, :]))
    qy = np.asarray(rates.rate(xy[:, 1:][..., None, :], karr[:, None], ls[None, :]))
    mask = ls[None, :] == karr[:, None]
    qx = np.where(mask, 0.0, qx)
    qy = np.where(mask, 0.0, qy)
    sums = np.abs(qx - qy).sum(axis=1)
    tails = np.array([2.0 * rates.tail_bound(int(k), L) for k in range(1, 31)])
    lhs = sums + tails[karr - 1]
    rhs = 0.75 * np.abs(xy[:, 0] - xy[:, 1]) + 1e-10
    worst = float(np.max(lhs - rhs))
    ok = bool(np.all(lhs <= rhs))
    return ok, {"n_pairs": n, "worst_excess": worst,
                "max_ratio": float(np.max(sums / np.maximum(np.abs(xy[:, 0] - xy[:, 1]), 1e-300)))}


def crit_3_g_f_invariants(threads):
    """Contraction and reachability gauges for g(r) = r^{-1/3}: monotone,
    concave, alpha > 0 with r <= G(r) on [0, alpha]; F within its envelope."""
    g = lambda r: r ** (-1.0 / 3.0)
    payload = {}
    ok = True
    for R in (1.0, 2.0, 5.0):
        kappa = 4.0 * (R ** (2.0 / 3.0) + 1.0)
        Gf = build_G(kappa, 1.0, g)
        h = Gf.rs[1] - Gf.rs[0]
        d1 = np.diff(Gf.values) / h
        d2 = np.diff(np.diff(Gf.values)) / h ** 2
        on = Gf.rs <= Gf.alpha
        checks = {
            "G0": Gf.values[0] == 0.0,
            "dG": float(d1.min()) >= -1e-10,
            "d2G": float(d2.max()) <= 1e-10,
            "alpha_pos": Gf.alpha > 0.0,
            "r_le_G": bool(np.all(Gf.rs[on] <= Gf.values[on] + 1e-12)),
        }
        ok = ok and all(checks.values())
        payload[f"R={R}"] = {"kappa": kappa, "alpha": Gf.alpha,
                             "min_dG": float(d1.min()), "max_d2G": float(d2.max()),
                             **{k: bool(v) for k, v in checks.items()}}
    Ff = build_F(g)
    rs = np.linspace(0.0, 20.0, 2001)
    vals = Ff.tabulate_r(rs)
    cap = rs / (1.0 + rs)
    dr = rs[1] - rs[0]
    d2f = np.diff(np.diff(vals)) / dr ** 2
    f_checks = {
        "F_nonneg": bool(np.all(vals >= 0.0)),
        "F_below_cap": bool(np.all(vals <= cap + 1e-12)),
        "d2F": float(d2f.max()) <= 1e-10,
    }
    ok = ok and all(f_checks.values())
    payload["F"] = {"max_d2F": float(d2f.max()), **{k: bool(v) for k, v in f_checks.items()}}
    return ok, payload


def crit_4_marginal_correctness(threads):
    """Both marginals of the synchronously coupled pair match independent runs:
    KS on X(1), chi-square on K(1), 1% level with Bonferroni over the 4 tests."""
    spec = example51()
    cfg = CouplingConfig(step=1.0 / 128, horizon=1.0, kind="basic")
    pvals = marginal_vs_independent(spec, HybridState(np.array([0.0]), 1),
                                    HybridState(np.array([0.3]), 1), 1.0, 20000,
                                    cfg, SEED + 4, threads=threads)
    ok = all(p >= 0.01 / 4 for p in pvals.values())
    return ok, {"p_values": pvals, "level": 0.01, "bonferroni": 4}


def crit_5_cross_covariance(threads):
    """One-step diffusion cross-covariance equals the engineered matrix within
    4 standard errors on 5 probe pairs of each built-in, 1e5 increments each."""
    probes = {
        "example51": (example51(), 1.0, [
            (np.array([0.0]), np.array([0.3]), 1),
            (np.array([1.0]), np.array([1.2]), 2),
            (np.array([-2.0]), np.array([-1.7]), 1),
            (np.array([0.5]), np.array([0.8]), 3),
            (np.array([-1.0]), np.array([-0.6]), 2),
        ]),
        "example52": (example52(1.0), 1.0 / 16.0, [
            (np.array([0.5, -0.5]), np.array([0.7, -0.2]), 2),
            (np.array([1.0, 1.0]), np.array([1.3, 0.8]), 1),
            (np.array([-1.0, 0.5]), np.array([-0.7, 0.6]), 3),
            (np.array([2.0, -1.0]), np.array([1.8, -1.2]), 1),
            (np.array([0.2, 0.1]), np.array([0.4, 0.3]), 5),
        ]),
    }
    payload = {}
    ok = True
    for name, (spec, lam, pairs) in probes.items():
        zs = []
        for i, (x, xt, k) in enumerate(pairs):
            rep = reflection_cross_covariance(spec, x, xt, k, 0.01, 100000, lam,
                                              SEED + 50 + i)
            zs.append(rep.max_z)
            ok = ok and rep.ok
        payload[name] = {"max_z_per_probe": zs, "lambda_R": lam}
    return ok, payload


def crit_6_feller_trend(threads):
    """Semigroup modulus for tanh(x)/(1+k) under the synchronous coupling along
    the dyadic sequence: nonincreasing within 2 stderr, final <= 0.05."""
    spec = example51()
    cfg = CouplingConfig(step=1.0 / 128, horizon=1.0, kind="basic")
    seps = [0.2, 0.1, 0.05, 0.025]
    res = feller_modulus(spec, f_tanh_over_1pk(), np.array([0.0]),
                         [np.array([s]) for s in seps], 1, 1.0, 50000, cfg,
                         SEED + 6, threads=threads)
    ok, detail = trend_ok(res, 0.05)
    return ok, {"separations": seps, **detail,
                "p_zeta": [r.extra["p_zeta"] for r in res]}


def crit_7_strong_feller_trend(threads):
    """Indicator modulus under the reflection coupling: trend to <= 0.05 and
    each estimate below 4 P{t<T} + 2 P{zeta<=t} + 3 stderr."""
    spec = example51()
    cfg = CouplingConfig(step=1.0 / 128, horizon=1.0, kind="reflection", lambda_R=1.0)
    seps = [0.2, 0.1, 0.05, 0.025]
    res = strong_feller_modulus(spec, f_halfline_regime1(), np.array([0.0]),
                                [np.array([s]) for s in seps], 1, 1.0, 50000, cfg,
                                SEED + 7, threads=threads)
    trend, detail = trend_ok(res, 0.05)
    bounds_ok = all(r.extra["bound_ok"] for r in res)
    ok = trend and bounds_ok
    return ok, {"separations": seps, **detail, "bounds_ok": bounds_ok,
                "coupling_bounds": [r.extra["coupling_bound"] for r in res],
                "p_not_met": [r.extra["p_not_met"] for r in res]}


def crit_8_coupling_drift(threads):
    """Short-time contraction of G(|delta|): below -2 lambda_R + 4 (stderr +
    bias allowance) for the mirror-coupled Brownian oracle and 1-d model pairs."""
    payload = {}
    bm = make_model(sigma=diag_sigma(1.0), ellipticity_floor=1.0)
    G0 = build_G(1.0, 1.0, lambda r: 0.0)
    cfg = CouplingConfig(step=1e-3, horizon=1.0, kind="reflection", lambda_R=1.0,
                         ball_radius=10.0, delta0=1.0)
    rep_bm = verify_coupling_drift(bm, G0, [(np.array([0.0]), np.array([0.3]), 1),
                                            (np.array([0.2]), np.array([0.45]), 1)],
                                   1e-3, 200000, cfg, SEED + 8, threads=threads)
    payload["brownian_oracle"] = rep_bm.to_dict()

    spec = example51()
    R = 2.0
    Gf = build_G(4.0 * (R ** (2.0 / 3.0) + 1.0), 1.0, lambda r: r ** (-1.0 / 3.0))
    cfg51 = CouplingConfig(step=2e-4, horizon=1.0, kind="reflection", lambda_R=1.0,
                           ball_radius=R, delta0=1.0)
    pairs = [(np.array([x]), np.array([x + 0.05]), 1)
             for x in (-2.0, -1.0, 0.0, 1.0, 1.95)]
    rep_51 = verify_coupling_drift(spec, Gf, pairs, 2e-4, 1000000, cfg51, SEED + 9,
                                   threads=threads)
    payload["example51"] = rep_51.to_dict()
    return rep_bm.ok and rep_51.ok, payload


def crit_9_irreducibility(threads):
    """Reachability of three ball-and-regime targets from ((0), 1) at t=2 with
    strictly positive 95% lower confidence bounds."""
    spec = example51()
    cfg = IntegratorConfig(step=1.0 / 128, horizon=2.0)
    start = HybridState(np.array([0.0]), 1)
    targets = [((1.0,), 0.5, 2), ((-1.0,), 0.5, 3), ((0.0,), 0.25, 1)]
    payload = {}
    ok = True
    for i, (a, r, l) in enumerate(targets):
        res = estimate_transition(spec, start, 2.0, np.array(a), r, l, 20000, cfg,
                                  SEED + 90 + i, threads=threads,
                                  adapt_until_positive=True, max_paths=160000)
        lower = res.extra["lower95"]
        ok = ok and lower > 0.0
        payload[f"target_{i}"] = {"center": list(a), "radius": r, "regime": l,
                                  "estimate": res.estimate, "lower95": lower,
                                  "hits": res.extra["hits"], "n": res.n_paths}
    return ok, payload


def crit_10_killed_inequalities(threads):
    """Killed sub-transition sandwich at t=1: survival lower bound with the
    independent sup-rate constant, and domination by the full kernel."""
    spec = example51()
    t = 1.0
    start = HybridState(np.array([0.0]), 1)
    center, radius = np.array([0.0]), 1.0
    cfg = IntegratorConfig(step=1.0 / 128, horizon=t)
    n = 20000
    killed = estimate_killed_subtransition(spec, start, t, center, radius, n, cfg,
                                           SEED + 10, threads=threads)
    ens = simulate_ensemble(spec, start, cfg, n, SEED + 11, threads=threads,
                            regime="frozen")
    p_frozen = float(np.mean((np.abs(ens.x[:, 0]) < radius) & ~ens.censored))
    se_frozen = float(np.sqrt(p_frozen * (1.0 - p_frozen) / n))
    # independent oracle: every row entry (1/3^{1+l})/(1+l x^2) peaks at x=0,
    # so sup_x q_1(x) = q_1(0) = (1/3) sum_{l>=2} 3^-l = 1/18
    m_sup = (1.0 / 3.0) * ((1.0 / 3.0) ** 2 / (1.0 - 1.0 / 3.0))
    full = estimate_transition(spec, start, t, center, radius, 1, n, cfg,
                               SEED + 12, threads=threads)
    survival_ok = killed.estimate >= np.exp(-m_sup * t) * p_frozen \
        - 3.0 * (killed.stderr + se_frozen)
    series_ok = full.estimate >= killed.estimate - 3.0 * (full.stderr + killed.stderr)
    payload = {
        "killed": killed.estimate, "killed_stderr": killed.stderr,
        "frozen": p_frozen, "frozen_stderr": se_frozen,
        "full_same_regime": full.estimate, "full_stderr": full.stderr,
        "sup_rate": m_sup,
        "survival_ok": bool(survival_ok), "series_ok": bool(series_ok),
    }
    return bool(survival_ok and series_ok), payload


def crit_11_invariant_tv(threads):
    """Occupation histograms from two distant starts of the 2-d model over
    t in [20, 200] agree within TV 0.1 on a 10 x 10 x {k<=10} partition."""
    spec = example52(1.0)
    part = Partition(lo=(-5.0, -5.0), hi=(5.0, 5.0), bins=(10, 10), k_max=10)
    cfg = IntegratorConfig(step=0.02, horizon=200.0, epsilon=0.2)
    rep = estimate_invariant(spec, [HybridState(np.zeros(2), 1),
                                    HybridState(np.array([3.0, -3.0]), 5)],
                             20.0, 200.0, cfg, part, SEED + 13, n_paths=256,
                             threads=threads)
    ok = rep.max_pairwise_tv <= 0.1 and bool(np.all(rep.window_tv <= 0.1))
    return ok, {"pairwise_tv": rep.max_pairwise_tv,
                "window_tv": rep.window_tv.tolist()}


def crit_12_dynkin(threads):
    """Generator-integrator consistency: z <= 4 on the fixed probe suite of
    3 models x 3 test functions."""
    suite = []
    spec51 = example51()
    spec52 = example52(1.0)
    pure_switch = make_model(rates=example51().rates)
    for name, spec, x, k, eps in (
        ("example51", spec51, np.array([0.5]), 1, 0.02),
        ("example52", spec52, np.array([0.5, -0.5]), 2, 0.05),
        ("pure-switching", pure_switch, np.array([0.3]), 1, None),
    ):
        for f in (f_first_coord_gauss(), f_tanh_over_1pk(), f_regime_2()):
            suite.append((name, spec, x, k, eps, f))
    payload = {}
    ok = True
    t_small = 2.0 ** -8
    for i, (name, spec, x, k, eps, f) in enumerate(suite):
        cfg = IntegratorConfig(step=2.0 ** -14, horizon=1.0, epsilon=eps)
        res = dynkin_check(spec, f, x, k, t_small, 100000, cfg, SEED + 120 + i,
                           threads=threads)
        ok = ok and res.z_score <= 4.0
        payload[f"{name}/{f.label}"] = {"lhs": res.lhs, "rhs": res.rhs,
                                        "z": res.z_score}
    return ok, payload


CRITERIA = {
    1: crit_1_lyapunov,
    2: crit_2_row_lipschitz,
    3: crit_3_g_f_invariants,
    4: crit_4_marginal_correctness,
    5: crit_5_cross_covariance,
    6: crit_6_feller_trend,
    7: crit_7_strong_feller_trend,
    8: crit_8_coupling_drift,
    9: crit_9_irreducibility,
    10: crit_10_killed_inequalities,
    11: crit_11_invariant_tv,
    12: crit_12_dynkin,
}


@pytest.fixture(scope="module")
def cache():
    return {}


def _run(cache, n, threads=1):
    key = (n, threads)
    if key not in cache:
        ok, payload = CRITERIA[n](threads)
        cache[key] = (ok, json.dumps(_jsonify(payload), sort_keys=True))
    return cache[key]


@pytest.mark.parametrize("n", sorted(CRITERIA))
def test_criterion(n, cache):
    ok, payload = _run(cache, n, threads=1)
    line = f"CRITERION {n}: {'PASS' if ok else 'FAIL'} -- {CRITERIA[n].__doc__.splitlines()[0]}"
    print("\n" + line)
    assert ok, payload


def test_criterion_13_determinism(cache):
    """Criteria 1-12 re-run with the same seeds on a different thread count
    produce byte-identical JSON payloads."""
    mismatches = []
    for n in sorted(CRITERIA):
        _, payload_1 = _run(cache, n, threads=1)
        _, payload_2 = CRITERIA[n](2)
        payload_2 = json.dumps(_jsonify(payload_2), sort_keys=True)
        if payload_1 != payload_2:
            mismatches.append(n)
    ok = not mismatches
    print(f"\nCRITERION 13: {'PASS' if ok else 'FAIL'} -- byte-identical JSON "
          f"for criteria 1-12 across thread counts"
          + (f" (mismatch: {mismatches})" if mismatches else ""))
    assert ok
