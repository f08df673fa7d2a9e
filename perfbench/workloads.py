"""Workload definitions: the CLI commands each workload runs, how much work
they do, and the reference values their payloads are checked against.

A workload's inputs depend on the benchmark seed only through the ``--seed``
each command receives, so every seed does the same amount of work.  All
ensembles are one full ``CHUNK_SIZE`` (4096) chunk wide except where a
workload is about narrow batches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

DEFAULT_SEED = 1

H = 1.0 / 128          # step of the example51 commands
T_ENSEMBLE = 0.25      # horizon of the example51 commands
N_WIDE = 4096          # one full chunk (rsjd.simulate.CHUNK_SIZE)
CFG_MODEL = "perfbench/models/jump1d.yaml"   # relative: payloads record it
N_CFG = 64
T_CFG = 0.25
INV_PATHS = 256
INV_H = 0.02
INV_T_BURN = 5.0
INV_T_END = 50.0
LYAP_GRID = "-5:5:9"
LYAP_KMAX = 10
N_LYAP = 9 * 9 * LYAP_KMAX   # grid points x regimes


def _steps(t: float, h: float) -> int:
    return max(1, int(round(t / h)))


@dataclass(frozen=True)
class Command:
    """One CLI invocation and what to expect of it."""

    name: str                 # metric stem: cmd.<name>_s
    argv: tuple
    path_steps: int           # simulated path-steps; a coupled pair-step counts once
    gen_points: int           # generator evaluations
    check: Callable[[dict], list]   # payload -> list of problems (empty when ok)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    models: tuple             # model references resolved during set-up
    commands: Callable[[int], list]


# ---------------------------------------------------------------------------
# Reference values.  Monte Carlo headlines are means over seeds 101..110 and
# are checked to N_SIGMA of the payload's own stderr plus ABS_FLOOR; the
# deterministic ones (lyapunov, the killed sup rate) to round-off.

N_SIGMA = 6.0
ABS_FLOOR = 1e-4

REF_FELLER = (0.05597315427381737, 0.02826787812413722, 0.014179615021542965,
              0.007103994185005354)
REF_STRONG_FELLER = (0.0890869140625, 0.0459228515625, 0.02255859375, 0.0109375)
REF_KILLED = 0.8564640622494374
REF_KILLED_SUP_RATE = 1.0 / 18.0     # q_1(0), the sup over the --m-grid
REF_IRREDUCIBLE = 0.0068115234375
REF_INVARIANT_TV = 0.030135911816970236
INVARIANT_TV_TOL = 0.04              # seeds 101..110 gave 0.026..0.037
REF_LYAP_MAX_MARGIN = -1.8333333333333466
REF_IRREDUCIBLE_CFG = 0.1421875


def _near(problems: list, what: str, value, ref: float, tol: float) -> None:
    if not isinstance(value, (int, float)) or not abs(value - ref) <= tol:
        problems.append(f"{what}={value!r} outside {ref!r} +/- {tol:.3g}")


def _estimate_near(problems, what, est: dict, ref: float) -> None:
    _near(problems, what, est.get("estimate"), ref,
          N_SIGMA * float(est.get("stderr", 0.0)) + ABS_FLOOR)


def _check_trend(refs):
    def check(payload):
        problems = []
        points = payload["result"]["per_point"]
        if len(points) != len(refs):
            return [f"expected {len(refs)} separations, got {len(points)}"]
        for i, (p, ref) in enumerate(zip(points, refs)):
            _estimate_near(problems, f"per_point[{i}].estimate", p, ref)
        return problems
    return check


def _check_killed(payload):
    problems = []
    res = payload["result"]
    _estimate_near(problems, "killed_subtransition", res["killed_subtransition"], REF_KILLED)
    _near(problems, "sup_rate_M", res["sup_rate_M"], REF_KILLED_SUP_RATE, 1e-12)
    return problems


def _check_irreducible(ref):
    def check(payload):
        problems = []
        _estimate_near(problems, "estimate", payload["result"]["estimate"], ref)
        return problems
    return check


def _check_invariant(payload):
    problems = []
    _near(problems, "max_pairwise_tv", payload["result"]["report"]["max_pairwise_tv"],
          REF_INVARIANT_TV, INVARIANT_TV_TOL)
    return problems


def _check_lyapunov(payload):
    problems = []
    res = payload["result"]
    _near(problems, "max_margin", res["max_margin"], REF_LYAP_MAX_MARGIN, 1e-9)
    if res["n_points"] != N_LYAP:
        problems.append(f"n_points={res['n_points']} != {N_LYAP}")
    return problems


def _seed(seed: int, i: int) -> str:
    return str(seed * 1000 + i)


def _ensemble(seed: int) -> list:
    common = ("--model", "example51", "--h", repr(H), "--t", repr(T_ENSEMBLE),
              "--n", str(N_WIDE))
    seps = "0.2,0.1,0.05,0.025"
    steps = N_WIDE * _steps(T_ENSEMBLE, H)
    return [
        Command("feller",
                ("feller", *common, "--x", "0", "--k", "1", "--separations", seps,
                 "--seed", _seed(seed, 0)),
                4 * steps, 0, _check_trend(REF_FELLER)),
        Command("strong-feller",
                ("strong-feller", *common, "--x", "0", "--k", "1", "--separations", seps,
                 "--lambda-r", "1.0", "--seed", _seed(seed, 1)),
                4 * steps, 0, _check_trend(REF_STRONG_FELLER)),
        # killed runs four ensembles: the killed one, an unused frozen
        # estimate, the switching-free one and the full-kernel one
        Command("killed",
                ("killed", *common, "--start", "0,1", "--ball", "0,1",
                 "--seed", _seed(seed, 2)),
                4 * steps, 0, _check_killed),
        Command("irreducible",
                ("irreducible", *common, "--start", "0,1", "--target", "0,1",
                 "--regime", "2", "--seed", _seed(seed, 3)),
                steps, 0, _check_irreducible(REF_IRREDUCIBLE)),
    ]


def _long_horizon(seed: int) -> list:
    return [
        Command("invariant",
                ("invariant", "--model", "example52", "--starts", "0,0,1;3,-3,5",
                 "--h", repr(INV_H), "--epsilon", "0.2", "--t-burn", repr(INV_T_BURN),
                 "--t-end", repr(INV_T_END), "--paths", str(INV_PATHS),
                 "--box=-5:5", "--bins", "10", "--kmax", "10", "--tv-tol", "0.1",
                 "--seed", _seed(seed, 0)),
                2 * INV_PATHS * _steps(INV_T_END, INV_H), 0, _check_invariant),
    ]


def _quadrature(seed: int) -> list:
    return [
        Command("lyapunov",
                ("lyapunov", "--model", "example52:1.0", f"--grid={LYAP_GRID}",
                 "--kmax", str(LYAP_KMAX), "--seed", _seed(seed, 0)),
                0, N_LYAP, _check_lyapunov),
        Command("irreducible-cfg",
                ("irreducible", "--model", CFG_MODEL, "--start", "0,1", "--target", "0,1.5",
                 "--regime", "2", "--t", repr(T_CFG), "--h", repr(H), "--n", str(N_CFG),
                 "--seed", _seed(seed, 1)),
                N_CFG * _steps(T_CFG, H), 0, _check_irreducible(REF_IRREDUCIBLE_CFG)),
    ]


WORKLOADS = {
    w.name: w for w in (
        Workload("ensemble",
                 "wide short-horizon example51 ensembles with per-step switching; "
                 "rate-row building dominates",
                 ("example51",), _ensemble),
        Workload("long-horizon",
                 "one narrow 256-path batch over 2500 steps per start; fixed cost "
                 "per step dominates",
                 ("example52",), _long_horizon),
        Workload("quadrature",
                 "lyapunov sweep and config-model ensemble; per-point scipy quad "
                 "callbacks dominate",
                 ("example52:1.0", CFG_MODEL), _quadrature),
    )
}

# sha256 of each <command>.json payload at DEFAULT_SEED, keyed by metric stem;
# `run.py --self-test` prints the current ones
DIGESTS = {
    "feller": "c3a07ae1a57f7455aa87fe54789d96aa305495a9e3ca2f4bc014f36b6dd36b81",
    "strong-feller": "bef75512391ee74a98bdbccc4d50a257e3e954a900582022866eddafb5d2c477",
    "killed": "958ab3896bf786022a9a2aaa1a21510ad938e25ea8913ab396281d6ca1c844b4",
    "irreducible": "1711269217de5959066167d0813bef6bb8dda7d3bce80e021c82cfb8061ad6f6",
    "invariant": "edfb1bfe976826715a5441cb4220aaf0b9b624ae859e0b8dfea55ded7c32e3b7",
    "lyapunov": "50cb247408f2d53497a825ecb425f40fafb7a44d68379b102982f54bc5c48626",
    "irreducible-cfg": "484200df8f66bd40cf2f7ca5860e885698adf01493e3aaf4dbb1dd8be2530548",
}
