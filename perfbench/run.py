"""Benchmark of the rsjd command line, end to end and layer by layer.

    python3 perfbench/run.py --workload ensemble --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --self-test

Each iteration starts a fresh interpreter (perfbench/child.py) that imports
rsjd from ./src, resolves the workload's models and runs the workload's
commands through ``rsjd.cli.run`` at ``--threads 1`` with BLAS/OpenMP pinned
to one thread.  Iterations repeat until ``--seconds`` is used up (at least
three, or two untraced/traced pairs), and every metric is the median over
them.  Every command's payload is checked against reference values in
perfbench/workloads.py; a command that exits non-zero, raises, or misses a
reference counts as failed.

The gated times are in "cal": each command's wall time divided by the mean
time of a fixed reference kernel (calibrate.py) that the child runs just
before and just after it.  That cancels most of the minute-to-minute drift of
a shared host's CPU speed, which no statistic of the plain times removes.
``setup_s`` is the set-up time in cal times CAL_REF_S, the kernel's typical
time on the reference machine, so it reads in seconds at that speed; the
plain set-up time is ``setup_wall_s``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced iterations and prints the per-layer metrics of the traced
ones, with ``trace.overhead_s`` = traced minus untraced wall time.  The last
stdout line is the JSON result; a results file with the machine description
and every sample goes to .perfbench_out/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path

from workloads import DEFAULT_SEED, DIGESTS, WORKLOADS, Command

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

CAL_REF_S = 0.02   # reference-kernel time on the reference machine (README)
THREADS = 1
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CHILD_TIMEOUT_S = 150

END_TO_END = (           # name, unit (bounds live in BENCHMARK.json)
    ("wall_cal", "cal"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("path_steps_per_cal", "1/cal"),
)
PER_LAYER = (
    ("model.rows_s", "s"), ("model.rows_calls", "count"), ("model.rows_entries", "count"),
    ("model.rows_level_max", "count"), ("model.rows_fire_frac", "ratio"),
    ("model.density_s", "s"), ("model.density_calls", "count"),
    ("model.density_points_per_call", "points/call"),
    ("model.coeff_s", "s"), ("model.coeff_calls", "count"), ("model.self_s", "s"),
    ("simulate.ensemble_s", "s"), ("simulate.path_steps", "count"), ("simulate.self_s", "s"),
    ("simulate.comp_quad_s", "s"), ("simulate.comp_quad_calls", "count"),
    ("coupling.ensemble_s", "s"), ("coupling.pair_steps", "count"), ("coupling.self_s", "s"),
    ("generator.apply_s", "s"), ("generator.points", "count"), ("generator.self_s", "s"),
    ("linalg.sqrt_psd_s", "s"), ("analysis.self_s", "s"), ("config.resolve_s", "s"),
    ("cli.self_s", "s"), ("cli.out_bytes", "bytes"), ("trace.overhead_s", "s"),
)


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


# ---------------------------------------------------------------------------
# One iteration


def run_child(workdir: Path, models, commands, trace: bool, threads: int = THREADS):
    """Run ``commands`` in a fresh interpreter; returns (child result, outdirs)."""
    workdir.mkdir(parents=True)
    outdirs = [workdir / f"{i}-{c.name}" for i, c in enumerate(commands)]
    spec_path = workdir / "spec.json"
    env = {k: v for k, v in os.environ.items() if k != "RSJD_OUTDIR"}
    env.update(THREAD_ENV)
    spec = {"root": str(ROOT), "models": list(models), "trace": trace, "threads": threads,
            "commands": [{"name": c.name, "argv": list(c.argv), "outdir": str(d)}
                         for c, d in zip(commands, outdirs)]}
    spec_path.write_text(json.dumps(spec))
    with subprocess.Popen([sys.executable, str(HERE / "child.py"), str(spec_path),
                           repr(time.monotonic())],
                          cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"child exceeded {CHILD_TIMEOUT_S}s")
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child failed with code {proc.returncode}:\n{stderr[-3000:]}")
    return json.loads(lines[-1]), outdirs


def judge(command: Command, record: dict, outdir: Path) -> dict:
    """Check one command's exit status and payload; returns the operation record."""
    problems = []
    digest = None
    if record["error"] is not None:
        problems.append("raised:\n" + record["error"])
    elif record["exit"] != 0:
        problems.append(f"exit code {record['exit']}: {record['log'][-500:]}")
    payload_path = outdir / f"{command.argv[0]}.json"
    if not problems:
        if not payload_path.is_file():
            problems.append(f"no payload {payload_path.name}")
        else:
            raw = payload_path.read_bytes()
            digest = hashlib.sha256(raw).hexdigest()
            try:
                problems += command.check(json.loads(raw))
            except (KeyError, TypeError, ValueError, IndexError) as exc:
                problems.append(f"malformed payload: {exc!r}")
    out_bytes = sum(p.stat().st_size for p in outdir.rglob("*") if p.is_file()) \
        if outdir.is_dir() else 0
    return {"name": command.name, "seconds": record["seconds"],
            "cal": record["seconds"] / record["calib_s"], "calib_s": record["calib_s"],
            "ok": not problems, "problems": problems, "digest": digest,
            "out_bytes": out_bytes}


def iteration(workdir: Path, workload, commands, trace: bool) -> dict:
    child, outdirs = run_child(workdir, workload.models, commands, trace)
    ops = [judge(c, r, d) for c, r, d in zip(commands, child["commands"], outdirs)]
    shutil.rmtree(workdir)
    it = {
        "trace": trace,
        "setup_wall_s": child["setup_s"],
        "setup_s": child["setup_s"] / ops[0]["calib_s"] * CAL_REF_S,
        "peak_rss_mb": child["peak_rss_mb"],
        "calib_s": statistics.mean(op["calib_s"] for op in ops),
        "ops": ops,
    }
    for unit, key in (("s", "seconds"), ("cal", "cal")):
        it[f"wall_{unit}"] = sum(op[key] for op in ops)
        for work in ("path_steps", "gen_points"):
            done = [(getattr(c, work), op[key]) for c, op in zip(commands, ops)
                    if getattr(c, work)]
            it[f"{work}_per_{unit}"] = (sum(n for n, _ in done) / sum(t for _, t in done)
                                        if done else None)
    if trace:
        layers = dict(child["layers"])
        layers["cli.out_bytes"] = sum(op["out_bytes"] for op in ops)
        declared = sum(c.path_steps for c in commands)
        traced = layers["simulate.path_steps"] + layers["coupling.pair_steps"]
        if traced != declared:
            raise BenchError(f"traced path-steps {traced} != declared {declared}")
        it["layers"] = layers
    return it


# ---------------------------------------------------------------------------
# Aggregation and reporting


def summary(values) -> dict:
    values = [float(v) for v in values]
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def machine() -> dict:
    def ver(pkg):
        try:
            return version(pkg)
        except PackageNotFoundError:
            return None
    return {"nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": ver("numpy"),
            "scipy": ver("scipy"), "platform": platform.platform(),
            "threads": THREADS, "thread_env": THREAD_ENV, "git_commit": git_commit()}


def measure(workload, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    commands = workload.commands(seed)
    modes = (False, True) if trace else (False,)
    min_rounds = 2 if trace else 3
    its = []
    t_begin = time.monotonic()
    rounds = 0
    while True:
        t_round = time.monotonic()
        for traced in modes:
            its.append(iteration(workdir / f"it{len(its)}", workload, commands, traced))
        rounds += 1
        now = time.monotonic()
        # stop before a round that would end past the budget
        if rounds >= min_rounds and now - t_begin + (now - t_round) > seconds:
            break

    plain = [it for it in its if not it["trace"]]
    ops = [op for it in its for op in it["ops"]]
    failed = [op for op in ops if not op["ok"]]
    stats = {name: summary(it[name] for it in plain)
             for name in ("wall_cal", "wall_s", "setup_s", "setup_wall_s", "peak_rss_mb",
                          "calib_s")}
    for name in ("path_steps_per_cal", "path_steps_per_s",
                 "gen_points_per_cal", "gen_points_per_s"):
        if plain[0][name] is not None:
            stats[name] = summary(it[name] for it in plain)
    for c in commands:
        for unit, key in (("cal", "cal"), ("s", "seconds")):
            stats[f"cmd.{c.name}_{unit}"] = summary(
                op[key] for it in plain for op in it["ops"] if op["name"] == c.name)
    stats["fail_frac"] = summary([len(failed) / len(ops)])
    if seed == DEFAULT_SEED:
        first = {op["name"]: op["digest"] for op in its[0]["ops"]}
        stats["digest_match"] = summary(
            [sum(1 for c in commands if DIGESTS.get(c.name) == first[c.name])])
    if trace:
        traced = [it for it in its if it["trace"]]
        for name, _ in PER_LAYER:
            if name != "trace.overhead_s":
                stats[name] = summary(it["layers"][name] for it in traced)
        stats["trace.overhead_s"] = summary(
            [statistics.median(it["wall_s"] for it in traced) - stats["wall_s"]["median"]])
    return {"stats": stats, "iterations": its, "attempted": len(ops), "failed": failed}


UNITS = dict(END_TO_END + PER_LAYER, wall_s="s", setup_wall_s="s", calib_s="s",
             path_steps_per_s="1/s", gen_points_per_cal="1/cal", gen_points_per_s="1/s",
             fail_frac="ratio", digest_match="count")


def report(name: str, res: dict, trace: bool) -> dict:
    """Print every metric with its unit; returns the result-line metrics."""
    stats = res["stats"]
    print(f"workload {name}: {len(res['iterations'])} iterations, "
          f"{res['attempted']} operations, {len(res['failed'])} failed")
    for metric, s in stats.items():
        unit = UNITS.get(metric) or metric.rsplit("_", 1)[1]   # cmd.<name>_s, _cal
        print(f"  {metric:32s} {s['median']:14.6g} {unit:12s} "
              f"(q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']})")
    for op in res["failed"]:
        print(f"  FAILED {op['name']}: {'; '.join(op['problems'])}")
    table = PER_LAYER if trace else END_TO_END
    return {m: {"value": stats[m]["median"], "unit": u} for m, u in table}


def self_test(workdir: Path) -> int:
    """Metric tables against BENCHMARK.json, thread invariance of one reduced
    ensemble command, and one correct iteration of every workload at
    DEFAULT_SEED with its payload digests."""
    problems = []
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        declared = [(m["name"], m["unit"]) for m in bench[key]]
        if declared != list(table):
            problems.append(f"BENCHMARK.json {key} differs from run.py")
    if [w["name"] for w in bench["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")

    # two chunks, so that --threads 2 really runs them concurrently
    reduced = Command("feller-2chunk", ("feller", "--model", "example51", "--h", "0.0078125",
                                        "--t", "0.0625", "--n", "8192", "--separations",
                                        "0.1,0.05", "--seed", "7"), 0, 0, lambda p: [])
    payloads = []
    for threads in (1, 2):
        _, (outdir,) = run_child(workdir / f"threads{threads}", (), [reduced], False, threads)
        payloads.append((outdir / "feller.json").read_bytes())
    same = payloads[0] == payloads[1]
    print(f"thread invariance (--threads 1 vs 2): {'identical' if same else 'DIFFERENT'}")
    if not same:
        problems.append("payload depends on --threads")

    for name, workload in WORKLOADS.items():
        it = iteration(workdir / name, workload, workload.commands(DEFAULT_SEED), False)
        for op in it["ops"]:
            match = DIGESTS.get(op["name"]) == op["digest"]
            print(f"{name:13s} {op['name']:16s} {'ok' if op['ok'] else 'FAILED':6s} "
                  f"{op['seconds']:7.3f}s digest {op['digest']} "
                  f"{'matches' if match else 'differs from the record'}")
            problems += [f"{op['name']}: {p}" for p in op["problems"]]
    for p in problems:
        print("PROBLEM:", p)
    print("self-test", "passed" if not problems else "FAILED")
    return 0 if not problems else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="thread-invariance, digest and metric-table checks")
    args = ap.parse_args(argv)
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    if not (ROOT / "src" / "rsjd" / "__init__.py").is_file():
        print(f"rsjd sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workdir = OUT / f"run-{os.getpid()}-{time.time_ns()}"
    try:
        if args.self_test:
            return self_test(workdir)
        res = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                      bool(args.trace), workdir)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = report(args.workload, res, bool(args.trace))
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
                      f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json")
    path.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine(), "units": UNITS, **res},
        indent=1, default=str) + "\n")
    print(f"results: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": not res["failed"], "attempted": res["attempted"],
                      "failed": len(res["failed"]), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
