"""tropoly benchmark: timed, traced and compare modes.

    python3 perfbench/run.py --workload cli-small --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload products --seed 1 --seconds 10 --trace 1 --out A.jsonl
    python3 perfbench/run.py compare A.jsonl B.jsonl

Run from the repository root. Each run starts its workload in fresh
processes that import tropoly from ./src, checks every answer against the
benchmark's own reference, and prints as its last line one JSON object
with the keys correct, attempted, failed and metrics. With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones. See
perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from functools import partial
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Subprocess launches behind each start-up timing.
LAUNCHES = 40
#: The measuring process is killed after this many seconds.
DEADLINE_S = 170.0


def spec() -> dict:
    """BENCHMARK.json: the metric names, units, directions and bounds."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# -- worker: one fresh process --------------------------------------------------

def worker(workload: str, seed: int, seconds: float, mode: str) -> dict:
    """Set up (import tropoly and answer warm-up inputs) and, unless mode is
    "setup", measure. Returns the raw samples for the parent."""
    sys.path.insert(0, SRC)
    sys.path.insert(0, ROOT)
    from perfbench import inputs  # generators only; tropoly is not imported yet

    warm = inputs.warmup(workload, seed)
    t0 = perf_counter()
    from perfbench import tracing, workloads  # imports tropoly

    wl = workloads.WORKLOADS[workload]()
    null = tracing.NullTracer()
    for item in warm:
        wl.answer(null, wl.prepare(item))
    result = {"setup_s": perf_counter() - t0}
    if mode == "setup":
        return result
    items = wl.stream(seed)
    untraced_s = seconds if mode == "time" else seconds / 2
    launcher = Launcher(mode, untraced_s, workload, seed)
    result["phase"] = workloads.run_phase(wl, items, null, untraced_s, launcher)
    launcher.finish()
    result["launches"], result["launch_failures"] = launcher.samples, launcher.wrong
    if mode == "trace":
        t = tracing.Tracer()
        traced = workloads.run_phase(wl, items, t, seconds / 2)
        traced["layers"] = layer_metrics(t, traced)
        result["traced"] = traced
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return result


class Launcher:
    """Start-up timings in fresh subprocesses, run between answers and
    spread evenly over the phase's answer time: the machine's speed
    drifts over seconds, so launches bunched together would all see the
    same speed. Timed runs launch the CLI cold and, after every fifth
    launch, a process that only sets up; traced runs time
    `import tropoly.cli` and the bare interpreter."""

    def __init__(self, mode: str, seconds: float, workload: str, seed: int):
        if mode == "time":
            probe = ("setup_s", partial(setup_probe, workload, seed))
            self.jobs = [("cold_start_ms", cold_start)] * 5 + [probe]
            self.jobs *= LAUNCHES // 5
        else:
            self.jobs = [("cli.import_ms", import_cli), ("cli.interpreter_ms", bare_interpreter)] * (LAUNCHES // 2)
        self.seconds = seconds
        self.samples: dict = defaultdict(list)
        self.done = self.wrong = 0

    def __call__(self, answered_s: float):
        due = len(self.jobs) * min(1.0, answered_s / self.seconds)
        while self.done < due:
            name, job = self.jobs[self.done]
            ms, ok = job()
            self.samples[name].append(ms)
            self.wrong += not ok
            self.done += 1

    def finish(self):
        self(self.seconds)


def _launch(args: list) -> tuple:
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=60)
    return (perf_counter() - t0) * 1e3, proc


def setup_probe(workload: str, seed: int) -> tuple:
    _, proc = _launch([os.path.join(HERE, "run.py"), "worker", "--workload", workload,
                       "--seed", str(seed), "--seconds", "0", "--mode", "setup"])
    ok = proc.returncode == 0
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"] if ok else float("nan"), ok


def cold_start() -> tuple:
    ms, proc = _launch(["-m", "tropoly.cli", "canon", "x^2 + 4x + 6"])
    return ms, proc.returncode == 0 and proc.stdout == "x^2 + 3x + 6\n"


def import_cli() -> tuple:
    _, proc = _launch(["-c", "import time; t = time.perf_counter(); import tropoly.cli; print(time.perf_counter() - t)"])
    return float(proc.stdout) * 1e3, proc.returncode == 0


def bare_interpreter() -> tuple:
    ms, proc = _launch(["-c", "pass"])
    return ms, proc.returncode == 0


FUNCTIONS = (
    "polynomial.parse_poly", "polynomial.from_terms", "polynomial.format_poly",
    "polynomial.json", "polynomial.mul", "polynomial.add", "polynomial.evaluate",
    "polynomial.argmin", "envelope.hull_points", "envelope.lower_envelope",
    "canonical.canonicalize", "canonical.equivalent", "canonical.revalidate",
    "factorization.factor", "factorization.expand", "factorization.zero_locus",
    "factorization.format",
)

COUNTS = (
    "polynomial.terms_parsed", "polynomial.chars_out", "polynomial.mul_pairs",
    "envelope.points_in", "envelope.hull_vertices",
    "factorization.roots", "factorization.distinct_roots",
)

EXIT_COUNTS = ("cli.exit_1", "cli.exit_1_expected", "cli.exit_2", "cli.exit_2_expected")


def layer_metrics(t, phase) -> dict:
    """Per-layer numbers from a traced phase. Times and counts are per
    answer; exit counts are totals."""
    from perfbench.tracing import LAYERS, PROBES

    n = len(phase["latencies"])
    self_s = t.self_times()
    layer_s = dict.fromkeys(LAYERS, 0.0)
    for name, s in self_s.items():
        layer = name.split(".")[0]
        if layer in layer_s and name not in PROBES:
            layer_s[layer] += s
    # main() is one span; the replay of its library calls is timed apart
    layer_s["cli"] = self_s.get("cli.main", 0.0) - t.total("replay")
    out = {f"{layer}.self_ms": s * 1e3 / n for layer, s in layer_s.items()}
    out.update({f"{name}_ms": self_s.get(name, 0.0) * 1e3 / n for name in FUNCTIONS})
    out.update({name: t.counts[name] / n for name in COUNTS})
    out.update({name: t.counts[name] for name in EXIT_COUNTS})
    points = t.counts["envelope.points_in"]
    out["envelope.hull_ratio"] = t.counts["envelope.hull_vertices"] / points if points else 0.0
    out["scalar.coeff_bits_max"] = t.maxima["scalar.coeff_bits_max"]
    out["trace.coverage_ratio"] = sum(layer_s.values()) / sum(phase["latencies"])
    return out


# -- parent: orchestration and metrics -----------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(args, mode: str) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"), "worker",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode,
    ]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=DEADLINE_S)
    if proc.returncode != 0:
        raise SystemExit(f"{mode} worker failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def p90(samples: list) -> float:
    """Nearest-rank 90th percentile."""
    ordered = sorted(samples)
    return ordered[-(-9 * len(ordered) // 10) - 1]


def measure(args) -> tuple:
    """Returns (result line, full record)."""
    main_run = run_worker(args, "trace" if args.trace else "time")
    phase = main_run["phase"]
    lat = phase["latencies"]
    launches = main_run["launches"]
    attempted = len(lat) + sum(map(len, launches.values()))
    failed = phase["failed"] + main_run["launch_failures"]
    metrics = {name: statistics.median(v) for name, v in launches.items()}
    record = {"samples": {"answers": len(lat), **{name: len(v) for name, v in launches.items()}}}
    if args.trace:
        traced = main_run["traced"]
        attempted += len(traced["latencies"])
        failed += traced["failed"]
        metrics.update(traced["layers"])
        untraced_rate = len(lat) / phase["busy_s"]
        metrics["trace.overhead_ratio"] = len(traced["latencies"]) / traced["busy_s"] / untraced_rate
        record["samples"]["traced_answers"] = len(traced["latencies"])
    else:
        metrics.update(
            answers_per_s=len(lat) / sum(lat),
            answer_p50_ms=statistics.median(lat) * 1e3,
            answer_p90_ms=p90(lat) * 1e3,
            ok_ratio=1 - failed / attempted,
            peak_rss_mb=main_run["peak_rss_mb"],
        )
    declared = {m["name"]: m["unit"] for m in spec()["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != set(declared):
        raise SystemExit(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(declared))}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": declared[k]} for k, v in metrics.items()},
    }
    record.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        git_sha=git_sha(), python=platform.python_version(), nproc=len(os.sched_getaffinity(0)),
        correct=result["correct"], attempted=attempted, failed=failed, metrics=result["metrics"],
    )
    return result, record


def git_sha():
    """The checked-out commit, read from .git without running git; None
    outside a git checkout."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", name)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        return None
    return None


# -- compare --------------------------------------------------------------------

def load_records(path: str) -> list:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def compare(path_a: str, path_b: str) -> int:
    """Per workload and metric: each side's median and quartiles, and
    whether B is worse than A by more than the metric's bound."""
    declared = spec()
    bounds = {m["name"]: (m["better"], m.get("bound")) for m in declared["end_to_end"] + declared["per_layer"]}
    sides = [load_records(path_a), load_records(path_b)]
    worse_any = False
    for workload in sorted({r["workload"] for side in sides for r in side}):
        print(f"== {workload}")
        print(f"{'metric':34s} {'A median [q1, q3] n':>34s} {'B median [q1, q3] n':>34s} {'B/A':>7s}  verdict")
        names = sorted({k for side in sides for r in side if r["workload"] == workload for k in r["metrics"]})
        for name in names:
            stats = []
            for side in sides:
                values = [r["metrics"][name]["value"] for r in side if r["workload"] == workload and name in r["metrics"]]
                stats.append(summary(values))
            better, bound = bounds.get(name, ("lower", None))
            cells = [
                ("-" if s is None else f"{s[0]:.5g} [{s[1]:.5g}, {s[2]:.5g}] {s[3]}").rjust(34)
                for s in stats
            ]
            a, b = stats
            ratio = b[0] / a[0] if a and b and a[0] else None
            verdict = ""
            if ratio is not None and bound is not None:
                change = ratio - 1 if better == "lower" else 1 - ratio
                verdict = f"WORSE beyond {bound:.0%}" if change > bound else "within bound"
                worse_any |= change > bound
            print(f"{name:34s} {cells[0]} {cells[1]} {'-' if ratio is None else f'{ratio:.3f}':>7s}  {verdict}")
    return 1 if worse_any else 0


def summary(values: list):
    if not values:
        return None
    if len(values) == 1:
        return values[0], values[0], values[0], 1
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, len(values)


# -- command line -------------------------------------------------------------

def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        ap = argparse.ArgumentParser(prog="run.py compare")
        ap.add_argument("a")
        ap.add_argument("b")
        args = ap.parse_args(argv[1:])
        return compare(args.a, args.b)
    if argv[:1] == ["worker"]:
        ap = argparse.ArgumentParser(prog="run.py worker")
        ap.add_argument("--workload", required=True)
        ap.add_argument("--seed", type=int, required=True)
        ap.add_argument("--seconds", type=float, required=True)
        ap.add_argument("--mode", choices=("setup", "time", "trace"), required=True)
        args = ap.parse_args(argv[1:])
        print(json.dumps(worker(args.workload, args.seed, args.seconds, args.mode)))
        return 0
    ap = argparse.ArgumentParser(description="tropoly benchmark")
    ap.add_argument("--workload", required=True, choices=("cli-small", "large-degree", "products"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append the full record, as one JSON line, to this file")
    args = ap.parse_args(argv)
    if not os.path.exists(os.path.join(SRC, "tropoly", "__init__.py")):
        print(f"tropoly sources not found under {SRC}", file=sys.stderr)
        return 2
    result, record = measure(args)
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    print("record " + json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
