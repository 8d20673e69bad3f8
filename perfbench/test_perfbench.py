"""The benchmark's own tests, at tiny sizes.

    python3 -m pytest perfbench
"""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

import pytest  # noqa: E402

from perfbench import inputs, reference as ref, run, tracing, workloads  # noqa: E402

TINY = {
    "cli-small": lambda: workloads.CliSmall(),
    "large-degree": lambda: workloads.LargeDegree(degree=400),
    "products": lambda: workloads.Products(scale=0.05),
}


def phase(name, tracer=None, seed=7, wl=None):
    wl = wl or TINY[name]()
    return workloads.run_phase(wl, wl.stream(seed), tracer or tracing.NullTracer(), 0.05)


@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_answers_pass_their_checks(name):
    out = phase(name)
    assert out["failed"] == 0
    assert len(out["latencies"]) >= TINY[name]().cycle


@pytest.mark.parametrize("name", sorted(TINY))
def test_planted_wrong_answer_is_counted(name):
    wl = TINY[name]()
    right = wl.answer
    planted = []

    def wrong(t, inp):
        out = right(t, inp)
        if planted:
            return out
        planted.append(True)
        if name == "cli-small":
            code, stdout, stderr = out
            return code, stdout + "0\n", stderr
        if name == "large-degree":
            return dict(out, same=False)
        return dict(out, text=out["text"] + " + 0")

    wl.answer = wrong
    assert phase(name, wl=wl)["failed"] == 1


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_reports_every_per_layer_metric(name):
    t = tracing.Tracer()
    traced = phase(name, tracer=t)
    assert traced["failed"] == 0
    layers = run.layer_metrics(t, traced)
    measured_apart = {"trace.overhead_ratio", "cli.import_ms", "cli.interpreter_ms"}
    declared = {m["name"] for m in run.spec()["per_layer"]}
    assert set(layers) | measured_apart == declared
    assert 0.5 < layers["trace.coverage_ratio"] <= 1.0
    assert layers["canonical.canonicalize_ms"] > 0 and layers["envelope.hull_points_ms"] > 0
    if name == "cli-small":
        assert layers["cli.self_ms"] > 0
        assert layers["cli.exit_1"] == layers["cli.exit_1_expected"]
        assert layers["cli.exit_2"] == layers["cli.exit_2_expected"]


def _random_run(rng):
    terms = inputs.small_terms(rng)
    return ref.from_terms([(v, e) for _, v, e in terms])


def test_reference_canonical_forms_agree():
    rng = random.Random(5)
    for _ in range(300):
        f = _random_run(rng)
        g = ref.canonical_chord(f)
        assert g == ref.canonical_hull(f)
        assert ref.is_canonical_of(f, f[0], g)
        if len(g) > 2:
            lowered = list(g)
            lowered[1] -= Fraction(1, 7)
            assert not ref.is_canonical_of(f, f[0], lowered)


def test_reference_convolution_matches_definition():
    rng = random.Random(6)
    for _ in range(100):
        f, g = _random_run(rng), _random_run(rng)
        low, h = ref.convolve(f, g)
        assert low == f[0] + g[0]
        for k, c in enumerate(h):
            sums = [
                a + b
                for i, a in enumerate(f[1])
                for j, b in enumerate(g[1])
                if i + j == k and a is not None and b is not None
            ]
            assert c == (min(sums) if sums else None)


def test_compare_flags_a_regression_beyond_the_bound(tmp_path, capsys):
    def record(rate):
        return {"workload": "cli-small", "metrics": {"answers_per_s": {"value": rate, "unit": "1/s"}}}

    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    a.write_text("".join(json.dumps(record(r)) + "\n" for r in (100, 101, 99)))
    b.write_text("".join(json.dumps(record(r)) + "\n" for r in (60, 61, 59)))
    assert run.compare(str(a), str(b)) == 1
    assert "WORSE" in capsys.readouterr().out
    assert run.compare(str(a), str(a)) == 0


def test_start_up_launches_check_their_output():
    ms, ok = run.cold_start()
    assert ok and ms > 0
    assert run.bare_interpreter()[1] and run.import_cli()[1]


def test_refuses_to_run_without_the_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(HERE):
        if name.endswith((".py", ".md")):
            (bench / name).write_text(open(os.path.join(HERE, name)).read())
    (tmp_path / "BENCHMARK.json").write_text(open(os.path.join(ROOT, "BENCHMARK.json")).read())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-small", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
