"""Smoke test of the benchmark, and its reference answers against sympy.

Run from the root of the repository:

    python3 -m pytest -q bench/test_bench.py

The harness runs at a tiny size (--tiny); the test checks that every metric
BENCHMARK.json names is emitted with its unit, that a seed fixes the inputs,
and that the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest
import sympy as sp

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
NAMES = [w["name"] for w in SPEC["workloads"]]


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    for metric in wanted:
        assert f"{metric['name']} = " in proc.stdout


def _input_hash(workload: str, seed: int) -> str:
    wl = workloads.WORKLOADS[workload](seed, False)
    try:
        return run.input_hash(wl)
    finally:
        wl.close()


@pytest.mark.parametrize("workload", NAMES)
def test_seed_fixes_the_inputs(workload):
    first = _input_hash(workload, 5)
    assert _input_hash(workload, 5) == first
    assert _input_hash(workload, 6) != first


def test_speed_factor_takes_the_median_chunk_of_a_widened_window():
    sampler = speed.Sampler()  # not entered: no thread, samples set by hand
    sampler.times = [0.1 * k for k in range(10)]
    sampler.chunks = [speed.REF_CHUNK_S * (2 if k < 5 else 1) for k in range(10)]
    assert sampler.factor(0.0, 0.35) == pytest.approx(0.5)
    assert sampler.factor(0.5, 0.9) == pytest.approx(1.0)
    # one sample inside: widened to MIN_SAMPLES around it, 3 of them slow
    assert sampler.factor(0.35, 0.45) == pytest.approx(0.5)
    assert sampler.factor(0.55, 0.65) == pytest.approx(1.0)


def test_refuses_to_run_without_the_program():
    bare = os.path.join(ROOT, ".bench_runs", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        ignore = shutil.ignore_patterns("__pycache__")
        shutil.copytree(BENCH_DIR, os.path.join(bare, "bench"), ignore=ignore)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = _run("--workload", NAMES[0], "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


# ---------------------------------------------------------------------------
# reference answers against a sympy oracle
# ---------------------------------------------------------------------------


def _sympy_lambda2(vectors, mults):
    """lambda^2 from sum (lambda^2/4 (a,b) - 1) c_a c_b (a^b)x(a^b) = 0 over
    pairs of a positive system, with (a,b) = a G^-1 b^T."""
    n = len(vectors[0])
    rows = [sp.Matrix([list(v)]) for v in vectors]
    g = sp.zeros(n, n)
    for a, c in zip(rows, mults):
        g += c * a.T * a
    g_inv = g.inv()
    f = sp.Matrix([[(n + 1) ** (n - 1 - i) for i in range(n)]])
    rows = [a if (f * a.T)[0] > 0 else -a for a in rows]
    p = sp.zeros(n * (n - 1) // 2, n * (n - 1) // 2)
    q = sp.zeros(*p.shape)
    for k in range(len(rows)):
        for l in range(k + 1, len(rows)):
            a, b = rows[k], rows[l]
            w = sp.Matrix([a[i] * b[j] - a[j] * b[i] for i in range(n) for j in range(i + 1, n)])
            cc = 2 * mults[k] * mults[l]
            p += cc * (a * g_inv * b.T)[0] * w * w.T
            q += cc * w * w.T
    u, v = next((u, v) for u in range(p.rows) for v in range(p.cols) if p[u, v] != 0)
    ratio = q[u, v] / p[u, v]
    assert sp.simplify(q - ratio * p) == sp.zeros(*p.shape)
    return 4 * ratio


@pytest.mark.parametrize("n", [2, 3, 4])
def test_root_system_closed_forms_match_sympy(n):
    a = oracle.a_roots(n)
    b = oracle.b_roots(n)
    assert _sympy_lambda2(a, [1] * len(a)) == oracle.a_n_lambda2(n)
    assert _sympy_lambda2(b, [1] * len(b)) == oracle.b_n_lambda2(n)
    assert _sympy_lambda2(b, [3] * len(b)) == oracle.b_n_lambda2(n, 3)


def test_ten_vector_coupling_matches_sympy():
    vectors = [(1, 0), (2, 0), (0, 1), (0, 2), (1, 1), (1, -1), (1, 2), (1, -2), (2, 1), (2, -1)]
    mults = [12, 3, 12, 3, 8, 8, 2, 2, 2, 2]
    assert _sympy_lambda2(vectors, mults) == oracle.TEN_VECTOR_LAMBDA2
    assert oracle.is_vee_system(vectors, mults)


def test_independent_series_check_on_known_cases():
    for n in (2, 3):
        a, b = oracle.a_roots(n), oracle.b_roots(n)
        assert oracle.is_vee_system(a, [1] * len(a))
        assert oracle.is_vee_system(b, [1] * len(b))
    # one multiplicity doubled breaks A3 and B3 (A2 is a vee-system for any)
    a, b = oracle.a_roots(3), oracle.b_roots(3)
    assert not oracle.is_vee_system(a, [2] + [1] * (len(a) - 1))
    assert not oracle.is_vee_system(b, [1] * (len(b) - 1) + [2])
    b2 = [(1, 0), (0, 1), (1, 1), (1, -1)]
    assert oracle.is_vee_system(b2, [3, 3, 1, 5])
    assert not oracle.is_vee_system(b2, [1, 2, 1, 1])
    # (1,1) - (0,1) is half of the base (2,0): two series; one for base (1,0)
    assert oracle.series_classes([(2, 0), (1, 1), (0, 1)], 0) == [[1], [2]]
    assert oracle.series_classes([(1, 0), (1, 1), (0, 1)], 0) == [[1, 2]]
    assert oracle.gauss_jordan(oracle.gram(b2, [1, 1, 1, 1]))[1] == 9
    assert oracle.gauss_jordan([[1, 2], [2, 4]]) == (None, 0)
