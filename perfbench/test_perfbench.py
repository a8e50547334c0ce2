"""Tests of the benchmark itself: seeded inputs, the answer gate, tracing.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

import dataclasses
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import inputs
import run
import tracing


@pytest.fixture(scope="module")
def sg():
    return run.load_sgrank()


@pytest.mark.parametrize("workload", sorted(inputs.WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(workload):
    for pass_no in (0, 1):
        first = "\n".join(q.to_json() for q in inputs.make_queries(workload, 11, pass_no))
        again = "\n".join(q.to_json() for q in inputs.make_queries(workload, 11, pass_no))
        assert first.encode() == again.encode()


def _digest(seed):
    text = "\n".join(q.to_json() for w in sorted(inputs.WORKLOADS)
                     for k in range(2) for q in inputs.make_queries(w, seed, k))
    return hashlib.sha256(text.encode()).hexdigest()


def test_inputs_do_not_depend_on_the_process():
    code = "import sys, test_perfbench; print(test_perfbench._digest(int(sys.argv[1])))"
    env = dict(os.environ, PYTHONHASHSEED="12345")
    out = subprocess.run([sys.executable, "-c", code, "11"], cwd=Path(__file__).parent,
                         env=env, capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == _digest(11)


@pytest.mark.parametrize("workload", sorted(inputs.WORKLOADS))
def test_other_seed_or_pass_changes_inputs(workload):
    def texts(seed, pass_no):
        return [q.text for q in inputs.make_queries(workload, seed, pass_no)]

    assert texts(11, 0) != texts(12, 0)
    assert texts(11, 0) != texts(11, 1)


def test_orbit_pass_holds_every_golden_type_alone_and_in_sums():
    queries = inputs.make_queries("orbit-batch", 3)
    assert len(queries) == len(inputs.ORBIT_LAYOUT) == 49
    assert sorted(q.nvars for q in queries) == [4] * 7 + [8] * 28 + [12] * 14
    singles = {q.name.split("[")[1].rstrip("]") for q in queries if q.nvars == 4}
    assert singles == {g[0] for g in inputs.GOLDEN}
    for q in queries:
        assert q.expected[0] <= q.expected[1]   # SGR <= GR


def _small_orbit_queries():
    singles = [q for q in inputs.make_queries("orbit-batch", 5) if q.nvars == 4]
    return singles[:4]


def _run(sg, queries, tracer=None):
    with run.Sampler() as sampler:
        records = run.run_pass(sg, sampler, queries, hard_stop=float("inf"), tracer=tracer)
    for rec in records:
        sampler.to_cu(rec)
    return records, run.summarize([records], len(queries), sampler.samples)


def test_correct_answers_pass_the_gate(sg):
    _, summary = _run(sg, _small_orbit_queries())
    assert summary["failed"] == []
    assert summary["solve_cu"] > 0


def test_wrong_expected_value_and_raising_query_count_as_failures(sg):
    queries = _small_orbit_queries()
    sgr, gr = queries[1].expected
    queries[1] = dataclasses.replace(queries[1], expected=(sgr, gr + 1))
    queries[2] = dataclasses.replace(queries[2], name="broken", text=("not json",))
    _, summary = _run(sg, queries)
    failed = summary["failed"]
    assert len(failed) == 2
    assert failed[0].startswith(queries[1].name + ": answered")
    assert failed[1].startswith("broken: ParseError")


def test_traced_run_counts_calls_and_restores_the_api(sg):
    originals = (sg.rank.buchberger, sg.groebner.buchberger, sg.rank.rank_report,
                 sg.polyring.Polynomial.partial_derivative)
    tracer = tracing.Tracer(sg)
    queries = _small_orbit_queries()
    with tracer.installed():
        records, summary = _run(sg, queries, tracer)
    assert originals == (sg.rank.buchberger, sg.groebner.buchberger, sg.rank.rank_report,
                         sg.polyring.Polynomial.partial_derivative)
    metrics = tracer.metrics([records], summary)
    assert metrics["groebner.buchberger_calls"][0] == 2      # SGR and GR ideals
    assert metrics["groebner.dimension_calls"][0] == 2
    assert metrics["groebner.pairs_reduced"][0] > 0
    assert metrics["tensor.from_json_s"][0] > 0
    assert metrics["rank.self_s"][0] > 0


@pytest.mark.parametrize("workload", ["trace-m4-fp", "h3-n7-qq"])
def test_rescaling_leaves_the_exact_counts_unchanged(sg, workload):
    counts = []
    for seed in (1, 2):
        tracer = tracing.Tracer(sg)
        with tracer.installed():
            records, summary = _run(sg, inputs.make_queries(workload, seed), tracer)
        assert summary["failed"] == []
        metrics = tracer.metrics([records], summary)
        counts.append({k: metrics[f"groebner.{k}"][0] for k in
                       ("pairs_reduced", "pairs_peak", "basis_peak", "basis_size", "basis_terms")})
    assert counts[0] == counts[1]
