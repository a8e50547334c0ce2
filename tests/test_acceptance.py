"""Acceptance suite: every criterion runs at its stated tolerance and budget.

Each test prints one ``ACCEPTANCE <n> <name>: PASS/FAIL`` line (run pytest
with ``-s`` to see them as they happen).  Budgets are wall-clock seconds on a
laptop-class machine; the measured engine is one to two orders of magnitude
under each budget.
"""

import time

from sgrank.rank import rank_report
from sgrank.tensor import big_cw
from sgrank.verify import run_case, suite_cases


def _run_suite(name):
    t0 = time.perf_counter()
    results = [run_case(c) for c in suite_cases(name)]
    return results, time.perf_counter() - t0


def _report(num, name, results, elapsed, budget):
    failed = [r for r in results if not r.ok]
    ok = not failed and elapsed <= budget
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} "
          f"({elapsed:.1f} s of {budget:.0f} s budget, {len(results)} cases)")
    for r in failed[:10]:
        print(f"  failed case: {r.name}: {r.detail}")
    assert not failed, f"{len(failed)} case(s) failed in {name}"
    assert elapsed <= budget, f"{name} exceeded its {budget:.0f} s budget ({elapsed:.1f} s)"


def test_criterion_1_identity_tensors():
    results, elapsed = _run_suite("identity")
    _report(1, "identity tensors sgr(I_k) = k", results, elapsed, budget=1.0)


def test_criterion_2_golden_values():
    results, elapsed = _run_suite("golden-values")
    _report(2, "golden values (CW families, smooth cubic, normal forms, w-state)",
            results, elapsed, budget=30.0)


def test_criterion_3_symmetrized_matrix_multiplication():
    results, elapsed = _run_suite("matmul")
    by_name = {r.name: r for r in results}
    small = by_name["trace cubic m=2"]
    assert small.ms < 1000.0, f"m=2 case took {small.ms} ms"
    # the odd size has no closed-form value; the engine result is recorded
    print(f"  recorded: {by_name['trace cubic m=3 (odd size, engine value)'].detail}")
    print(f"  m=4 Fp:   {by_name['trace cubic m=4 over Fp'].detail}")
    _report(3, "trace cubic tr(X^3) ranks (m = 2, 3, 4)", results, elapsed,
            budget=30.0)


def test_criterion_4_matrix_case():
    results, elapsed = _run_suite("matrix-case")
    _report(4, "matrices: sgr = gr = rank on 100 random symmetric matrices",
            results, elapsed, budget=10.0)


def test_criterion_5_rank_laws():
    results, elapsed = _run_suite("rank-properties")
    # the report annotates sgr as an upper bound for the symmetric subrank
    rep = rank_report(big_cw(2, 3), compute_gr=True)
    assert "symmetric subrank <= 2" in rep.bound_chain()
    assert rep.sgr == 2 and rep.gr == 3
    _report(5, "monotone/additive/subadditive laws and sgr <= gr", results,
            elapsed, budget=120.0)


def test_criterion_6_strata_samplers():
    results, elapsed = _run_suite("strata")
    _report(6, "stratum samplers (tangential, secant, irreducible, reducible)",
            results, elapsed, budget=180.0)


def test_criterion_7_binary_cubic_discriminant():
    results, elapsed = _run_suite("discriminant")
    _report(7, "binary cubic discriminant = 0 iff sgr <= 1", results, elapsed,
            budget=5.0)


def test_criterion_8_line_tangency():
    results, elapsed = _run_suite("tangency")
    _report(8, "line tangency surrogate (rank-one vs smooth cubics)", results,
            elapsed, budget=10.0)


def test_criterion_9_engine_cross_checks():
    results, elapsed = _run_suite("engine")
    _report(9, "engine cross-checks (brute-force dimension, QQ vs Fp, grevlex vs lex, "
               "textbook Buchberger)", results, elapsed, budget=120.0)
