#!/usr/bin/env python3
"""Closed-loop benchmark of sgrank's rank pipeline.

One process and one thread send one query at a time through the public
library API and wait for each answer; every answer is checked against a value
held in ``inputs.py``.  Times are reported in calibration units (cu): one cu
is the time of a fixed slice of pure-Python tuple and dict work that lives
here.  A timer signal runs the slice every 20 ms, inside queries too, and
each query's time is divided by the slices around it, so drift of the
machine's speed cancels.

    python3 perfbench/run.py --workload trace-m4-fp --seed 1 --seconds 25 --trace 0

The last line of output is one JSON object: end-to-end metrics with
``--trace 0``, per-layer metrics (``tracing.py``) with ``--trace 1``.  The
lines before it print every metric by name and unit, plus context.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT_DIR = HERE / "out"
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import tracing  # noqa: E402

PASSES = 8             # distinct seeded passes generated at set-up; runs cycle through them
SETUP_REPEATS = 5      # set-up runs this often; setup_s is the median
MIN_PASSES = 2
CU_REFERENCE_S = 0.0008  # seconds per cu of the development machine, to report setup_s
SAMPLE_PERIOD_S = 0.02  # a calibration slice runs this often during the measured run
SAMPLE_MARGIN = 5      # slices on each side of a query that join its calibration window
QUERY_DEADLINE_S = 45.0
RUN_HARD_STOP_S = 110.0
# A run of orbit-batch or dim-search answers about 100 queries, so p90 has
# about ten beyond it; on the one-query passes it is close to the maximum.
TAIL_QUANTILE = 0.9

# One small query per kind, with a known answer: the diagonal cubic (SGR 3),
# the w-state (SGR 1, GR 2) and the 6-cycle (dimension 3).
WARMUP = {
    "rank": inputs.Query("warm-up", "rank", "QQ", 4, ("x0^3 + x1^3 + x2^3",), (3,)),
    "orbit": inputs.Query(
        "warm-up", "orbit", "QQ", 4,
        ('{"order":3,"dim":4,"symmetric":true,"entries":[{"idx":[0,0,1],"val":"1"}]}',),
        (1, 2),
    ),
    "dim": inputs.Query("warm-up", "dim", "QQ", 6, ("x0*x1", "x1*x2", "x2*x3", "x3*x4", "x4*x5", "x0*x5"), (3,)),
}


# ---------------------------------------------------------------------------
# Calibration unit
# ---------------------------------------------------------------------------

def calib_slice() -> int:
    """One cu of work: tuple building, dict updates and int arithmetic."""
    work = {}
    shift = (1, 0, 2, 0, 1, 3, 0, 0, 2, 1, 0, 1)
    for i in range(300):
        mono = tuple(a + b for a, b in zip(shift, (i & 3, i >> 2 & 3, i >> 4 & 3) * 4))
        prev = work.get(mono)
        work[mono] = (i * 7919 if prev is None else prev * 31 + i) % 2147483647
    return len(work)


class Sampler:
    """Times the calibration slice every SAMPLE_PERIOD_S from a timer signal.

    The slices run between the bytecodes of whatever is executing, queries
    included, so they see the machine at the speed the query saw.  Slices
    taken at the two ends of a query's window were timed just outside it.
    """

    def __init__(self):
        self.samples = []     # duration of each slice, in seconds
        self._busy = False

    def _tick(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        calib_slice()
        self.samples.append(time.perf_counter() - t0)
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def to_cu(self, rec):
        """Set rec["cu"]: the query's wall time without the slices taken
        inside it, over the mean slice time around it."""
        i0, i1 = rec["samples"]
        inside = sum(self.samples[i0:i1])
        window = self.samples[max(0, i0 - SAMPLE_MARGIN): i1 + SAMPLE_MARGIN]
        rec["cu"] = (rec["wall_s"] - inside) / statistics.fmean(window)


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------

def load_sgrank():
    """Import sgrank afresh from the checkout's source tree."""
    if not (SRC / "sgrank" / "__init__.py").is_file():
        raise SystemExit(f"no sgrank source tree under {SRC}")
    for name in [m for m in sys.modules if m == "sgrank" or m.startswith("sgrank.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return importlib.import_module("sgrank")


def deadline_poll(sg, deadline: float):
    """A poll hook that cancels the Groebner run once the deadline passes."""
    def poll(stats):
        if time.monotonic() > deadline:
            raise sg.ComputationTimeout(
                "query deadline passed",
                basis_size=stats.basis_size,
                pairs_done=stats.pairs_done,
                pairs_left=stats.pairs_left,
            )
    return poll


def answer(sg, q, poll) -> tuple:
    """Run one query through the public API.  Functions are looked up on
    their modules at call time, so the traced run sees its wrappers."""
    field = sg.polyring.parse_field(q.field)
    if q.kind == "rank":
        form = sg.polyring.parse_polynomial(q.text[0], nvars=q.nvars, field=field)
        return (sg.rank.rank_report(form, poll=poll).sgr,)
    if q.kind == "orbit":
        tensor = sg.tensor.tensor_from_json(q.text[0], field=field)
        report = sg.rank.rank_report(tensor, compute_gr=True, poll=poll)
        return (report.sgr, report.gr)
    gens = [sg.polyring.parse_polynomial(t, nvars=q.nvars, field=field) for t in q.text]
    basis = sg.groebner.buchberger(gens, poll=poll)
    return (sg.groebner.ideal_dimension(basis),)


def run_pass(sg, sampler, queries, hard_stop, tracer=None) -> list:
    """Run the queries in order, one at a time; return one record each."""
    records = []
    for q in queries:
        if time.monotonic() > hard_stop:
            break
        rec = {"name": q.name, "error": None}
        poll = deadline_poll(sg, time.monotonic() + QUERY_DEADLINE_S)
        if tracer is not None:
            tracer.begin_query(q.name)
        i0 = len(sampler.samples)
        t0 = time.perf_counter()
        try:
            got = answer(sg, q, poll)
        except Exception as exc:  # a failed query is recorded, and the run goes on
            got = None
            rec["error"] = f"{type(exc).__name__}: {exc}"
        rec["wall_s"] = time.perf_counter() - t0
        rec["samples"] = (i0, len(sampler.samples))
        if tracer is not None:
            tracer.end_query()
        if got is not None and got != q.expected:
            rec["error"] = f"answered {list(got)}, expected {list(q.expected)}"
        elif rec["wall_s"] > QUERY_DEADLINE_S:
            # the dimension search cannot poll, so it can finish late
            rec["error"] = f"ran {rec['wall_s']:.1f} s, past the deadline"
        records.append(rec)
    return records


def percentile(sorted_values, q: float) -> float:
    """Linear-interpolated percentile, q in [0, 1]."""
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def summarize(passes, pass_size: int, calib) -> dict:
    """End-to-end figures of a run: medians over its complete passes."""
    records = [r for p in passes for r in p]
    complete = [p for p in passes if len(p) == pass_size] or passes
    cus = sorted(r["cu"] for r in records)
    return {
        "solve_cu": statistics.median(sum(r["cu"] for r in p) for p in complete),
        "query_p50_cu": percentile(cus, 0.5),
        "query_tail_cu": percentile(cus, TAIL_QUANTILE),
        "queries": len(records),
        "passes": len(complete),
        "failed": [f"{r['name']}: {r['error']}" for r in records if r["error"]],
        "solve_s": statistics.median(sum(r["wall_s"] for r in p) for p in complete),
        "calib_s": statistics.median(calib),
    }


# ---------------------------------------------------------------------------
# Set-up and the measured run
# ---------------------------------------------------------------------------

def setup(sampler, workload: str, seed: int):
    """Import sgrank, generate every pass's inputs and warm up, timed like a
    query."""
    i0 = len(sampler.samples)
    t0 = time.perf_counter()
    sg = load_sgrank()
    passes = [inputs.make_queries(workload, seed, k) for k in range(PASSES)]
    warm = dataclasses.replace(WARMUP[passes[0][0].kind], field=passes[0][0].field)
    if answer(sg, warm, None) != warm.expected:
        raise SystemExit(f"warm-up query answered wrongly on {workload}")
    rec = {"wall_s": time.perf_counter() - t0, "samples": (i0, len(sampler.samples))}
    return rec, sg, passes


def measure(sampler, sg, passes, seconds: float, traced: bool):
    """Run passes, at least MIN_PASSES, until the next would end after
    ``seconds``.

    In a traced run each pass runs untraced and then traced on the same
    inputs, so the difference is the tracing overhead.
    """
    plain, traced_passes = [], []
    tracer = tracing.Tracer(sg) if traced else None
    start = time.monotonic()
    hard_stop = start + RUN_HARD_STOP_S
    while True:
        t_pass = time.monotonic()
        queries = passes[len(plain) % len(passes)]
        plain.append(run_pass(sg, sampler, queries, hard_stop))
        if tracer is not None:
            with tracer.installed():
                traced_passes.append(run_pass(sg, sampler, queries, hard_stop, tracer))
        now = time.monotonic()
        if now > hard_stop or (
            len(plain) >= MIN_PASSES and now + (now - t_pass) > start + seconds
        ):
            break
    return plain, traced_passes, tracer


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    with Sampler() as sampler:
        setups = []
        for _ in range(SETUP_REPEATS):
            rec, sg, passes = setup(sampler, args.workload, args.seed)
            setups.append(rec)
        plain, traced_passes, tracer = measure(sampler, sg, passes, args.seconds, bool(args.trace))
        time.sleep(SAMPLE_PERIOD_S * SAMPLE_MARGIN)   # slices after the last query
    for rec in setups + [r for p in plain + traced_passes for r in p]:
        sampler.to_cu(rec)
    pass_size = len(passes[0])

    base = summarize(plain, pass_size, sampler.samples)
    attempted = sum(len(p) for p in plain + traced_passes)
    failed = base["failed"]
    if args.trace:
        traced = summarize(traced_passes, pass_size, sampler.samples)
        failed = failed + traced["failed"]
        metrics = tracer.metrics(traced_passes, traced)
        metrics["bench.trace_overhead_cu"] = (traced["solve_cu"] - base["solve_cu"], "cu")
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}-{args.seed}.json"
        tracer.write_spans(spans_path)
        print(f"spans: {spans_path}")
    else:
        metrics = {
            "setup_s": (statistics.median(r["cu"] for r in setups) * CU_REFERENCE_S, "s"),
            "solve_cu": (base["solve_cu"], "cu"),
            "query_p50_cu": (base["query_p50_cu"], "cu"),
            "query_tail_cu": (base["query_tail_cu"], "cu"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "success_frac": (1 - len(failed) / attempted, "ratio"),
        }

    print(
        f"workload {args.workload} seed {args.seed}: {base['queries']} queries in "
        f"{base['passes']} passes of {pass_size}; the tail is their p{100 * TAIL_QUANTILE:.0f}"
    )
    print(
        f"context bench.solve_s {base['solve_s']:.4f} s, bench.calib_s {base['calib_s']:.6f} s, "
        f"set-up wall {statistics.median(r['wall_s'] for r in setups):.4f} s"
    )
    print(f"fail_frac {len(failed) / attempted:.4f} ({len(failed)} of {attempted})")
    for line in failed:
        print(f"FAILED {line}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
