"""Per-layer spans and exact Groebner counts, measured from outside sgrank.

The traced run replaces public functions of sgrank's modules with wrappers
that record a span around each call: name, start, end, parent span and the
query it belongs to.  Spans stay in memory and are written out when the run
ends.  ``buchberger`` is additionally called with a counting ``poll`` hook at
``poll_every=1``, which reads exact pair and basis counts from ``GBStats``.
Basis statistics are read after the query's clock has stopped.
"""

from __future__ import annotations

import contextlib
import json
import time

# Span name -> per-layer metric it is charged to.  Rank spans count only
# their self time: their children are the wrapped calls below them.
LAYER_OF = {
    "tensor.tensor_from_json": "tensor.from_json",
    "tensor.to_polynomial": "tensor.to_polynomial",
    "tensor.to_general": "tensor.to_polynomial",
    "polyring.partial_derivative": "polyring.partial_derivative",
    "rank.rank_report": "rank.self",
    "rank.sgr_details": "rank.self",
    "rank.gr_details": "rank.self",
    "groebner.buchberger": "groebner.buchberger",
    "groebner.ideal_dimension": "groebner.dimension",
}
TIMED_LAYERS = (
    "tensor.from_json",
    "tensor.to_polynomial",
    "polyring.partial_derivative",
    "rank.self",
    "groebner.buchberger",
    "groebner.dimension",
)


class Tracer:
    """Installs the wrappers and keeps the spans and counts of a run."""

    def __init__(self, sg):
        self.sg = sg
        self.t0 = time.perf_counter()
        self.spans = []       # [name, start, end, parent index, query index]
        self.stack = []
        self.queries = []     # query names; a span's query index points here
        self.calls = []       # one dict of counts per buchberger call
        self.pending = []     # (counts, basis) awaiting basis statistics

    # -- spans -------------------------------------------------------------

    def _open(self, name) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, len(self.queries) - 1])
        self.stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def begin_query(self, name: str):
        self.queries.append(name)
        self._open("query")

    def end_query(self):
        self._close(self.stack[-1])
        for counts, basis in self.pending:
            counts.update(basis_stats(basis))
        self.pending.clear()

    def _wrap(self, name, fn):
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return wrapper

    def _counted(self, fn):
        """buchberger with a poll at every pair that records exact counts."""
        def counted_buchberger(generators, *, poll=None, poll_every=8):
            counts = {"pairs_reduced": 0, "pairs_peak": 0, "basis_peak": 0}

            def count(stats):
                counts["pairs_reduced"] = stats.pairs_done
                counts["pairs_peak"] = max(counts["pairs_peak"], stats.pairs_left)
                counts["basis_peak"] = max(counts["basis_peak"], stats.basis_size)
                if poll is not None:
                    poll(stats)

            basis = fn(generators, poll=count, poll_every=1)
            self.calls.append(counts)
            self.pending.append((counts, basis))
            return basis
        return self._wrap("groebner.buchberger", counted_buchberger)

    @contextlib.contextmanager
    def installed(self):
        """Patch the public functions for the duration of the block."""
        sg = self.sg
        targets = [
            (sg.tensor, "tensor_from_json", "tensor.tensor_from_json"),
            (sg.tensor.SymmetricTensor, "to_polynomial", "tensor.to_polynomial"),
            (sg.tensor.SymmetricTensor, "to_general", "tensor.to_general"),
            (sg.polyring.Polynomial, "partial_derivative", "polyring.partial_derivative"),
            (sg.rank, "rank_report", "rank.rank_report"),
            (sg.rank, "sgr_details", "rank.sgr_details"),
            (sg.rank, "gr_details", "rank.gr_details"),
            # rank imported these two by name; the dimension search calls
            # them on the groebner module
            (sg.rank, "ideal_dimension", "groebner.ideal_dimension"),
            (sg.groebner, "ideal_dimension", "groebner.ideal_dimension"),
        ]
        saved = []
        for owner, attr, name in targets:
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, self._wrap(name, owner.__dict__[attr]))
        for owner in (sg.rank, sg.groebner):
            saved.append((owner, "buchberger", owner.buchberger))
            owner.buchberger = self._counted(owner.buchberger)
        try:
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def layer_seconds(self) -> dict:
        """Total seconds per layer over all traced queries."""
        children = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                children[parent] += end - start
        totals = dict.fromkeys(TIMED_LAYERS, 0.0)
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            layer = LAYER_OF.get(name)
            if layer is None:
                continue
            if layer == "rank.self":
                totals[layer] += end - start - children[i]
            elif parent is None or LAYER_OF.get(self.spans[parent][0]) != layer:
                totals[layer] += end - start
        return totals

    def metrics(self, traced_passes, summary) -> dict:
        """Per-layer metrics: seconds per query, shares of the traced solve
        time, and exact counts."""
        nq = max(1, sum(len(p) for p in traced_passes))
        solve_s = sum(r["wall_s"] for p in traced_passes for r in p)
        out = {}
        totals = self.layer_seconds()
        for layer in TIMED_LAYERS:
            out[f"{layer}_s"] = (totals[layer] / nq, "s")
            out[f"{layer}_share"] = (totals[layer] / solve_s, "ratio")
        calls = self.calls
        dim_calls = sum(1 for s in self.spans if s[0] == "groebner.ideal_dimension")
        pairs = sum(c["pairs_reduced"] for c in calls)
        out["groebner.buchberger_calls"] = (len(calls) / nq, "count")
        out["groebner.pairs_reduced"] = (pairs / nq, "count")
        out["groebner.pairs_peak"] = (max((c["pairs_peak"] for c in calls), default=0), "count")
        out["groebner.basis_peak"] = (max((c["basis_peak"] for c in calls), default=0), "count")
        out["groebner.pairs_per_s"] = (
            pairs / totals["groebner.buchberger"] if totals["groebner.buchberger"] else 0.0, "1/s")
        for key, unit in (("basis_size", "count"), ("basis_terms", "count"),
                          ("basis_max_degree", "count"), ("coeff_bits_max", "bits")):
            out[f"groebner.{key}"] = (max((c.get(key, 0) for c in calls), default=0), unit)
        out["groebner.dimension_calls"] = (dim_calls / nq, "count")
        out["bench.solve_s"] = (summary["solve_s"], "s")
        out["bench.calib_s"] = (summary["calib_s"], "s")
        out["bench.solve_cu_traced"] = (summary["solve_cu"], "cu")
        return out

    def write_spans(self, path):
        doc = {
            "queries": self.queries,
            "fields": ["name", "start_s", "end_s", "parent", "query"],
            "spans": [
                [name, round(start - self.t0, 7), round(end - self.t0, 7), parent, q]
                for name, start, end, parent, q in self.spans
            ],
        }
        path.write_text(json.dumps(doc, separators=(",", ":")))


def basis_stats(basis) -> dict:
    """Size, term count, degree and (over QQ) coefficient bits of a basis."""
    over_qq = basis.ring.field.characteristic == 0
    bits = 0
    terms = 0
    degree = 0
    for g in basis:
        terms += len(g.terms)
        degree = max(degree, g.total_degree())
        if over_qq:
            for c in g.terms.values():
                bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
    return {"basis_size": len(basis), "basis_terms": terms,
            "basis_max_degree": degree, "coeff_bits_max": bits}
