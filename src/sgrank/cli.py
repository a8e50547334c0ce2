"""Command line front end.

Subcommands: ``sgr``, ``gr``, ``dim``, ``hypergraph``, ``sample``, ``verify``.
Exit codes: 0 success, 1 failed check, failed suite or stdout closed early by
its reader, 2 unparseable input, 3 precondition violation (zero tensor,
degree < 2, bad parameters such as ``verify --jobs`` below 1, an unwritable
``sample --out`` path), 4 timeout (with partial diagnostics, never a wrong
number).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .errors import ComputationTimeout, InvalidInputError, ParseError, SgrankError
from .groebner import Ideal, buchberger, deadline_poll, ideal_dimension
from .polyring import PolyRing, order_by_name, parse_field, parse_polynomial
from .rank import RankReport, rank_report, singular_ideal
from .strata import (
    sample_irreducible_sgr2,
    sample_reducible,
    sample_secant_tangential,
    sample_tangential,
)
from .tensor import hypergraph_tensor, parse_hypergraph, tensor_from_json
from . import verify as verify_mod
from .rank import sgr as compute_sgr

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_TIMEOUT = 4


def _field(args):
    """Reject a ``--timeout`` that is not > 0, then return the run's field.

    The conversion stays out of argparse ``type=``: argparse does not catch
    ParseError, so a bad ``--field`` would end in a traceback, not exit 2.
    """
    field = parse_field(args.field)
    if not args.timeout > 0:  # NaN too
        raise InvalidInputError("timeout must be positive")
    return field


def _add_common(p):
    """--field, --timeout and --json, read by every subcommand that runs the engine."""
    p.add_argument("--field", default="QQ", help="coefficient field: QQ or Fp:<prime> (default QQ)")
    p.add_argument("--timeout", type=float, default=300.0, help="seconds per computation (default 300)")
    p.add_argument("--json", action="store_true", help="machine-readable JSON output")


def _add_engine_flags(p):
    """_add_common plus -v, which sample does not read; verify reads none of them."""
    _add_common(p)
    p.add_argument("-v", "--verbose", action="count", default=0, help="print extra diagnostics")


def _add_input_flags(p):
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--poly", help="polynomial in the text grammar, e.g. 'x0*x1^2 + x0*x2^2'")
    g.add_argument("--tensor", help="path to a tensor JSON file")
    p.add_argument("--nvars", type=int, default=None, help="ambient variable count (default: inferred)")


def _load_input(args):
    """Input object from --poly or --tensor (over QQ; converted at compute time)."""
    if args.poly is not None:
        return parse_polynomial(args.poly, nvars=args.nvars)
    return tensor_from_json(_read(args.tensor, "tensor"))


def _emit_report(report: RankReport, args, annotation=None):
    if args.json:
        print(json.dumps(report.to_json_dict()))
        return
    if report.sgr is not None:
        print(f"sgr: {report.sgr}")
        print(f"singular locus affine dimension: {report.sing_dim_affine} "
              f"(ambient {report.ambient})")
    if report.gr is not None:
        print(f"gr: {report.gr}")
    print(f"field: {report.field}")
    print(f"time: {report.ms} ms")
    if report.sgr_basis_size is not None and args.verbose:
        print(f"singular ideal basis size: {report.sgr_basis_size}")
    if report.gr is not None and args.verbose:
        if report.gr_basis_size is None:
            print("multilinear ideal: not completed for every block; GR read off SGR = "
                  "flattening rank, or proved equal to its upper bound (the flattening "
                  "rank, or the degree of a form with a linear factor) by the "
                  "twisted system")
        else:
            print(f"multilinear ideal basis size: {report.gr_basis_size}")
    chain = report.bound_chain()
    if chain:
        print(f"bounds: {chain}")
    if annotation:
        print(annotation)
    if report.field.startswith("Fp:"):
        print("note: for input with integer coefficients and p above the degree, "
              f"SGR and GR over {report.field} are lower bounds on their QQ values; "
              "rerun over QQ to certify")


def cmd_rank(args) -> int:
    """``sgr`` and ``gr``; a general tensor must be symmetric when only SGR is asked."""
    field = _field(args)
    obj = _load_input(args)
    poll = deadline_poll(args.timeout)
    report = rank_report(obj, compute_gr=args.compute_gr, field=field, poll=poll)
    _emit_report(report, args)
    return EXIT_OK


def cmd_dim(args) -> int:
    field = _field(args)
    t0 = time.perf_counter()
    nvars = args.nvars
    if nvars is None:
        nvars = max(parse_polynomial(text).ring.nvars for text in args.poly)
    ring = PolyRing(nvars, field, order_by_name(args.order))
    polys = [parse_polynomial(text, ring=ring) for text in args.poly]
    if args.singular:
        if len(polys) != 1:
            raise InvalidInputError("--singular expects exactly one polynomial")
        ideal = singular_ideal(polys[0])
    else:
        ideal = Ideal(polys)
    poll = deadline_poll(args.timeout)
    basis = buchberger(ideal, poll=poll)
    dim = ideal_dimension(basis, poll=poll)
    ms = round((time.perf_counter() - t0) * 1000.0, 3)
    if args.json:
        print(json.dumps({
            "dim": dim,
            "ambient": nvars,
            "basis_size": len(basis),
            "field": field.name,
            "ms": ms,
        }))
    else:
        print(f"affine dimension: {dim} (ambient {nvars})")
        print(f"basis size: {len(basis)}")
        if args.verbose:
            for g in basis:
                print(f"  {g}")
        print(f"field: {field.name}")
        print(f"time: {ms} ms")
    return EXIT_OK


def cmd_hypergraph(args) -> int:
    field = _field(args)
    hg = parse_hypergraph(_read(args.edges, "edge"))
    tensor = hypergraph_tensor(hg)
    poll = deadline_poll(args.timeout)
    report = rank_report(tensor, compute_gr=args.gr, field=field, poll=poll)
    annotation = (f"symmetric subrank of the hypergraph tensor <= {report.sgr} "
                  f"(vertices={hg.n}, uniformity={hg.uniformity}, edges={len(hg.edges)})")
    _emit_report(report, args, annotation=None if args.json else annotation)
    return EXIT_OK


def _read(path, what):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {what} file {path!r}: {exc}") from exc


def _write(path, text):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InvalidInputError(f"cannot write {path!r}: {exc.strerror}") from exc


_SAMPLE_KINDS = ("tangential", "secant", "c_ir", "irreducible", "reducible")


def cmd_sample(args) -> int:
    field = _field(args)
    kind = args.kind
    n = args.n
    meta = {"kind": kind, "n": n, "seed": args.seed}
    if kind == "tangential":
        poly = sample_tangential(n, seed=args.seed)
        expected = 1
    elif kind == "secant":
        if args.r is None:
            raise InvalidInputError("secant sampling needs -r")
        poly = sample_secant_tangential(args.r, n, seed=args.seed)
        expected = args.r
        meta["r"] = args.r
    elif kind in ("c_ir", "irreducible"):
        poly = sample_irreducible_sgr2(n, seed=args.seed)
        expected = 2
    else:  # reducible; argparse admits only _SAMPLE_KINDS
        poly = sample_reducible(args.d1, args.d2, n, seed=args.seed)
        expected = 2
        meta["d1"] = args.d1
        meta["d2"] = args.d2
    meta["poly"] = str(poly)

    checked_ok = True
    if args.check:
        poll = deadline_poll(args.timeout)
        value = compute_sgr(poly, field=field, poll=poll)
        meta["sgr"] = value
        meta["expected_sgr"] = expected
        checked_ok = value == expected

    if args.out:
        _write(args.out, str(poly) + "\n")
        _write(args.out + ".json", json.dumps(meta, indent=2) + "\n")
        if not args.json:
            print(f"wrote {args.out} and {args.out}.json")
    if args.json:
        print(json.dumps(meta))
    elif not args.out:
        print(str(poly))
        if args.check:
            status = "ok" if checked_ok else "MISMATCH"
            print(f"check: sgr={meta['sgr']} expected={expected} [{status}]")
    if args.check and not checked_ok:
        return EXIT_FAILED
    return EXIT_OK


def cmd_verify(args) -> int:
    t0 = time.perf_counter()
    try:
        results = verify_mod.run_suite(args.suite, jobs=args.jobs)
    except KeyError as exc:  # unknown suite; run_case turns case errors into results
        raise ParseError(str(exc)) from exc
    failed = 0
    for res in results:
        status = "PASS" if res.ok else "FAIL"
        if not res.ok:
            failed += 1
        if args.json:
            print(json.dumps({
                "case": res.name, "ok": res.ok, "detail": res.detail, "ms": res.ms,
            }))
        else:
            print(f"{status}  {res.name}  ({res.ms} ms)  {res.detail}")
    elapsed = time.perf_counter() - t0
    if not args.json:
        print(f"suite {args.suite}: {len(results) - failed} passed, {failed} failed "
              f"({elapsed:.1f} s)")
    return EXIT_OK if failed == 0 else EXIT_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sgrank",
        description="Exact symmetric geometric rank and geometric rank of tensors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sgr", help="symmetric geometric rank of a form or symmetric tensor")
    _add_input_flags(p)
    _add_engine_flags(p)
    p.set_defaults(func=cmd_rank, compute_gr=False)

    p = sub.add_parser("gr", help="geometric rank (and sgr for symmetric input)")
    _add_input_flags(p)
    _add_engine_flags(p)
    p.set_defaults(func=cmd_rank, compute_gr=True)

    p = sub.add_parser("dim", help="affine dimension of the zero set of given polynomials")
    p.add_argument("--poly", action="append", required=True,
                   help="ideal generator (repeatable)")
    p.add_argument("--nvars", type=int, default=None)
    p.add_argument("--singular", action="store_true",
                   help="use the partial-derivative ideal of the single given form")
    p.add_argument("--order", default="grevlex", choices=["grevlex", "lex"],
                   help="monomial order of the basis (default grevlex)")
    _add_engine_flags(p)
    p.set_defaults(func=cmd_dim)

    p = sub.add_parser("hypergraph", help="rank bound for a uniform hypergraph edge file")
    p.add_argument("edges", help="edge file: one edge per line, 1-based vertices, # comments")
    p.add_argument("--gr", action="store_true", help="also compute the geometric rank")
    _add_engine_flags(p)
    p.set_defaults(func=cmd_hypergraph)

    p = sub.add_parser("sample", help="draw a random form from a rank stratum")
    p.add_argument("kind", choices=_SAMPLE_KINDS)
    p.add_argument("-n", type=int, required=True, help="projective ambient dimension n")
    p.add_argument("-r", type=int, default=None, help="number of secant terms")
    p.add_argument("--d1", type=int, default=2, help="first factor degree (reducible)")
    p.add_argument("--d2", type=int, default=1, help="second factor degree (reducible)")
    p.add_argument("--check", action="store_true", help="compute sgr and compare")
    p.add_argument("--out", default=None, help="write the sample here plus a .json sidecar")
    p.add_argument("--seed", type=int, default=0, help="sampler seed (default 0)")
    _add_common(p)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite", help="one of: " + ", ".join(sorted(verify_mod.SUITES)))
    p.add_argument("--jobs", type=int, default=1, help="parallel workers for batch cases")
    p.add_argument("--json", action="store_true", help="machine-readable JSON output")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # The reader closed stdout early (``| head``).  Point stdout at
        # devnull so the interpreter's flush at exit stays silent.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_FAILED
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ComputationTimeout as exc:
        diag = exc.diagnostics()
        print(
            "error: timed out; partial progress: "
            f"basis_size={diag['basis_size']}, pairs_done={diag['pairs_done']}, "
            f"pairs_left={diag['pairs_left']}",
            file=sys.stderr,
        )
        return EXIT_TIMEOUT
    except SgrankError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
