"""Command line behavior: dispatch, formats, exit codes."""

import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import sgrank
from sgrank.cli import main
from sgrank.tensor import big_cw


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# sgr / gr
# ---------------------------------------------------------------------------

def test_sgr_poly(capsys):
    code, out, _ = run(capsys, "sgr", "--poly", "x0*x1^2 + x0*x2^2")
    assert code == 0
    assert "sgr: 2" in out


def test_sgr_zero_poly_is_precondition_error(capsys):
    code, _, err = run(capsys, "sgr", "--poly", "0")
    assert code == 3
    assert "error" in err


def test_sgr_bad_syntax_is_parse_error(capsys):
    code, _, err = run(capsys, "sgr", "--poly", "x0 &")
    assert code == 2


def test_sgr_json_schema(capsys):
    code, out, _ = run(capsys, "sgr", "--poly", "3*x0^2*x1", "--json")
    assert code == 0
    doc = json.loads(out)
    assert list(doc.keys()) == ["sgr", "gr", "sing_dim_affine", "ambient", "field", "ms"]
    assert doc["sgr"] == 1 and doc["gr"] is None
    assert doc["field"] == "QQ"


def test_sgr_tensor_file_and_field(tmp_path, capsys):
    path = tmp_path / "icw.json"
    path.write_text(big_cw(2, 3).to_json())
    code, out, _ = run(capsys, "sgr", "--tensor", str(path), "--json")
    doc = json.loads(out)
    assert code == 0 and doc["sgr"] == 2
    code, out, _ = run(capsys, "sgr", "--tensor", str(path),
                       "--field", "Fp:2147483647", "--json")
    doc_p = json.loads(out)
    assert code == 0 and doc_p["sgr"] == 2
    assert doc_p["field"] == "Fp:2147483647"


def test_sgr_missing_tensor_file(capsys):
    code, _, err = run(capsys, "sgr", "--tensor", "/nonexistent/t.json")
    assert code == 2


@pytest.mark.parametrize("field, code", [("Fp:2", 3), ("Fp:3", 3), ("Fp:5", 0)])
def test_sgr_small_prime_is_precondition_error(capsys, field, code):
    got, out, _ = run(capsys, "sgr", "--poly", "x0^3 + x1^3 + x2^3", "--field", field)
    assert got == code
    assert ("sgr: 3" in out) == (code == 0)


def test_sgr_malformed_tensor_json_is_parse_error(tmp_path, capsys):
    doc = json.loads(big_cw(2, 3).to_json())
    doc["order"] = 3.9
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "sgr", "--tensor", str(path))
    assert code == 2 and out == ""


def test_gr_poly(capsys):
    code, out, _ = run(capsys, "gr", "--poly", "3*x0^2*x1", "--json")
    doc = json.loads(out)
    assert code == 0 and doc["gr"] == 2 and doc["sgr"] == 1


def test_gr_big_cw(capsys):
    code, out, _ = run(capsys, "gr", "--poly", "x0*x1^2 + x0*x2^2 + x0^2*x3", "--json")
    doc = json.loads(out)
    assert code == 0 and doc["gr"] == 3


def test_json_output_is_deterministic(capsys):
    _, out1, _ = run(capsys, "sgr", "--poly", "x0^3 + x1^3", "--json")
    _, out2, _ = run(capsys, "sgr", "--poly", "x0^3 + x1^3", "--json")
    d1, d2 = json.loads(out1), json.loads(out2)
    d1.pop("ms"), d2.pop("ms")
    assert d1 == d2


def test_bad_field_selector(capsys):
    code, _, err = run(capsys, "sgr", "--poly", "x0^2", "--field", "Fp:10")
    assert code == 3  # not a prime: precondition
    code, _, err = run(capsys, "sgr", "--poly", "x0^2", "--field", "ZZ")
    assert code == 2  # unknown selector: parse


def test_timeout_exit_code(capsys):
    code, _, err = run(capsys, "sgr",
                       "--poly", "x0^3+x1^3+x2^3+x3^3+x4^3+x5^3 + x0*x1*x2 + x3*x4*x5",
                       "--timeout", "0.000001")
    assert code == 4
    assert "pairs_done" in err


@pytest.mark.parametrize("timeout", ["nan", "0", "-1"])
def test_timeout_must_be_positive(capsys, timeout):
    # NaN compares false with everything, so "timeout <= 0" let it through
    # and the run had no deadline at all
    code, _, err = run(capsys, "sgr", "--poly", "x0^3+x1^3", "--timeout", timeout)
    assert code == 3
    assert "timeout must be positive" in err
    code, _, err = run(capsys, "sample", "tangential", "-n", "2", "--check", "--timeout", timeout)
    assert code == 3
    assert "timeout must be positive" in err


# ---------------------------------------------------------------------------
# dim
# ---------------------------------------------------------------------------

def test_timeout_holds_in_dimension_search(capsys):
    # The basis of a 101-variable cycle edge ideal takes milliseconds; its
    # dimension search takes seconds, so the timeout lands inside it.
    polys = [a for i in range(101) for a in ("--poly", f"x{i}*x{(i + 1) % 101}")]
    t0 = time.monotonic()
    code, _, err = run(capsys, "dim", *polys, "--timeout", "0.3")
    elapsed = time.monotonic() - t0
    assert code == 4
    assert "basis_size=101" in err
    assert elapsed < 0.3 + 2.0


def test_dim_generators(capsys):
    code, out, _ = run(capsys, "dim", "--poly", "x0*x2", "--poly", "x0*x3 + x1*x2")
    assert code == 0
    assert "affine dimension: 2" in out


def test_dim_singular(capsys):
    code, out, _ = run(capsys, "dim", "--poly", "x0^2*x1", "--singular", "--json")
    doc = json.loads(out)
    assert code == 0 and doc["dim"] == 1 and doc["ambient"] == 2


# ---------------------------------------------------------------------------
# hypergraph
# ---------------------------------------------------------------------------

def test_hypergraph_single_edge(tmp_path, capsys):
    p = tmp_path / "edge.txt"
    p.write_text("1 2 3\n")
    code, out, _ = run(capsys, "hypergraph", str(p))
    assert code == 0
    assert "sgr: 2" in out
    assert "symmetric subrank" in out


def test_hypergraph_triangle(tmp_path, capsys):
    p = tmp_path / "tri.txt"
    p.write_text("1 2\n2 3\n1 3\n")
    code, out, _ = run(capsys, "hypergraph", str(p), "--json")
    doc = json.loads(out)
    assert code == 0 and doc["sgr"] == 3


def test_hypergraph_non_uniform(tmp_path, capsys):
    p = tmp_path / "bad.txt"
    p.write_text("1 2\n1 2 3\n")
    code, _, err = run(capsys, "hypergraph", str(p))
    assert code == 2


def test_hypergraph_empty_file(tmp_path, capsys):
    p = tmp_path / "empty.txt"
    p.write_text("")
    code, _, _ = run(capsys, "hypergraph", str(p))
    assert code == 2


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------

def test_sample_tangential_check(capsys):
    code, out, _ = run(capsys, "sample", "tangential", "-n", "3", "--seed", "7", "--check")
    assert code == 0
    assert "sgr=1" in out


def test_sample_secant_check(capsys):
    code, out, _ = run(capsys, "sample", "secant", "-r", "2", "-n", "2",
                       "--seed", "1", "--check")
    assert code == 0
    assert "sgr=2" in out


def test_sample_secant_needs_r(capsys):
    code, _, err = run(capsys, "sample", "secant", "-n", "2")
    assert code == 3


def test_sample_reducible_check(capsys):
    code, out, _ = run(capsys, "sample", "reducible", "--d1", "2", "--d2", "1",
                       "-n", "3", "--check")
    assert code == 0


def test_sample_c_ir_alias(capsys):
    code1, out1, _ = run(capsys, "sample", "c_ir", "-n", "3", "--seed", "4")
    code2, out2, _ = run(capsys, "sample", "irreducible", "-n", "3", "--seed", "4")
    assert code1 == code2 == 0
    assert out1 == out2


def test_sample_is_seed_deterministic(capsys):
    _, out1, _ = run(capsys, "sample", "tangential", "-n", "2", "--seed", "11")
    _, out2, _ = run(capsys, "sample", "tangential", "-n", "2", "--seed", "11")
    assert out1 == out2


def test_sample_sidecar(tmp_path, capsys):
    out_file = tmp_path / "sample.txt"
    code, _, _ = run(capsys, "sample", "secant", "-r", "2", "-n", "2",
                     "--seed", "3", "--check", "--out", str(out_file))
    assert code == 0
    poly_text = out_file.read_text().strip()
    sidecar = json.loads((tmp_path / "sample.txt.json").read_text())
    assert sidecar["kind"] == "secant"
    assert sidecar["seed"] == 3 and sidecar["r"] == 2 and sidecar["n"] == 2
    assert sidecar["poly"] == poly_text
    assert sidecar["sgr"] == 2
    # the emitted polynomial parses in the text grammar
    from sgrank.polyring import parse_polynomial
    parse_polynomial(poly_text)


def test_sample_unwritable_out(tmp_path, capsys):
    missing = tmp_path / "missing" / "x"
    code, _, err = run(capsys, "sample", "tangential", "-n", "2", "--out", str(missing))
    assert code == 3
    assert err.startswith("error: cannot write") and "Traceback" not in err
    # the sidecar write fails on its own too
    (tmp_path / "y.json").mkdir()
    code, _, err = run(capsys, "sample", "tangential", "-n", "2", "--out", str(tmp_path / "y"))
    assert code == 3
    assert "y.json" in err


def test_sample_bad_parameters(capsys):
    code, _, _ = run(capsys, "sample", "secant", "-r", "9", "-n", "2")
    assert code == 3


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "nonsense")
    assert code == 2
    assert "unknown suite" in err


def test_verify_rejects_engine_flags(capsys):
    # verify runs fixed suites: a flag it would ignore is a usage error
    with pytest.raises(SystemExit) as exc:
        main(["verify", "identity", "--timeout", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_verify_identity_suite(capsys):
    code, out, _ = run(capsys, "verify", "identity")
    assert code == 0
    assert out.count("PASS") == 56
    assert "0 failed" in out


def test_verify_jobs_flag(capsys):
    code, out, _ = run(capsys, "verify", "matmul", "--jobs", "2")
    assert code == 0
    assert "0 failed" in out
    # golden-values cases carry sgr, gr and tensor constructors as arguments,
    # so they must pickle to reach the workers
    rows = {}
    for jobs in ("1", "2"):
        code, out, _ = run(capsys, "verify", "golden-values", "--json", "--jobs", jobs)
        assert code == 0
        rows[jobs] = [{k: r[k] for k in ("case", "ok", "detail")}
                      for r in map(json.loads, out.splitlines())]
    assert rows["1"] == rows["2"]


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_verify_jobs_must_be_positive(capsys, jobs):
    code, out, err = run(capsys, "verify", "identity", "--jobs", jobs)
    assert code == 3
    assert "jobs must be at least 1" in err
    assert out == ""


def test_verify_pool_is_capped(monkeypatch):
    # a recording pool stands in for the process pool, so a huge --jobs
    # never forks real workers
    import concurrent.futures

    from sgrank import verify

    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    cases = verify.suite_cases("identity")[:3]
    monkeypatch.setitem(verify.SUITES, "three", lambda: cases)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    for cpus in (2, 64, None):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert all(r.ok for r in verify.run_suite("three", jobs=10**6))
    # 2 CPUs, then 3 cases; an unknown CPU count runs serially
    assert sizes == [2, 3]


def test_closed_stdout_exits_1_without_traceback():
    # dim -v prints a summary line, then a basis element larger than a pipe
    # holds, so the command is still writing when the reader goes away
    cubics = " + ".join(f"2*x{a}*x{b}*x{c}" for a, b, c in itertools.combinations(range(35), 3))
    src = str(Path(sgrank.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "sgrank.cli", "dim", "--poly", "3*x0^4 + " + cubics, "-v"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 1
    assert first.startswith(b"affine dimension")
    assert b"Traceback" not in err
