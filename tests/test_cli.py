"""Tests for the document schema, formatters, and the command-line surface."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

import biharm
import biharm.builder
import biharm.cli as cli
import biharm.conjecture
from biharm import __version__
from biharm.builder import KernelSpec, build
from biharm.cli import latex_lines, main, text_line, to_document
from biharm.numeric import l1_norm
from biharm.operators import make_expansion

GOLDEN = Path(__file__).parent / "golden"


def normalize(text):
    return [re.sub(r"\s+", "", line) for line in text.splitlines() if line.strip()]


# ---------------------------------------------------------------------------
# JSON document


def document_terms(doc):
    """{beta: {k: Fraction(num, den)}} of a document's entries, each entry
    checked to be decimal integer strings in lowest terms, den > 0."""
    terms = {}
    for entry in doc["terms"]:
        poly = terms.setdefault(entry["beta"], {})
        for c in entry["coeffs"]:
            num, den = int(c["num"]), int(c["den"])
            assert (str(num), str(den)) == (c["num"], c["den"]) and den > 0 and math.gcd(num, den) == 1
            poly[c["k"]] = Fraction(num, den)
    return terms


@pytest.mark.parametrize("gamma", [0, 1, 4, 8, 20, 40])
@pytest.mark.parametrize("kind", ("F", "H"))
def test_document_round_trip(kind, gamma):
    # Every exact coefficient survives JSON: its num / den entries are the
    # kernel's terms.
    kernel = build(KernelSpec(gamma=gamma, kind=kind))
    doc = json.loads(json.dumps(to_document(kernel, kind, ["biharmonic-zero"])))
    assert (doc["gamma"], doc["kind"]) == (gamma, kind)
    assert document_terms(doc) == kernel.terms


def test_document_zero_coefficient_is_dropped():
    # make_expansion drops a zero coefficient, so no document lists one.
    kernel = build(KernelSpec(gamma=2, kind="F"))
    terms = {beta: dict(poly) for beta, poly in kernel.terms.items()}
    terms[1][40] = Fraction(0)
    doc = to_document(make_expansion(2, terms), "F", [])
    assert doc == to_document(kernel, "F", [])
    assert all(c["num"] != "0" for t in doc["terms"] for c in t["coeffs"])


@pytest.mark.parametrize("gamma", [True, 2.7, 2.0, "2", -1])
def test_document_gamma_is_a_nonnegative_int(gamma):
    # A document's gamma is its kernel's, and no expansion is made with a
    # gamma other than an int >= 0: true or 2.7 would file H_2's terms
    # under another gamma.
    doc = json.loads(json.dumps(to_document(build(KernelSpec(gamma=2, kind="H")), "H", [])))
    assert type(doc["gamma"]) is int and doc["gamma"] == 2
    with pytest.raises(ValueError, match="gamma must be an int >= 0"):
        make_expansion(gamma, document_terms(doc))


def test_document_layout():
    kernel = build(KernelSpec(gamma=2, kind="F"))
    doc = to_document(kernel, "F", ["a", "b"])
    assert [t["beta"] for t in doc["terms"]] == [1, 2, 3, 4]
    for t in doc["terms"]:
        ks = [c["k"] for c in t["coeffs"]]
        assert ks == sorted(ks, reverse=True)
        for c in t["coeffs"]:
            assert isinstance(c["num"], str) and isinstance(c["den"], str)
    assert doc["provenance"] == {
        "builder_version": __version__,
        "checks_passed": ["a", "b"],
    }


# ---------------------------------------------------------------------------
# formatters


def test_text_line_f0():
    kernel = build(KernelSpec(gamma=0, kind="F"))
    assert text_line(kernel, "F") == "F_0 = 1/2·t^2/|1-z|^2 + 1/2·t^3/|1-z|^4"


def test_latex_unit_coefficients_and_braces():
    f3 = latex_lines(build(KernelSpec(gamma=3, kind="F")), "F")
    assert f3[0] == "2f_1(x)=(1-x)^5"
    h4 = latex_lines(build(KernelSpec(gamma=4, kind="H")), "H")
    assert h4[-1] == "10h_5(x)=(1-x)^{10}"


@pytest.mark.parametrize("gamma", [3, 4, 5])
@pytest.mark.parametrize("kind", ("F", "H"))
def test_latex_matches_golden_files(kind, gamma):
    lines = latex_lines(build(KernelSpec(gamma=gamma, kind=kind)), kind)
    golden = (GOLDEN / f"{kind}{gamma}.tex").read_text()
    assert normalize("\n".join(lines)) == normalize(golden)


# ---------------------------------------------------------------------------
# gen


def test_gen_text(capsys):
    assert main(["gen", "--gamma", "0", "--kernel", "F"]) == 0
    out = capsys.readouterr().out
    assert out == "F_0 = 1/2·t^2/|1-z|^2 + 1/2·t^3/|1-z|^4\n"


def test_gen_json_round_trips(capsys):
    assert main(["gen", "--gamma", "2", "--kernel", "H", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "H"
    assert document_terms(doc) == build(KernelSpec(gamma=2, kind="H")).terms
    assert doc["provenance"]["checks_passed"] == ["biharmonic-zero", "boundary-exact"]


# SHA-256 of `biharm gen --gamma G --kernel K --format json`.  The gamma 24
# digests were recorded with the rational-arithmetic solver that the integer
# one replaced, the gamma 80 ones before the pair shared one elimination:
# the documents must not change by a byte.
GEN_JSON_SHA256 = {
    (24, "F"): "36ada26d7a8293294796087f40655f4a87236346e60f419eb762817d6fde4ec0",
    (24, "H"): "866163f4dacaf5da64148f741cf067ff382a496c3087f8f0da5331786eb3376d",
    (80, "F"): "a652c917eb3455bf6a221105939555a9988abc4930b039edb3f42b7080eca328",
    (80, "H"): "cc7eade4cf056e05678b41b778d84489f6d6d430c325eca6375cf1131b8896cc",
}


@pytest.mark.parametrize("kind", ("F", "H"))
def test_gen_json_bytes_pinned(kind, capsys):
    for gamma in (24, 80):
        assert main(["gen", "--gamma", str(gamma), "--kernel", kind, "--format", "json"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == GEN_JSON_SHA256[gamma, kind], gamma


def test_gen_latex_golden(capsys):
    assert main(["gen", "--gamma", "3", "--kernel", "H", "--format", "latex"]) == 0
    out = capsys.readouterr().out
    assert normalize(out) == normalize((GOLDEN / "H3.tex").read_text())


# ---------------------------------------------------------------------------
# verify


def test_verify_reports_all_gammas(capsys):
    assert main(["verify", "--gamma-max", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5
    assert lines[0].startswith("gamma=0\t")
    for line in lines[:4]:
        assert "F:biharmonic-zero=pass" in line
        assert "H:matches-builder=pass" in line
        assert "FAIL" not in line
    assert lines[4] == "checked=4\tfailures=0"


def test_verify_deterministic_across_jobs(capsys):
    assert main(["verify", "--gamma-max", "4", "--jobs", "1"]) == 0
    serial = capsys.readouterr().out
    assert main(["verify", "--gamma-max", "4", "--jobs", "2"]) == 0
    parallel = capsys.readouterr().out
    assert serial == parallel


def test_verify_jobs_clamped_to_cpu_count(monkeypatch, capsys):
    started = []

    class RecordingPool:
        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, work, chunksize=1):
            return [fn(w) for w in work]

    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(cli.multiprocessing, "Pool", RecordingPool)
    assert main(["verify", "--gamma-max", "1", "--jobs", "64"]) == 0
    assert started == [2]


def test_verify_deep(capsys):
    assert main(["verify", "--gamma-max", "1", "--deep"]) == 0
    out = capsys.readouterr().out
    assert out.count("deep-rules=pass") == 2


# ---------------------------------------------------------------------------
# eval / l1check / means


def test_eval_value(capsys):
    code = main(["eval", "--gamma", "0", "--kernel", "F", "--r", "0.5", "--theta", str(math.pi)])
    assert code == 0
    assert float(capsys.readouterr().out) == pytest.approx(1.0 / 6.0, abs=1e-15)


def test_eval_value_where_terms_cancel(capsys):
    # F_20's terms cancel by about 1e8 here; a float64 sum is 1e-8 off.
    assert main(["eval", "--gamma", "20", "--kernel", "F", "--r", "0.95", "--theta", "3"]) == 0
    got = float(capsys.readouterr().out)
    kernel = build(KernelSpec(gamma=20, kind="F"))
    with mpmath.workdps(60):
        t = 1 - mpmath.mpf(0.95) ** 2
        q = (1 - mpmath.mpf(0.95)) ** 2 + 4 * mpmath.mpf(0.95) * mpmath.sin(mpmath.mpf(1.5)) ** 2
        want = mpmath.fsum(
            mpmath.mpf(c.numerator) / c.denominator * t**k / q**beta
            for beta, poly in kernel.terms.items()
            for k, c in poly.items()
        )
    assert got == pytest.approx(float(want), rel=1e-12, abs=0.0)


def test_l1check_table(capsys):
    assert main(["l1check", "--gamma", "0", "--kernel", "F", "--r-grid", "0.5,0.9"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "r\tl1\tl1_over_1mr"
    assert len(lines) == 3
    for line, r in zip(lines[1:], (0.5, 0.9)):
        r_out, l1, ratio = (float(v) for v in line.split("\t"))
        assert r_out == r
        assert l1 == pytest.approx(1.0, abs=1e-8)
        assert ratio == pytest.approx(l1 / (1 - r), rel=1e-9)


def test_means_table(capsys):
    assert main(["means", "--gamma", "2", "--kernel", "H", "--r-grid", "0.9"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "r\tmean\tpredicted\tabs_err"
    r_out, mean, predicted, err = (float(v) for v in lines[1].split("\t"))
    assert predicted == pytest.approx(0.1, abs=1e-12)  # boundary (0, 1)
    assert err == pytest.approx(abs(mean - predicted), rel=1e-2)
    assert err < 0.01  # quadratic correction only


def test_means_near_the_boundary(capsys):
    assert main(["means", "--gamma", "0", "--kernel", "F", "--r-grid", "0.99999"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert float(lines[1].split("\t")[1]) == 1.0


def test_l1check_writes_no_partial_table(monkeypatch, capsys):
    # The 0.5 row succeeds; the second radius fails.
    radii = []

    def fail_second(kernel, r):
        radii.append(r)
        if len(radii) == 2:
            raise RuntimeError(f"no L1 norm at r={r}")
        return l1_norm(kernel, r)

    monkeypatch.setattr(cli, "l1_norm", fail_second)
    assert main(["l1check", "--gamma", "2", "--kernel", "F", "--r-grid", "0.5,0.999"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no L1 norm at r=0.999" in captured.err


# The numeric commands read the checked closed form, not a built kernel.
NUMERIC_COMMANDS = [
    ["eval", "--gamma", "6", "--kernel", "H", "--r", "0.9", "--theta", "0.3"],
    ["l1check", "--gamma", "6", "--kernel", "H", "--r-grid", "0.5,0.9"],
    ["means", "--gamma", "6", "--kernel", "H", "--r-grid", "0.5,0.9"],
]


@pytest.mark.parametrize("argv", NUMERIC_COMMANDS, ids=lambda argv: argv[0])
def test_numeric_commands_run_no_elimination(argv, monkeypatch, capsys):
    def no_solve(system):
        raise AssertionError("solve_linear called")

    monkeypatch.setattr(biharm.builder, "solve_linear", no_solve)
    assert main(argv) == 0
    assert capsys.readouterr().out


@pytest.mark.parametrize("argv", NUMERIC_COMMANDS, ids=lambda argv: argv[0])
def test_numeric_commands_refuse_a_closed_form_that_fails_its_checks(argv, monkeypatch, capsys):
    # H_6's closed form with its top coefficient changed is not
    # biharmonic-zero: exit 1, gamma and kind named, no partial table.
    closed = biharm.conjecture.conjectured_kernel

    def perturbed(gamma, kind):
        terms = {beta: dict(poly) for beta, poly in closed(gamma, kind).terms.items()}
        top = terms[max(terms)]
        top[max(top)] += Fraction(1, 7)
        return make_expansion(gamma, terms)

    monkeypatch.setattr(biharm.conjecture, "conjectured_kernel", perturbed)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "(gamma=6, kind=H)" in captured.err


# ---------------------------------------------------------------------------
# exit codes


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--gamma", "-1", "--kernel", "F"],
        ["gen", "--gamma", "2", "--kernel", "X"],
        ["eval", "--gamma", "0", "--kernel", "F", "--r", "1.5", "--theta", "0"],
        ["frobnicate"],
        ["gen"],
        ["verify", "--gamma-max", "1", "--jobs", "0"],
        ["verify", "--gamma-max", "1", "--jobs", "-2"],
        ["eval", "--gamma", "0", "--kernel", "F", "--r", "0.5", "--theta", "nan"],
        ["eval", "--gamma", "0", "--kernel", "F", "--r", "0.5", "--theta", "inf"],
        ["means", "--gamma", "0", "--kernel", "F", "--r-grid", ","],
        ["l1check", "--gamma", "0", "--kernel", "F", "--r-grid", ","],
    ],
)
def test_usage_errors_exit_2(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_math_failure_exits_1(monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise RuntimeError("quadrature fell over")

    monkeypatch.setattr(cli, "l1_norm", boom)
    assert main(["l1check", "--gamma", "0", "--kernel", "F", "--r-grid", "0.5"]) == 1
    assert "quadrature fell over" in capsys.readouterr().err


def _separate_run(argv):
    """main(argv) in a fresh interpreter: (exit code, stdout, stderr)."""
    src = str(Path(biharm.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "biharm.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        check=False,
    )
    return done.returncode, done.stdout, done.stderr


def test_repeated_main_calls_match_separate_runs(capsys):
    # main builds its parser once per process; a usage error in between
    # must leave later calls as they would be in a process of their own.
    means = ["means", "--gamma", "2", "--kernel", "H", "--r-grid", "0.5,0.9"]
    usage = ["means", "--gamma", "0", "--kernel", "F", "--r-grid", ","]
    l1check = ["l1check", "--gamma", "0", "--kernel", "F", "--r-grid", "0.5,0.9"]
    in_process = []
    for argv in (means, usage, l1check, means):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        in_process.append((code, captured.out, captured.err))
    assert [code for code, _, _ in in_process] == [0, 2, 0, 0]
    assert in_process[3] == in_process[0]
    for argv, got in zip((means, usage, l1check), in_process):
        assert got == _separate_run(argv), argv
