"""Command-line interface: generate, verify, evaluate, and export kernels.

Subcommands:

  gen      print one kernel as JSON document, LaTeX table, or plain text
  verify   sweep gamma = 0..N, re-deriving and cross-checking every kernel
  eval     evaluate one kernel at one point of the disc
  l1check  tabulate L1 norms over an r-grid (TSV)
  means    tabulate integral means against their boundary prediction (TSV)

``gen`` and ``verify`` build kernels by exact elimination (``builder``):
gen's document is the builder's product, and verify's "matches-builder"
check needs an independent solve.  ``eval``, ``l1check`` and ``means`` take
``conjecture.checked_kernel``, the closed form once it passes the builder's
own two checks (biharmonic-zero and boundary-exact), so they run no
elimination; a closed form that failed them would exit 1.

Exit codes: 0 success, 1 mathematical failure, 2 usage error.  `eval`
prints float64 values of the checked kernel's certified (a, b) form:
summed in floats where its error estimate allows, otherwise in mpmath (see
``numeric.eval_kernel``).

The JSON document serializes every coefficient as exact decimal
numerator/denominator strings — coefficients outgrow 64-bit integers well
before the sweep limit, and nothing floating-point belongs in an exact
document.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import multiprocessing
import os
import sys
from fractions import Fraction
from typing import Dict, Iterable, List, Sequence, Tuple

from . import __version__
from .boundary import expansion_boundary
from .builder import KernelSpec, build
from .conjecture import ConjectureVerdict, checked_kernel, verify_conjecture
from .numeric import DiscPoint, eval_kernel, integral_mean, l1_norm
from .operators import KERNEL_KINDS, KernelExpansion, biharmonic, make_expansion, monomial_image


# ---------------------------------------------------------------------------
# KernelDocument (JSON schema)


def to_document(kernel: KernelExpansion, kind: str, checks_passed: Sequence[str]) -> Dict:
    """Exact JSON-ready dict for a kernel: each coefficient as decimal
    numerator and denominator strings, in lowest terms (its integer and the
    kernel's scale over their gcd), so the document holds the kernel's
    terms exactly.  The package reads no document back."""
    scale, terms = kernel.scale, []
    for beta, low, ints in kernel.bands:
        coeffs = []
        for k, c in reversed(list(enumerate(ints, low))):
            if c:
                g = math.gcd(c, scale)
                coeffs.append({"k": k, "num": str(c // g), "den": str(scale // g)})
        terms.append({"beta": beta, "coeffs": coeffs})
    return {
        "gamma": kernel.gamma,
        "kind": kind,
        "terms": terms,
        "provenance": {
            "builder_version": __version__,
            "checks_passed": list(checks_passed),
        },
    }


# ---------------------------------------------------------------------------
# formatters


def _int_or_frac_latex(c: Fraction) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    return rf"\frac{{{c.numerator}}}{{{c.denominator}}}"


def _pow_latex(k: int) -> str:
    return f"(1-x)^{k}" if 0 <= k <= 9 else f"(1-x)^{{{k}}}"


def _sub(beta: int) -> str:
    return str(beta) if beta <= 9 else f"{{{beta}}}"


def latex_lines(kernel: KernelExpansion, kind: str) -> List[str]:
    """One line per band, in the normalized layout 2f_b(x)=... / 2b h_b(x)=...

    Coefficients are those of 2 f_beta (F) or 2 beta h_beta (H); monomials
    descend in the exponent.  Unit coefficients are suppressed.
    """
    lines = []
    for beta, poly in kernel.terms.items():
        scale = 2 if kind == "F" else 2 * beta
        label = f"2f_{_sub(beta)}(x)" if kind == "F" else f"{2 * beta}h_{_sub(beta)}(x)"
        parts: List[str] = []
        for k, c in reversed(poly.items()):
            c = scale * c
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            body = ("" if mag == 1 else _int_or_frac_latex(mag)) + _pow_latex(k)
            if not parts:
                parts.append(("-" if sign == "-" else "") + body)
            else:
                parts.append(sign + body)
        lines.append(f"{label}={''.join(parts)}")
    return lines


def text_line(kernel: KernelExpansion, kind: str) -> str:
    """Single-line plain-text formula, e.g. F_0 = 1/2·t^2/|1-z|^2 + ..."""
    parts: List[str] = []
    for beta, poly in kernel.terms.items():
        for k, c in reversed(poly.items()):
            mag = abs(c)
            term = f"{mag}·t^{k}/|1-z|^{2 * beta}"
            if not parts:
                parts.append(("-" if c < 0 else "") + term)
            else:
                parts.append(("- " if c < 0 else "+ ") + term)
    return f"{kind}_{kernel.gamma} = " + " ".join(parts)


# ---------------------------------------------------------------------------
# verify sweep


def _deep_rules_ok(gamma: int) -> bool:
    """The closed monomial image equals the generic composition on every
    one-term expansion of the box 1 <= beta <= gamma+3, 0 <= k <= 3 gamma+6."""
    return all(
        monomial_image(gamma, beta, k) == biharmonic(make_expansion(gamma, {beta: {k: 1}}))
        for beta in range(1, gamma + 4)
        for k in range(0, 3 * gamma + 7)
    )


def _verify_one(args: Tuple[int, bool]) -> Tuple[int, ConjectureVerdict, bool]:
    gamma, deep = args
    verdict = verify_conjecture(gamma)
    deep_ok = _deep_rules_ok(gamma) if deep else True
    return gamma, verdict, deep_ok


def _report_line(gamma: int, verdict: ConjectureVerdict, deep: bool, deep_ok: bool) -> str:
    cells = [f"gamma={gamma}"]
    for e in verdict.entries:
        cells.append(f"{e.kind}:{e.check}={'pass' if e.passed else 'FAIL'}")
    if deep:
        cells.append(f"deep-rules={'pass' if deep_ok else 'FAIL'}")
    return "\t".join(cells)


# ---------------------------------------------------------------------------
# argument plumbing


def _int_at_least(low: int):
    def parse(text: str) -> int:
        try:
            v = int(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
        if v < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}: {text}")
        return v

    return parse


_nonneg_int = _int_at_least(0)


def _finite_float(text: str) -> float:
    try:
        v = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from exc
    if not math.isfinite(v):
        raise argparse.ArgumentTypeError(f"not a finite number: {text}")
    return v


def _radius(text: str) -> float:
    v = _finite_float(text)
    if not (0.0 <= v < 1.0):
        raise argparse.ArgumentTypeError(f"radius must satisfy 0 <= r < 1: {text}")
    return v


def _radius_grid(text: str) -> List[float]:
    grid = [_radius(part) for part in text.split(",") if part]
    if not grid:
        raise argparse.ArgumentTypeError(f"empty radius grid: {text!r}")
    return grid


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process: parse_args leaves the parser as it was, and
    # its five subparsers take about a millisecond each to build.
    parser = argparse.ArgumentParser(
        prog="biharm",
        description="Exact kernel pair of the weighted biharmonic Dirichlet "
        "problem on the unit disc.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="print one kernel")
    gen.add_argument("--gamma", type=_nonneg_int, required=True)
    gen.add_argument("--kernel", choices=KERNEL_KINDS, required=True)
    gen.add_argument("--format", choices=("json", "latex", "text"), default="text")

    verify = sub.add_parser("verify", help="cross-check kernels for gamma = 0..N")
    verify.add_argument("--gamma-max", type=_nonneg_int, required=True)
    verify.add_argument(
        "--jobs", type=_int_at_least(1), default=1, help="worker processes, at most the CPU count"
    )
    verify.add_argument(
        "--deep",
        action="store_true",
        help="also re-derive every closed monomial rule from the generic composition",
    )

    ev = sub.add_parser("eval", help="evaluate a kernel at one point")
    ev.add_argument("--gamma", type=_nonneg_int, required=True)
    ev.add_argument("--kernel", choices=KERNEL_KINDS, required=True)
    ev.add_argument("--r", type=_radius, required=True)
    ev.add_argument("--theta", type=_finite_float, required=True)

    l1 = sub.add_parser("l1check", help="L1 norms over an r-grid")
    l1.add_argument("--gamma", type=_nonneg_int, required=True)
    l1.add_argument("--kernel", choices=KERNEL_KINDS, required=True)
    l1.add_argument("--r-grid", type=_radius_grid, required=True)

    means = sub.add_parser("means", help="integral means vs boundary prediction")
    means.add_argument("--gamma", type=_nonneg_int, required=True)
    means.add_argument("--kernel", choices=KERNEL_KINDS, required=True)
    means.add_argument("--r-grid", type=_radius_grid, required=True)

    return parser


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen(gamma: int, kind: str, fmt: str) -> int:
    kernel = build(KernelSpec(gamma=gamma, kind=kind))
    if fmt == "json":
        # build raises unless the kernel passes both checks.
        # One write: json.dump would make thousands of small ones.
        doc = to_document(kernel, kind, ("biharmonic-zero", "boundary-exact"))
        sys.stdout.write(json.dumps(doc, indent=2) + "\n")
    elif fmt == "latex":
        sys.stdout.write("\n".join(latex_lines(kernel, kind)) + "\n")
    else:
        sys.stdout.write(text_line(kernel, kind) + "\n")
    return 0


def cmd_verify(gamma_max: int, jobs: int, deep: bool) -> int:
    work = [(g, deep) for g in range(gamma_max + 1)]
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs > 1:
        with multiprocessing.Pool(processes=jobs) as pool:
            results = pool.map(_verify_one, work, chunksize=1)
    else:
        results = [_verify_one(w) for w in work]
    failures = 0
    for gamma, verdict, deep_ok in sorted(results, key=lambda r: r[0]):
        sys.stdout.write(_report_line(gamma, verdict, deep, deep_ok) + "\n")
        if not verdict.all_passed or not deep_ok:
            failures += 1
    sys.stdout.write(f"checked={gamma_max + 1}\tfailures={failures}\n")
    return 0 if failures == 0 else 1


def cmd_eval(gamma: int, kind: str, r: float, theta: float) -> int:
    kernel = checked_kernel(gamma, kind)
    value = eval_kernel(kernel, DiscPoint(r=r, theta=theta))
    sys.stdout.write(f"{value:.17g}\n")
    return 0


def cmd_l1check(gamma: int, kind: str, r_grid: Iterable[float]) -> int:
    kernel = checked_kernel(gamma, kind)
    rows = ["r\tl1\tl1_over_1mr\n"]
    for r in r_grid:
        value = l1_norm(kernel, r)
        rows.append(f"{r:.10g}\t{value:.10g}\t{value / (1.0 - r):.10g}\n")
    # Written only once every radius has succeeded: no partial table on failure.
    sys.stdout.write("".join(rows))
    return 0


def cmd_means(gamma: int, kind: str, r_grid: Iterable[float]) -> int:
    kernel = checked_kernel(gamma, kind)
    bd = expansion_boundary(kernel)
    rows = ["r\tmean\tpredicted\tabs_err\n"]
    for r in r_grid:
        mean = integral_mean(kernel, r)
        predicted = float(bd.a) + float(bd.b) * (1.0 - r)
        rows.append(f"{r:.10g}\t{mean:.10g}\t{predicted:.10g}\t{abs(mean - predicted):.3g}\n")
    sys.stdout.write("".join(rows))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "gen":
            return cmd_gen(args.gamma, args.kernel, args.format)
        if args.command == "verify":
            return cmd_verify(args.gamma_max, args.jobs, args.deep)
        if args.command == "eval":
            return cmd_eval(args.gamma, args.kernel, args.r, args.theta)
        if args.command == "l1check":
            return cmd_l1check(args.gamma, args.kernel, args.r_grid)
        if args.command == "means":
            return cmd_means(args.gamma, args.kernel, args.r_grid)
        raise AssertionError(f"unhandled command {args.command!r}")
    except (ValueError, RuntimeError) as exc:
        print(f"biharm: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
