"""The benchmark's three workloads.

Each workload loads one group of biharm's layers and leaves the others idle:

* ``exact_sweep``    exact elimination and symbolic checks, through the CLI;
* ``kernel_eval``    the float evaluator on tables made by the closed form;
* ``dirichlet_grid`` Dirichlet solves and the quadrature tables of the CLI.

A workload has four steps.  ``setup`` is the program's own set-up and is
timed (in fresh interpreters) as ``setup_s``.  ``prepare`` makes the
seeded inputs and computes their references with ``reference``, untimed.
``run_round`` does one round of the same operations, timing a primary and
a secondary section; it then checks every output.  Program calls are looked
up on the module at call time, so that the traced run's wrappers see them.

Probes are operations that fail every time today because of a known fault
(see README.md).  They run in every round on inputs that do not depend on
the seed, are checked and counted as failed, and are left out of the timed
sections; the traced run times them as ``probes_s``.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, List, Optional, Tuple

import numpy as np

import reference as ref
from meter import Meter
from tracing import NullTracer

# Relative precision that eval_kernel's float path is held to.
EVAL_RTOL = 1e-12
# Points whose terms cancel by more than this factor are outside the float
# evaluator's reach at EVAL_RTOL (README.md, "Inputs"); they are not drawn.
KAPPA_MAX = 100.0


@dataclass
class RoundResult:
    primary: Meter
    secondary: Meter
    attempted: int = 0
    failed: int = 0
    # reasons: gated operations that failed make the run incorrect
    errors: List[str] = field(default_factory=list)
    probe_errors: List[str] = field(default_factory=list)


def run_cli(biharm, argv: List[str]) -> Tuple[int, str]:
    """biharm.cli.main(argv) with its output captured: (exit code, stdout),
    or (exit code, stderr) when the exit code is not 0."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = biharm.cli.main(argv)
    return code, err.getvalue() if code else out.getvalue()


def _gate(result: RoundResult, reason: Optional[str]) -> None:
    result.attempted += 1
    if reason is not None:
        result.failed += 1
        result.errors.append(reason)


def _probe(result: RoundResult, label: str, call: Callable, check: Callable) -> None:
    """One probe: check(call()) gives a reason it failed, or None."""
    result.attempted += 1
    try:
        reason = check(call())
    except Exception as exc:  # a probe may also fail by raising
        reason = f"{label}: raised {exc!r}"
    if reason is not None:
        result.failed += 1
        result.probe_errors.append(reason)


def _table(kernel) -> ref.Table:
    return {beta: dict(poly) for beta, poly in kernel.terms.items()}


def _kappa(table: ref.Table, r: float, thetas: np.ndarray) -> np.ndarray:
    """sum |term| / |sum term| of a table at radius r, in float64."""
    t = 1.0 - r * r
    q = (1.0 - r) ** 2 + 4.0 * r * np.sin(thetas / 2.0) ** 2
    signed = np.zeros_like(thetas)
    size = np.zeros_like(thetas)
    for beta, poly in table.items():
        inv = q ** (-beta)
        signed += sum(float(c) * t**k for k, c in poly.items()) * inv
        size += sum(abs(float(c)) * t**k for k, c in poly.items()) * inv
    with np.errstate(divide="ignore"):
        return size / np.abs(signed)


# ---------------------------------------------------------------------------
# exact_sweep


class ExactSweep:
    """`biharm verify` over gamma = 0..GAMMA_MAX, then `biharm gen` H and F.

    Timed: the sweep (primary) and the two gen calls (secondary).  Checked:
    verify's report, the closed form's multipliers for every gamma of the
    sweep, and the gen documents' multipliers, all against the exact
    Dirichlet solution.  The seed picks the (harmonic, radius) pairs.
    """

    GAMMA_MAX = 24
    CASES_PER_GAMMA = 2
    GEN_CASES = 4

    def __init__(self, seed: int):
        rng = random.Random(seed)

        def case():
            return rng.randint(0, 8), round(rng.uniform(0.05, 0.999), 6)

        self.sweep_cases = {
            (g, kind): [case() for _ in range(self.CASES_PER_GAMMA)]
            for g in range(self.GAMMA_MAX + 1)
            for kind in ("F", "H")
        }
        self.gen_cases = {kind: [case() for _ in range(self.GEN_CASES)] for kind in ("H", "F")}

    @staticmethod
    def setup(biharm):
        return None

    def prepare(self, biharm, state) -> List[str]:
        errors = []
        for (g, kind), cases in self.sweep_cases.items():
            table = _table(biharm.conjectured_kernel(g, kind))
            reason = ref.check_multipliers(table, g, kind, cases)
            if reason:
                errors.append("closed form " + reason)
        return errors

    def run_round(self, biharm, state, tracer=NullTracer()) -> RoundResult:
        g = str(self.GAMMA_MAX)
        primary, secondary = Meter("python"), Meter("python")
        verify = primary.time(run_cli, biharm, ["verify", "--gamma-max", g])
        docs = secondary.time(
            lambda: {kind: run_cli(biharm, ["gen", "--gamma", g, "--kernel", kind, "--format", "json"]) for kind in ("H", "F")}
        )

        result = RoundResult(primary, secondary)
        code, out = verify
        _gate(result, f"verify exit {code}: {out[-200:]}" if code else ref.check_verify_output(out, self.GAMMA_MAX))
        for kind, (code, out) in docs.items():
            tracer.add("cli.document_bytes", len(out.encode()))
            _gate(
                result,
                f"gen {kind} exit {code}: {out[-200:]}"
                if code
                else ref.check_document(out, self.GAMMA_MAX, kind, self.gen_cases[kind]),
            )
        return result


# ---------------------------------------------------------------------------
# kernel_eval


class KernelEval:
    """values_at on large angle batches, then a loop of scalar eval_kernel.

    Kernels come from the closed form in set-up, so no exact elimination
    runs.  Primary: values_at over ANGLES angles per gated kernel and
    radius, BATCH at a time.
    Secondary: scalar eval_kernel calls; one in CORNER_EVERY sits in the
    singular corner r > 0.999, |theta| < 1e-3, where eval_kernel takes its
    mpmath path.  Checked at EVAL_RTOL against the mpmath point evaluator:
    SAMPLES entries of every batch, every corner call and CHECKED_SCALARS
    of the others.  The seed picks angles, scalar points and samples.
    """

    GAMMAS = (1, 2, 3, 4)
    RADII = (0.3, 0.6, 0.9, 0.99)
    ANGLES = 2**19  # per radius
    BATCH = 2**15  # angles per values_at call: cache-sized, so the
    # section's speed follows the numpy calibration loop of meter.py
    SAMPLES = 2
    SCALARS = 16384
    CORNER_EVERY = 16
    CHECKED_SCALARS = 1024
    # Float64 cancellation between bands (README.md): fixed points, each
    # missing EVAL_RTOL by a factor of 10 or more.
    PROBES = ((10, "F", 0.142, 1.461), (20, "F", 0.95, 3.0), (30, "F", 0.5, 3.0), (40, "F", 0.95, 0.0))

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)

    @classmethod
    def setup(cls, biharm):
        keys = [(g, kind) for g in cls.GAMMAS for kind in ("F", "H")]
        keys += [(g, kind) for g, kind, _, _ in cls.PROBES]
        return {key: biharm.conjectured_kernel(*key) for key in keys}

    def prepare(self, biharm, kernels) -> List[str]:
        rng = self.rng
        gated = [(g, kind) for g in self.GAMMAS for kind in ("F", "H")]
        tables = {key: _table(k) for key, k in kernels.items()}
        errors = []
        for key in gated:
            reason = ref.check_multipliers(tables[key], *key, [(0, 0.5), (int(rng.integers(1, 6)), 0.9)])
            if reason:
                errors.append("closed form " + reason)

        # Each kernel runs over one angle array per radius, BATCH angles a
        # call; the checked entries of a call are drawn among its
        # well-conditioned angles.
        self.angles = {r: rng.uniform(-math.pi, math.pi, self.ANGLES) for r in self.RADII}
        self.batches = []  # (key, r, first angle, checked offsets, references)
        for key in gated:
            for r in self.RADII:
                for start in range(0, self.ANGLES, self.BATCH):
                    thetas = self.angles[r][start : start + self.BATCH]
                    ok = np.flatnonzero(_kappa(tables[key], r, thetas) <= KAPPA_MAX)
                    idx = np.sort(rng.choice(ok, self.SAMPLES, replace=False))
                    refs = [ref.point_value(tables[key], r, float(thetas[i])) for i in idx]
                    self.batches.append((key, r, start, idx, refs))

        self.scalars = []  # (key, r, theta)
        while len(self.scalars) < self.SCALARS:
            key = gated[int(rng.integers(len(gated)))]
            if len(self.scalars) % self.CORNER_EVERY == 0:
                r = float(rng.uniform(0.9991, 0.99999))
                theta = float(rng.uniform(-9e-4, 9e-4))
            else:
                r = float(rng.uniform(0.0, 0.99))
                theta = float(rng.uniform(-math.pi, math.pi))
                if _kappa(tables[key], r, np.array([theta]))[0] > KAPPA_MAX:
                    continue
            self.scalars.append((key, r, theta))
        corner = list(range(0, self.SCALARS, self.CORNER_EVERY))
        others = sorted(set(range(self.SCALARS)) - set(corner))
        picked = sorted(corner + list(rng.choice(others, self.CHECKED_SCALARS, replace=False)))
        self.scalar_refs = {
            i: ref.point_value(tables[self.scalars[i][0]], *self.scalars[i][1:]) for i in picked
        }
        self.probe_refs = [ref.point_value(tables[(g, kind)], r, th) for g, kind, r, th in self.PROBES]
        return errors

    def run_round(self, biharm, kernels, tracer=NullTracer()) -> RoundResult:
        values_at = biharm.numeric.values_at
        eval_kernel = biharm.eval_kernel
        DiscPoint = biharm.DiscPoint

        def batches():
            return [
                values_at(kernels[key], r, self.angles[r][start : start + self.BATCH])[idx]
                for key, r, start, idx, _ in self.batches
            ]

        def scalars():
            return [eval_kernel(kernels[key], DiscPoint(r=r, theta=th)) for key, r, th in self.scalars]

        primary, secondary = Meter("numpy"), Meter("python")
        sampled = primary.time(batches)
        scalar = secondary.time(scalars)

        result = RoundResult(primary, secondary)
        for (key, r, start, idx, refs), got in zip(self.batches, sampled):
            _gate(result, ref.check_values(got, refs, EVAL_RTOL, f"values_at {key} r={r} from angle {start}"))
        for i, (key, r, th) in enumerate(self.scalars):
            reason = None
            if i in self.scalar_refs:
                reason = ref.check_values([scalar[i]], [self.scalar_refs[i]], EVAL_RTOL, f"eval_kernel {key} r={r} theta={th}")
            _gate(result, reason)

        with tracer.span("probes"):
            for (g, kind, r, th), expect in zip(self.PROBES, self.probe_refs):
                label = f"eval_kernel {kind}_{g} r={r} theta={th}"
                _probe(
                    result,
                    label,
                    lambda: eval_kernel(kernels[(g, kind)], DiscPoint(r=r, theta=th)),
                    lambda got: ref.check_values([got], [expect], EVAL_RTOL, label),
                )
        return result


# ---------------------------------------------------------------------------
# dirichlet_grid


class DirichletGrid:
    """solve_dirichlet over a (gamma, r) grid, then the means and l1check tables.

    Primary: THETAS solves per grid cell with fixed trigonometric data, each
    a fresh exact build plus node-doubling quadrature.  Secondary: `biharm
    means` for every (gamma, kind) of the grid and `biharm l1check` on the
    radii where its quadrature converges to the true norm.  Checked: solves
    and means against the exact Dirichlet solution at the solver's 1e-9
    scale, L1 values against the L1 reference at 1e-6.  The seed picks the
    angles of the solves.
    """

    GAMMAS = (0, 2, 4, 8)
    RADII = (0.5, 0.9, 0.99, 0.999)
    THETAS = 4
    # boundary value and inward normal derivative, as Fourier coefficients
    F0 = {0: 0.5, 1: 0.25, -1: 0.25, 3: 0.1j, -3: -0.1j}
    F1 = {0: 0.3, 2: 0.2, -2: 0.2}
    # l1check radii of each (gamma, kind) whose node doubling converges to
    # within 1e-6 of the L1 norm; README.md lists the cells left out.
    L1_GRID = {
        (0, "F"): (0.5, 0.9, 0.99, 0.999),
        (0, "H"): (0.5, 0.9, 0.99, 0.999),
        (2, "F"): (0.5, 0.9, 0.99),
        (2, "H"): (0.5, 0.9, 0.99),
        (4, "F"): (0.9,),
        (4, "H"): (0.5, 0.9, 0.99),
        (8, "F"): (0.5, 0.9),
        (8, "H"): (0.5, 0.9, 0.99),
    }
    # Float64 cancellation puts this solve 2e-6 off.
    SOLVE_PROBE = (16, 0.99, 0.7)
    # l1_norm on sign-changing kernels: the first three never converge and
    # raise; the last stops early on a value 2e-5 off.
    L1_PROBES = ((2, "F", 0.999), (2, "H", 0.999), (8, "F", 0.99), (4, "F", 0.99))
    MEANS_RTOL = 1e-9
    L1_RTOL = 1e-6

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.solves = [
            (g, r, rng.uniform(-math.pi, math.pi))
            for g in self.GAMMAS
            for r in self.RADII
            for _ in range(self.THETAS)
        ]

    @staticmethod
    def setup(biharm):
        return None

    def prepare(self, biharm, state) -> List[str]:
        errors = []
        tables = {}
        for g in self.GAMMAS:
            for kind in ("F", "H"):
                tables[(g, kind)] = _table(biharm.conjectured_kernel(g, kind))
                reason = ref.check_multipliers(tables[(g, kind)], g, kind, [(0, 0.9), (2, 0.99)])
                if reason:
                    errors.append("closed form " + reason)
        cells = [(g, kind, r) for (g, kind), radii in self.L1_GRID.items() for r in radii]
        self.l1_refs = {
            (g, kind, r): ref.l1_reference(tables[(g, kind)], g, kind, r) for g, kind, r in cells + list(self.L1_PROBES)
        }
        return errors

    def _check_means(self, g: int, kind: str, out: str) -> Optional[str]:
        rows = ref.parse_tsv(out)
        if [row[0] for row in rows] != list(self.RADII):
            return f"means {kind}_{g}: radii {[row[0] for row in rows]}"
        for r, mean, _, _ in rows:
            exact = float(ref.radial_factor(g, 0, kind, Fraction(r) ** 2))
            err = ref.rel_err(mean, exact)
            if not err <= self.MEANS_RTOL:
                return f"means {kind}_{g} r={r}: relative error {err:.3g}"
        return None

    def _check_l1(self, g: int, kind: str, radii, code: int, out: str) -> Optional[str]:
        if code:
            return f"l1check {kind}_{g} r={radii}: exit {code}: {out.strip()[-160:]}"
        rows = ref.parse_tsv(out)
        if [row[0] for row in rows] != list(radii):
            return f"l1check {kind}_{g}: radii {[row[0] for row in rows]}"
        for r, l1, _ in rows:
            err = ref.rel_err(l1, self.l1_refs[(g, kind, r)])
            if not err <= self.L1_RTOL:
                return f"l1check {kind}_{g} r={r}: relative error {err:.3g}"
        return None

    def run_round(self, biharm, state, tracer=NullTracer()) -> RoundResult:
        solve = biharm.solve_dirichlet
        DiscPoint = biharm.DiscPoint
        grid = ",".join(str(r) for r in self.RADII)

        def solves():
            return [solve(g, self.F0, self.F1, DiscPoint(r=r, theta=th)) for g, r, th in self.solves]

        def tables():
            means = {
                (g, kind): run_cli(biharm, ["means", "--gamma", str(g), "--kernel", kind, "--r-grid", grid])
                for g in self.GAMMAS
                for kind in ("F", "H")
            }
            l1 = {
                (g, kind): run_cli(biharm, ["l1check", "--gamma", str(g), "--kernel", kind, "--r-grid", ",".join(map(str, radii))])
                for (g, kind), radii in self.L1_GRID.items()
            }
            return means, l1

        primary, secondary = Meter("mixed"), Meter("numpy")
        solved = primary.time(solves)
        means, l1 = secondary.time(tables)

        result = RoundResult(primary, secondary)
        for (g, r, th), u in zip(self.solves, solved):
            _gate(result, ref.check_solve(u, g, self.F0, self.F1, r, th))
        for (g, kind), (code, out) in means.items():
            _gate(result, f"means {kind}_{g}: exit {code}" if code else self._check_means(g, kind, out))
        for (g, kind), (code, out) in l1.items():
            _gate(result, self._check_l1(g, kind, self.L1_GRID[(g, kind)], code, out))

        with tracer.span("probes"):
            g, r, th = self.SOLVE_PROBE
            _probe(
                result,
                f"solve gamma={g} r={r}",
                lambda: solve(g, self.F0, self.F1, DiscPoint(r=r, theta=th)),
                lambda u: ref.check_solve(u, g, self.F0, self.F1, r, th),
            )
            for g, kind, r in self.L1_PROBES:
                _probe(
                    result,
                    f"l1check {kind}_{g} r={r}",
                    lambda: run_cli(biharm, ["l1check", "--gamma", str(g), "--kernel", kind, "--r-grid", str(r)]),
                    lambda out: self._check_l1(g, kind, (r,), *out),
                )
        return result


WORKLOADS = {
    "exact_sweep": ExactSweep,
    "kernel_eval": KernelEval,
    "dirichlet_grid": DirichletGrid,
}
