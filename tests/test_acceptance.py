"""Acceptance gate: one test per criterion, printed as PASS/FAIL lines.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report. Each criterion asserts its stated tolerance and runtime budget.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time

import numpy as np

from conftest import seeded_rng
from orliczlat import amenability
from orliczlat.algebra import AlgebraContext
from orliczlat.amenability import (
    DampedHomomorphism,
    Derivation,
    Homomorphism,
    classify,
    damped_form_bounded,
    decay_chain_check,
    derivation_norm_scan,
    leibniz_check,
)
from orliczlat.norms import luxemburg_norm
from orliczlat.sampling import random_finsupp
from orliczlat.verify import run_battery
from orliczlat.weights import ball, polynomial_weight, subexp_alpha_weight
from orliczlat.young import catalog, conjugate, pair_from_spec, young_from_spec


def report(n: int, name: str, ok: bool, elapsed: float, budget: float, detail: str = ""):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    extra = f" {detail}" if detail else ""
    print(f"[criterion {n:2d}] {status} {name} ({elapsed:.2f}s / {budget:.0f}s){extra}")
    assert ok, f"criterion {n}: {name}{extra}"
    assert elapsed < budget, f"criterion {n}: runtime {elapsed:.2f}s over {budget:.0f}s"


def test_criterion_1_conjugation_correctness():
    t0 = time.time()
    ys = [float(y) for y in np.geomspace(1e-3, 1e2, 40)]
    worst = 0.0
    for p in (1.25, 1.5, 2.0, 3.0, 4.0):
        phi = young_from_spec({"family": "power", "p": p})
        q = p / (p - 1.0)
        for y in ys:
            expected = y ** q / q
            worst = max(worst, abs(conjugate(phi, y) - expected) / expected)
    # the entropy maximiser is e^y - 1, about 1e304 at the top of the grid
    ent = young_from_spec({"family": "entropy"})
    for y in np.geomspace(1e-3, 700.0, 40):
        expected = math.exp(y) - y - 1.0
        worst = max(worst, abs(conjugate(ent, float(y)) - expected) / expected)
    report(1, "conjugation vs closed forms", worst <= 1e-6, time.time() - t0, 5.0,
           f"worst rel err {worst:.2e}")


def test_criterion_2_inequality_battery():
    t0 = time.time()
    rows = run_battery()
    failures = [r for r in rows if not r.passed]
    report(2, "inequality battery over catalog", not failures, time.time() - t0, 60.0,
           f"{len(rows)} checks, {len(failures)} failures")


def test_criterion_3_luxemburg_oracle():
    t0 = time.time()
    worst = 0.0
    for t in range(100):
        rng = seeded_rng(100, t)
        d = 1 + t % 2
        f = random_finsupp(d, 10, rng, max_support=50)
        for p in (1.5, 2.0, 3.0):
            phi = young_from_spec({"family": "power", "p": p})
            expected = (
                sum(abs(v) ** p for _, v in f) ** (1.0 / p) * p ** (-1.0 / p)
            )
            got = luxemburg_norm(phi, f)
            worst = max(worst, abs(got - expected) / expected)
    report(3, "luxemburg bisection vs p-norm closed form", worst <= 1e-8,
           time.time() - t0, 30.0, f"worst rel err {worst:.2e}")


def test_criterion_4_ball_cardinality():
    t0 = time.time()
    ok = all(
        len(ball(n, d)) == (2 * n + 1) ** d for d in (1, 2, 3) for n in range(0, 13)
    )
    report(4, "ball cardinality (2n+1)^d", ok, time.time() - t0, 30.0)


def test_criterion_5_classification_table():
    t0 = time.time()
    expected = {
        (1.5, 0.2): "NotBanachAlgebra",
        (1.5, 0.4): "WeaklyAmenable",
        (1.5, 0.8): "NotWeaklyAmenable",
        (3.0, 0.2): "NotBanachAlgebra",
        (3.0, 0.4): "NotBanachAlgebra",
        (3.0, 0.8): "NotWeaklyAmenable",
    }
    ok = True
    for (p, beta), want in expected.items():
        got = classify(p, {"family": "polynomial", "beta": beta}, 1).verdict
        ok = ok and got == want
    for p in (1.5, 3.0):
        for spec in (
            {"family": "subexp_alpha", "alpha": 0.5, "C": 1.0},
            {"family": "subexp_log", "gamma": 1.0, "C": 1.0},
        ):
            ok = ok and classify(p, spec, 1).verdict == "NotWeaklyAmenable"
    report(5, "classification table", ok, time.time() - t0, 1.0)


def test_criterion_6_leibniz_identity():
    t0 = time.time()
    ok = True
    weights = {"polynomial(0.6)": polynomial_weight(0.6),
               "subexp(0.5,1)": subexp_alpha_weight(0.5, 1.0)}
    for d_dim in (1, 2):
        xi = Homomorphism((1.0,) + (0.5,) * (d_dim - 1))
        d_op = Derivation.with_ball_window(xi, d_dim, 1)
        for w_idx, _w in enumerate(weights.values()):
            for t in range(50):
                rng = seeded_rng(200, d_dim, w_idx, t)
                f = random_finsupp(d_dim, 5, rng, max_support=8)
                g = random_finsupp(d_dim, 5, rng, max_support=8)
                h = random_finsupp(d_dim, 5, rng, max_support=8)
                ok = ok and leibniz_check(d_op, f, g, h).ok
    # exact-match against the raw expansion on tiny supports
    from test_amenability import leibniz_oracle

    xi = Homomorphism((1.0,))
    d_op = Derivation.with_ball_window(xi, 1, 1)
    for t in range(10):
        rng = seeded_rng(201, t)
        f = random_finsupp(1, 3, rng, max_support=3)
        g = random_finsupp(1, 3, rng, max_support=3)
        h = random_finsupp(1, 3, rng, max_support=3)
        rep = leibniz_check(d_op, f, g, h)
        lhs_o, rhs_o = leibniz_oracle(d_op.window, xi, f, g, h)
        ok = ok and abs(rep.lhs - lhs_o) <= 1e-12 * (1 + abs(lhs_o))
        ok = ok and abs(rep.rhs - rhs_o) <= 1e-12 * (1 + abs(rhs_o))
    report(6, "leibniz identity + raw-expansion oracle", ok, time.time() - t0, 30.0)


def test_criterion_7_derivation_dichotomy():
    t0 = time.time()
    pair = pair_from_spec({"family": "power", "p": 1.5})
    xi = Homomorphism((1.0,))
    radii = [16, 64, 256]
    details = []
    ok = True
    for window_r in (1, 2):
        d_op = Derivation.with_ball_window(xi, 1, window_r)
        for beta, regime in ((0.6, "plateau"), (0.4, "growth")):
            ctx = AlgebraContext(pair, polynomial_weight(beta), 1)
            rep = derivation_norm_scan(ctx, d_op, radii, trials=200, seed=20260808)
            first = rep.per_radius[0]["max_ratio"]
            last = rep.per_radius[-1]["max_ratio"]
            growth = last / first - 1.0
            if regime == "plateau":
                ok = ok and growth < 0.15
            else:
                ok = ok and growth >= 0.25
            details.append(f"beta={beta} U=ball({window_r}): growth {growth:+.1%}")
    report(7, "derivation dichotomy", ok, time.time() - t0, 300.0, "; ".join(details))


def test_criterion_8_damped_form_mode_consistency():
    t0 = time.time()
    ok = True
    for beta in (0.4, 0.45, 0.55, 0.6):
        for d_dim in (1, 2):
            xi = Homomorphism((1.0,) + (0.0,) * (d_dim - 1))
            dh = DampedHomomorphism(xi, polynomial_weight(beta))
            a = damped_form_bounded(dh).verdict
            n = amenability._slope_bounded(dh).verdict
            ok = ok and a == n and a in ("bounded", "unbounded")
    report(8, "damped-form analytic/numeric agreement", ok, time.time() - t0, 30.0)


def test_criterion_9_decay_chain():
    t0 = time.time()
    ok = True
    psi3 = young_from_spec({"family": "power", "p": 3})
    rep = decay_chain_check(polynomial_weight(1.0), psi3, Homomorphism((1.0,)), 1.0, 10**4, 1)
    ok = ok and rep.ok
    sigma = subexp_alpha_weight(0.5, 1.0)
    for pair in catalog():
        rep = decay_chain_check(sigma, pair.psi, Homomorphism((1.0,)), 1.0, 10**4, 1)
        ok = ok and rep.ok
    report(9, "decay chain (monotone, n*a_n bound, summable)", ok, time.time() - t0, 10.0)


def test_criterion_10_determinism(tmp_path):
    t0 = time.time()

    def run(args, out):
        r = subprocess.run(
            [sys.executable, "-m", "orliczlat.cli", *args, "--out", str(out), "--format", "json"],
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert r.returncode == 0, r.stderr
        return out.read_bytes(), r.stdout

    ok = True
    classify_args = [
        "classify", "--p", "1.5,3",
        "--weight", '{"family":"polynomial","beta":0.4}',
        "--weight", '{"family":"subexp_alpha","alpha":0.5,"C":1.0}',
        "--dim", "1", "--seed", "7",
    ]
    scan_args = [
        "derivation-scan", "--young", '{"family":"power","p":1.5}',
        "--weight", '{"family":"polynomial","beta":0.6}',
        "--radii", "8,16,32", "--trials", "25", "--seed", "7",
    ]
    for i, args in enumerate((classify_args, scan_args)):
        b1, s1 = run(args, tmp_path / f"a{i}.json")
        b2, s2 = run(args, tmp_path / f"b{i}.json")
        ok = ok and b1 == b2 and s1 == s2
    report(10, "byte-identical outputs for fixed seed", ok, time.time() - t0, 120.0)
