"""Acceptance gate: one test per top-level criterion, zero tolerance.

Every check is exact (Laurent coefficients or integers); a criterion
passes only when the relevant difference is identically zero.  Each test
prints one PASS/FAIL line (visible with ``pytest -s``).
"""

import itertools
import json
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

from cgybe import (
    LaurentQP,
    TensorOp,
    cg_inverse,
    cg_op,
    cg_twisted_op,
    check_compatibility,
    check_gp_relations,
    check_hecke,
    check_quadratic,
    check_ybe,
    g_op,
    hecke_parameters,
    q,
)
from cgybe.oracles import (
    eta_convolution,
    eta_interval_sum,
    g_idem_sum,
    run_oracles,
    ybe_coeff_rhs,
    zeta,
)

from helpers import cg_case_display, cg_twisted_case_display, random_fraction


@contextmanager
def criterion(label: str):
    try:
        yield
    except BaseException:
        print(f"FAIL  {label}")
        raise
    print(f"PASS  {label}")


def test_symbolic_ybe():
    with criterion("symbolic YBE: twisted n=1..12 and one-parameter n=1..5, under 30s"):
        started = time.perf_counter()
        for n in range(1, 13):
            report = check_ybe(cg_twisted_op(n))
            assert report.passed, (n, report.witness)
        alpha, beta = hecke_parameters()
        for n in range(1, 6):
            report = check_ybe(cg_op(n, alpha, beta))
            assert report.passed, (n, report.witness)
        assert time.perf_counter() - started < 30


def test_hecke_relation():
    with criterion("Hecke relation: (c-q)(c+q^-1)=0 for n=1..5; fails at beta=1"):
        alpha, beta = hecke_parameters()
        for n in range(1, 6):
            assert check_hecke(cg_op(n, alpha, beta), alpha).passed, n
        bad = check_hecke(cg_op(2, q, LaurentQP.one()), q)
        assert not bad.passed and bad.witness is not None


def test_compatibility_condition():
    with criterion("compatibility condition: g n=1..5; fails for identity at n=2"):
        for n in range(1, 6):
            assert check_compatibility(g_op(n)).passed, n
        assert not check_compatibility(TensorOp.identity(2)).passed


def test_g_solves_ybe():
    with criterion("g solves the YBE for n=1..5"):
        for n in range(1, 6):
            assert check_ybe(g_op(n)).passed, n


def test_g_flip_relations():
    with criterion("g^2=g, gP=-g, Pg=g+P-I for n=1..6"):
        for n in range(1, 7):
            assert check_gp_relations(n).passed, n


def test_quadratic_relation_and_inverse():
    with criterion("quadratic relation: 20 rational pairs + symbolic; inverse composes"):
        alpha, beta = hecke_parameters()
        assert check_quadratic(3, alpha, beta).passed
        rmat = cg_op(3, alpha, beta)
        inv = cg_inverse(rmat, alpha, beta)
        assert rmat @ inv == TensorOp.identity(3)
        assert inv @ rmat == TensorOp.identity(3)

        rng = random.Random(271828)
        pairs = []
        while len(pairs) < 20:
            a = random_fraction(rng, nonzero=True)
            b = random_fraction(rng, nonzero=True)
            if a != b:
                pairs.append((a, b))
        for a, b in pairs:
            assert check_quadratic(3, LaurentQP.const(a), LaurentQP.const(b)).passed
            # a*(a-b) is a nonzero constant, hence a unit: the closed-form
            # inverse must exist and compose to the identity.
            rmat = cg_op(3, LaurentQP.const(a), LaurentQP.const(b))
            inv = cg_inverse(rmat, LaurentQP.const(a), LaurentQP.const(b))
            assert rmat @ inv == TensorOp.identity(3), (a, b)

        # a symbolic unit case away from the Hecke point
        alpha2 = LaurentQP.monomial(2, 1, 0)
        beta2 = alpha2 - LaurentQP.monomial(Fraction(1, 2), -1, 0)
        rmat2 = cg_op(3, alpha2, beta2)
        assert cg_inverse(rmat2, alpha2, beta2) @ rmat2 == TensorOp.identity(3)


def test_scalar_identity_oracles():
    with criterion("scalar identity oracles on [-3,4], [1,6] and [-4,5]; padding inert; under 60s"):
        started = time.perf_counter()
        for lo, hi in ((-3, 4), (1, 6), (-4, 5)):
            for report in run_oracles(lo, hi):
                assert report.passed, (report.name, lo, hi, report.counterexample)
            for report in run_oracles(lo, hi, pad=3):
                assert report.passed, (report.name, "pad", lo, hi)
        # padding must leave every sum value unchanged, not merely the verdicts
        for tpl in itertools.product(range(-3, 5), repeat=5):
            assert zeta(*tpl) == zeta(*tpl, pad=3)
            assert ybe_coeff_rhs(*tpl) == ybe_coeff_rhs(*tpl, pad=3)
            assert eta_convolution(*tpl) == eta_convolution(*tpl, pad=3)
        for pair in itertools.product(range(-3, 7), repeat=2):
            assert eta_interval_sum(*pair) == eta_interval_sum(*pair, pad=3)
        for triple in itertools.product(range(-3, 7), repeat=3):
            assert g_idem_sum(*triple) == g_idem_sum(*triple, pad=3)
        assert time.perf_counter() - started < 60


def test_cross_validation_against_case_displays():
    with criterion("structural builds match case-by-case displays at n=4"):
        alpha, beta = hecke_parameters()
        assert cg_op(4, alpha, beta) == cg_case_display(4)
        assert cg_twisted_op(4) == cg_twisted_case_display(4)
        # all three cases occur at n=4: diagonal, i<j, i>j
        twisted = cg_twisted_op(4)
        assert twisted.apply(2, 2) == {(2, 2): q}
        assert (1, 4) in {inp for (_, inp) in twisted.entries}
        assert (4, 1) in {inp for (_, inp) in twisted.entries}


def test_numeric_path():
    with criterion("numeric YBE at 10 random rational points and at q=p for n=2"):
        twisted4 = cg_twisted_op(4)
        rng = random.Random(1618)
        for _ in range(10):
            qv = random_fraction(rng, nonzero=True)
            pv = random_fraction(rng, nonzero=True)
            report = check_ybe(twisted4.eval_at(qv, pv))
            assert report.passed, (qv, pv, report.witness)
        # the q = p point at n = 2
        for point in (Fraction(2), Fraction(3, 2)):
            assert check_ybe(cg_twisted_op(2).eval_at(point, point)).passed, point


def test_cli_contract():
    with criterion("CLI exit codes 0/1/2 and byte-stable gen output"):
        def run(*argv):
            return subprocess.run(
                [sys.executable, "-m", "cgybe", *argv],
                capture_output=True,
                timeout=120,
            )

        passing = run("verify", "--op", "cg", "--n", "3", "--checks", "ybe,hecke")
        assert passing.returncode == 0, passing.stderr
        assert all(json.loads(line)["passed"] for line in passing.stdout.splitlines())

        failing = run(
            "verify", "--op", "cg", "--n", "2", "--checks", "hecke",
            "--alpha", "q", "--beta", "1",
        )
        assert failing.returncode == 1, failing.stderr

        usage = run("verify", "--op", "cg", "--n", "0")
        assert usage.returncode == 2

        gen1 = run("gen", "--op", "cg", "--n", "3")
        gen2 = run("gen", "--op", "cg", "--n", "3")
        assert gen1.returncode == gen2.returncode == 0
        assert gen1.stdout == gen2.stdout
