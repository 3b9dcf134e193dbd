"""Acceptance criteria, one test per numbered requirement.

Each test prints a pass/fail line per criterion so the module doubles
as a human-readable acceptance report under ``pytest -v -s``.
"""

import pytest

from mtv.numoracle import NumEnv
from mtv.verify import (
    closedform_checks,
    coherence_checks,
    counting_checks,
    derivation_checks,
    genseries_checks,
    golden_checks,
    invertibility_checks,
)


def _report(results):
    failures = [r for r in results if r.status == "FAIL"]
    for r in results:
        extra = ""
        if r.residual is not None:
            extra = f"  [residual {r.residual:.3e}, bound {r.bound:.3e}]"
        print(f"{r.status}  {r.ref}: {r.name}{extra}")
    assert not failures, [r.ref for r in failures]


@pytest.fixture(scope="module")
def env():
    return NumEnv(prec=64)


@pytest.fixture(scope="module")
def sum_env():
    return NumEnv(prec=53)


def test_criterion_1_singular_lambda_table():
    # exact rationals, zero tolerance, N = 1..11 required and 13..19 stretch
    results = [r for r in golden_checks() if r.ref.startswith("singular-lambda")]
    assert {r.ref for r in results} >= {f"singular-lambda-{n}" for n in (1, 3, 5, 7, 9, 11)}
    _report(results)


def test_criterion_2_golden_matrices():
    results = [r for r in golden_checks() if r.ref.startswith("matrix-")]
    assert len(results) == 3
    _report(results)


def test_criterion_3_invertibility_sweep():
    _report(invertibility_checks())


def test_criterion_4_closed_forms_vs_oracle(sum_env):
    _report(closedform_checks(env=sum_env))


def test_criterion_5_generating_series(sum_env):
    _report(genseries_checks(env=sum_env))


def test_criterion_6_regularization_coherence(env):
    _report(coherence_checks(max_weight=6, env=env))


def test_criterion_7_counting():
    _report(counting_checks())


def test_criterion_8_and_9_derivations(env):
    _report(derivation_checks(env=env))
