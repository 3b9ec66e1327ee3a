"""End-to-end acceptance criteria.

The engine behind the `verify` subcommand runs the reference scenario
(cosine data, amplitudes 0.1, unit constants, N = 256, dt = 1e-4,
t_end = 50), its dt and grid refinements, the conductivity-exponent sweep,
and the forced-problem refinement study, then evaluates all ten criteria at
their fixed tolerances. The engine runs once per session; each test below
prints its criterion's pass/fail line and asserts it.

This module dominates the suite's runtime (several minutes).
"""

import os

import pytest

from lagrangas.acceptance import run_acceptance

pytestmark = pytest.mark.slow


@pytest.fixture(scope="session")
def acceptance(tmp_path_factory):
    workers = int(os.environ.get("LAGRANGAS_WORKERS", "0")) or None
    results, observed = run_acceptance(
        out_dir=tmp_path_factory.mktemp("verify"), workers=workers,
        echo=lambda line: None)
    return {r.number: r for r in results}, observed


def _check(acceptance, number):
    results, _ = acceptance
    r = results[number]
    print(f"{'PASS' if r.passed else 'FAIL'} {r.number:>2} {r.name}: {r.detail}")
    assert r.passed, f"criterion {r.number} ({r.name}): {r.detail}"


def test_criteria_complete(acceptance):
    results, _ = acceptance
    assert sorted(results) == list(range(1, 11))


def test_criterion_01_conservation(acceptance):
    _check(acceptance, 1)


def test_criterion_02_entropy_budget(acceptance):
    _check(acceptance, 2)


def test_criterion_03_mean_temperature_corridor(acceptance):
    _check(acceptance, 3)


def test_criterion_04_uniform_bounds(acceptance):
    _check(acceptance, 4)


def test_criterion_05_exponential_stability(acceptance):
    _check(acceptance, 5)


def test_criterion_06_volume_reconstruction(acceptance):
    _check(acceptance, 6)


def test_criterion_07_damping_factor_bounds(acceptance):
    _check(acceptance, 7)


def test_criterion_08_forced_problem_convergence(acceptance):
    _check(acceptance, 8)


def test_criterion_09_moment_boundedness(acceptance):
    _check(acceptance, 9)


def test_criterion_10_determinism(acceptance):
    _check(acceptance, 10)
