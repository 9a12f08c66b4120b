"""Shared fixtures: the two scalar reference models used across the suite,
and a model whose filter is numerically singular."""

import numpy as np
import pytest

from teamlqg import make_model


def scalar_pair_model(**overrides):
    """Two-agent scalar model with unit matrices everywhere and no coupling."""
    kw = dict(
        T=2,
        n=2,
        A=1.0, B=1.0, E=1.0, C=1.0, S=1.0,
        Q=1.0, R=1.0,
        mu_x=0.0, Sigma_x=1.0, Sigma_w=1.0, Sigma_v=1.0,
    )
    kw.update(overrides)
    return make_model(**kw)


def near_singular_model():
    """A valid model whose innovation covariance is numerically singular but
    not zero: the second channel sees no state, and its noise variance, 1e-14,
    lies below 1e-12 times the covariance's trace."""
    return make_model(T=3, n=3, A=0.9, B=1.0, C=[[1.0], [0.0]], Q=1.0, R=1.0,
                      Sigma_x=1.0, Sigma_w=1.0,
                      Sigma_v=np.diag([1.0, 1e-14]))


@pytest.fixture
def model_s1():
    return scalar_pair_model()


@pytest.fixture
def model_s2():
    return scalar_pair_model(A_bar=1.0, Q_bar=1.0)


_acceptance_outcomes: dict[str, str] = {}


def pytest_runtest_logreport(report):
    if "test_acceptance" not in report.nodeid or "test_criterion" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    if report.when == "call":
        _acceptance_outcomes[name] = report.outcome
    elif report.when == "setup" and report.outcome != "passed":
        _acceptance_outcomes[name] = report.outcome


def pytest_terminal_summary(terminalreporter):
    """One visible pass/fail line per acceptance criterion."""
    if not _acceptance_outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(_acceptance_outcomes):
        label = name.removeprefix("test_criterion_").replace("_", " ")
        verdict = "PASS" if _acceptance_outcomes[name] == "passed" else "FAIL"
        terminalreporter.write_line(f"  criterion {label}: {verdict}")
