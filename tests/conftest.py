"""Hypothesis settings profiles, and a fixture shared by the sign-test checks.

HYPOTHESIS_PROFILE picks a profile (default: Hypothesis's own).  `ci` prints
the reproduction blob of every failing example, so a failure on a CI runner
can be replayed locally with `@reproduce_failure`.
"""

import os

import pytest
from hypothesis import settings

from habiro import thetaside

settings.register_profile("ci", print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def exact_exits(monkeypatch) -> list:
    """The index lists bernoulli_sign passes to bernoulli_sum, its exact exit."""
    calls, real = [], thetaside.bernoulli_sum

    def recorded(f, ss):
        calls.append(ss)
        return real(f, ss)

    monkeypatch.setattr(thetaside, "bernoulli_sum", recorded)
    return calls
