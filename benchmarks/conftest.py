"""Paper-shape check helpers.

Every check regenerates one table or figure from the paper's evaluation
and asserts its *shape* — who wins, by roughly what factor, where the
crossovers fall (see DESIGN.md section 4).  Nothing here is timed: every
speed claim comes from ``perfbench/``.

Durations are trimmed relative to the paper's 600 s runs; the simulated
system reaches steady state within a few daemon iterations, so shorter
measurement windows preserve the shapes.
"""

from __future__ import annotations

import pytest


@pytest.fixture
def regen():
    """Run an experiment exactly once."""

    def _run(fn, *args, **kwargs):
        return fn(*args, **kwargs)

    return _run
