"""Benchmark harness configuration.

Every benchmark regenerates one table/figure of the paper's evaluation
and prints the paper-vs-measured report.  Run with::

    pytest benchmarks/ --benchmark-only

Workload sizes are moderated relative to the paper's exact parameters
(documented per bench) so the whole suite completes in minutes; the
experiment modules default to the full paper parameters for standalone
use (``python -m repro.cli figures [--jobs N]``).
"""

import pytest


def report(result, capsys=None) -> str:
    """Render an experiment result and echo it to the terminal."""
    text = result.render()
    print("\n" + text)
    return text


@pytest.fixture
def echo():
    return report
