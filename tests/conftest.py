import os
import sys

import pytest
from hypothesis import HealthCheck, settings

ACCEPTANCE_RESULTS = []

# The environment of every child interpreter the tests start: it imports
# polyadic from wherever the test process does.
RUN_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num, name, status in sorted(ACCEPTANCE_RESULTS):
        terminalreporter.write_line(f"criterion {num:2d} {name}: {status}")

settings.register_profile(
    "suite",
    max_examples=50,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def scan_rings(b_max: int, q_max: int):
    """Every allowed finite ring in the grid, in (b, a, q) order."""
    from polyadic.finite import finite_ring
    from polyadic.tables import grid_pairs

    return [finite_ring(a, b, q) for a, b in grid_pairs(b_max) for q in range(2, q_max + 1)]


@pytest.fixture(scope="session")
def grid_reports():
    """The classified T2 grid that every table generator reads."""
    from polyadic.tables import classify_grid

    return classify_grid()


@pytest.fixture(scope="session")
def full_grid():
    return scan_rings(10, 10)


@pytest.fixture(scope="session")
def oracle_grid_mismatches():
    """Main-path field verdicts checked against the exhaustive oracle, b,q <= 6."""
    from polyadic.finite import is_field
    from polyadic.oracle import oracle_is_field

    bad = []
    for fr in scan_rings(6, 6):
        if oracle_is_field(fr) != is_field(fr):
            bad.append(fr)
    return bad


@pytest.fixture(scope="session")
def kmult_grid_mismatches():
    """Exact-product k_mul against the symmetric-polynomial oracle, b,q <= 6."""
    from itertools import combinations_with_replacement

    from polyadic.finite import k_mul
    from polyadic.oracle import oracle_kmult

    bad = []
    for fr in scan_rings(6, 6):
        for ks in combinations_with_replacement(range(fr.q), fr.ring.n):
            if k_mul(fr, list(ks)) != oracle_kmult(fr, list(ks)):
                bad.append((fr, ks))
    return bad
