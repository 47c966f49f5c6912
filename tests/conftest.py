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


def larger_arity_rings():
    """610 rings whose descriptors carry an m or n above the least ones.

    A descriptor may carry any m with (m-1)*a = 0 and any n with
    a^n = a (mod b): for each pair with b <= 8 these take m = 2m0 - 1 or
    3m0 - 2 and n = n0 or 2n0 - 1 over the least (m0, n0), at each
    q <= 8 with q^(n-1) <= 10^3.
    """
    from polyadic.finite import FiniteRing
    from polyadic.ring import RingDescriptor, grid_pairs, make_descriptor

    rings = []
    for a, b in grid_pairs(8):
        d = make_descriptor(a, b)
        for m in (2 * d.m - 1, 3 * d.m - 2):
            for n in (d.n, 2 * d.n - 1):
                ring = RingDescriptor(a, b, m, n, (m - 1) * a // b, (a**n - a) // b)
                rings += [FiniteRing(ring, q) for q in range(1, 9) if q ** (n - 1) <= 10**3]
    return rings


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
