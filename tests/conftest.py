import numpy as np
import pytest

from sphereflow.geometry import Domain, build_grid
from sphereflow.field import InitialData, generate
from sphereflow.flow import PenaltySchedule, SolverConfig, run_glhf, run_projected


@pytest.fixture(scope="session")
def rowsq_in_order():
    """Row sums of squares as ``geometry.rowsq`` documents them: the even
    columns in order, the odd columns in order, then the two partial sums;
    separate multiplies and adds, so the same bits on every platform."""
    def rowsq(a):
        p = a * a
        even, odd = np.zeros(a.shape[0]), np.zeros(a.shape[0])
        for j in range(0, a.shape[1], 2):
            even = even + p[:, j]
        for j in range(1, a.shape[1], 2):
            odd = odd + p[:, j]
        return even + odd
    return rowsq


@pytest.fixture(scope="session")
def disc16():
    return build_grid(Domain.unit_ball(2), 1 / 16)


@pytest.fixture(scope="session")
def disc32():
    return build_grid(Domain.unit_ball(2), 1 / 32)


@pytest.fixture(scope="session")
def ball3_32():
    return build_grid(Domain.unit_ball(3), 1 / 32)


@pytest.fixture(scope="session")
def hedgehog32(ball3_32):
    return generate(InitialData(kind="equator-hedgehog"), ball3_32, 2)


@pytest.fixture(scope="session")
def cap60_32(disc32):
    return generate(InitialData(kind="cap", latitude_deg=60.0), disc32, 2)


@pytest.fixture(scope="session")
def cap_run_32(disc32, cap60_32):
    """GLHF lam=1e3 cap run on the disc: the workhorse smooth trajectory."""
    cfg = SolverConfig(dt=SolverConfig.auto_dt(disc32), T=0.25, output_stride=8)
    return run_glhf(cap60_32, cfg, PenaltySchedule(lam=1e3))


@pytest.fixture(scope="session")
def onesided_run_32(disc32, cap60_32):
    """Projected cap run used by the hemisphere-confinement checks."""
    cfg = SolverConfig(dt=SolverConfig.auto_dt(disc32), T=0.5, output_stride=8)
    return run_projected(cap60_32, cfg)


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


@pytest.fixture(scope="session")
def map_rss():
    """``map_rss(snap)``: the resident bytes of the map that holds the kept
    snapshot ``snap``'s rows, the ``Rss:`` line of its entry in
    ``/proc/self/smaps``, or None where that file is missing.
    ``map_rss.checked(readings)`` gives a list of readings back, or skips
    the test where one is None; a test calls it after its other checks."""
    def rss(snap):
        addr, inside = snap._rows.ctypes.data, False
        try:
            with open("/proc/self/smaps") as fh:
                lines = fh.readlines()
        except OSError:
            return None
        for line in lines:
            head = line.split()[0]
            if "-" in head and not head.endswith(":"):      # a mapping's header
                lo, hi = (int(x, 16) for x in head.split("-"))
                inside = lo <= addr < hi
            elif inside and head == "Rss:":
                return 1024 * int(line.split()[1])
        raise AssertionError("the snapshot's rows are not a map of this process")

    def checked(readings) -> list:
        readings = list(readings)
        if None in readings:
            pytest.skip("no /proc/self/smaps")
        return readings

    rss.checked = checked
    return rss
