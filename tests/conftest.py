import dataclasses
import os

import numpy as np
import pytest

from fracmle import HurstVector, lift, sample_fbm


@pytest.fixture(scope="session")
def h04():
    return HurstVector((0.4,))


def sampled_lift(hurst, grid, seed):
    return lift(sample_fbm(hurst, grid, seed), grid)


_PARENT_PID = os.getpid()


def die_in_worker(cfg, epsilons, ids, ode=None):
    """A stand-in for a study block that kills the worker process running it; run in
    the calling process (a serial fallback), it fails the test instead."""
    if os.getpid() != _PARENT_PID:
        os._exit(1)
    raise AssertionError("a study block ran in the calling process")


def trapezoid_weights(grid):
    w = np.full(grid.n_coarse + 1, grid.dt)
    w[0] = w[-1] = 0.5 * grid.dt
    return w


def edge_cubic_model(name="edge-cubic-test"):
    """b = theta (x^3 - x), sigma = 1, theta-linear: from x0 = 1, the unstable
    equilibrium, a path the noise pushes up passes the blow-up guard within T = 1 and one
    pushed down settles near 0. Its callbacks fail on any state that is non-finite or
    past the guard, so a dropped row that reached one would show."""
    from fracmle import get_model
    from fracmle.rde import BLOWUP_GUARD

    def guarded(fn):
        def cb(x, *args):
            if not np.all(np.abs(x) <= BLOWUP_GUARD):
                raise AssertionError(f"callback saw state {x}")
            return fn(x, *args)

        return cb

    lin = get_model("linear1d")
    return dataclasses.replace(
        lin,
        name=name,
        theta_domain=np.array([[0.1, 10.0]]),
        drift=guarded(lambda x, th: th[0] * (x**3 - x)),
        drift_dx=guarded(lambda x, th: (th[0] * (3 * x**2 - 1))[..., None]),
        drift_dtheta=(guarded(lambda x, th: (x**3 - x)[..., None]),) + lin.drift_dtheta[1:],
        diffusion=guarded(lin.diffusion),
        diffusion_dx=guarded(lin.diffusion_dx),
    )
