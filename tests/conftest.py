import time

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from clustercap import build_cut_matrix, models
from clustercap.recipes import chamber_letter

settings.register_profile(
    "fixed",
    derandomize=True,
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("fixed")

DATA = __file__.rsplit("/", 1)[0] + "/data"


@pytest.fixture(scope="session")
def cache_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("cutcache"))


@pytest.fixture(scope="session")
def matrices(cache_dir):
    """Reduced cut matrices for the cheap chamber counts."""
    return {n: build_cut_matrix(n, reduce=True, cache_dir=cache_dir) for n in (1, 2, 3, 4)}


@pytest.fixture(scope="session")
def cuts5(tmp_path_factory):
    """The reduced five-chamber matrix from a fresh, timed pipeline run (empty
    cache), and its build time in seconds; built once per session."""
    cache = tmp_path_factory.mktemp("n5cache")
    start = time.perf_counter()
    matrix = build_cut_matrix(5, reduce=True, cache_dir=cache)
    return matrix, time.perf_counter() - start


def example1_instance() -> models.Instance:
    return models.Instance(
        name="example1",
        chambers=3,
        tools=("tool1",),
        jobs=(models.Job("lot1", 90.0), models.Job("lot2", 90.0)),
        qualifications=(
            models.Qualification("lot1", "tool1", ((0, 1 / 6), (1, 1 / 6), (2, 1 / 6))),
            models.Qualification("lot2", "tool1", ((0, 1 / 5), (1, 1 / 5), (2, 1 / 5))),
        ),
    )


def random_instance(
    rng: np.random.Generator,
    chambers: int,
    max_tools: int = 5,
    max_jobs: int = 5,
    homogeneous: bool = False,
    overrides: bool = False,
) -> models.Instance:
    """Small random instance with every job qualified somewhere.

    With homogeneous=True every qualified pair uses all chambers at one
    shared rate (rates still vary across pairs), the regime in which the
    load-lock-free model is a true relaxation of the cut models.  With
    overrides=True about half the qualified pairs also pin the rate of one
    recipe drawn from their chambers; the default draws nothing extra, so
    the instances of a given seed do not change.
    """
    n_tools = int(rng.integers(1, max_tools + 1))
    n_jobs = int(rng.integers(1, max_jobs + 1))
    tools = tuple(f"t{i}" for i in range(n_tools))
    jobs = tuple(models.Job(f"j{j}", float(rng.integers(1, 60))) for j in range(n_jobs))
    quals = []
    rate_overrides = []
    for j in range(n_jobs):
        picked = [i for i in range(n_tools) if rng.random() < 0.6]
        if not picked:
            picked = [int(rng.integers(0, n_tools))]
        for i in picked:
            if homogeneous:
                rate = float(rng.uniform(0.1, 1.0))
                rates = tuple((c, rate) for c in range(chambers))
            else:
                kept = [c for c in range(chambers) if rng.random() < 0.8]
                if not kept:
                    kept = [int(rng.integers(0, chambers))]
                rates = tuple((c, float(rng.uniform(0.1, 1.0))) for c in kept)
            quals.append(models.Qualification(f"j{j}", f"t{i}", rates))
            if overrides and rng.random() < 0.5:
                own = [c for c, _ in rates]
                picked_chambers = [c for c in own if rng.random() < 0.5] or own
                label = "".join(chamber_letter(c) for c in picked_chambers)
                rate_overrides.append(
                    models.RateOverride(f"j{j}", f"t{i}", label, float(rng.uniform(0.1, 2.0)))
                )
    return models.Instance(
        name="fuzz",
        chambers=chambers,
        tools=tools,
        jobs=jobs,
        qualifications=tuple(quals),
        rate_overrides=tuple(rate_overrides),
    )
