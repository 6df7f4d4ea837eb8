"""The seeded phase stream: numpy's default_rng uniform draws, ported."""

import random

import numpy as np
import pytest

from icflow import rng
from icflow.curves import make_circle, make_perturbed_circle
from icflow.errors import ParameterError

TWO_PI = 2.0 * np.pi

# the edges of SeedSequence's word split: one word, two words, three, and
# seeds of five and seven words, which run its extra mixing loop
EDGE_SEEDS = [*range(50), 2**32 - 1, 2**32, 2**64 + 3, 2**128 + 7, 2**200 - 1]
DRAWN_SEEDS = [random.Random(20261020).randrange(2**bits)
               for bits in (8, 32, 33, 64, 130, 256) for _ in range(50)]


def workload_seed(seed, certify):
    """The perturbed circle's seed in the benchmark's snapshot_dense or
    certify instance of benchmark seed seed."""
    draws = random.Random(seed)
    if certify:
        draws.choice((1.5, 2.0, 4.0))  # certify draws its ellipse first
    return draws.randrange(2**32)


WORKLOAD_SEEDS = [workload_seed(s, certify) for s in (1, 3, 7, 101) for certify in (False, True)]


def numpy_phases(seed, size):
    return np.random.default_rng(seed).uniform(0.0, TWO_PI, size=size).tolist()


@pytest.mark.parametrize("seeds", [EDGE_SEEDS, DRAWN_SEEDS], ids=["edges", "drawn"])
def test_uniform_is_numpy_default_rng_bit_for_bit(seeds):
    for seed in seeds:
        for size in range(1, 8):
            assert rng.uniform(seed, 0.0, TWO_PI, size) == numpy_phases(seed, size), (seed, size)


def test_uniform_keeps_its_frozen_phases():
    # literals, so that a numpy whose stream moved cannot move these curves unseen
    assert rng.uniform(0, 0.0, TWO_PI, 3) == [
        4.002148315014479, 1.6951199159934145, 0.25744424357926954]
    assert rng.uniform(7, 0.0, TWO_PI, 2) == [3.927590651355011, 5.637360571650786]
    assert rng.uniform(2**32, 0.0, TWO_PI, 2) == [5.590393700586498, 3.5006016111264437]
    assert rng.uniform(2**200 - 1, 0.0, TWO_PI, 2) == [1.7635294453811308, 1.4406057284118265]


def test_uniform_draws_in_its_interval():
    draws = rng.uniform(11, -1.0, 3.0, 200)
    assert all(-1.0 <= x < 3.0 for x in draws)
    assert rng.uniform(11, 0.0, 1.0, 0) == []


def test_uniform_accepts_numpy_integers():
    assert rng.uniform(np.int64(5), 0.0, TWO_PI, 2) == rng.uniform(5, 0.0, TWO_PI, 2)


@pytest.mark.parametrize("seed", [-1, -(2**70), True, False, 1.5, 3.0, "3", None],
                         ids=repr)
def test_uniform_rejects_seeds_that_are_not_non_negative_integers(seed):
    with pytest.raises(ParameterError, match="seed must be a non-negative integer"):
        rng.uniform(seed, 0.0, TWO_PI, 1)


def test_perturbed_circle_rejects_a_negative_seed():
    # numpy raised ValueError here
    with pytest.raises(ParameterError):
        make_perturbed_circle(1.0, 64, [0.05], [3], seed=-1)


def test_the_no_term_circle_draws_nothing(monkeypatch):
    def refuse(*args):
        raise AssertionError("the no-term circle drew phases")

    monkeypatch.setattr(rng, "uniform", refuse)
    v = make_perturbed_circle(1.0, 64, [], [], seed=-1)
    assert np.array_equal(v, make_circle(1.0, 64))


@pytest.mark.parametrize("seed", WORKLOAD_SEEDS + list(range(12)))
def test_perturbed_circle_is_numpy_phases_curve(seed, monkeypatch):
    ported = make_perturbed_circle(1.0, 256, [0.03, 0.01], [3, 5], seed)
    monkeypatch.setattr(rng, "uniform", lambda s, lo, hi, size: list(
        np.random.default_rng(s).uniform(lo, hi, size=size)))
    assert np.array_equal(ported, make_perturbed_circle(1.0, 256, [0.03, 0.01], [3, 5], seed))

