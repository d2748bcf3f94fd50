import itertools
import math

import numpy as np
import pytest

from cogrelay.errors import ConfigError
from cogrelay.orders import OrderDistribution, is_doubly_stochastic
from support import (nth_permutation, random_order_distribution,
                     random_simplex)


@pytest.mark.parametrize("n", range(7))
def test_nth_permutation_is_lexicographic(n):
    assert [nth_permutation(n, i) for i in range(math.factorial(n))] == list(
        itertools.permutations(range(1, n + 1)))


def test_rank_marginals_two_relays():
    d = OrderDistribution(2, {(1, 2): 0.7, (2, 1): 0.3})
    eps = d.rank_marginals()
    assert np.allclose(eps, [[0.7, 0.3], [0.3, 0.7]])


def test_rank_marginals_uniform():
    for n in (1, 2, 3, 4):
        eps = OrderDistribution.uniform(n).rank_marginals()
        assert np.allclose(eps, 1.0 / n)


def test_rank_marginals_point_mass_identity():
    n = 4
    eps = OrderDistribution.point_mass(tuple(range(1, n + 1))).rank_marginals()
    assert np.allclose(eps, np.eye(n))


def test_rank_marginals_doubly_stochastic_random():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(1, 6))
        d = random_order_distribution(rng, n, support=int(rng.integers(1, 7)))
        assert is_doubly_stochastic(d.rank_marginals())


def test_from_first_rank_profile_point():
    d = OrderDistribution.from_first_rank_profile([1.0, 0.0])
    assert d.entries == {(1, 2): 1.0}


def test_from_first_rank_profile_marginal():
    for beta in ([1 / 3, 1 / 3, 1 / 3], [0.6, 0.4], [0.2, 0.5, 0.25, 0.05]):
        d = OrderDistribution.from_first_rank_profile(beta)
        assert np.allclose(d.rank_marginals()[0], beta, atol=1e-12)
        assert np.allclose(d.first_rank_profile(), beta, atol=1e-12)


def test_first_rank_roundtrip_random():
    rng = np.random.default_rng(23)
    for _ in range(50):
        n = int(rng.integers(1, 7))
        beta = random_simplex(rng, n)
        d = OrderDistribution.from_first_rank_profile(beta)
        assert np.allclose(d.first_rank_profile(), beta, atol=1e-12)


def test_validate_reports_mass_and_bijection():
    bad_mass = OrderDistribution.__new__(OrderDistribution)
    object.__setattr__(bad_mass, "n_relays", 2)
    object.__setattr__(bad_mass, "entries", {(1, 2): 0.9})
    assert any("mass 0.9" in v for v in bad_mass.validate())

    bad_key = OrderDistribution.__new__(OrderDistribution)
    object.__setattr__(bad_key, "n_relays", 2)
    object.__setattr__(bad_key, "entries", {(1, 1): 1.0})
    assert any("bijection" in v for v in bad_key.validate())

    assert OrderDistribution.uniform(3).validate() == []


def test_constructor_rejects_invalid():
    with pytest.raises(ConfigError):
        OrderDistribution(2, {(1, 2): 0.5})
    with pytest.raises(ConfigError):
        OrderDistribution(2, {(1, 2): 1.5, (2, 1): -0.5})
    with pytest.raises(ConfigError):
        OrderDistribution.from_first_rank_profile([0.5, 0.6])


def test_dense_enumeration_complete():
    for n in (1, 2, 3, 4, 5, 8):
        d = OrderDistribution.uniform(n)
        assert len(d.entries) == math.factorial(n)
        assert sum(d.entries.values()) == pytest.approx(1.0, abs=1e-9)
    assert set(OrderDistribution.uniform(4).entries) == \
        set(itertools.permutations(range(1, 5)))
    with pytest.raises(ConfigError):
        OrderDistribution.uniform(9)


def test_rank_orders_layout():
    d = OrderDistribution(3, {(2, 1, 3): 1.0})  # relay 2 first, then 1, then 3
    probs, orders = d.rank_orders()
    assert probs.tolist() == [1.0]
    assert orders.tolist() == [[1, 0, 2]]


@pytest.mark.parametrize("entries", [{(1, 2): math.nan},
                                     {(1, 2): math.nan, (2, 1): 1.0}])
def test_nan_probability_rejected(entries):
    with pytest.raises(ConfigError):
        OrderDistribution(2, entries)


@pytest.mark.parametrize("beta", [[math.nan, math.nan], [math.nan, 1.0]])
def test_nan_first_rank_profile_rejected(beta):
    with pytest.raises(ConfigError):
        OrderDistribution.from_first_rank_profile(beta)
