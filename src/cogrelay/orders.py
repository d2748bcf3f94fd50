"""Distributions over relay decoding-rank permutations.

A permutation is stored as an N-tuple (m_1, ..., m_N): relay k holds rank
m_k, rank 1 decodes first.  Distributions are sparse maps from permutation
to probability so that optimizers may restrict support; dense enumeration
is only ever needed for small N.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigError

MASS_TOL = 1e-9
DENSE_LIMIT = 8  # N! enumeration kept exact up to 8! = 40320 permutations


@dataclass(frozen=True)
class OrderDistribution:
    """Sparse probability distribution over decoding-rank permutations.

    Treat instances as immutable: `entries` must not be mutated after
    construction.
    """

    n_relays: int
    entries: dict[tuple[int, ...], float] = field(default_factory=dict)

    def __post_init__(self):
        problems = self.validate()
        if problems:
            raise ConfigError("; ".join(problems))

    def validate(self) -> list[str]:
        """Return a list of violations (empty when the distribution is valid)."""
        problems = []
        if self.n_relays < 0:
            return [f"n_relays {self.n_relays} < 0"]
        ranks = set(range(1, self.n_relays + 1))
        mass = 0.0
        for perm, prob in self.entries.items():
            if len(perm) != self.n_relays or set(perm) != ranks:
                problems.append(f"key {perm} is not a bijection on 1..{self.n_relays}")
            if not prob >= 0:
                problems.append(f"probability {prob} for {perm} is not >= 0")
            mass += prob
        if not abs(mass - 1.0) <= MASS_TOL:
            problems.append(f"mass {mass:.12g} != 1")
        return problems

    @classmethod
    def uniform(cls, n_relays: int) -> "OrderDistribution":
        """Equal weight on all n! permutations (n <= DENSE_LIMIT)."""
        if n_relays > DENSE_LIMIT:
            raise ConfigError(
                f"dense enumeration limited to n_relays <= {DENSE_LIMIT}")
        perms = list(itertools.permutations(range(1, n_relays + 1)))
        w = 1.0 / len(perms)
        return cls(n_relays, {p: w for p in perms})

    @classmethod
    def point_mass(cls, perm: tuple[int, ...]) -> "OrderDistribution":
        return cls(len(perm), {tuple(perm): 1.0})

    @classmethod
    def from_first_rank_profile(cls, beta) -> "OrderDistribution":
        """Distribution whose first-rank marginal equals `beta`.

        With probability beta_k relay k decodes first and the remaining
        relays follow in ascending index order.  Only the first-rank
        marginal is pinned; this completion is the deterministic one.
        """
        beta = np.asarray(beta, dtype=float)
        n = beta.size
        if not (np.all(beta >= 0) and abs(beta.sum() - 1.0) <= MASS_TOL):
            raise ConfigError(
                f"first-rank profile must be a probability vector, got {beta}")
        entries: dict[tuple[int, ...], float] = {}
        for k in range(n):
            if beta[k] == 0.0:
                continue
            ranks = first_rank_perm(n, k)
            entries[ranks] = entries.get(ranks, 0.0) + beta[k]
        if not entries:  # n == 0: the empty permutation carries all mass
            entries[()] = 1.0
        return cls(n, entries)

    def rank_marginals(self) -> np.ndarray:
        """eps[m-1, k-1] = P(relay k holds rank m).  Doubly stochastic."""
        n = self.n_relays
        eps = np.zeros((n, n))
        for perm, prob in self.entries.items():
            for k, rank in enumerate(perm):
                eps[rank - 1, k] += prob
        return eps

    def first_rank_profile(self) -> np.ndarray:
        """P(relay k decodes first), the row of rank_marginals for rank 1."""
        n = self.n_relays
        beta = np.zeros(n)
        for perm, prob in self.entries.items():
            beta[perm.index(1)] += prob
        return beta

    @cached_property
    def ranked_support(self) -> tuple[tuple[float, tuple[int, ...]], ...]:
        """Support as (prob, order) pairs of plain Python numbers, in
        `entries` order: order[r] is the 0-based relay index holding rank
        r+1.  Used by the rate formulas; computed once per instance."""
        return tuple((float(prob), rank_order(perm))
                     for perm, prob in self.entries.items())

    def rank_orders(self) -> tuple[np.ndarray, np.ndarray]:
        """`ranked_support` as arrays (`support_arrays`)."""
        return support_arrays(self.ranked_support)


def support_arrays(support) -> tuple[np.ndarray, np.ndarray]:
    """Nonempty (prob, rank order) pairs of equal-length orders as arrays
    (probs, orders), orders[i, r] the relay holding rank r+1 in order i."""
    probs = np.array([prob for prob, _ in support], dtype=float)
    orders = np.array([order for _, order in support], dtype=np.int64)
    return probs, orders.reshape(len(support), -1)


def rank_order(perm: tuple[int, ...]) -> tuple[int, ...]:
    """The 0-based relay indices of a permutation in rank order."""
    return tuple(sorted(range(len(perm)), key=perm.__getitem__))


def first_rank_perm(n: int, k: int) -> tuple[int, ...]:
    """The permutation in which relay k decodes first and the others
    follow in ascending index order."""
    return tuple(1 if j == k else j + 2 if j < k else j + 1
                 for j in range(n))


def is_doubly_stochastic(eps: np.ndarray, tol: float = MASS_TOL) -> bool:
    if eps.size == 0:
        return True
    return (np.all(eps >= -tol)
            and np.allclose(eps.sum(axis=0), 1.0, atol=tol)
            and np.allclose(eps.sum(axis=1), 1.0, atol=tol))
