"""Epoch-start partition of collectors into clusters, transaction routing,
and the Byzantine-cluster compromise probability calculator."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .crypto import Seed, derive_seed, fisher_yates_shuffle


@dataclass(frozen=True)
class ClusterAssignment:
    mapping: dict[bytes, int]  # staking key -> cluster index in [0, c)
    c: int

    def cluster_members(self, index: int) -> list[bytes]:
        return sorted(k for k, v in self.mapping.items() if v == index)


def cluster_assignment(
    collectors: Sequence[bytes], c: int, r: bytes
) -> ClusterAssignment:
    """Deterministic partition of collectors into c clusters.

    Derives a dedicated seed from the source of randomness r, shuffles the
    canonically ordered collector keys, stratifies the first c*k of them into
    clusters of size k = floor(n/c), then hands leftover i to cluster i.
    Every node computing this offline from the same inputs gets the same map.
    """
    if c < 1:
        raise ValueError("cluster count must be >= 1")
    if not collectors:
        raise ValueError("collectors must be non-empty")
    ordered = sorted(collectors)
    if len(set(ordered)) != len(ordered):
        raise ValueError("duplicate collector keys")

    s: Seed = derive_seed(["collector", "cluster"], r)
    pi = fisher_yates_shuffle(s, ordered)
    n = len(pi)
    k = n // c

    cls: dict[bytes, int] = {}
    i = 0
    j = 0
    while j < c * k:
        cls[pi[j]] = i
        j += 1
        if j % k == 0:
            i += 1
    i = 0
    while j < n:
        cls[pi[j]] = i
        i += 1
        j += 1
    return ClusterAssignment(mapping=cls, c=c)


def route_transaction(tx_hash: bytes, c: int) -> int:
    """Cluster index = digest (as a big-endian unsigned integer) mod c."""
    if c < 1:
        raise ValueError("cluster count must be >= 1")
    return int.from_bytes(tx_hash, "big") % c


def cluster_compromise_probability(
    n_c: int,
    byzantine_count: int,
    cluster_size: int,
    byzantine_threshold_fraction: Fraction | float,
) -> Fraction:
    """Exact hypergeometric tail probability that a uniformly sampled cluster
    contains at least ceil(threshold * size) Byzantine members."""
    if byzantine_count > n_c or cluster_size > n_c:
        raise ValueError("byzantine count and cluster size must not exceed n_c")
    if cluster_size < 1:
        raise ValueError("cluster size must be >= 1")
    frac = Fraction(byzantine_threshold_fraction)
    m = -((-frac.numerator * cluster_size) // frac.denominator)  # ceil
    m = max(m, 0)
    total = math.comb(n_c, cluster_size)
    tail = 0
    for x in range(m, min(cluster_size, byzantine_count) + 1):
        tail += math.comb(byzantine_count, x) * math.comb(n_c - byzantine_count, cluster_size - x)
    return Fraction(tail, total)
