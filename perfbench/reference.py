"""Independent numpy reference for GraphHD encoding and classification.

The benchmark checks the program against this module, never against stored
outputs.  It shares exactly one thing with the program: the random basis
rows, drawn from ``repro.hdc.item_memory.ItemMemory`` with the model's seed.
Everything else is written from the paper's description:

* PageRank by dense power iteration (damping 0.85, 10 iterations, the mass of
  dangling vertices spread uniformly);
* vertex identifiers are ranks by descending centrality, where values that
  are equal within ``RANK_TOLERANCE`` are ordered by vertex index;
* an edge is the component product of its endpoints' basis rows, and the
  graph is the sign of the sum of its edges (0 where the vote is tied);
* a query goes to the class whose integer sum of training encodings has the
  highest cosine, ties going to the earliest-trained class;
* a binary (packed) model's class vector is the sign of that sum, and a query
  goes to the class vector at the smallest Hamming distance.
"""

from __future__ import annotations

import itertools
from typing import Iterator

import numpy as np

DAMPING = 0.85
ITERATIONS = 10

#: Centralities closer than this (relative to 1/n) count as equal.
RANK_TOLERANCE = 1e-9

#: Edges bound per block when summing, to bound the temporary int8 array.
EDGE_BLOCK = 2048


def basis_rows(count: int, dimension: int, seed: int) -> np.ndarray:
    """Bipolar basis rows for ranks ``0..count-1``, as the program draws them."""
    from repro.hdc.item_memory import ItemMemory

    memory = ItemMemory(dimension, seed=seed)
    return np.asarray(memory.get_many(range(count)), dtype=np.int8)


def pagerank(num_vertices: int, sources: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Dense power-iteration PageRank of an undirected graph."""
    n = int(num_vertices)
    if n == 0:
        return np.empty(0)
    adjacency = np.zeros((n, n))
    adjacency[sources, targets] = 1.0
    adjacency[targets, sources] = 1.0
    degree = adjacency.sum(axis=1)
    dangling = degree == 0
    transition = adjacency / np.where(dangling, 1.0, degree)[:, None]
    rank = np.full(n, 1.0 / n)
    for _ in range(ITERATIONS):
        spread = rank[dangling].sum() / n
        rank = (1.0 - DAMPING) / n + DAMPING * (transition.T @ rank + spread)
    return rank / rank.sum()


def rank_order(centrality: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Vertices from most to least central, and the groups of near-equal ones.

    Near-equal neighbours in the sorted order are chained into groups, and
    each group is ordered by vertex index.  Returns the order and the groups
    (as slices of positions in that order) with more than one vertex.
    """
    n = len(centrality)
    order = np.argsort(-centrality, kind="stable")
    values = centrality[order]
    tolerance = RANK_TOLERANCE / max(n, 1)
    breaks = np.flatnonzero(np.abs(np.diff(values)) > tolerance) + 1
    groups = [group for group in np.split(np.arange(n), breaks) if len(group) > 1]
    for group in groups:
        order[group] = np.sort(order[group])
    return order, groups


def ranks(centrality: np.ndarray) -> np.ndarray:
    """Rank 0 for the most central vertex; near-equal values by vertex index."""
    order, _ = rank_order(centrality)
    result = np.empty(len(order), dtype=np.int64)
    result[order] = np.arange(len(order))
    return result


def tie_orders(
    centrality: np.ndarray, program_centrality: np.ndarray, limit: int
) -> Iterator[np.ndarray]:
    """Ranks under the index order first, then under the program's own order.

    Floating-point PageRank can separate values that are equal in exact
    arithmetic by a rounding error, so an implementation may order such a
    near-tie group by that error instead of by vertex index.  A group may
    therefore also take the order of ``program_centrality`` (the program's
    own values, descending, equal values by vertex index), and only that
    order: a group whose program values are exactly equal keeps index order.
    After the index order this yields the ranks with one such group
    reordered, then two, and so on, at most ``limit`` candidates in all.
    """
    order, groups = rank_order(centrality)
    program = np.asarray(program_centrality, dtype=np.float64)
    reorders = []
    for group in groups:
        members = order[group]
        by_value = members[np.argsort(-program[members], kind="stable")]
        if not np.array_equal(by_value, members):
            reorders.append((group, by_value))
    yielded = 0
    for changed in range(len(reorders) + 1):
        for chosen in itertools.combinations(reorders, changed):
            if yielded >= limit:
                return
            candidate = order.copy()
            for group, by_value in chosen:
                candidate[group] = by_value
            result = np.empty(len(candidate), dtype=np.int64)
            result[candidate] = np.arange(len(candidate))
            yielded += 1
            yield result


def edge_sum(
    identifiers: np.ndarray, sources: np.ndarray, targets: np.ndarray, basis: np.ndarray
) -> np.ndarray:
    """Integer sum over edges of the bound endpoint rows (before the vote)."""
    total = np.zeros(basis.shape[1], dtype=np.int64)
    for start in range(0, len(sources), EDGE_BLOCK):
        u = identifiers[sources[start : start + EDGE_BLOCK]]
        v = identifiers[targets[start : start + EDGE_BLOCK]]
        total += (basis[u] * basis[v]).sum(axis=0, dtype=np.int64)
    return total


def encode(
    identifiers: np.ndarray, sources: np.ndarray, targets: np.ndarray, basis: np.ndarray
) -> np.ndarray:
    """Bipolar graph encoding with 0 on tied components."""
    return np.sign(edge_sum(identifiers, sources, targets, basis)).astype(np.int8)


def unpack_bits(words: np.ndarray, dimension: int) -> np.ndarray:
    """Packed uint64 rows to bipolar rows: bit 0 is +1, bit 1 is -1, LSB first."""
    as_bytes = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)
    bits = np.unpackbits(as_bytes, axis=-1, bitorder="little")[..., :dimension]
    return (1 - 2 * bits.astype(np.int8)).astype(np.int8)


def class_sums(encodings: np.ndarray, labels) -> tuple[list, np.ndarray]:
    """Per-class integer sums of encodings, classes in first-seen order."""
    classes = list(dict.fromkeys(labels))
    index = {label: position for position, label in enumerate(classes)}
    sums = np.zeros((len(classes), encodings.shape[1]), dtype=np.int64)
    for row, label in zip(encodings, labels):
        sums[index[label]] += row
    return classes, sums


def cosine_scores(queries: np.ndarray, sums: np.ndarray) -> np.ndarray:
    """Cosine of every query row against every class sum."""
    queries = queries.astype(np.float64)
    sums = sums.astype(np.float64)
    query_norms = np.linalg.norm(queries, axis=1, keepdims=True)
    sum_norms = np.linalg.norm(sums, axis=1)
    return (queries @ sums.T) / np.maximum(query_norms, 1e-300) / np.maximum(
        sum_norms, 1e-300
    )


def hamming_bounds(queries: np.ndarray, sums: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hamming distances of bipolar queries to the class vectors ``sign(sums)``.

    A component whose class vote is tied may take either sign, so each
    distance is returned as bounds ``(lower, upper)``; ``upper - lower`` is the
    class's count of tied components.
    """
    signs = np.sign(sums).astype(np.int64)
    untied = np.count_nonzero(signs, axis=1)
    lower = (untied - queries.astype(np.int64) @ signs.T) // 2
    return lower, lower + (sums.shape[1] - untied)
