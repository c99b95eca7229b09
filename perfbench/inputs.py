"""Seeded benchmark inputs, written as TUDataset text files.

Built with numpy alone, so the program under test sees nothing but the files,
exactly as a user's dataset would reach it.  The same seed always writes the
same files.

Molecules follow NCI1's Table I shape: about 30 vertices and 32 edges, a
valence-capped spanning tree closed into a few rings, 37 vertex labels and 2
classes that differ in their ring count.
"""

from __future__ import annotations

import os

import numpy as np

MOLECULE_VERTEX_LABELS = 37
MAX_VALENCE = 4


def molecule_graph(rng: np.random.Generator, label: int):
    """One NCI1-shaped graph as ``(num_vertices, sources, targets, vertex_labels)``."""
    n = int(np.clip(round(rng.lognormal(np.log(28.5), 0.35)), 6, 110))
    degree = [0] * n
    edges = set()
    for vertex in range(1, n):
        while True:
            parent = int(rng.integers(0, vertex))
            if degree[parent] < MAX_VALENCE:
                break
        edges.add((parent, vertex))
        degree[parent] += 1
        degree[vertex] += 1
    for _ in range(int(rng.poisson(2.5 if label == 0 else 5.0))):
        u, v = sorted(int(x) for x in rng.integers(0, n, 2))
        if u != v and (u, v) not in edges and max(degree[u], degree[v]) < MAX_VALENCE:
            edges.add((u, v))
            degree[u] += 1
            degree[v] += 1
    pairs = np.array(sorted(edges), dtype=np.int64).reshape(-1, 2)
    # Carbon-heavy label skew, like the atom types of a molecule dataset.
    weights = 1.0 / np.arange(1, MOLECULE_VERTEX_LABELS + 1) ** 1.5
    vertex_labels = rng.choice(
        MOLECULE_VERTEX_LABELS, size=n, p=weights / weights.sum()
    )
    return n, pairs[:, 0], pairs[:, 1], vertex_labels


def make_graphs(count: int, seed: int):
    """``count`` molecule graphs and their balanced 0/1 labels."""
    rng = np.random.default_rng([seed, 1])
    labels = rng.permutation(np.arange(count) % 2)
    return [molecule_graph(rng, int(label)) for label in labels], labels


def write_tudataset(directory: str, name: str, graphs, labels) -> None:
    """Write graphs in the TUDataset text format (both edge directions listed)."""
    os.makedirs(directory, exist_ok=True)
    prefix = os.path.join(directory, name)
    adjacency, indicator, vertex_labels = [], [], []
    offset = 0
    for number, (n, sources, targets, labels_of_vertices) in enumerate(graphs, 1):
        u = sources + offset + 1
        v = targets + offset + 1
        both = np.stack([np.concatenate([u, v]), np.concatenate([v, u])], axis=1)
        adjacency.append("\n".join(f"{a}, {b}" for a, b in both.tolist()))
        indicator.append("\n".join([str(number)] * n))
        vertex_labels.append("\n".join(map(str, labels_of_vertices.tolist())))
        offset += n

    def write(suffix: str, blocks) -> None:
        with open(f"{prefix}_{suffix}.txt", "w", encoding="utf-8") as handle:
            handle.write("\n".join(block for block in blocks if block) + "\n")

    write("A", adjacency)
    write("graph_indicator", indicator)
    write("graph_labels", [str(int(label)) for label in labels])
    write("node_labels", vertex_labels)
