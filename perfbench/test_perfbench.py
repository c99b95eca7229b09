"""Tests of the benchmark's own parts: inputs, reference, checks and tracing.

Each check is shown to accept the program's real output and to reject a
corrupted one.  Small dimensions keep this file fast.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from perfbench import checks, inputs, reference, tracing
from repro.core import GraphHDClassifier, GraphHDConfig
from repro.eval.cross_validation import FoldResult, cross_validate
from repro.datasets.dataset import GraphDataset
from repro.graphs.centrality import pagerank_matrix
from repro.graphs.graph import Graph

DIMENSION = 512
SEED = 7


#: A path: vertices 1 and 2 (and 0 and 3) have exactly equal PageRank.
PATH = Graph(4, [(0, 1), (1, 2), (2, 3)])


def _graphs(count: int, seed: int = 3) -> list[Graph]:
    generated, labels = inputs.make_graphs(count, seed)
    return [
        Graph(n, zip(sources.tolist(), targets.tolist()), graph_label=int(label))
        for (n, sources, targets, _), label in zip(generated, labels)
    ]


def _arrays(graphs):
    return [(g.num_vertices, *g.edge_arrays()) for g in graphs]


@pytest.fixture(scope="module")
def molecules():
    return _graphs(60)


@pytest.fixture(scope="module")
def encodings(molecules):
    dense = GraphHDClassifier(GraphHDConfig(dimension=DIMENSION, seed=SEED))
    packed = GraphHDClassifier(
        GraphHDConfig(dimension=DIMENSION, seed=SEED, backend="packed")
    )
    return dense.encode(molecules), packed.encode(molecules)


def _check(graphs, dense, packed, centralities=None):
    if centralities is None:
        centralities = pagerank_matrix(graphs)
    return checks.check_encodings(
        _arrays(graphs), dense, packed, centralities, dimension=DIMENSION, seed=SEED
    )


def _pack(dense: np.ndarray) -> np.ndarray:
    """Bipolar rows to packed words: bit 1 for -1, least significant bit first."""
    return np.packbits(dense < 0, axis=-1, bitorder="little").view("<u8")


def _path_encoding(order: list[int]) -> np.ndarray:
    """The path's encoding when its vertices are ranked in ``order``."""
    identifiers = np.empty(4, dtype=np.int64)
    identifiers[order] = np.arange(4)
    return reference.encode(
        identifiers, *PATH.edge_arrays(), reference.basis_rows(4, DIMENSION, SEED)
    )[None, :]


def test_inputs_depend_only_on_the_seed(tmp_path):
    for directory in ("a", "b"):
        generated, labels = inputs.make_graphs(12, 5)
        inputs.write_tudataset(str(tmp_path / directory), "M", generated, labels)
    for name in os.listdir(tmp_path / "a"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    other, _ = inputs.make_graphs(12, 6)
    assert any(a[0] != b[0] for a, b in zip(generated, other))


def test_written_files_load_through_the_program(tmp_path):
    from repro.datasets.tudataset import load_tudataset

    generated, labels = inputs.make_graphs(10, 1)
    inputs.write_tudataset(str(tmp_path), "M", generated, labels)
    dataset = load_tudataset(str(tmp_path), "M")
    assert dataset.labels == [int(label) for label in labels]
    for graph, (n, sources, targets, vertex_labels) in zip(dataset, generated):
        assert graph.num_vertices == n
        assert graph.edges() == sorted(zip(sources.tolist(), targets.tolist()))
        assert graph.vertex_labels == vertex_labels.tolist()


def test_reference_pagerank_matches_a_hand_computed_star():
    # Star with centre 0: by symmetry the leaves share one value.
    rank = reference.pagerank(4, np.array([0, 0, 0]), np.array([1, 2, 3]))
    assert rank[0] > rank[1]
    assert np.allclose(rank[1:], rank[1])
    assert np.isclose(rank.sum(), 1.0)
    assert reference.ranks(rank).tolist() == [0, 1, 2, 3]


def test_tie_orders_follow_only_the_programs_unequal_values():
    centrality = np.array([0.5, 0.25, 0.25])
    orders = list(reference.tie_orders(centrality, centrality, limit=10))
    assert [order.tolist() for order in orders] == [[0, 1, 2]]
    split = np.array([0.5, 0.25, np.nextafter(0.25, 1.0)])
    orders = list(reference.tie_orders(centrality, split, limit=10))
    assert [order.tolist() for order in orders] == [[0, 1, 2], [0, 2, 1]]


def test_encodings_match_the_reference(molecules, encodings):
    dense, packed = encodings
    assert _check(molecules, dense, packed) == 0


def test_exact_tie_out_of_index_order_is_rejected():
    [program] = pagerank_matrix([PATH])
    assert program[1] == program[2] and program[0] == program[3]
    model = GraphHDClassifier(GraphHDConfig(dimension=DIMENSION, seed=SEED))
    in_order = _path_encoding([1, 2, 0, 3])
    assert np.array_equal(model.encode([PATH]), in_order)
    assert _check([PATH], in_order, _pack(in_order)) == 0
    swapped = _path_encoding([2, 1, 0, 3])
    with pytest.raises(checks.CheckFailed, match="differs from the reference"):
        _check([PATH], swapped, _pack(swapped))


def test_near_tie_follows_the_programs_values_within_a_share(molecules, encodings):
    [program] = pagerank_matrix([PATH])
    program[2] = np.nextafter(program[2], 1.0)
    swapped = _path_encoding([2, 1, 0, 3])
    dense = np.vstack([encodings[0][:9], swapped])
    graphs = molecules[:9] + [PATH]
    centralities = pagerank_matrix(molecules[:9]) + [program]
    assert _check(graphs, dense, _pack(dense), centralities) == 1
    with pytest.raises(checks.CheckFailed, match="match only"):
        _check([PATH], swapped, _pack(swapped), [program])


def test_corrupted_encoding_is_rejected(molecules, encodings):
    dense, packed = encodings
    row = 0
    reference_row = reference.encode(
        reference.ranks(reference.pagerank(*_arrays(molecules)[row])),
        *_arrays(molecules)[row][1:],
        reference.basis_rows(molecules[row].num_vertices, DIMENSION, SEED),
    )
    column = int(np.flatnonzero(reference_row)[0])
    bad_dense = dense.copy()
    bad_dense[row, column] *= -1
    bad_packed = packed.copy()
    bad_packed[row, column // 64] ^= np.uint64(1) << np.uint64(column % 64)
    with pytest.raises(checks.CheckFailed, match="differs from the reference"):
        _check(molecules, bad_dense, bad_packed)
    with pytest.raises(checks.CheckFailed, match="packed encodings differ"):
        _check(molecules, dense, bad_packed)
    zeroed = dense.copy()
    zeroed[row, column] = 0
    with pytest.raises(checks.CheckFailed, match="other than"):
        _check(molecules, zeroed, packed)


def test_corrupted_prediction_is_rejected(molecules, encodings):
    dense, _ = encodings
    labels = [graph.graph_label for graph in molecules]
    model = GraphHDClassifier(GraphHDConfig(dimension=DIMENSION, seed=SEED))
    model.fit(molecules[:40], labels[:40])
    predictions = model.predict(molecules[40:])
    assert checks.check_predictions(dense[:40], labels[:40], dense[40:], predictions) == 0
    wrong = list(predictions)
    wrong[0] = 1 - wrong[0]
    with pytest.raises(checks.CheckFailed, match="query 0"):
        checks.check_predictions(dense[:40], labels[:40], dense[40:], wrong)


def test_corrupted_packed_prediction_is_rejected(molecules):
    labels = [graph.graph_label for graph in molecules]
    model = GraphHDClassifier(
        GraphHDConfig(dimension=DIMENSION, seed=SEED, backend="packed")
    )
    model.fit(molecules[:40], labels[:40])
    predictions = model.predict(molecules[40:])
    rows = reference.unpack_bits(model.encode(molecules), DIMENSION)
    ambiguous = checks.check_packed_predictions(rows[:40], labels[:40], rows[40:], predictions)
    assert ambiguous < len(predictions)
    lower, upper = reference.hamming_bounds(
        rows[40:], reference.class_sums(rows[:40], labels[:40])[1]
    )
    decided = [row for row in range(len(predictions))
               if upper[row].min() < np.delete(lower[row], np.argmin(upper[row])).min()]
    wrong = list(predictions)
    wrong[decided[0]] = 1 - wrong[decided[0]]
    with pytest.raises(checks.CheckFailed, match=f"query {decided[0]}"):
        checks.check_packed_predictions(rows[:40], labels[:40], rows[40:], wrong)


def test_corrupted_served_answer_is_rejected():
    expected = [(1, 0.75), (0, 0.5)]
    answer = {"label": 1, "top_k": [{"label": 1, "score": 0.75}, {"label": 0, "score": 0.5}]}
    checks.check_served_answer(answer, expected, k=2, trained={0, 1})
    corruptions = [
        {"label": 0, "top_k": answer["top_k"]},
        {"label": 1, "top_k": answer["top_k"][:1]},
        {"label": 1, "top_k": [{"label": 1, "score": 0.75}, {"label": 1, "score": 0.5}]},
        {"label": 1, "top_k": [{"label": 1, "score": 0.5}, {"label": 0, "score": 0.75}]},
        {"label": 1, "top_k": [{"label": 1, "score": 0.75}, {"label": 2, "score": 0.5}]},
        {"label": 1, "top_k": [{"label": 1, "score": 0.75}, {"label": 0, "score": 0.25}]},
    ]
    for corrupted in corruptions:
        with pytest.raises(checks.CheckFailed):
            checks.check_served_answer(corrupted, expected, k=2, trained={0, 1})


def test_cv_coverage_check(molecules):
    dataset = GraphDataset("M", molecules)
    result = cross_validate(
        lambda: GraphHDClassifier(GraphHDConfig(dimension=DIMENSION, seed=SEED)),
        dataset, n_splits=10, repetitions=2, seed=0, n_jobs=1,
    )
    checks.check_cv_coverage(result.folds, len(dataset))
    with pytest.raises(checks.CheckFailed, match="repetition 1"):
        checks.check_cv_coverage(result.folds[:-1], len(dataset))
    duplicate = FoldResult(0, 0, 1.0, 0.0, 0.0, 1, 1, test_indices=(0,))
    with pytest.raises(checks.CheckFailed, match="repetition 0"):
        checks.check_cv_coverage(result.folds + [duplicate], len(dataset))


def test_self_times_subtract_children():
    tracer = tracing.Tracer()
    root = tracer.open("root")
    child = tracer.open("child")
    time.sleep(0.01)
    tracer.close(child)
    tracer.close(root)
    own = tracer.self_times()
    assert own[1] >= 0.01
    assert 0 <= own[0] < tracer.spans[0][2] - tracer.spans[0][1] - 0.009
    assert set(tracer.breakdown()[0]) == {"root", "child"}


def test_install_records_layers_and_uninstall_restores(molecules):
    import repro.core.encoding as encoding
    from repro.hdc.classifier import CentroidClassifier

    originals = (encoding.pagerank_matrix, CentroidClassifier.__dict__["predict"])
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        model = GraphHDClassifier(GraphHDConfig(dimension=DIMENSION, seed=SEED))
        model.fit(molecules[:4], [g.graph_label for g in molecules[:4]])
        model.predict(molecules[:2])
    finally:
        uninstall()
    names = {span[0] for span in tracer.spans}
    assert {"centrality", "encode.dense", "accumulate.dense", "similarity.dense"} <= names
    assert (encoding.pagerank_matrix, CentroidClassifier.__dict__["predict"]) == originals
