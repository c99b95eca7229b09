"""Correctness checks: the program's outputs against the numpy reference.

Each check raises ``CheckFailed`` on the first mismatch and otherwise returns
how many items it had to leave out, with the reason in the function's
docstring.  None of them compares against a stored copy of earlier output.
"""

from __future__ import annotations

from typing import Hashable, Sequence

import numpy as np

from perfbench import reference

#: Alternative near-tie orders tried before an encoding counts as wrong.
TIE_ORDER_LIMIT = 64

#: Share of the sampled graphs that may match only under the program's own
#: near-tie order (about 0.3% of NCI1-shaped graphs do).
TIE_REORDER_SHARE = 0.1

#: Cosines of the best two classes closer than this make a query ambiguous.
SCORE_TOLERANCE = 1e-9


class CheckFailed(AssertionError):
    """The program produced an output that the reference rejects."""


def check_encodings(
    graphs: Sequence[tuple[int, np.ndarray, np.ndarray]],
    dense: np.ndarray,
    packed: np.ndarray,
    centralities: Sequence[np.ndarray],
    *,
    dimension: int,
    seed: int,
) -> int:
    """Dense and packed encodings of ``graphs`` against the reference encoder.

    ``graphs`` holds ``(num_vertices, sources, targets)`` and
    ``centralities`` the program's own PageRank of each graph.  Every dense
    component must be +1 or -1; every component whose reference vote is not
    tied must equal the reference; the packed rows, unpacked with numpy, must
    equal the dense rows.  Returns the number of graphs that matched only
    with a near-tie group in the program's order of its own values (see
    ``reference.tie_orders``); more than ``TIE_REORDER_SHARE`` of them fail.
    """
    dense = np.asarray(dense)
    if dense.shape != (len(graphs), dimension):
        raise CheckFailed(f"dense encodings have shape {dense.shape}")
    if not np.isin(dense, (-1, 1)).all():
        raise CheckFailed("a dense encoding has a component other than +1/-1")
    unpacked = reference.unpack_bits(np.asarray(packed), dimension)
    if not np.array_equal(unpacked, dense):
        rows = np.flatnonzero((unpacked != dense).any(axis=1)).tolist()
        raise CheckFailed(f"packed encodings differ from dense in rows {rows}")
    basis = reference.basis_rows(max(n for n, _, _ in graphs), dimension, seed)
    reordered = 0
    for row, ((n, sources, targets), program) in enumerate(zip(graphs, centralities)):
        centrality = reference.pagerank(n, sources, targets)
        for attempt, identifiers in enumerate(
            reference.tie_orders(centrality, program, TIE_ORDER_LIMIT)
        ):
            expected = reference.encode(identifiers, sources, targets, basis)
            untied = expected != 0
            if np.array_equal(expected[untied], dense[row][untied]):
                reordered += attempt > 0
                break
        else:
            raise CheckFailed(f"encoding of graph {row} differs from the reference")
    if reordered > TIE_REORDER_SHARE * len(graphs):
        raise CheckFailed(
            f"{reordered} of {len(graphs)} encodings match only with near-tie "
            "groups out of vertex-index order"
        )
    return reordered


def check_predictions(
    train_encodings: np.ndarray,
    train_labels: Sequence[Hashable],
    test_encodings: np.ndarray,
    predictions: Sequence[Hashable],
) -> int:
    """Predicted labels against the reference nearest-class-by-cosine rule.

    Returns the number of queries left out because the reference's best two
    cosines are within ``SCORE_TOLERANCE``.
    """
    if len(predictions) != len(test_encodings):
        raise CheckFailed(
            f"{len(predictions)} predictions for {len(test_encodings)} graphs"
        )
    classes, sums = reference.class_sums(np.asarray(train_encodings), train_labels)
    scores = reference.cosine_scores(np.asarray(test_encodings), sums)
    ambiguous = 0
    for row, predicted in enumerate(predictions):
        ranked = np.sort(scores[row])[::-1]
        if len(ranked) > 1 and ranked[0] - ranked[1] <= SCORE_TOLERANCE:
            ambiguous += 1
            continue
        expected = classes[int(np.argmax(scores[row]))]
        if predicted != expected:
            raise CheckFailed(
                f"query {row}: predicted {predicted!r}, reference {expected!r}"
            )
    return ambiguous


def check_packed_predictions(
    train_encodings: np.ndarray,
    train_labels: Sequence[Hashable],
    test_encodings: np.ndarray,
    predictions: Sequence[Hashable],
) -> int:
    """Predicted labels against the reference nearest-class-by-Hamming rule.

    The encodings are bipolar rows (packed ones unpacked with numpy).  A
    class vector is the sign of the class's integer sum; a component with a
    tied vote may take either sign, so distances are known within the tied
    count (``reference.hamming_bounds``).  Every prediction must be a class
    whose smallest possible distance does not exceed another class's largest.
    Where one class is nearest whatever the tied components hold, the
    prediction must be that class; returns the number of queries for which
    no class is.
    """
    if len(predictions) != len(test_encodings):
        raise CheckFailed(
            f"{len(predictions)} predictions for {len(test_encodings)} graphs"
        )
    classes, sums = reference.class_sums(np.asarray(train_encodings), train_labels)
    lower, upper = reference.hamming_bounds(np.asarray(test_encodings), sums)
    ambiguous = 0
    for row, predicted in enumerate(predictions):
        if predicted not in classes:
            raise CheckFailed(f"query {row}: predicted untrained label {predicted!r}")
        column = classes.index(predicted)
        if lower[row, column] > upper[row].min():
            raise CheckFailed(
                f"query {row}: predicted {predicted!r} at Hamming distance at "
                f"least {lower[row, column]}, another class is at most "
                f"{upper[row].min()}"
            )
        best = int(np.argmin(upper[row]))
        others = np.delete(lower[row], best)
        if not (upper[row, best] < others).all():
            ambiguous += 1
        elif best != column:
            raise CheckFailed(
                f"query {row}: predicted {predicted!r}, reference {classes[best]!r}"
            )
    return ambiguous


def check_served_answer(
    answer: dict,
    expected: Sequence[tuple[Hashable, float]],
    *,
    k: int,
    trained: set,
) -> None:
    """One served prediction against offline ``predict_topk`` of the same file.

    The answer must name ``k`` distinct trained labels with non-increasing
    scores, lead with its ``label``, and equal the offline ranking exactly.
    """
    ranking = answer.get("top_k")
    if not isinstance(ranking, list) or len(ranking) != k:
        raise CheckFailed(f"served answer does not hold {k} ranked labels: {answer}")
    labels = [entry["label"] for entry in ranking]
    scores = [entry["score"] for entry in ranking]
    if len(set(labels)) != k or not set(labels) <= trained:
        raise CheckFailed(f"served labels {labels} are not {k} trained labels")
    if any(later > earlier for earlier, later in zip(scores, scores[1:])):
        raise CheckFailed(f"served scores {scores} increase")
    if answer.get("label") != labels[0]:
        raise CheckFailed(f"served label {answer.get('label')!r} is not the top one")
    if labels != [label for label, _ in expected] or scores != [
        score for _, score in expected
    ]:
        raise CheckFailed(f"served ranking {ranking} differs from offline {expected}")


def check_cv_coverage(folds, num_graphs: int) -> None:
    """Each cross-validation repetition tests every graph exactly once."""
    tested: dict[int, list[int]] = {}
    for fold in folds:
        tested.setdefault(fold.repetition, []).extend(fold.test_indices)
    if not tested:
        raise CheckFailed("cross-validation returned no folds")
    for repetition, indices in tested.items():
        if sorted(indices) != list(range(num_graphs)):
            raise CheckFailed(
                f"repetition {repetition} does not test each of the "
                f"{num_graphs} graphs exactly once"
            )
