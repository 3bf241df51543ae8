"""Exact CKY decoding over span label scores.

A sentence of n tokens is parsed by filling a triangular chart over the
fenceposts 0..n.  Every span picks its best label independently of the
split decision; label index 0 is the reserved empty label, which the root
span is never allowed to take.  Ties break toward the lowest label index
and then the smallest split point, so decoding is fully deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .transform import EMPTY_LABEL
from .treebank import ExtendedTag, Tree


@dataclass
class Chart:
    """Dynamic-program tables; entries are valid for 0 <= i < j <= n."""

    best_score: np.ndarray  # (n+1, n+1) float
    best_label: np.ndarray  # (n+1, n+1) int, argmax label per span
    best_split: np.ndarray  # (n+1, n+1) int, valid for j - i >= 2


def _check_scores(scores: np.ndarray) -> int:
    if scores.ndim != 3 or scores.shape[0] + 1 != scores.shape[1]:
        raise ValueError(f"bad score tensor shape {scores.shape}")
    n = scores.shape[0]
    if n < 1:
        raise ValueError("cannot decode an empty sentence")
    return n


def build_chart(scores: np.ndarray) -> Chart:
    """Fill the chart bottom-up; label and split choices are independent.

    One ``argmax`` pass picks each span's label, and its score is gathered
    from there rather than found by a second ``max`` pass.  The best scores
    are also held by (width, start) and by (width, end), so all spans of
    one width are split in one array operation: row
    ``s - 1`` of ``totals`` sums each span's left part of width ``s`` and
    right part of width ``width - s``, and ``argmax`` keeps the first,
    that is the smallest, best split.
    """
    n = _check_scores(scores)
    labels = np.zeros((n + 1, n + 1), dtype=np.int64)
    labels[:n, :] = scores.argmax(axis=2)
    label_best = np.take_along_axis(scores, labels[:n, :, None], axis=2)[..., 0]
    best = np.zeros((n + 1, n + 1))
    split = np.full((n + 1, n + 1), -1, dtype=np.int64)
    by_start = np.zeros((n + 1, n + 1))  # [w, i] = best[i, i + w]
    by_end = np.zeros((n + 1, n + 1))    # [w, j] = best[j - w, j]
    for width in range(1, n + 1):
        count = n - width + 1
        i = np.arange(count)
        value = label_best[i, i + width]
        if width >= 2:
            totals = by_start[1:width, :count] + by_end[width - 1:0:-1, width:]
            k = totals.argmax(axis=0)
            value += totals[k, i]
            split[i, i + width] = i + 1 + k
        best[i, i + width] = value
        by_start[width, :count] = value
        by_end[width, width:] = value
    return Chart(best_score=best, best_label=labels, best_split=split)


def decode_spans(scores: np.ndarray) -> tuple[float, list[tuple[int, int, int]]]:
    """Best tree as (total score, all bracketing spans with label indices).

    The span list covers every span of the decoded binary bracketing in
    preorder, including those assigned the empty label.  The root takes
    the best non-empty label, whatever the empty label scores there.
    """
    n = _check_scores(scores)
    chart = build_chart(scores)
    root_label = 1 + int(scores[0, n, 1:].argmax())
    total = float(scores[0, n, root_label]
                  + (chart.best_score[0, n] - scores[0, n].max()))
    spans: list[tuple[int, int, int]] = []
    stack: list[tuple[int, int, int]] = [(0, n, root_label)]
    while stack:
        i, j, label = stack.pop()
        spans.append((i, j, label))
        if j - i >= 2:
            k = int(chart.best_split[i, j])
            right = (k, j, int(chart.best_label[k, j]))
            left = (i, k, int(chart.best_label[i, k]))
            stack.append(right)
            stack.append(left)
    return total, spans


def cky_decode(scores: np.ndarray, label_inventory: list[str],
               tags: list[ExtendedTag]) -> Tree:
    """Return the highest-scoring binarized tree for the given tags.

    Preterminals are attached from the tags: the POS part labels the
    preterminal and the serialized tag becomes the leaf token.  The tree
    is assembled from the :func:`decode_spans` preorder list, walked in
    reverse so both subtrees of a span are finished before the span.
    """
    n = _check_scores(scores)
    if len(tags) != n:
        raise ValueError(f"{len(tags)} tags for {n} positions")
    if scores.shape[2] != len(label_inventory):
        raise ValueError("label inventory does not match score tensor")
    if label_inventory[0] != EMPTY_LABEL:
        raise ValueError("label inventory must reserve index 0 for the empty label")
    _, spans = decode_spans(scores)
    done: list[Tree] = []
    for i, j, label in reversed(spans):
        if j - i == 1:
            node = Tree.node(tags[i].pos, [Tree.leaf(tags[i].serialized())])
            if label != 0:
                node = Tree.node(label_inventory[label], [node])
        else:
            left = done.pop()
            node = Tree.node(label_inventory[label], [left, done.pop()])
        done.append(node)
    return done[0]


def tree_spans(tree: Tree) -> tuple[list[tuple[int, int, str]], int]:
    """Labeled spans of a binarized tree (leaf count as second value).

    Preterminals contribute no span; intermediate empty-label nodes do.
    """
    spans: list[tuple[int, int, str]] = []

    def walk(node: Tree, i: int) -> int:
        if node.is_leaf:
            return i + 1
        if node.is_preterminal:
            return i + len(node.children)
        j = i
        for child in node.children:
            j = walk(child, j)
        spans.append((i, j, node.label))
        return j

    n = walk(tree, 0)
    return spans, n


def hamming_augment(scores: np.ndarray,
                    gold_spans: list[tuple[int, int, int]]) -> np.ndarray:
    """Add, in place, 1 to every span labeling that disagrees with gold;
    returns ``scores``.

    Gold's labeling is completed with the empty label on spans it does not
    bracket, so picking the empty label off the gold bracketing costs
    nothing; any other disagreement costs 1.  Gold entries get back their
    recorded values rather than ``(s + 1) - 1``, so the result is the same
    bit for bit as adding a dense cost tensor.
    """
    starts = [i for i, _, _ in gold_spans]
    ends = [j for _, j, _ in gold_spans]
    gold_rows = scores[starts, ends]
    scores[:, :, 1:] += 1.0
    for k, (i, j, label) in enumerate(gold_spans):
        if label != 0:
            scores[i, j, 0] = gold_rows[k, 0] + 1.0
        scores[i, j, label] = gold_rows[k, label]
    return scores


def spans_to_indices(spans: list[tuple[int, int, str]],
                     label_inventory: list[str]) -> list[tuple[int, int, int]]:
    index = {label: k for k, label in enumerate(label_inventory)}
    out = []
    for i, j, label in spans:
        if label not in index:
            raise ValueError(f"label {label!r} not in inventory")
        out.append((i, j, index[label]))
    return out
