"""Exact CKY decoding over span label scores.

A sentence of n tokens is parsed by filling a triangular chart over the
fenceposts 0..n.  Every span picks its best label independently of the
split decision; label index 0 is the reserved empty label, which the root
span is never allowed to take.  Ties break toward the lowest label index
and then the smallest split point, so decoding is fully deterministic.
The decoder reads no score tensor, only the two tables of
:class:`SpanTables`: each span's best label and that label's score.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .transform import EMPTY_LABEL
from .treebank import ExtendedTag, Tree


@dataclass
class SpanTables:
    """What CKY reads of a sentence's span label scores: per span (i, j),
    0 <= i < j <= n, the argmax label and its score, except that the root
    cell (0, n) holds the best non-empty label and that label's score.
    Cells with j <= i are not spans and stay unused.
    """

    score: np.ndarray   # (n, n+1) float, the argmax label's score per span
    label: np.ndarray   # (n, n+1) int, argmax label per span
    num_labels: int     # labels the scores range over, the empty one included


def build_chart(label_score: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fill the chart bottom-up from :class:`SpanTables`' score table;
    returns ``(best, split)``, the best subtree score of each span and,
    for spans of width 2 or more, its best split point.

    The best scores are also held by (width, start) and by (width, end),
    so all spans of one width are split in one array operation: row
    ``s - 1`` of ``totals`` sums each span's left part of width ``s`` and
    right part of width ``width - s``, and ``argmax`` keeps the first,
    that is the smallest, best split.
    """
    if label_score.ndim != 2 or label_score.shape[0] + 1 != label_score.shape[1]:
        raise ValueError(f"bad span table shape {label_score.shape}")
    n = label_score.shape[0]
    if n < 1:
        raise ValueError("cannot decode an empty sentence")
    best = np.zeros((n, n + 1))
    split = np.full((n, n + 1), -1, dtype=np.int64)
    by_start = np.zeros((n + 1, n + 1))  # [w, i] = best[i, i + w]
    by_end = np.zeros((n + 1, n + 1))    # [w, j] = best[j - w, j]
    for width in range(1, n + 1):
        count = n - width + 1
        i = np.arange(count)
        value = label_score[i, i + width]
        if width >= 2:
            totals = by_start[1:width, :count] + by_end[width - 1:0:-1, width:]
            k = totals.argmax(axis=0)
            value += totals[k, i]
            split[i, i + width] = i + 1 + k
        best[i, i + width] = value
        by_start[width, :count] = value
        by_end[width, width:] = value
    return best, split


def decode_spans(tables: SpanTables) -> tuple[float, list[tuple[int, int, int]]]:
    """Best tree as (total score, all bracketing spans with label indices).

    The span list covers every span of the decoded binary bracketing in
    preorder, including those assigned the empty label.  The total is the
    chart's best score of the root span.
    """
    best, split = build_chart(tables.score)
    n = tables.score.shape[0]
    spans: list[tuple[int, int, int]] = []
    stack: list[tuple[int, int, int]] = [(0, n, int(tables.label[0, n]))]
    while stack:
        i, j, label = stack.pop()
        spans.append((i, j, label))
        if j - i >= 2:
            k = int(split[i, j])
            stack.append((k, j, int(tables.label[k, j])))
            stack.append((i, k, int(tables.label[i, k])))
    return float(best[0, n]), spans


def cky_decode(tables: SpanTables, label_inventory: list[str],
               tags: list[ExtendedTag]) -> Tree:
    """Return the highest-scoring binarized tree for the given tags.

    Preterminals are attached from the tags: the POS part labels the
    preterminal and the serialized tag becomes the leaf token.  The tree
    is assembled from the :func:`decode_spans` preorder list, walked in
    reverse so both subtrees of a span are finished before the span.
    """
    if len(tags) != tables.score.shape[0]:
        raise ValueError(f"{len(tags)} tags for {tables.score.shape[0]} positions")
    if tables.num_labels != len(label_inventory):
        raise ValueError("label inventory does not match the span tables")
    if label_inventory[0] != EMPTY_LABEL:
        raise ValueError("label inventory must reserve index 0 for the empty label")
    _, spans = decode_spans(tables)
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
    end = 0  # leaves seen so far: the end of the node being folded

    def leaf(t: Tree) -> int:
        nonlocal end
        end += 1
        return end - 1

    def node(t: Tree, starts: list[int]) -> int:
        if not t.is_preterminal:
            spans.append((starts[0], end, t.label))
        return starts[0]

    tree.fold(leaf, node)
    return spans, end


def hamming_augment(rows: np.ndarray, gold: list[tuple[int, int]]) -> np.ndarray:
    """Add, in place, 1 to every span labeling that disagrees with gold;
    returns ``rows``.

    ``rows`` holds one span per row and one label per column; ``gold``
    lists ``(row, label)`` for the gold spans among them, in gold order.
    Gold's labeling is completed with the empty label on spans it does not
    bracket, so picking the empty label off the gold bracketing costs
    nothing; any other disagreement costs 1.  Gold entries get back their
    recorded values rather than ``(s + 1) - 1``, so the result is the same
    bit for bit as adding a dense cost tensor.
    """
    recorded = rows[[row for row, _ in gold]]
    rows[:, 1:] += 1.0
    for k, (row, label) in enumerate(gold):
        if label != 0:
            rows[row, 0] = recorded[k, 0] + 1.0
        rows[row, label] = recorded[k, label]
    return rows


def spans_to_indices(spans: list[tuple[int, int, str]],
                     label_inventory: list[str]) -> list[tuple[int, int, int]]:
    index = {label: k for k, label in enumerate(label_inventory)}
    out = []
    for i, j, label in spans:
        if label not in index:
            raise ValueError(f"label {label!r} not in inventory")
        out.append((i, j, index[label]))
    return out
