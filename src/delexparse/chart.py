"""Exact CKY decoding over span label scores.

A sentence of n tokens is parsed by filling a triangular chart over the
fenceposts 0..n.  Every span picks its best label independently of the
split decision; label index 0 is the reserved empty label, which the root
span is never allowed to take.  Ties break toward the lowest label index
and then the smallest split point, so decoding is fully deterministic.
The decoder reads no score tensor, only :class:`SpanTables`: each span's
best label and its score, and the root's best non-empty label.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .transform import EMPTY_LABEL
from .treebank import ExtendedTag, Tree


@dataclass
class SpanTables:
    """What CKY reads of a sentence's span label scores: per span (i, j),
    0 <= i < j <= n, the argmax label and its score, plus the root span's
    best non-empty label.  Cells with j <= i are not spans and stay unused.
    """

    score: np.ndarray   # (n, n+1) float, the argmax label's score per span
    label: np.ndarray   # (n, n+1) int, argmax label per span
    root_label: int     # best non-empty label of the root span (0, n)
    root_score: float   # its score
    num_labels: int     # labels the scores range over, the empty one included


@dataclass
class Chart:
    """Dynamic-program tables; entries are valid for 0 <= i < j <= n."""

    best_score: np.ndarray  # (n, n+1) float
    best_label: np.ndarray  # (n, n+1) int, argmax label per span
    best_split: np.ndarray  # (n, n+1) int, valid for j - i >= 2


def build_chart(label_score: np.ndarray, label: np.ndarray) -> Chart:
    """Fill the chart bottom-up from the per-span tables of
    :class:`SpanTables`; label and split choices are independent.

    The best scores are also held by (width, start) and by (width, end),
    so all spans of one width are split in one array operation: row
    ``s - 1`` of ``totals`` sums each span's left part of width ``s`` and
    right part of width ``width - s``, and ``argmax`` keeps the first,
    that is the smallest, best split.
    """
    if (label_score.ndim != 2 or label_score.shape[0] + 1 != label_score.shape[1]
            or label.shape != label_score.shape):
        raise ValueError(f"bad span table shapes {label_score.shape} and {label.shape}")
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
    return Chart(best_score=best, best_label=label, best_split=split)


def decode_spans(tables: SpanTables) -> tuple[float, list[tuple[int, int, int]]]:
    """Best tree as (total score, all bracketing spans with label indices).

    The span list covers every span of the decoded binary bracketing in
    preorder, including those assigned the empty label.  The root takes
    the best non-empty label, whatever the empty label scores there.
    """
    chart = build_chart(tables.score, tables.label)
    n = tables.score.shape[0]
    total = float(tables.root_score + (chart.best_score[0, n] - tables.score[0, n]))
    spans: list[tuple[int, int, int]] = []
    stack: list[tuple[int, int, int]] = [(0, n, tables.root_label)]
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
