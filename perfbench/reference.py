"""Benchmark-side reference code, written apart from the program under test.

The output checks read bracketed trees, extract labeled spans, map tags and
decode span scores with the functions here, so a defect in the program's
reader, scorer, tag mapper or CKY decoder cannot hide itself by agreeing
with its own output.  Trees are built as nested tuples: a phrase is
``(label, children)``, a preterminal is ``(tag, token)`` with a string
token.
"""

from __future__ import annotations

import re
from collections import Counter

import numpy as np

# The evaluation's default punctuation tags; leaves under them are not
# counted when spans are indexed.
PUNCTUATION = frozenset({"$,", "$.", "$("})

_TOKEN_RE = re.compile(r"[()]|[^\s()]+")


def render(tree) -> str:
    """One bracketed line for a tuple tree."""
    label, body = tree
    if isinstance(body, str):
        return f"({label} {body})"
    return "(" + label + " " + " ".join(render(child) for child in body) + ")"


def preterminals(tree) -> list[tuple[str, str]]:
    """(tag, token) pairs of a tuple tree, left to right."""
    out: list[tuple[str, str]] = []
    stack = [tree]
    while stack:
        label, body = stack.pop()
        if isinstance(body, str):
            out.append((label, body))
        else:
            stack.extend(reversed(body))
    return out


def constituents(line: str, punctuation=frozenset()):
    """Phrase constituents and leaf tokens of one bracketed tree.

    Returns ``(spans, leaves)``: ``spans`` lists ``(start, end, label)`` for
    every node that is not a preterminal, in opening order, and ``leaves``
    lists all leaf tokens.  Leaves under a preterminal whose label is in
    ``punctuation`` are skipped when positions are counted.  Raises
    ValueError on malformed input.
    """
    tokens = _TOKEN_RE.findall(line)
    spans: list[tuple[int, int, str] | None] = []
    leaves: list[str] = []
    stack: list[list] = []  # [label, start, slot, has_phrase_child]
    position = 0
    k = 0
    while k < len(tokens):
        tok = tokens[k]
        if tok == "(":
            if k + 1 >= len(tokens) or tokens[k + 1] in "()":
                raise ValueError("missing label")
            if stack:
                stack[-1][3] = True
            stack.append([tokens[k + 1], position, len(spans), False])
            spans.append(None)
            k += 2
            continue
        if tok == ")":
            if not stack:
                raise ValueError("unbalanced ')'")
            label, start, slot, is_phrase = stack.pop()
            if is_phrase:
                spans[slot] = (start, position, label)
            if not stack and k + 1 != len(tokens):
                raise ValueError("text after the tree")
        else:
            if not stack:
                raise ValueError("leaf outside a tree")
            leaves.append(tok)
            if stack[-1][0] not in punctuation:
                position += 1
        k += 1
    if stack or not leaves:
        raise ValueError("unbalanced or empty tree")
    return [s for s in spans if s is not None], leaves


def eval_spans(line: str) -> Counter:
    """The evaluation's multiset of labeled spans: preterminals and
    punctuation leaves removed, the root included, empty spans dropped."""
    spans, _ = constituents(line, PUNCTUATION)
    return Counter((i, j, label) for i, j, label in spans if j > i)


def bracket_counts(gold: str, pred: str) -> tuple[int, int, int]:
    """(matched, gold, predicted) labeled-span counts for one tree pair."""
    g, p = eval_spans(gold), eval_spans(pred)
    return sum((g & p).values()), sum(g.values()), sum(p.values())


def fscore(matched: int, gold: int, pred: int) -> tuple[float, float, float]:
    """Recall, precision and F1 in percent, as the evaluation defines them."""
    recall = 100.0 * matched / gold if gold else 0.0
    precision = 100.0 * matched / pred if pred else 0.0
    if recall + precision == 0.0:
        return recall, precision, 0.0
    return recall, precision, 2.0 * precision * recall / (precision + recall)


def binarized_spans(line: str) -> list[tuple[int, int, str]]:
    """Labeled spans of a debinarized parser output, re-collapsed as the
    decoder scored them: nodes sharing one span (a unary chain) become one
    ``+``-joined label, outermost first."""
    spans, _ = constituents(line)
    chains: dict[tuple[int, int], list[str]] = {}
    for i, j, label in spans:
        chains.setdefault((i, j), []).append(label)
    return [(i, j, "+".join(labels)) for (i, j), labels in chains.items()]


def best_tree_score(scores: np.ndarray) -> float:
    """Optimal tree score under span scores, by a plain-Python CKY.

    ``scores[i, j, l]`` scores label ``l`` on span (i, j); label 0 is the
    empty label, which the root may not take.  Every span picks its best
    label independently of the split.
    """
    n = scores.shape[0]
    label_best = scores.max(axis=2).tolist()
    best = [[0.0] * (n + 1) for _ in range(n + 1)]
    for i in range(n):
        best[i][i + 1] = label_best[i][i + 1]
    for width in range(2, n + 1):
        for i in range(n - width + 1):
            j = i + width
            best[i][j] = label_best[i][j] + max(
                best[i][k] + best[k][j] for k in range(i + 1, j))
    split = max((best[0][k] + best[k][n] for k in range(1, n)), default=0.0)
    return float(scores[0, n, 1:].max()) + split


def tag_parts(tag: str) -> list[str]:
    """POS and features of a serialized tag; a tag with an empty part, such
    as the full stop tag ``$.``, is one atomic POS."""
    parts = tag.split(".")
    return [tag] if any(not part for part in parts) else parts


def map_tag(tag: str, pos_map: dict[str, str], feature_map: dict[str, str]) -> str:
    """Map one serialized historical tag as the tag-mapping step documents:
    keep the part of a composite POS before ``|``, replace the POS from the
    table (a target may carry features, which come first), map each
    feature, and pass unknown symbols through."""
    parts = tag_parts(tag)
    pos = parts[0].split("|", 1)[0]
    target = tag_parts(pos_map[pos]) if pos in pos_map else [pos]
    features = target[1:] + [feature_map.get(f, f) for f in parts[1:]]
    return ".".join([target[0]] + features)
