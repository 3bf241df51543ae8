"""Labeled bracket scoring: precision, recall, F1, and complete match.

POS labels and punctuation are disregarded: leaves under punctuation
preterminals are removed and the remaining leaves reindexed before spans
are collected, and preterminals never contribute spans.  Spans form a
multiset, so duplicate brackets from unary chains each count.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, NamedTuple

from .treebank import Tree, write_lines

DEFAULT_PUNCTUATION = frozenset({"$,", "$.", "$("})


class LabeledSpan(NamedTuple):
    start: int
    end: int
    label: str


@dataclass(frozen=True)
class EvalConfig:
    punctuation_tags: frozenset[str] = DEFAULT_PUNCTUATION
    ignore_labels: frozenset[str] = frozenset()
    label_equivalences: Mapping[str, str] = field(default_factory=dict)
    include_root: bool = True


@dataclass(frozen=True)
class EvalResult:
    recall: float
    precision: float
    fscore: float
    complete_match: float
    matched: int
    gold_total: int
    pred_total: int
    exact_trees: int
    total_trees: int


@dataclass(frozen=True, slots=True)
class SentenceScore:
    index: int
    gold_spans: int
    pred_spans: int
    matched: int
    exact: bool
    skipped: bool = False


def _spans_and_length(tree: Tree, cfg: EvalConfig) -> tuple[list[LabeledSpan], int]:
    """The tree's scoring spans in fold order, children before their
    parent, and its leaf count after punctuation removal."""
    spans: list[LabeledSpan] = []
    end = 0  # leaves kept so far: the end of the node being folded

    def leaf(t: Tree) -> int:
        nonlocal end
        end += 1
        return end - 1

    def node(t: Tree, starts: list[int]) -> int:
        nonlocal end
        if t.is_preterminal:
            if t.label in cfg.punctuation_tags:
                end = starts[0]  # its leaves are removed
        elif end > starts[0] and (cfg.include_root or t is not tree):
            label = cfg.label_equivalences.get(t.label, t.label)
            if label not in cfg.ignore_labels:
                spans.append(LabeledSpan(starts[0], end, label))
        return starts[0]

    tree.fold(leaf, node)
    return spans, end


def extract_eval_spans(tree: Tree, cfg: EvalConfig = EvalConfig()) -> Counter:
    """Multiset of scoring spans after punctuation removal and reindexing."""
    return Counter(_spans_and_length(tree, cfg)[0])


def _percent(numerator: float, denominator: float) -> float:
    return 100.0 * numerator / denominator if denominator else 0.0


def _fscore(precision: float, recall: float) -> float:
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def score_corpus_detailed(gold: list[Tree], pred: list[Tree],
                          cfg: EvalConfig = EvalConfig(),
                          ) -> tuple[EvalResult, list[SentenceScore]]:
    """Score a parallel corpus; pairs with unequal post-punctuation leaf
    counts are skipped and reported rather than failing the run."""
    if len(gold) != len(pred):
        raise ValueError(f"{len(gold)} gold trees vs {len(pred)} predicted")
    rows: list[SentenceScore] = []
    matched = gold_total = pred_total = exact = scored = 0
    for index, (g, p) in enumerate(zip(gold, pred)):
        g_list, g_len = _spans_and_length(g, cfg)
        p_list, p_len = _spans_and_length(p, cfg)
        if g_len != p_len:
            rows.append(SentenceScore(index, 0, 0, 0, False, skipped=True))
            continue
        g_spans, p_spans = Counter(g_list), Counter(p_list)
        hits = sum((g_spans & p_spans).values())
        is_exact = g_spans == p_spans
        rows.append(SentenceScore(index, sum(g_spans.values()),
                                  sum(p_spans.values()), hits, is_exact))
        matched += hits
        gold_total += sum(g_spans.values())
        pred_total += sum(p_spans.values())
        exact += is_exact
        scored += 1
    precision = _percent(matched, pred_total)
    recall = _percent(matched, gold_total)
    result = EvalResult(
        recall=recall,
        precision=precision,
        fscore=_fscore(precision, recall),
        complete_match=_percent(exact, scored),
        matched=matched,
        gold_total=gold_total,
        pred_total=pred_total,
        exact_trees=exact,
        total_trees=scored,
    )
    return result, rows


def score_corpus(gold: list[Tree], pred: list[Tree],
                 cfg: EvalConfig = EvalConfig()) -> EvalResult:
    result, _ = score_corpus_detailed(gold, pred, cfg)
    return result


def format_summary(result: EvalResult) -> str:
    """Space-separated ``R P F CM`` with two decimals."""
    return (f"{result.recall:.2f} {result.precision:.2f} "
            f"{result.fscore:.2f} {result.complete_match:.2f}")


def write_report(result: EvalResult, rows: list[SentenceScore],
                 path: str | Path) -> None:
    """Summary percentages, then one tab-separated line per sentence."""
    lines = [
        f"recall\t{result.recall:.2f}",
        f"precision\t{result.precision:.2f}",
        f"fscore\t{result.fscore:.2f}",
        f"complete_match\t{result.complete_match:.2f}",
    ]
    for row in rows:
        if row.skipped:
            lines.append(f"{row.index}\t-\t-\t-\tskip")
        else:
            lines.append(f"{row.index}\t{row.gold_spans}\t{row.pred_spans}"
                         f"\t{row.matched}\t{int(row.exact)}")
    write_lines(path, lines)
