import numpy as np
import pytest

import oracles
from delexparse import data
from delexparse.evalb import (EvalConfig, LabeledSpan, extract_eval_spans,
                              format_summary, score_corpus, score_corpus_detailed,
                              write_report)
from delexparse.treebank import Tree, parse_bracketed, read_treebank


def t(text):
    return parse_bracketed(text)[0]


def spans_of(tree, **kwargs):
    return extract_eval_spans(tree, EvalConfig(**kwargs))


def test_extract_spans_read_off():
    spans = spans_of(t("(S (NP (ART a) (NN b)) (VVFIN c))"))
    assert spans == {LabeledSpan(0, 3, "S"): 1, LabeledSpan(0, 2, "NP"): 1}


def test_punctuation_leaf_ignored():
    spans = spans_of(t("(S (NP (ART a) (NN b)) (VVFIN c) ($. .))"))
    assert spans == {LabeledSpan(0, 3, "S"): 1, LabeledSpan(0, 2, "NP"): 1}


def test_unary_chain_multiset():
    spans = spans_of(t("(S (VP (NP (NN x))))"))
    assert spans == {LabeledSpan(0, 1, "S"): 1, LabeledSpan(0, 1, "VP"): 1,
                     LabeledSpan(0, 1, "NP"): 1}


def test_duplicate_spans_counted():
    spans = spans_of(t("(NP (NP (NN x)))"))
    assert spans[LabeledSpan(0, 1, "NP")] == 2


def test_punctuation_only_constituent_drops_span():
    spans = spans_of(t("(S (NN a) (X ($. .) ($, ,)) (NN b))"))
    assert spans == {LabeledSpan(0, 2, "S"): 1}


def test_ignore_labels_and_equivalences():
    tree = t("(TOP (S (NN a) (NN b)))")
    spans = spans_of(tree, ignore_labels=frozenset({"TOP"}))
    assert spans == {LabeledSpan(0, 2, "S"): 1}
    spans = spans_of(tree, label_equivalences={"TOP": "S"})
    assert spans == {LabeledSpan(0, 2, "S"): 2}


def test_root_exclusion_config():
    tree = t("(S (NP (NN a) (NN b)))")
    spans = spans_of(tree, include_root=False)
    assert spans == {LabeledSpan(0, 2, "NP"): 1}


def test_self_comparison_is_perfect():
    trees = read_treebank(data.toy_treebank_path())[:20]
    result = score_corpus(trees, trees)
    assert (result.recall, result.precision, result.fscore,
            result.complete_match) == (100.0, 100.0, 100.0, 100.0)
    assert format_summary(result) == "100.00 100.00 100.00 100.00"


def test_hand_counted_pair():
    gold = t("(S (NP (NN a) (NN b)) (NN c))")   # {(0,3,S), (0,2,NP)}
    pred = t("(S (NN a) (VP (NN b) (NN c)))")   # {(0,3,S), (1,3,VP)}
    result = score_corpus([gold], [pred])
    assert result.matched == 1
    assert result.precision == 50.0
    assert result.recall == 50.0
    assert result.fscore == 50.0
    assert result.complete_match == 0.0


def test_swap_symmetry():
    rng = np.random.default_rng(31)
    gold = [oracles.random_tree(rng) for _ in range(20)]
    pred = [oracles.random_tree(rng) for _ in range(20)]
    forward = score_corpus(gold, pred)
    backward = score_corpus(pred, gold)
    assert forward.precision == backward.recall
    assert forward.recall == backward.precision
    assert forward.fscore == backward.fscore
    assert forward.matched <= min(forward.gold_total, forward.pred_total)


def test_pos_relabeling_never_changes_scores():
    rng = np.random.default_rng(7)
    gold = [oracles.random_tree(rng) for _ in range(10)]
    pred = [oracles.random_tree(rng) for _ in range(10)]

    def relabel(node):
        if node.is_preterminal and node.label not in ("$,", "$.", "$("):
            return Tree.node("XNEW", list(node.children))
        if node.is_leaf:
            return node
        return Tree.node(node.label, [relabel(c) for c in node.children])

    before = score_corpus(gold, pred)
    after = score_corpus([relabel(g) for g in gold], [relabel(p) for p in pred])
    assert before == after


def test_leaf_count_mismatch_skipped_and_reported():
    gold = [t("(S (NN a) (NN b))"), t("(S (NN a) (NN b))")]
    pred = [t("(S (NN a) (NN b))"), t("(S (NN a) (NN b) (NN c))")]
    result, rows = score_corpus_detailed(gold, pred)
    assert result.total_trees == 1
    assert rows[1].skipped


def test_corpus_length_mismatch_raises():
    with pytest.raises(ValueError):
        score_corpus([t("(S (NN a) (NN b))")], [])


def test_differential_against_naive_scorer():
    rng = np.random.default_rng(53)
    gold, pred = [], []
    for _ in range(50):
        base = oracles.random_tree(rng)
        n = len(base.leaf_tokens())
        other = oracles.random_tree(rng)
        while len(other.leaf_tokens()) != n:
            other = oracles.random_tree(rng)
        gold.append(base)
        pred.append(other)
    result = score_corpus(gold, pred)
    naive = oracles.naive_score(gold, pred)
    assert result.matched == naive["matched"]
    assert result.gold_total == naive["gold_total"]
    assert result.pred_total == naive["pred_total"]
    assert result.exact_trees == naive["exact"]
    assert result.recall == naive["recall"]
    assert result.precision == naive["precision"]
    assert result.fscore == naive["fscore"]
    assert result.complete_match == naive["complete_match"]


def test_summary_formatting_two_decimals():
    # counts chosen so the percentages land on a realistic summary line
    from delexparse.evalb import EvalResult, _fscore, _percent
    matched, gold_total, pred_total = 332, 513, 473
    recall = _percent(matched, gold_total)
    precision = _percent(matched, pred_total)
    result = EvalResult(recall=recall, precision=precision,
                        fscore=_fscore(precision, recall),
                        complete_match=_percent(12, 96),
                        matched=matched, gold_total=gold_total,
                        pred_total=pred_total, exact_trees=12, total_trees=96)
    assert format_summary(result) == "64.72 70.19 67.34 12.50"


def test_report_format(tmp_path):
    gold = [t("(S (NN a) (NN b))")]
    result, rows = score_corpus_detailed(gold, gold)
    path = tmp_path / "eval.report"
    write_report(result, rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "recall\t100.00"
    assert lines[3] == "complete_match\t100.00"
    assert lines[4] == "0\t1\t1\t1\t1"
