import numpy as np
import pytest

import oracles
from delexparse import chart
from delexparse.transform import EMPTY_LABEL, binarize, debinarize
from delexparse.treebank import ExtendedTag, parse_bracketed, serialize_tree

LABELS = [EMPTY_LABEL, "S", "NP", "VP"]


def tags(n):
    return [ExtendedTag(f"P{i}") for i in range(n)]


def random_scores(rng, n, num_labels, zero_empty=True):
    scores = rng.standard_normal((n, n + 1, num_labels))
    if zero_empty:
        scores[:, :, 0] = 0.0
    return scores


def test_single_token_forced_structure():
    scores = np.zeros((1, 2, 4))
    scores[0, 1, 2] = 3.0
    tree = chart.cky_decode(oracles.dense_tables(scores), LABELS, tags(1))
    assert serialize_tree(tree) == "(NP (P0 P0))"


def test_single_token_root_never_empty():
    scores = np.zeros((1, 2, 4))
    scores[0, 1, 0] = 5.0  # irrelevant: root must pick a non-empty label
    tree = chart.cky_decode(oracles.dense_tables(scores), LABELS, tags(1))
    assert tree.label == "S"  # lowest non-empty index on ties


def test_hand_built_three_token_tensor():
    scores = np.zeros((3, 4, 4))
    scores[0, 3, 1] = 5.0
    scores[0, 2, 2] = 4.0
    scores[1, 3, 3] = 1.0
    total, _ = chart.decode_spans(oracles.dense_tables(scores))
    assert total == pytest.approx(9.0, abs=1e-12)
    tree = debinarize(chart.cky_decode(oracles.dense_tables(scores), LABELS, tags(3)))
    assert serialize_tree(tree) == "(S (NP (P0 P0) (P1 P1)) (P2 P2))"


def test_decode_matches_enumeration_oracle():
    rng = np.random.default_rng(77)
    for trial in range(200):
        n = int(rng.integers(1, 7))
        num_labels = int(rng.integers(2, 5))
        scores = random_scores(rng, n, num_labels, zero_empty=(trial % 2 == 0))
        total, _ = chart.decode_spans(oracles.dense_tables(scores))
        assert total == pytest.approx(oracles.best_tree_score(scores), abs=1e-9)


def test_decode_matches_full_labeling_enumeration_small():
    rng = np.random.default_rng(5)
    for _ in range(30):
        n = int(rng.integers(1, 4))
        num_labels = int(rng.integers(2, 4))
        scores = random_scores(rng, n, num_labels)
        total, _ = chart.decode_spans(oracles.dense_tables(scores))
        assert total == pytest.approx(
            oracles.best_tree_score_full_enumeration(scores), abs=1e-9)


def test_decode_beats_arbitrary_trees():
    rng = np.random.default_rng(13)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        scores = random_scores(rng, n, 4)
        total, _ = chart.decode_spans(oracles.dense_tables(scores))
        for bracketing in oracles.all_bracketings(0, n):
            score = 0.0
            for index, (i, j) in enumerate(bracketing):
                low = 1 if index == 0 else 0
                label = int(rng.integers(low, 4))
                score += scores[i, j, label]
            assert total >= score - 1e-9


def test_decoded_tree_well_formed():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(1, 7))
        scores = random_scores(rng, n, 4)
        tree = chart.cky_decode(oracles.dense_tables(scores), LABELS, tags(n))
        assert tree.label != EMPTY_LABEL
        assert len(tree.leaf_tokens()) == n
        spans, leaves = chart.tree_spans(tree)
        assert leaves == n
        assert spans[-1][:2] == (0, n)  # root covers everything
        debinarize(tree)  # must not raise


def single_path_cases():
    rng = np.random.default_rng(41)
    for trial in range(300):
        n = int(rng.integers(1, 41))
        scores = random_scores(rng, n, 4)  # the model's empty column is zero
        if trial % 3 == 1:
            scores = np.round(scores)  # many ties
        elif trial % 10 == 0:
            scores = np.zeros_like(scores)
        yield n, scores


def test_cky_tree_is_the_decode_spans_bracketing():
    for n, scores in single_path_cases():
        total, spans = chart.decode_spans(oracles.dense_tables(scores))
        tree = chart.cky_decode(oracles.dense_tables(scores), LABELS, tags(n))
        tree_idx = chart.spans_to_indices(chart.tree_spans(tree)[0], LABELS)
        # preterminals stand for the width-1 spans that took the empty label
        expected = [(i, j, l) for i, j, l in spans if j - i > 1 or l != 0]
        assert sorted(tree_idx) == sorted(expected)
        tree_score = sum(scores[i, j, l] for i, j, l in tree_idx if l != 0)
        assert abs(tree_score - total) <= 1e-12


def test_build_chart_is_the_per_span_loop_bit_for_bit():
    rng = np.random.default_rng(43)
    for trial in range(320):
        n = int(rng.integers(1, 61))
        scores = random_scores(rng, n, int(rng.integers(2, 6)), zero_empty=trial % 2 == 0)
        if trial % 3 == 1:
            scores = np.round(scores)  # many ties
        elif trial % 10 == 0:
            scores = np.zeros_like(scores)
        tables = oracles.dense_tables(scores)
        got = chart.build_chart(tables.score, tables.label)
        best, split, labels = oracles.per_span_chart(scores)
        np.testing.assert_array_equal(got.best_score, best)
        np.testing.assert_array_equal(got.best_split, split)
        np.testing.assert_array_equal(got.best_label, labels)


def test_tie_breaking_lowest_label_then_smallest_split():
    scores = np.zeros((4, 5, 4))
    tree = chart.cky_decode(oracles.dense_tables(scores), LABELS, tags(4))
    # root takes label index 1 on an all-zero tensor
    assert tree.label == "S"
    # all-zero scores: every split ties, so each span picks the smallest k,
    # giving a right-branching comb
    spans = {(i, j) for i, j, _ in chart.tree_spans(tree)[0]}
    assert spans == {(0, 4), (1, 4), (2, 4)}


def test_preterminals_attached_from_tags():
    scores = np.zeros((2, 3, 4))
    sentence = [ExtendedTag("ART", ("Nom", "Sg")), ExtendedTag("NN")]
    tree = chart.cky_decode(oracles.dense_tables(scores), LABELS, sentence)
    leaves = tree.leaf_tokens()
    assert leaves == ["ART.Nom.Sg", "NN"]
    preterminal_labels = [p.label for p in tree.preterminals()]
    assert preterminal_labels == ["ART", "NN"]


def test_decode_errors():
    with pytest.raises(ValueError):
        chart.decode_spans(chart.SpanTables(np.zeros((0, 1)), np.zeros((0, 1), dtype=np.int64),
                                            1, 0.0, 3))
    with pytest.raises(ValueError):
        chart.cky_decode(oracles.dense_tables(np.zeros((2, 3, 4))), LABELS, tags(3))
    with pytest.raises(ValueError):
        chart.cky_decode(oracles.dense_tables(np.zeros((2, 3, 3))), LABELS, tags(2))
    with pytest.raises(ValueError):
        chart.cky_decode(oracles.dense_tables(np.zeros((2, 3, 4))), ["S"] + LABELS[1:],
                         tags(2))


def test_tree_spans_read_off():
    tree = binarize(parse_bracketed("(S (NP (ART a) (NN b)) (VVFIN c))")[0])
    spans, n = chart.tree_spans(tree)
    assert n == 3
    assert set(spans) == {(0, 2, "NP"), (0, 3, "S")}


def span_rows(n):
    """Every span of an n-token sentence as rows in triu order: the
    ``(starts, ends)`` arrays and a map from (i, j) to its row."""
    starts, ends = np.triu_indices(n + 1, k=1)
    return starts, ends, {span: k for k, span in enumerate(zip(starts.tolist(), ends.tolist()))}


def test_hamming_augment_layout():
    starts, _, row = span_rows(3)
    gold = [(row[0, 2], 2), (row[0, 3], 1)]
    augment = chart.hamming_augment(np.zeros((len(starts), 4)), gold)
    assert augment[row[0, 2], 2] == 0.0 and augment[row[0, 2], 0] == 1.0
    assert augment[row[0, 3], 1] == 0.0 and augment[row[0, 3], 3] == 1.0
    # off-gold spans: empty label costs nothing, real labels cost one
    assert augment[row[1, 2], 0] == 0.0 and augment[row[1, 2], 1] == 1.0


def random_bracketing(rng, n):
    """Spans of a random full binary bracketing of (0, n), preorder."""
    spans, stack = [], [(0, n)]
    while stack:
        i, j = stack.pop()
        spans.append((i, j))
        if j - i >= 2:
            k = int(rng.integers(i + 1, j))
            stack += [(k, j), (i, k)]
    return spans


def test_in_place_augment_is_the_dense_cost_tensor_bit_for_bit():
    rng = np.random.default_rng(41)
    for case in range(240):
        n = 1 + case % 40
        num_labels = int(rng.integers(2, 7))
        scores = random_scores(rng, n, num_labels, zero_empty=case % 3 != 0)
        if case % 2:
            scores = np.round(scores, 1)
        gold = [(i, j, int(rng.integers(num_labels))) for i, j in random_bracketing(rng, n)]
        if case % 4 == 1:
            # a repeated (i, j): empty then non-empty label, or the reverse
            i, j, _ = gold[int(rng.integers(len(gold)))]
            labels = [0, int(rng.integers(1, num_labels))]
            if rng.random() < 0.5:
                labels.reverse()
            gold += [(i, j, label) for label in labels]
        expected = scores + oracles.dense_hamming_augment(n, num_labels, gold)
        starts, ends, row = span_rows(n)
        result = chart.hamming_augment(scores[starts, ends],
                                       [(row[i, j], label) for i, j, label in gold])
        np.testing.assert_array_equal(result, expected[starts, ends])


def test_loss_augmented_decode_prefers_distant_trees_on_zero_scores():
    gold = binarize(parse_bracketed("(S (NP (ART a) (NN b)) (VVFIN c))")[0])
    gold_idx = chart.spans_to_indices(chart.tree_spans(gold)[0], LABELS)
    scores = np.zeros((3, 4, 4))
    _, decoded = chart.decode_spans(
        oracles.dense_tables(scores + oracles.dense_hamming_augment(3, 4, gold_idx)))
    # the augmentation pushes the decode away from every gold decision
    assert not set(decoded) & set(gold_idx)


def test_augmented_score_at_least_plain_gold_score():
    rng = np.random.default_rng(29)
    gold = binarize(parse_bracketed("(S (NP (ART a) (NN b)) (VVFIN c))")[0])
    gold_spans, _ = chart.tree_spans(gold)
    gold_idx = chart.spans_to_indices(gold_spans, LABELS)
    for _ in range(50):
        scores = random_scores(rng, 3, 4)
        augment = oracles.dense_hamming_augment(3, 4, gold_idx)
        aug_total, _ = chart.decode_spans(oracles.dense_tables(scores + augment))
        gold_score = sum(scores[i, j, l] for i, j, l in gold_idx if l)
        assert aug_total >= gold_score - 1e-9


def test_spans_to_indices_unknown_label():
    with pytest.raises(ValueError, match="not in inventory"):
        chart.spans_to_indices([(0, 1, "XX")], LABELS)
