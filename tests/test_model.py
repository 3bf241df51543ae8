import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from delexparse import chart, model
from delexparse.transform import EMPTY_LABEL, binarize
from delexparse.treebank import ExtendedTag, Tree, parse_bracketed

TINY = model.ModelConfig(model_dim=8, num_layers=1, num_heads=2, head_dim=3,
                         ff_dim=10, label_hidden_dim=6, max_len=16, seed=3)
POS = [model.UNK, "ART", "NN", "VVFIN"]
FEATS = [model.UNK, "Nom", "Acc", "Sg"]
LABELS = [EMPTY_LABEL, "NP", "S", "VP"]


def tiny_params(seed=3, layers=1):
    cfg = model.ModelConfig(model_dim=8, num_layers=layers, num_heads=2,
                            head_dim=3, ff_dim=10, label_hidden_dim=6,
                            max_len=16, seed=seed)
    return model.init_params(cfg, POS, FEATS, LABELS)


def tags(*specs):
    return [ExtendedTag.parse(s) for s in specs]


def embed_sequence(params, tag_list):
    return model._embed_forward(params, [tag_list])[0]


def encode(params, x):
    rows = model._encode_forward(params, x, [slice(0, len(x))], False)[0]
    return model._fenceposts(params, rows)


def span_scores(params, fenceposts):
    """The dense score tensor, built from the scorer's blocks."""
    return model._dense_scores(params, model._label_projection(params, fenceposts))


def test_config_validation():
    with pytest.raises(model.ModelError):
        model.ModelConfig(model_dim=7)
    with pytest.raises(model.ModelError):
        model.ModelConfig(num_heads=0)


def test_embed_no_features_is_pos_plus_position():
    params = tiny_params()
    x = embed_sequence(params, tags("NN"))
    expected = params.tensors["pos_embedding"][POS.index("NN")] + \
        params.tensors["position_encoding"][0]
    np.testing.assert_array_equal(x[0], expected)


def test_embed_features_change_embedding():
    params = tiny_params()
    a = embed_sequence(params, tags("NN.Nom"))
    b = embed_sequence(params, tags("NN.Acc"))
    assert not np.array_equal(a, b)


def test_embed_unknown_pos_uses_unk_row():
    params = tiny_params()
    x = embed_sequence(params, [ExtendedTag("XYZ")])
    expected = params.tensors["pos_embedding"][0] + \
        params.tensors["position_encoding"][0]
    np.testing.assert_array_equal(x[0], expected)


def test_embed_rejects_overlong():
    params = tiny_params()
    with pytest.raises(model.ModelError, match="sentence length 17 exceeds max_len 16"):
        oracles.sentence_forward(params, [ExtendedTag("NN")] * 17)


def test_encode_shapes_and_determinism():
    params = tiny_params()
    x = embed_sequence(params, tags("ART", "NN", "VVFIN"))
    fence = encode(params, x)
    assert fence.shape == (4, 8)
    np.testing.assert_array_equal(fence, encode(params, x))
    single = encode(params, embed_sequence(params, tags("NN")))
    assert single.shape == (2, 8)


def test_encode_zero_layers_builds_fenceposts_from_embeddings():
    params = tiny_params(layers=0)
    x = embed_sequence(params, tags("ART", "NN"))
    fence = encode(params, x)
    half = 4
    boundary = params.tensors["boundary"]
    np.testing.assert_array_equal(fence[0, :half], boundary[0, :half])
    np.testing.assert_array_equal(fence[0, half:], x[0, half:])
    np.testing.assert_array_equal(fence[2, :half], x[1, :half])
    np.testing.assert_array_equal(fence[2, half:], boundary[1, half:])


def test_span_scores_shape_and_empty_column():
    params = tiny_params()
    x = embed_sequence(params, tags("ART", "NN", "VVFIN"))
    scores = span_scores(params, encode(params, x))
    assert scores.shape == (3, 4, 4)
    starts, ends = np.triu_indices(4, k=1)
    np.testing.assert_array_equal(scores[starts, ends, 0], 0.0)


def test_span_scores_match_unfactored_reference():
    cfg = model.ModelConfig(model_dim=12, num_layers=0, num_heads=1, head_dim=4,
                            ff_dim=8, label_hidden_dim=10, max_len=64, seed=7)
    params = model.init_params(cfg, POS, FEATS, LABELS)
    rng = np.random.default_rng(17)
    for name in ("label_b1", "label_ln_gain", "label_ln_bias", "label_b2"):
        params.tensors[name] += rng.standard_normal(params.tensors[name].shape)
    for n in range(1, 65):
        fenceposts = rng.standard_normal((n + 1, cfg.model_dim))
        expected = oracles.unfactored_span_scores(params.tensors, fenceposts, len(LABELS))
        np.testing.assert_allclose(span_scores(params, fenceposts), expected,
                                   rtol=0.0, atol=1e-12)


SCORER = model.ModelConfig(model_dim=12, num_layers=0, num_heads=1, head_dim=4,
                           ff_dim=8, label_hidden_dim=10, max_len=64, seed=7)
SCORER_LABELS = [EMPTY_LABEL, "A", "B", "C", "D", "E"]


def scorer_params(rng):
    """Scorer weights with every label tensor moved off its initial value."""
    params = model.init_params(SCORER, POS, FEATS, SCORER_LABELS)
    for name in ("label_b1", "label_ln_gain", "label_ln_bias", "label_b2"):
        params.tensors[name] += rng.standard_normal(params.tensors[name].shape)
    return params


def random_labeled_tree(rng, n, num_labels):
    """Preorder spans of a random binary bracketing with random labels;
    the root's is non-empty."""
    spans, stack = [], [(0, n)]
    while stack:
        i, j = stack.pop()
        low = 1 if not spans else 0
        spans.append((i, j, int(rng.integers(low, num_labels))))
        if j - i >= 2:
            k = int(rng.integers(i + 1, j))
            stack += [(k, j), (i, k)]
    return spans


def test_sparse_scorer_backward_matches_dense_oracle():
    rng = np.random.default_rng(23)
    num_labels = len(SCORER_LABELS)
    kinds = ("independent trees", "shared bracketing", "dense upstream", "gold decoded")
    for case in range(240):
        n = 1 + case % 40
        kind = kinds[(case // 40) % len(kinds)]
        params = scorer_params(rng)
        fenceposts = rng.standard_normal((n + 1, SCORER.model_dim))
        _, _, cache = model._scores_forward(params, fenceposts)
        oracle_scores, oracle_cache = oracles.dense_scores_forward(
            params.tensors, fenceposts, num_labels)
        if kind == "dense upstream":
            dscores = rng.standard_normal(oracle_scores.shape)
            starts, ends = np.triu_indices(n + 1, k=1)
            dout = dscores[starts, ends, 1:]
        else:
            gold = random_labeled_tree(rng, n, num_labels)
            if kind == "independent trees":
                pred = random_labeled_tree(rng, n, num_labels)
            elif kind == "shared bracketing":
                # same spans, each relabeled with probability 1/2: predicted
                # labels cancel gold ones, or a span's row holds two labels
                pred = [(i, j, int(rng.integers(1 if not k else 0, num_labels))
                         if rng.random() < 0.5 else label)
                        for k, (i, j, label) in enumerate(gold)]
            else:
                pred = list(gold)
            dscores = np.zeros(oracle_scores.shape)
            for i, j, label in pred:
                if label != 0:
                    dscores[i, j, label] += 1.0
            for i, j, label in gold:
                if label != 0:
                    dscores[i, j, label] -= 1.0
            starts, ends, dout = model._subgradient_rows(pred, gold, num_labels)
            rebuilt = np.zeros_like(dscores)
            rebuilt[starts, ends, 1:] = dout
            np.testing.assert_array_equal(rebuilt, dscores)
            assert len(set(zip(starts.tolist(), ends.tolist()))) == len(dout)
            assert dout.any(axis=1).all() and len(dout) <= 2 * (2 * n - 1)
        grads = params.zero_grads()
        dfence = model._scores_backward(params, grads, cache, starts, ends, dout)
        expected, expected_dfence = oracles.dense_scores_backward(
            params.tensors, oracle_cache, dscores)
        for name, value in expected.items():
            np.testing.assert_allclose(grads[name], value, rtol=0.0, atol=1e-12,
                                       err_msg=f"{kind} n={n} {name}")
        np.testing.assert_allclose(dfence, expected_dfence, rtol=0.0, atol=1e-12,
                                   err_msg=f"{kind} n={n} dfence")


def test_scores_cache_holds_no_span_sized_array():
    params = scorer_params(np.random.default_rng(5))
    for n in (1, 2, 7, 30):
        fenceposts = np.random.default_rng(n).standard_normal((n + 1, SCORER.model_dim))
        _, _, cache = model._scores_forward(params, fenceposts)
        arrays = [item for item in cache if isinstance(item, np.ndarray)]
        assert arrays and all(a.shape[0] <= n + 1 for a in arrays), \
            [a.shape for a in arrays]


def desk_scorer_params(num_labels, rng, max_len=model.DESK_MODEL.max_len, **config):
    """Desk-preset parameters, with the ``config`` fields given, for
    ``num_labels`` labels and ``max_len`` tokens, every label tensor moved
    off its initial value."""
    labels = [EMPTY_LABEL] + [f"L{k}" for k in range(1, num_labels)]
    params = model.init_params(model.ModelConfig(max_len=max_len, **config), POS, FEATS,
                               labels)
    for name in ("label_b1", "label_ln_gain", "label_ln_bias", "label_b2"):
        params.tensors[name] += rng.standard_normal(params.tensors[name].shape)
    return params


# n = 31, 32, 33 straddle the shortest sentence that needs two runs; with
# 20-row chunks, start points with more than 20 spans run alone, over budget
@pytest.mark.parametrize("chunk_rows", [model._CHUNK_ROWS, 20], ids=["default", "20-rows"])
def test_blocked_scores_forward_matches_dense_oracle(monkeypatch, chunk_rows):
    monkeypatch.setattr(model, "_CHUNK_ROWS", chunk_rows)
    rng = np.random.default_rng(41)
    lengths = [1, 2, 31, 32, 33, 45, 46, 100, 128, 257, 300]
    lengths += rng.integers(3, 200, size=4).tolist()
    for num_labels in (2, 30):
        params = desk_scorer_params(num_labels, rng)
        for n in lengths:
            fenceposts = rng.standard_normal((n + 1, model.DESK_MODEL.model_dim))
            scores = span_scores(params, fenceposts)
            expected, _ = oracles.dense_scores_forward(params.tensors, fenceposts,
                                                       num_labels)
            np.testing.assert_allclose(scores, expected, rtol=0.0, atol=1e-12,
                                       err_msg=f"n={n} labels={num_labels}")
            not_spans = np.tril(np.ones(scores.shape[:2], dtype=bool))  # j <= i
            assert not scores[not_spans].any() and not scores[..., 0].any()


def test_scores_forward_peak_memory_is_one_score_tensor():
    # the span tables, the n+1-row cache and one chunk's two buffers bound
    # the peak; the score tensor (9.6 MB here) is never allocated
    params = desk_scorer_params(30, np.random.default_rng(2))
    fenceposts = np.random.default_rng(3).standard_normal((201, model.DESK_MODEL.model_dim))
    tracemalloc.start()
    try:
        tables, _, cache = model._scores_forward(params, fenceposts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    chunk = model._CHUNK_ROWS * (model.DESK_MODEL.label_hidden_dim + 30) * 8
    working = (tables.score.nbytes + tables.label.nbytes + chunk
               + sum(array.nbytes for array in cache[1:]))
    assert peak <= 1.25 * working, peak / working


def random_tags(rng, n):
    return [ExtendedTag(POS[int(rng.integers(1, len(POS)))]) for _ in range(n)]


def assert_tables_equal(got, expected, context):
    """Equal on every span (i, j), i < j; other cells are not spans."""
    spans = np.triu_indices(got.score.shape[1], k=1)
    assert got.score.shape == expected.score.shape == got.label.shape, context
    np.testing.assert_array_equal(got.label[spans], expected.label[spans], err_msg=context)
    np.testing.assert_array_equal(got.score[spans], expected.score[spans], err_msg=context)
    assert got.num_labels == expected.num_labels, context


@pytest.mark.parametrize("chunk_rows", [model._CHUNK_ROWS, 20], ids=["default", "20-rows"])
def test_span_tables_are_the_reduced_dense_scores(monkeypatch, chunk_rows):
    monkeypatch.setattr(model, "_CHUNK_ROWS", chunk_rows)
    rng = np.random.default_rng(51)
    for num_labels in (2, 30, 100):
        params = desk_scorer_params(num_labels, rng, 300)
        for n in (1, 2, 31, 32, 33, 100, 257, 300):
            sentence = random_tags(rng, n)
            tables, gold_scores, _ = oracles.sentence_forward(params, sentence)
            expected = oracles.dense_tables(model.sentence_scores(params, sentence))
            assert_tables_equal(tables, expected, f"n={n} labels={num_labels}")
            assert gold_scores.shape == (0,)


def test_root_cell_holds_a_non_empty_label_where_the_empty_label_scores_highest():
    rng = np.random.default_rng(59)
    params = desk_scorer_params(5, rng)
    params.tensors["label_b2"] -= 100.0  # every span's best label is the empty one
    for n in (1, 2, 5, 40):
        sentence = random_tags(rng, n)
        tables, _, _ = oracles.sentence_forward(params, sentence)
        scores = model.sentence_scores(params, sentence)
        assert scores[0, n].argmax() == 0
        root = int(tables.label[0, n])
        assert root == 1 + scores[0, n, 1:].argmax()
        assert tables.score[0, n] == scores[0, n, root]
        total, spans = chart.decode_spans(tables)
        assert spans[0] == (0, n, root)
        assert total == chart.build_chart(tables.score)[0][0, n]
        if n <= 5:
            assert total == pytest.approx(oracles.best_tree_score(scores), abs=1e-9)


def block_boundary_spans(n):
    """The first and the last span of every other scorer block."""
    runs = list(model._runs(range(n, 0, -1), model._CHUNK_ROWS))[::2]
    return [span for run, _ in runs for span in ((run.start, run.start + 1), (run.stop - 1, n))]


@pytest.mark.parametrize("chunk_rows", [model._CHUNK_ROWS, 20], ids=["default", "20-rows"])
def test_augmented_span_tables_are_the_reduced_dense_augmented_scores(monkeypatch,
                                                                        chunk_rows):
    monkeypatch.setattr(model, "_CHUNK_ROWS", chunk_rows)
    rng = np.random.default_rng(53)
    for num_labels in (2, 30):
        params = desk_scorer_params(num_labels, rng, 100)
        for n in (1, 2, 7, 33, 60, 100):
            sentence = random_tags(rng, n)
            # half a tree's spans, so that some blocks hold no gold entry
            gold = [span for span in random_labeled_tree(rng, n, num_labels)
                    if rng.random() < 0.5]
            gold += [(i, j, int(rng.integers(num_labels))) for i, j in block_boundary_spans(n)]
            # a repeated (i, j): empty then non-empty label, and the reverse
            for labels in ([0, num_labels - 1], [num_labels - 1, 0]):
                i, j, _ = gold[int(rng.integers(len(gold)))]
                gold += [(i, j, label) for label in labels]
            order = rng.permutation(len(gold))
            gold = [gold[k] for k in order]
            tables, gold_scores, _ = oracles.sentence_forward(params, sentence, gold)
            scores = model.sentence_scores(params, sentence)
            augment = oracles.dense_hamming_augment(n, num_labels, gold)
            context = f"n={n} labels={num_labels}"
            assert_tables_equal(tables, oracles.dense_tables(scores + augment), context)
            np.testing.assert_array_equal(
                gold_scores, [scores[i, j, label] for i, j, label in gold], err_msg=context)


def balanced_tree(rng, sentence, labels):
    """A binarized tree over ``sentence``, split near the middle, with
    random non-empty labels."""
    def build(lo, hi):
        if hi - lo == 1:
            return Tree.node(sentence[lo].pos, [Tree.leaf(sentence[lo].serialized())])
        k = (lo + hi) // 2 + int(rng.integers(0, 2)) * (hi - lo > 2)
        label = labels[int(rng.integers(1, len(labels)))]
        return Tree.node(label, [build(lo, k), build(k, hi)])

    return build(0, len(sentence))


def test_loss_peak_memory_is_independent_of_the_label_count():
    n = 256
    sentence = random_tags(np.random.default_rng(5), n)
    peaks = {}
    for num_labels in (2, 100):
        rng = np.random.default_rng(7)
        params = desk_scorer_params(num_labels, rng, n)
        gold = balanced_tree(rng, sentence, params.labels)
        oracles.sentence_loss(params, sentence, gold)  # warm-up
        tracemalloc.start()
        try:
            loss, _ = oracles.sentence_loss(params, sentence, gold)
            peaks[num_labels] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loss > 0.0
    score_tensor = n * (n + 1) * 100 * 8
    assert peaks[100] - peaks[2] < 0.1 * score_tensor, (peaks, score_tensor)


def test_training_step_peak_memory_is_its_caches_and_one_attention_array():
    # the working set is the gradient buffer, the forward's result (its
    # backward caches and span tables) and the attention backward's one
    # head's (n, n) weights, their gradient and their product, counted
    # below as the (heads, n, n) bytes of the desk preset's 4 heads; the
    # peak stays within 1.25 times that
    n = 256
    sentence = random_tags(np.random.default_rng(5), n)
    rng = np.random.default_rng(7)
    params = desk_scorer_params(100, rng, n)
    gold = balanced_tree(rng, sentence, params.labels)
    gold_idx = model.gold_indices(params, sentence, gold)
    oracles.sentence_loss(params, sentence, gold)  # warm-up
    tracemalloc.start()
    try:
        loss, _ = oracles.sentence_loss(params, sentence, gold)
        peak = tracemalloc.get_traced_memory()[1]
        before = tracemalloc.get_traced_memory()[0]
        forward = oracles.sentence_forward(params, sentence, gold_idx)
        result = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert loss > 0.0 and forward[2] is not None
    grads = sum(tensor.nbytes for tensor in params.tensors.values())
    attention = params.config.num_heads * n * n * 8
    working = grads + result + attention
    assert peak <= 1.25 * working, (peak, grads, result, attention)


def training_step_peak(heads, head_dim, n=256):
    """The traced peak of one training step on an n-token sentence at the
    desk preset with the attention split into ``heads`` of ``head_dim``."""
    sentence = random_tags(np.random.default_rng(5), n)
    rng = np.random.default_rng(7)
    params = desk_scorer_params(100, rng, n, num_heads=heads, head_dim=head_dim)
    gold = balanced_tree(rng, sentence, params.labels)
    oracles.sentence_loss(params, sentence, gold)  # warm-up
    tracemalloc.start()
    try:
        loss, _ = oracles.sentence_loss(params, sentence, gold)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loss > 0.0
    return peak


def test_training_step_peak_memory_is_independent_of_the_head_count():
    # the forward caches each head's softmax row max and sum, not its
    # weights, and the backward rebuilds one head's weights at a time, so
    # 8 heads of 16 hold what 4 heads of 32 do
    n = 256
    peaks = [training_step_peak(4, 32, n), training_step_peak(8, 16, n)]
    attention = 8 * n * n * 8
    assert abs(peaks[1] - peaks[0]) < 0.1 * attention, (peaks, attention)


def test_attention_backward_is_the_batched_weights_backward_bit_for_bit(monkeypatch):
    # the backward runs min(heads, (max_len // n) ** 2) heads at a time: at
    # max_len 128, 4 heads run together up to n = 64 and one at a time
    # above; 6 heads run together up to n = 42, as a group of 4 and one of
    # 2 from 43 to 64, and one at a time above
    rng = np.random.default_rng(13)
    for heads, head_dim, lengths in ((4, 32, (1, 2, 40, 128)),
                                     (6, 16, (1, 3, 41, 43, 63, 65, 127))):
        params = desk_scorer_params(30, rng, num_heads=heads, head_dim=head_dim)
        groups = {min(heads, (params.config.max_len // n) ** 2) for n in lengths}
        assert groups == ({1, 4} if heads == 4 else {1, 4, 6})
        for n in lengths:
            sentence = random_tags(rng, n)
            gold = balanced_tree(rng, sentence, params.labels)
            loss, grads = oracles.sentence_loss(params, sentence, gold)
            assert loss > 0.0
            with monkeypatch.context() as patch:
                patch.setattr(model, "_attention_backward", oracles.batched_attention_backward)
                _, expected = oracles.sentence_loss(params, sentence, gold)
            for name, grad in grads.items():
                assert grad.tobytes() == expected[name].tobytes(), (heads, n, name)


def assert_greedy_runs(runs, sizes, budget):
    """``runs`` cover every item once, in order; each holds one item or
    items of at most ``budget`` together, and the next item would not fit."""
    assert [k for run in runs for k in run] == list(range(len(sizes)))
    for run in runs:
        total = sum(sizes[k] for k in run)
        assert len(run) == 1 or total <= budget, (sizes, run)
        assert run.stop == len(sizes) or total + sizes[run.stop] > budget, (sizes, run)


def test_start_chunks_cover_every_start_once_within_the_row_budget():
    for n in range(1, 601):
        sizes = range(n, 0, -1)
        runs = list(model._runs(sizes, model._CHUNK_ROWS))
        assert all(rows == sum(sizes[k] for k in run) for run, rows in runs), n
        assert_greedy_runs([run for run, _ in runs], sizes, model._CHUNK_ROWS)


def test_pack_chunks_cover_every_sentence_once_within_the_token_budget(monkeypatch):
    # a one-token, empty or over-long sentence is a run of its own; the
    # last two yield their error without running
    monkeypatch.setattr(model, "_PACK_TOKENS", 40)
    params = tiny_params()
    real_run, runs = model._forward_run, []

    def forward_run(params, run_sentences, golds):
        first = index[id(run_sentences[0])]
        runs.append(range(first, first + len(run_sentences)))
        assert [index[id(tags)] for tags in run_sentences] == list(runs[-1])
        return real_run(params, run_sentences, golds)

    monkeypatch.setattr(model, "_forward_run", forward_run)
    rng = np.random.default_rng(9)
    for _ in range(100):
        lengths = rng.integers(0, 20, size=int(rng.integers(0, 12))).tolist()
        lengths = [1 if rng.random() < 0.2 else n for n in lengths]
        sentences = [random_tags(rng, n) for n in lengths]
        index = {id(tags): k for k, tags in enumerate(sentences)}
        runs.clear()
        results = list(model.forward_packed(params, sentences))
        bad = [not 0 < n <= params.config.max_len for n in lengths]
        assert [isinstance(result, model.ModelError) for result in results] == bad
        runs += [range(k, k + 1) for k in range(len(lengths)) if bad[k]]
        sizes = [41 if bad[k] or n == 1 else n for k, n in enumerate(lengths)]
        assert_greedy_runs(sorted(runs, key=lambda run: run.start), sizes, 40)


def random_feature_tags(rng, n):
    """Tags with zero to three features, unknown POS and features included."""
    pos = POS + ["XY"]
    feats = FEATS + ["Zz"]
    return [ExtendedTag(pos[int(rng.integers(len(pos)))],
                        tuple(feats[k] for k in rng.integers(0, len(feats), int(rng.integers(4)))))
            for _ in range(n)]


def packed_and_reference(params, lengths, seed):
    """Each sentence's (fenceposts, tables, gold scores) from the packed
    forward and from the one-sentence-at-a-time reference."""
    rng = np.random.default_rng(seed)
    num_labels = len(params.labels)
    sentences = [random_feature_tags(rng, n) for n in lengths]
    golds = [random_labeled_tree(rng, n, num_labels) for n in lengths]
    for sentence, gold, (tables, gold_scores, caches) in zip(
            sentences, golds, model.forward_packed(params, sentences, golds)):
        fenceposts = oracles.per_sentence_fenceposts(params, sentence)
        expected, expected_gold, _ = model._scores_forward(params, fenceposts, gold)
        yield (caches[2][0], tables, gold_scores), (fenceposts, expected, expected_gold)


# lengths 1..max_len, up to eight sentences: mixes below, at and over the
# token budget, and one-token sentences, which stay on their own
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(lengths=st.lists(st.integers(1, model.DESK_MODEL.max_len), min_size=1, max_size=8),
       seed=st.integers(0, 2**16))
def test_packed_forward_is_the_one_sentence_forward_bit_for_bit(lengths, seed):
    # at the desk preset's widths, which the paper preset's share as
    # multiples of 8, the BLAS computes a product's row the same whatever
    # rows come with it
    params = desk_scorer_params(5, np.random.default_rng(seed), model.DESK_MODEL.max_len)
    for (fenceposts, tables, gold_scores), (want_fenceposts, want_tables, want_gold) in \
            packed_and_reference(params, lengths, seed):
        context = f"lengths={lengths}"
        np.testing.assert_array_equal(fenceposts, want_fenceposts, err_msg=context)
        assert_tables_equal(tables, want_tables, context)
        np.testing.assert_array_equal(gold_scores, want_gold, err_msg=context)


def test_packed_forward_agrees_to_rounding_at_any_width():
    # attention and feedforward widths of 9 and 17: on OpenBLAS the bits of
    # a product's row then depend on how many rows come with it
    cfg = model.ModelConfig(model_dim=16, num_layers=2, num_heads=3, head_dim=3, ff_dim=17,
                            label_hidden_dim=9, max_len=40, seed=4)
    params = model.init_params(cfg, POS, FEATS, LABELS)
    rng = np.random.default_rng(6)
    for trial in range(10):
        lengths = rng.integers(1, cfg.max_len + 1, size=8).tolist()
        for got, want in packed_and_reference(params, lengths, trial):
            np.testing.assert_allclose(got[0], want[0], rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(got[1].score, want[1].score, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(got[2], want[2], rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("bad, layers, message", [
    pytest.param(k, 2, "non-finite values after encoder layer 0", id=str(k)) for k in (0, 2, 4)
] + [pytest.param(2, 0, "non-finite embedding or boundary values", id="2-no-layers")])
def test_a_non_finite_sentence_leaves_the_rest_of_its_packed_run_bit_for_bit(
        monkeypatch, bad, layers, message):
    # the run with sentence ``bad`` swapped for one of the same length whose
    # embedding is NaN: it alone fails, and the others' bits do not change;
    # without layers the NaN reaches the fenceposts straight from the embedding
    cfg = model.ModelConfig(model_dim=8, num_layers=layers, num_heads=2, head_dim=3,
                            ff_dim=10, label_hidden_dim=6, max_len=16, seed=3)
    params = model.init_params(cfg, POS + ["BAD"], FEATS, LABELS)
    params.tensors["pos_embedding"][-1] = np.nan
    rng = np.random.default_rng(bad)
    lengths = [5, 2, 9, 3, 7]
    sentences = [random_feature_tags(rng, n) for n in lengths]
    golds = [random_labeled_tree(rng, n, len(LABELS)) for n in lengths]
    broken = list(sentences)
    broken[bad] = sentences[bad][:1] + [ExtendedTag("BAD")] + sentences[bad][2:]
    real_run, run_sizes = model._forward_run, []

    def forward_run(params, run_sentences, golds):
        run_sizes.append(len(run_sentences))
        return real_run(params, run_sentences, golds)

    monkeypatch.setattr(model, "_forward_run", forward_run)
    finite = list(model.forward_packed(params, sentences, golds))
    results = list(model.forward_packed(params, broken, golds))
    assert run_sizes == [len(lengths)] * 2
    assert isinstance(results[bad], model.ModelError)
    assert str(results[bad]) == message
    for k, (got, want) in enumerate(zip(results, finite)):
        if k != bad:
            np.testing.assert_array_equal(got[2][2][0], want[2][2][0], err_msg=f"{k}")
            assert_tables_equal(got[0], want[0], f"sentence {k}")
            np.testing.assert_array_equal(got[1], want[1], err_msg=f"{k}")


@pytest.mark.parametrize("layers", [0, 1, 2])
@pytest.mark.parametrize("row", [0, 1])
def test_a_non_finite_boundary_row_fails_every_sentence(layers, row):
    # the boundary rows reach the fenceposts without passing through a layer
    params = tiny_params(layers=layers)
    params.tensors["boundary"][row] = np.nan
    rng = np.random.default_rng(row)
    lengths = [1, 4, 7, 2]
    sentences = [random_feature_tags(rng, n) for n in lengths]
    golds = [random_labeled_tree(rng, n, len(LABELS)) for n in lengths]
    for results in (model.forward_packed(params, sentences),
                    model.forward_packed(params, sentences, golds)):
        assert [str(result) if isinstance(result, model.ModelError) else result
                for result in results] == ["non-finite embedding or boundary values"] * 4


def test_an_inventory_without_a_phrase_label_is_rejected():
    cfg = model.ModelConfig(model_dim=8, num_layers=1, num_heads=2, head_dim=3, ff_dim=8,
                            label_hidden_dim=6, max_len=8)
    with pytest.raises(model.ModelError, match="label inventory has no phrase label"):
        model.init_params(cfg, POS, FEATS, [EMPTY_LABEL])
    with pytest.raises(model.ModelError, match="must start with the empty label"):
        model.init_params(cfg, POS, FEATS, ["S", EMPTY_LABEL])


def test_init_determinism():
    a = tiny_params(seed=5)
    b = tiny_params(seed=5)
    c = tiny_params(seed=6)
    for name in a.tensors:
        np.testing.assert_array_equal(a.tensors[name], b.tensors[name])
    assert any(not np.array_equal(a.tensors[n], c.tensors[n]) for n in a.tensors)


def gold_tree():
    return binarize(parse_bracketed(
        "(S (NP (ART ART.Nom) (NN NN.Nom.Sg)) (VVFIN VVFIN))")[0])


def dominant_gold_scores():
    """Gold spans scored 10 above every alternative labeling: the
    augmentation (at most +1 per span) cannot flip any decision."""
    idx = {label: i for i, label in enumerate(LABELS)}
    scores = np.full((3, 4, len(LABELS)), -10.0)
    starts, ends = np.triu_indices(4, k=1)
    scores[starts, ends, 0] = 0.0
    for i, j, label in chart.tree_spans(gold_tree())[0]:
        if label != EMPTY_LABEL:
            scores[i, j, idx[label]] = 10.0
    return scores


def test_augmented_decode_returns_dominant_gold():
    # the loss-augmented decode returns gold and the hinge sits at zero
    gold_spans, _ = chart.tree_spans(gold_tree())
    idx = {label: i for i, label in enumerate(LABELS)}
    test_scores = dominant_gold_scores()
    augment = oracles.dense_hamming_augment(
        3, len(LABELS), chart.spans_to_indices(gold_spans, LABELS))
    aug_total, spans = chart.decode_spans(oracles.dense_tables(test_scores + augment))
    decoded = {(i, j, l) for i, j, l in spans if l != 0}
    expected = {(i, j, idx[l]) for i, j, l in gold_spans if l != EMPTY_LABEL}
    assert decoded == expected
    gold_total = sum(test_scores[i, j, idx[l]]
                     for i, j, l in gold_spans if l != EMPTY_LABEL)
    assert aug_total - gold_total == 0.0


def test_loss_nonnegative_and_zero_grads_at_zero_loss():
    params = tiny_params()
    sentence = tags("ART.Nom", "NN.Nom.Sg", "VVFIN")
    gold = gold_tree()
    for seed in range(5):
        p = tiny_params(seed=seed)
        loss, grads = oracles.sentence_loss(p, sentence, gold)
        assert loss >= 0.0
        if loss == 0.0:
            assert all(not g.any() for g in grads.values())


def rounding_residue_case():
    """Gold is decoded, but the chart adds its four span scores in another
    order than the gold sum, which leaves a loss of about 7e-15."""
    gold = binarize(parse_bracketed(
        "(S (NP (ART a) (NN b)) (VP (VVFIN c) (NP (NN d))))")[0])
    scores = np.full((4, 5, len(LABELS)), -10.0)
    scores[:, :, 0] = 0.0
    for (i, j, label), value in zip([(0, 2, 1), (3, 4, 1), (2, 4, 3), (0, 4, 2)],
                                    [10.1, 10.8, 10.8, 10.2]):
        scores[i, j, label] = value
    return scores, gold


@pytest.mark.parametrize("case", ["zero-loss", "rounding-residue"])
def test_zero_subgradient_sentence_allocates_and_adds_no_gradients(monkeypatch, case):
    params = tiny_params()
    if case == "zero-loss":
        scores, gold = dominant_gold_scores(), gold_tree()
    else:
        scores, gold = rounding_residue_case()

    gold_idx = chart.spans_to_indices(chart.tree_spans(gold)[0], LABELS)
    augment = oracles.dense_hamming_augment(len(gold.leaf_tokens()), len(LABELS), gold_idx)
    gold_scores = np.array([scores[i, j, l] for i, j, l in gold_idx])
    forward = oracles.dense_tables(scores + augment), gold_scores, None
    buffer = params.zero_grads()

    def forbidden(*args):
        raise AssertionError("gradient work on a zero-subgradient sentence")

    monkeypatch.setattr(model, "backward_scores", forbidden)
    monkeypatch.setattr(model, "backward_span_rows", forbidden)
    monkeypatch.setattr(model, "_scores_backward", forbidden)
    monkeypatch.setattr(model.ModelParams, "zero_grads", forbidden)
    loss, grads = model.loss_and_gradients(params, forward, gold_idx, buffer)
    assert grads is buffer and not any(g.any() for g in grads.values())
    assert loss == 0.0 if case == "zero-loss" else 0.0 < loss < 1e-12


def test_loss_leaf_count_mismatch():
    params = tiny_params()
    with pytest.raises(model.ModelError):
        model.gold_indices(params, tags("NN"), gold_tree())


def test_score_invariant_to_span_order():
    params = tiny_params()
    sentence = tags("ART.Nom", "NN.Nom.Sg", "VVFIN")
    scores = model.sentence_scores(params, sentence)
    spans, _ = chart.tree_spans(gold_tree())
    idx = chart.spans_to_indices(spans, LABELS)
    forward = sum(scores[i, j, l] for i, j, l in idx if l)
    backward = sum(scores[i, j, l] for i, j, l in reversed(idx) if l)
    assert forward == pytest.approx(backward, abs=1e-12)


def test_span_score_gradient_finite_differences():
    # spot check on 5 random (i, j, l) entries, as a smooth objective
    params = tiny_params()
    sentence = tags("ART.Nom", "NN.Nom.Sg", "VVFIN", "NN")
    rng = np.random.default_rng(8)
    scores, caches = model.forward_scores(params, sentence)
    starts, ends = np.triu_indices(len(sentence) + 1, k=1)
    picks = rng.choice(len(starts), size=5, replace=False)
    for pick in picks:
        i, j = int(starts[pick]), int(ends[pick])
        l = int(rng.integers(1, len(LABELS)))
        dscores = np.zeros_like(scores)
        dscores[i, j, l] = 1.0
        grads = model.backward_scores(params, caches, dscores)

        def objective():
            return float(model.sentence_scores(params, sentence)[i, j, l])

        for name in ("label_w2", "layer_0/wq", "pos_embedding"):
            fd = oracles.fd_tensor_gradient(objective, params.tensors[name])
            err = np.linalg.norm(grads[name] - fd) / (np.linalg.norm(fd) + 1e-12)
            assert err < 1e-4, (name, err)


def test_total_loss_gradient_finite_differences():
    # hinge loss FD on 20 random parameters of a 3-token sentence,
    # skipping entries where the augmented decode flips within the step
    params = tiny_params(seed=12)
    sentence = tags("ART.Nom", "NN.Nom.Sg", "VVFIN")
    gold = gold_tree()
    loss, grads = oracles.sentence_loss(params, sentence, gold)
    assert loss > 0.0
    rng = np.random.default_rng(3)
    names = [n for n in params.tensors if params.tensors[n].size > 0]
    checked = 0
    step = 1e-5
    while checked < 20:
        name = names[rng.integers(len(names))]
        tensor = params.tensors[name]
        flat = int(rng.integers(tensor.size))
        index = np.unravel_index(flat, tensor.shape)
        original = tensor[index]
        values = []
        stable = True
        base_spans = _augmented_spans(params, sentence, gold)
        for delta in (step, -step):
            tensor[index] = original + delta
            if _augmented_spans(params, sentence, gold) != base_spans:
                stable = False
            values.append(oracles.sentence_loss(params, sentence, gold)[0])
        tensor[index] = original
        if not stable:
            continue
        fd = (values[0] - values[1]) / (2 * step)
        assert grads[name][index] == pytest.approx(fd, rel=1e-4, abs=1e-7)
        checked += 1


def _augmented_spans(params, sentence, gold):
    scores = model.sentence_scores(params, sentence)
    gold_spans, _ = chart.tree_spans(gold)
    augment = oracles.dense_hamming_augment(
        len(sentence), len(params.labels),
        chart.spans_to_indices(gold_spans, params.labels))
    _, spans = chart.decode_spans(oracles.dense_tables(scores + augment))
    return spans


def test_checkpoint_round_trip(tmp_path):
    params = tiny_params(seed=21)
    path = tmp_path / "model.ckpt"
    model.save_checkpoint(params, path)
    loaded = model.load_checkpoint(path)
    assert loaded.config == params.config
    assert loaded.labels == params.labels
    assert loaded.pos_names == params.pos_names
    assert loaded.feature_names == params.feature_names
    for name in params.tensors:
        np.testing.assert_array_equal(loaded.tensors[name], params.tensors[name])
    # byte-stable on re-save
    again = tmp_path / "model2.ckpt"
    model.save_checkpoint(loaded, again)
    assert path.read_bytes() == again.read_bytes()


@pytest.mark.parametrize("reads", model.READS)
def test_checkpoint_records_what_the_model_reads(tmp_path, reads):
    path = tmp_path / "model.ckpt"
    model.save_checkpoint(model.init_params(TINY, POS, FEATS, LABELS, reads), path)
    assert model.load_checkpoint(path).reads == reads


def test_a_version_1_checkpoint_is_refused(tmp_path):
    path = tmp_path / "model.ckpt"
    model.save_checkpoint(tiny_params(), path)
    blob = path.read_bytes()
    path.write_bytes(blob[:4] + (1).to_bytes(4, "little") + blob[8:])
    with pytest.raises(model.ModelError, match="unsupported checkpoint version 1$"):
        model.load_checkpoint(path)


def test_loaded_tensors_are_aligned_writable_views_of_one_buffer(tmp_path):
    path = tmp_path / "model.ckpt"
    model.save_checkpoint(tiny_params(seed=21), path)
    loaded = model.load_checkpoint(path)
    tensors = list(loaded.tensors.values())
    assert all(t.flags.writeable and t.flags.aligned and t.dtype == "<f8" for t in tensors)
    assert len({id(t.base.base) for t in tensors}) == 1
    loaded.tensors["label_b2"] += 1.0
    np.testing.assert_array_equal(loaded.tensors["label_b2"],
                                  tiny_params(seed=21).tensors["label_b2"] + 1.0)


def test_checkpoint_rejects_corruption(tmp_path):
    params = tiny_params()
    path = tmp_path / "model.ckpt"
    model.save_checkpoint(params, path)
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0xFF
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(bytes(blob))
    with pytest.raises(model.ModelError, match="checksum"):
        model.load_checkpoint(bad)
    bad2 = tmp_path / "bad2.ckpt"
    bad2.write_bytes(b"nope" + bytes(blob[4:]))
    with pytest.raises(model.ModelError, match="magic"):
        model.load_checkpoint(bad2)


def rewrite_header(path, edit):
    """Rewrite a checkpoint with ``edit`` applied to its JSON header."""
    blob = path.read_bytes()
    length = int.from_bytes(blob[8:16], "little")
    header = json.loads(blob[16:16 + length])
    edit(header)
    text = json.dumps(header).encode("ascii")
    path.write_bytes(blob[:8] + len(text).to_bytes(8, "little") + text
                     + blob[16 + length:])


def test_checkpoint_claiming_more_layers_than_tensors_fails_before_building_shapes(
        tmp_path, monkeypatch):
    path = tmp_path / "model.ckpt"
    model.save_checkpoint(tiny_params(), path)
    rewrite_header(path, lambda h: h["config"].update(num_layers=10**12))

    def forbidden(*args):
        raise AssertionError("expected shapes built for the claimed layers")

    monkeypatch.setattr(model, "_tensor_shapes", forbidden)
    with pytest.raises(model.ModelError, match="claims 1000000000000 layers for 22 tensors"):
        model.load_checkpoint(path)


def test_checkpoint_truncated_anywhere_raises_model_error(tmp_path):
    path = tmp_path / "model.ckpt"
    model.save_checkpoint(tiny_params(), path)
    blob = path.read_bytes()
    header_end = 16 + int.from_bytes(blob[8:16], "little")
    offsets = [0, 3, 10, 16, 40, header_end - 1, header_end, header_end + 8,
               (header_end + len(blob)) // 2, len(blob) - 1]
    for offset in offsets:
        cut = tmp_path / f"cut{offset}.ckpt"
        cut.write_bytes(blob[:offset])
        with pytest.raises(model.ModelError):
            model.load_checkpoint(cut)


@pytest.mark.parametrize("case", ["appended-byte", "gap", "overlap"])
def test_checkpoint_tensors_lie_end_to_end_from_offset_0(tmp_path, case):
    # every CRC still matches, so only the layout rule refuses these files
    path = tmp_path / "model.ckpt"
    model.save_checkpoint(tiny_params(), path)
    blob = path.read_bytes()
    header_end = 16 + int.from_bytes(blob[8:16], "little")
    entries = json.loads(blob[16:header_end])["tensors"]
    if case == "appended-byte":
        path.write_bytes(blob + b"\0")
        message = "checkpoint has 1 trailing bytes after its last tensor"
    elif case == "gap":  # eight spare bytes after the first tensor
        end = header_end + entries[0]["nbytes"]
        path.write_bytes(blob[:end] + bytes(8) + blob[end:])
        rewrite_header(path, lambda h: [entry.update(offset=entry["offset"] + 8)
                                        for entry in h["tensors"][1:]])
        message = (f"tensor 'feature_embedding' is at offset {entries[1]['offset'] + 8}, "
                   f"not {entries[1]['offset']}")
    else:  # a tensor aliasing the bytes of the one before it, of its size
        k = next(k for k in range(1, len(entries))
                 if entries[k]["nbytes"] == entries[k - 1]["nbytes"])
        rewrite_header(path, lambda h: h["tensors"][k].update(
            offset=entries[k - 1]["offset"], crc32=entries[k - 1]["crc32"]))
        message = (f"tensor {entries[k]['name']!r} is at offset {entries[k - 1]['offset']}, "
                   f"not {entries[k]['offset']}")
    with pytest.raises(model.ModelError, match=re.escape(message)):
        model.load_checkpoint(path)


@pytest.mark.parametrize("edit, message", [
    (lambda h: h.pop("labels"), "lacks labels"),
    (lambda h: h["tensors"][0].update(name="pos_embedding_x"), "names"),
    (lambda h: h["labels"].append("XP"), "shape"),
    (lambda h: h["pos_vocab"].pop(), "shape"),
    (lambda h: h["config"].update(num_layers="1"), "integers"),
    (lambda h: h["config"].update(depth=1), "config"),
    (lambda h: h.update(format_version=1), "format_version 1"),
    (lambda h: h.update(format_version=True), "format_version True"),
    (lambda h: h["tensors"][-1].update(dtype="<f4"), "dtype '<f4'"),
    (lambda h: h["tensors"][0].pop("dtype"), "entries need .*dtype"),
    (lambda h: h.pop("reads"), "lacks reads"),
    (lambda h: h.update(reads="lemmas"), "reads 'lemmas', not one of tags, pos, words"),
    (lambda h: h.update(reads=["tags"]), r"reads \['tags'\]"),
], ids=["missing-key", "renamed-tensor", "extra-label", "short-pos-vocab",
        "string-config", "unknown-config-key", "format-version-1", "format-version-true",
        "float32-dtype", "missing-dtype", "missing-reads", "unknown-reads", "list-reads"])
def test_checkpoint_header_disagreements_raise_model_error(tmp_path, edit, message):
    path = tmp_path / "model.ckpt"
    model.save_checkpoint(tiny_params(), path)
    rewrite_header(path, edit)
    with pytest.raises(model.ModelError, match=message):
        model.load_checkpoint(path)
    path.write_bytes(path.read_bytes()[:20] + b"\xff" + path.read_bytes()[21:])
    with pytest.raises(model.ModelError, match="ASCII JSON"):
        model.load_checkpoint(path)
