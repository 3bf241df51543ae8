import logging
import tempfile
import tracemalloc
import weakref

import numpy as np
import pytest

import oracles
from delexparse import data, evalb, model, trainer, transform
from delexparse.transform import binarize, delexicalize_tree, strip_annotations
from delexparse.treebank import ExtendedTag, Tree, read_treebank

SMALL = model.ModelConfig(model_dim=32, num_layers=1, num_heads=2, head_dim=8,
                          ff_dim=48, label_hidden_dim=24, max_len=32, seed=10)


def prepared_toy(count=12):
    cfg = transform.TransformConfig()
    trees = read_treebank(data.toy_treebank_path())[:count]
    return [binarize(delexicalize_tree(strip_annotations(t, cfg), cfg))
            for t in trees]


def test_train_config_validation():
    with pytest.raises(ValueError):
        trainer.TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        trainer.TrainConfig(optimizer="adagrad")
    with pytest.raises(ValueError):
        trainer.TrainConfig(learning_rate=-1.0)


def test_empty_training_set_rejected():
    with pytest.raises(ValueError):
        trainer.train([], [], SMALL, trainer.TrainConfig(epochs=1))


def test_empty_dev_set_rejected():
    with pytest.raises(ValueError, match="empty dev set"):
        trainer.train(prepared_toy(2), [], SMALL, trainer.TrainConfig(epochs=1))


def test_overlong_training_sentence_rejected():
    cfg = model.ModelConfig(model_dim=8, num_layers=0, num_heads=1, head_dim=4,
                            ff_dim=8, label_hidden_dim=8, max_len=2, seed=1)
    trees = prepared_toy(3)
    with pytest.raises(ValueError, match="max_len"):
        trainer.train(trees, trees, cfg, trainer.TrainConfig(epochs=1))


def test_small_overfit_and_parse_round_trip(tmp_path):
    trees = prepared_toy()
    tcfg = trainer.TrainConfig(epochs=80, batch_size=4, learning_rate=2e-3)
    log_path = tmp_path / "train.log"
    params = trainer.train(trees, trees, SMALL, tcfg, log_path=log_path)
    tags = [trainer.tree_tag_sequence(t) for t in trees]
    gold = [transform.debinarize(t) for t in trees]
    predictions = trainer.parse_corpus(params, tags)
    assert predictions.count(None) == 0
    exact = sum(g == p for g, p in zip(gold, predictions))
    assert exact == len(trees)
    lines = log_path.read_text().splitlines()
    assert len(lines) == 80
    epoch, loss, f1 = lines[0].split("\t")
    assert epoch == "1"
    float(loss), float(f1)


def test_training_is_deterministic():
    trees = prepared_toy(6)
    tcfg = trainer.TrainConfig(epochs=3, batch_size=4)
    a = trainer.train(trees, trees, SMALL, tcfg)
    b = trainer.train(trees, trees, SMALL, tcfg)
    for name in a.tensors:
        np.testing.assert_array_equal(a.tensors[name], b.tensors[name])


def test_epoch_zero_baseline_reproducible():
    # an untrained model (fresh init) parses identically across runs
    trees = prepared_toy(6)
    tags = [trainer.tree_tag_sequence(t) for t in trees]
    pos, feats = model.build_vocabularies(tags)
    labels = model.build_label_inventory(trees)
    a = model.init_params(SMALL, pos, feats, labels)
    b = model.init_params(SMALL, pos, feats, labels)
    assert trainer.parse_corpus(a, tags) == trainer.parse_corpus(b, tags)


def test_sgd_optimizer_path():
    trees = prepared_toy(4)
    tcfg = trainer.TrainConfig(epochs=2, batch_size=2, optimizer="sgd",
                               learning_rate=1e-3)
    params = trainer.train(trees, trees, SMALL, tcfg)
    assert all(np.all(np.isfinite(t)) for t in params.tensors.values())


def test_parse_corpus_keeps_order_and_flags_failures():
    trees = prepared_toy(4)
    tcfg = trainer.TrainConfig(epochs=1, batch_size=2)
    params = trainer.train(trees, trees, SMALL, tcfg)
    sentences = [trainer.tree_tag_sequence(t) for t in trees]
    sentences.insert(2, [ExtendedTag("NN")] * (SMALL.max_len + 1))  # too long
    results = trainer.parse_corpus(params, sentences)
    assert len(results) == len(sentences)
    assert results[2] is None
    assert all(r is not None for k, r in enumerate(results) if k != 2)
    for tags, tree in zip(sentences, results):
        if tree is not None:
            assert tree.leaf_tokens() == [t.serialized() for t in tags]


def test_dev_fscore_scores_a_failed_sentence_as_its_fallback_tree():
    trees = prepared_toy(4)
    params = trainer.train(trees, trees, SMALL, trainer.TrainConfig(epochs=1, batch_size=2))
    tags = [trainer.tree_tag_sequence(t) for t in trees]
    gold = [transform.debinarize(t) for t in trees]
    too_long = [ExtendedTag("NN")] * (SMALL.max_len + 1)
    long_gold = Tree.node("S", [Tree.node("NN", [Tree.leaf("NN")]) for _ in too_long])
    parsed = [transform.relabel_preterminals(p, [q.label for q in g.preterminals()])
              for p, g in zip(trainer.parse_corpus(params, tags), gold)]
    fallback = trainer.fallback_tree(too_long)
    assert repr(fallback) == "(FAILED " + " ".join(["(NN NN)"] * len(too_long)) + ")"
    expected = evalb.score_corpus(gold + [long_gold], parsed + [fallback]).fscore
    assert trainer._dev_fscore(params, tags + [too_long], gold + [long_gold]) == expected
    assert trainer._dev_fscore(params, [too_long], [long_gold]) == 0.0


def test_dev_label_unseen_in_train_is_allowed():
    trees = prepared_toy(4)
    odd = Tree.node("XP", [Tree.node("QQ", [Tree.leaf("QQ")]),
                           Tree.node("RR", [Tree.leaf("RR")])])
    tcfg = trainer.TrainConfig(epochs=1, batch_size=2)
    params = trainer.train(trees, trees + [binarize(odd)], SMALL, tcfg)
    assert "XP" not in params.labels


def test_checkpoint_every_writes_intermediates(tmp_path):
    trees = prepared_toy(4)
    tcfg = trainer.TrainConfig(epochs=4, batch_size=2, checkpoint_every=2)
    trainer.train(trees, trees, SMALL, tcfg, checkpoint_dir=tmp_path)
    names = sorted(p.name for p in tmp_path.glob("*.ckpt"))
    assert names == ["epoch_0002.ckpt", "epoch_0004.ckpt"]


def test_train_allocates_its_gradient_and_dev_best_buffers_once(monkeypatch):
    # the dev-best params go to one anonymous temporary file per call
    calls = {"zero_grads": 0, "TemporaryFile": 0}

    def counted(original, name):
        def call(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return call

    monkeypatch.setattr(model.ModelParams, "zero_grads",
                        counted(model.ModelParams.zero_grads, "zero_grads"))
    monkeypatch.setattr(tempfile, "TemporaryFile",
                        counted(tempfile.TemporaryFile, "TemporaryFile"))
    trees = prepared_toy(6)
    tcfg = trainer.TrainConfig(epochs=4, batch_size=2, optimizer="sgd", learning_rate=3e-3)
    trainer.train(trees, trees, SMALL, tcfg)
    assert calls == {"zero_grads": 1, "TemporaryFile": 1}


def test_train_holds_four_parameter_sized_arrays_not_five():
    # params, Adam's m and v and the gradient; the dev-best params wait on
    # disk and are read back once the other four are freed.  Wide layers and
    # two short sentences per minibatch make the parameters dominate: the
    # rest is Adam's two largest-tensor scratch rows and one run's caches
    cfg = model.ModelConfig(model_dim=256, num_layers=4, num_heads=2, head_dim=128,
                            ff_dim=256, label_hidden_dim=32, max_len=32, seed=10)
    trees = prepared_toy(6)
    tcfg = trainer.TrainConfig(epochs=2, batch_size=2)
    trainer.train(trees[:2], trees[:2], cfg, trainer.TrainConfig(epochs=1))  # warm-up
    tracemalloc.start()
    try:
        params = trainer.train(trees, trees, cfg, tcfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    nbytes = sum(tensor.nbytes for tensor in params.tensors.values())
    assert peak < 4.5 * nbytes, peak / nbytes


def test_adams_scratch_is_bounded_by_a_block_not_by_the_largest_tensor():
    # a 4096-row position table is 95% of the parameters; scratch rows the
    # size of it would hold nearly two more parameter-sized arrays
    cfg = model.ModelConfig(model_dim=64, num_layers=1, num_heads=2, head_dim=8,
                            ff_dim=48, label_hidden_dim=24, max_len=4096, seed=10)
    trees = prepared_toy(8)
    tcfg = trainer.TrainConfig(epochs=2, batch_size=2)
    trainer.train(trees[:2], trees[:2], cfg, trainer.TrainConfig(epochs=1))  # warm-up
    tracemalloc.start()
    try:
        params = trainer.train(trees, trees, cfg, tcfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    nbytes = sum(tensor.nbytes for tensor in params.tensors.values())
    assert params.tensors["position_encoding"].nbytes > 0.9 * nbytes
    assert peak < 5.5 * nbytes, peak / nbytes


def test_train_returns_the_dev_best_epochs_params_bit_for_bit(tmp_path):
    # dev F1 peaks at epoch 2 of 5 here, so the last epoch's params differ
    trees = prepared_toy(20)
    tcfg = trainer.TrainConfig(epochs=5, batch_size=4, learning_rate=1e-2, seed=2,
                               checkpoint_every=1)
    params = trainer.train(trees[:10], trees[10:], SMALL, tcfg,
                           log_path=tmp_path / "train.log", checkpoint_dir=tmp_path)
    f1 = [float(line.split("\t")[2])
          for line in (tmp_path / "train.log").read_text().splitlines()]
    best = f1.index(max(f1)) + 1
    assert best < len(f1) == 5
    model.save_checkpoint(params, tmp_path / "returned.ckpt")
    returned = (tmp_path / "returned.ckpt").read_bytes()
    assert returned == (tmp_path / f"epoch_{best:04d}.ckpt").read_bytes()
    assert returned != (tmp_path / "epoch_0005.ckpt").read_bytes()


def test_train_leaves_no_file_in_the_temporary_directory(tmp_path, monkeypatch):
    temp = tmp_path / "temp"
    temp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp))
    trees = prepared_toy(6)
    tcfg = trainer.TrainConfig(epochs=3, batch_size=2)
    trainer.train(trees, trees, SMALL, tcfg)
    assert list(temp.iterdir()) == []

    dev_fscore, calls = trainer._dev_fscore, []

    def failing_second_epoch(*args):
        calls.append(1)
        if len(calls) == 2:
            raise RuntimeError("stopped in epoch 2")
        return dev_fscore(*args)

    monkeypatch.setattr(trainer, "_dev_fscore", failing_second_epoch)
    with pytest.raises(RuntimeError, match="epoch 2"):
        trainer.train(trees, trees, SMALL, tcfg)
    assert list(temp.iterdir()) == []


@pytest.mark.parametrize("optimizer, batch_size, pack_tokens", [
    ("adam", 4, model._PACK_TOKENS), ("sgd", 5, model._PACK_TOKENS), ("adam", 3, 20),
    ("sgd", 12, 30)], ids=["adam", "sgd", "adam-small-chunks", "sgd-small-chunks"])
def test_packed_training_matches_the_per_sentence_loop(tmp_path, monkeypatch, optimizer,
                                                       batch_size, pack_tokens):
    # with a budget of 20 or 30 tokens a minibatch spans several chunks
    monkeypatch.setattr(model, "_PACK_TOKENS", pack_tokens)
    trees = prepared_toy(12)
    tcfg = trainer.TrainConfig(epochs=5, batch_size=batch_size, optimizer=optimizer,
                               learning_rate=3e-3)
    got = trainer.train(trees, trees[:8], SMALL, tcfg, log_path=tmp_path / "train.log")
    want, want_log = oracles.per_sentence_train(trees, trees[:8], SMALL, tcfg)
    model.save_checkpoint(got, tmp_path / "got.ckpt")
    model.save_checkpoint(want, tmp_path / "want.ckpt")
    assert (tmp_path / "got.ckpt").read_bytes() == (tmp_path / "want.ckpt").read_bytes()
    assert (tmp_path / "train.log").read_text().splitlines() == want_log


def test_parse_corpus_isolates_failures_inside_a_chunk(caplog):
    trees = prepared_toy(6)
    tags = [trainer.tree_tag_sequence(t) for t in trees]
    pos, feats = model.build_vocabularies(tags + [[ExtendedTag("BAD")]])
    params = model.init_params(SMALL, pos, feats, model.build_label_inventory(trees))
    params.tensors["pos_embedding"][pos.index("BAD")] = np.nan
    sentences = list(tags)
    sentences.insert(1, [])
    sentences.insert(3, [ExtendedTag("NN")] * (SMALL.max_len + 1))
    sentences.insert(4, tags[0][:2] + [ExtendedTag("BAD")] + tags[0][2:])
    # the empty and the over-long sentence are runs of their own; the
    # non-finite one is packed with the four after it
    assert sum(len(s) for s in sentences[4:]) <= model._PACK_TOKENS
    with caplog.at_level(logging.WARNING, logger="delexparse.trainer"):
        results = trainer.parse_corpus(params, sentences)
    assert [k for k, tree in enumerate(results) if tree is None] == [1, 3, 4]
    for sentence, tree in zip(sentences, results):
        if tree is not None:
            assert tree == trainer.parse_corpus(params, [sentence])[0]
    assert [record.getMessage() for record in caplog.records] == [
        "sentence 1 failed: cannot embed an empty sentence",
        f"sentence 3 failed: sentence length {SMALL.max_len + 1} exceeds max_len "
        f"{SMALL.max_len}",
        "sentence 4 failed: non-finite values after encoder layer 0"]


def test_parse_corpus_keeps_no_caches_once_a_chunk_is_decoded(monkeypatch):
    params = model.init_params(model.DESK_MODEL, [model.UNK, "NN"], [model.UNK],
                               [transform.EMPTY_LABEL, "S"])
    per_chunk = model._PACK_TOKENS // 32
    sentences = [[ExtendedTag("NN")] * 32] * (6 * per_chunk)
    real_run = model._forward_run
    entry_memory, held = [], []

    def forward_run(params, sentences, golds):
        entry_memory.append(tracemalloc.get_traced_memory()[0])
        results = real_run(params, sentences, golds)
        held.extend(caches for _, _, caches in results)
        return results

    monkeypatch.setattr(model, "_forward_run", forward_run)
    tracemalloc.start()
    try:
        trainer.parse_corpus(params, sentences)
        before = tracemalloc.get_traced_memory()[0]
        kept = real_run(params, sentences[:per_chunk], [None] * per_chunk)
        one_chunk = tracemalloc.get_traced_memory()[0] - before  # the caches in kept
    finally:
        tracemalloc.stop()
    assert len(kept) == per_chunk and len(entry_memory) == 6
    assert all(caches is None for caches in held)
    # held when each later chunk starts: the trees parsed so far, no caches
    assert entry_memory[-1] - entry_memory[1] < 0.1 * one_chunk, (entry_memory, one_chunk)


def test_parse_corpus_releases_each_runs_tables_before_the_next_run(monkeypatch):
    params = model.init_params(model.DESK_MODEL, [model.UNK, "NN"], [model.UNK],
                               [transform.EMPTY_LABEL, "S"])
    per_run = model._PACK_TOKENS // 32
    sentences = [[ExtendedTag("NN")] * 32] * (4 * per_run)
    real_run = model._forward_run
    tables, alive = [], []  # per run entry: the earlier runs' tables not yet freed

    def forward_run(params, sentences, golds):
        alive.append(sum(ref() is not None for ref in tables))
        results = real_run(params, sentences, golds)
        tables.extend(weakref.ref(result[0].score) for result in results)
        return results

    monkeypatch.setattr(model, "_forward_run", forward_run)
    assert all(tree is not None for tree in trainer.parse_corpus(params, sentences))
    assert alive == [0, 0, 0, 0]


def right_branching(label, tags):
    """The binarized right-branching tree over ``tags``, every phrase
    ``label``."""
    preterminals = [Tree.node(tag.pos, [Tree.leaf(tag.serialized())]) for tag in tags]
    tree = Tree.node(label, preterminals[-2:])
    for preterminal in reversed(preterminals[:-2]):
        tree = Tree.node(label, [preterminal, tree])
    return tree


def test_batch_gradients_holds_one_runs_caches_at_a_time(monkeypatch):
    params = model.init_params(model.DESK_MODEL, [model.UNK, "NN"], [model.UNK],
                               [transform.EMPTY_LABEL, "S"])
    per_run = model._PACK_TOKENS // 32
    tags = [[ExtendedTag("NN")] * 32] * (4 * per_run)
    golds = [model.gold_indices(params, tags[0], right_branching("S", tags[0]))] * len(tags)
    real_run = model._forward_run
    entry_memory = []

    def forward_run(params, sentences, golds):
        entry_memory.append(tracemalloc.get_traced_memory()[0])
        return real_run(params, sentences, golds)

    monkeypatch.setattr(model, "_forward_run", forward_run)
    grads, losses = params.zero_grads(), []
    tracemalloc.start()
    try:
        trainer._batch_gradients(params, grads, tags, golds, list(range(len(tags))), losses)
        before = tracemalloc.get_traced_memory()[0]
        kept = real_run(params, tags[:per_run], golds[:per_run])
        one_run = tracemalloc.get_traced_memory()[0] - before  # the results in kept
    finally:
        tracemalloc.stop()
    assert len(kept) == per_run and len(entry_memory) == 4
    assert all(loss > 0.0 for loss in losses)  # every sentence ran its backward
    # held when each later run starts: nothing of the runs before it
    assert max(entry_memory[1:]) - entry_memory[0] < 0.1 * one_run, (entry_memory, one_run)


def test_dev_fscore_scores_a_tree_whose_preterminals_do_not_cover_its_leaves(tmp_path):
    # lexicalized mode: the NN preterminal spans two leaves, so the gold
    # tree gives no tag per token, and the parse is scored as it is
    tree = Tree.node("S", [Tree.node("NN", [Tree.leaf("NN"), Tree.leaf("NN")]),
                           Tree.node("VVFIN", [Tree.leaf("VVFIN")])])
    tags = [trainer.tree_tag_sequence(tree, reads="words")]
    log_path = tmp_path / "train.log"
    params = trainer.train([tree], [tree], SMALL, trainer.TrainConfig(epochs=1),
                           log_path=log_path, reads="words")
    predictions = trainer.parse_corpus(params, tags)
    expected = evalb.score_corpus([tree], predictions).fscore
    assert expected > 0.0
    assert trainer._dev_fscore(params, tags, [tree]) == expected
    assert log_path.read_text().split("\t")[-1].strip() == f"{expected:.4f}"


@pytest.mark.parametrize("optimizer, step_block", [
    ("adam", None), ("sgd", None), ("adam", 100)], ids=["adam", "sgd", "adam-in-blocks"])
def test_optimizer_steps_are_the_plain_formula_bit_for_bit(monkeypatch, optimizer,
                                                           step_block):
    if step_block:
        # the 32-wide matrices are stepped three rows at a time, the last
        # block shorter, and the vectors in blocks of 100 elements
        monkeypatch.setattr(trainer, "_STEP_BLOCK", step_block)
    labels = [transform.EMPTY_LABEL, "NP", "S"]
    params = model.init_params(SMALL, [model.UNK, "NN"], [model.UNK, "Sg"], labels)
    config = trainer.TrainConfig(optimizer=optimizer, learning_rate=3e-3)
    optimizer_state = trainer._Optimizer(params, config)
    expected = oracles.copy_tensors(params)
    m = {name: np.zeros_like(value) for name, value in expected.items()}
    v = {name: np.zeros_like(value) for name, value in expected.items()}
    b1, b2, lr = config.beta1, config.beta2, config.learning_rate
    rng = np.random.default_rng(4)
    for step in range(1, 6):
        grads = {name: rng.standard_normal(value.shape) for name, value in expected.items()}
        given = {name: value.copy() for name, value in grads.items()}
        optimizer_state.step(params, grads)
        for name, tensor in expected.items():
            g = grads[name]
            if optimizer == "sgd":
                tensor -= lr * g
                continue
            m[name] *= b1
            m[name] += (1.0 - b1) * g
            v[name] *= b2
            v[name] += (1.0 - b2) * g * g
            tensor -= lr * (m[name] / (1.0 - b1 ** step)) / (
                np.sqrt(v[name] / (1.0 - b2 ** step)) + config.eps)
        for name, tensor in expected.items():
            np.testing.assert_array_equal(params.tensors[name], tensor, err_msg=name)
            np.testing.assert_array_equal(grads[name], given[name], err_msg=name)
