import numpy as np
import pytest

from delexparse import evalb, model, synthetic, trainer, transform
from delexparse.transform import binarize, delexicalize_tree, strip_annotations
from delexparse.treebank import ExtendedTag, Tree

SMALL = model.ModelConfig(model_dim=32, num_layers=1, num_heads=2, head_dim=8,
                          ff_dim=48, label_hidden_dim=24, max_len=32, seed=10)


def prepared_toy(count=12):
    cfg = transform.TransformConfig()
    trees = synthetic.toy_treebank()[:count]
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


def test_skipping_zero_loss_sentences_keeps_batch_gradients_bit_identical(monkeypatch):
    # a zero-loss sentence used to add a full dict of +0.0 gradients; the
    # accumulator starts at +0.0, so leaving them out changes no bit
    trees = prepared_toy(6)
    tcfg = trainer.TrainConfig(epochs=2, batch_size=3)
    real_loss = model.loss_and_gradients
    real_step = trainer._Optimizer.step

    def run(zero_dict):
        calls, steps = [], []

        def loss_and_gradients(params, tags, gold):
            calls.append(None)
            if len(calls) % 2:
                return 0.0, params.zero_grads() if zero_dict else {}
            return real_loss(params, tags, gold)

        def step(self, params, grads):
            steps.append({name: g.tobytes() for name, g in grads.items()})
            real_step(self, params, grads)

        monkeypatch.setattr(model, "loss_and_gradients", loss_and_gradients)
        monkeypatch.setattr(trainer._Optimizer, "step", step)
        trainer.train(trees, trees, SMALL, tcfg)
        return steps

    assert run(zero_dict=True) == run(zero_dict=False)


@pytest.mark.parametrize("optimizer", ["adam", "sgd"])
def test_optimizer_steps_are_the_plain_formula_bit_for_bit(optimizer):
    labels = [transform.EMPTY_LABEL, "NP", "S"]
    params = model.init_params(SMALL, [model.UNK, "NN"], [model.UNK, "Sg"], labels)
    config = trainer.TrainConfig(optimizer=optimizer, learning_rate=3e-3)
    optimizer_state = trainer._Optimizer(params, config)
    expected = params.copy_tensors()
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
