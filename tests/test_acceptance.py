"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v``.
"""

import functools
import sys
import time

import numpy as np
import pytest

import oracles
from delexparse import chart, cli, data, evalb, model, synthetic, tagmap, trainer, transform
from delexparse.transform import binarize, debinarize, delexicalize_tree, strip_annotations
from delexparse.treebank import (ExtendedTag, TaggedSentence, Tree, parse_bracketed,
                                 read_treebank, serialize_tree, write_tagged_corpus,
                                 write_treebank)


def criterion(num, name):
    def announce(status):
        # bypass capture so one line per criterion always reaches the console
        print(f"\nACCEPTANCE {num} ({name}): {status}", file=sys.__stdout__)

    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                announce("FAIL")
                raise
            announce("PASS")
        return run
    return wrap


# --------------------------------------------------------------- criterion 1

@criterion(1, "CKY oracle equivalence")
def test_01_cky_oracle_equivalence():
    started = time.monotonic()
    rng = np.random.default_rng(1001)
    for trial in range(200):
        n = int(rng.integers(1, 7))
        num_labels = int(rng.integers(2, 5))
        scores = rng.standard_normal((n, n + 1, num_labels))
        if trial % 2 == 0:
            scores[:, :, 0] = 0.0  # the span scorer's empty-label contract
        total, _ = chart.decode_spans(oracles.dense_tables(scores))
        reference = oracles.best_tree_score(scores)
        assert abs(total - reference) <= 1e-9, (trial, total, reference)
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


# --------------------------------------------------------------- criterion 2

def _random_small_setup(seed):
    rng = np.random.default_rng(seed)
    cfg = model.ModelConfig(
        model_dim=int(rng.choice([8, 12, 16])),
        num_layers=int(rng.integers(1, 3)),
        num_heads=int(rng.integers(1, 3)),
        head_dim=int(rng.integers(3, 6)),
        ff_dim=int(rng.integers(8, 25)),
        label_hidden_dim=int(rng.integers(6, 17)),
        max_len=8,
        seed=int(rng.integers(10_000)),
    )
    pos = [model.UNK] + [f"P{k}" for k in range(int(rng.integers(3, 6)))]
    feats = [model.UNK] + [f"f{k}" for k in range(int(rng.integers(2, 5)))]
    labels = [transform.EMPTY_LABEL] + [f"L{k}" for k in range(int(rng.integers(1, 4)))]
    params = model.init_params(cfg, pos, feats, labels)
    n = int(rng.integers(3, 6))
    tags = []
    for _ in range(n):
        feature_count = int(rng.integers(0, 3))
        chosen = tuple(feats[1:][int(rng.integers(len(feats) - 1))]
                       for _ in range(feature_count))
        tags.append(ExtendedTag(pos[1:][int(rng.integers(len(pos) - 1))], chosen))
    gold = _random_gold_tree(rng, tags, labels)
    return params, tags, gold


def _random_gold_tree(rng, tags, labels):
    def build(lo, hi):
        if hi - lo == 1:
            node = Tree.node(tags[lo].pos, [Tree.leaf(tags[lo].serialized())])
            if rng.random() < 0.4:
                node = Tree.node(labels[1:][int(rng.integers(len(labels) - 1))], [node])
            return node
        k = int(rng.integers(lo + 1, hi))
        label = labels[int(rng.integers(len(labels)))]
        left, right = build(lo, k), build(k, hi)
        return Tree.node(label, [left, right])

    root = build(0, len(tags))
    if root.is_preterminal or root.label == transform.EMPTY_LABEL:
        root = Tree.node(labels[1], [root] if root.is_preterminal else list(root.children))
    return root


def _hinge_loss_value(params, tags, gold_idx, augment):
    scores = model.sentence_scores(params, tags)
    total, spans = chart.decode_spans(oracles.dense_tables(scores + augment))
    gold_score = sum(scores[i, j, l] for i, j, l in gold_idx if l)
    return total - gold_score, tuple(spans)


@criterion(2, "gradient correctness")
def test_02_gradient_correctness():
    started = time.monotonic()
    step = 1e-5
    models_checked = 0
    for seed in range(2001, 2011):
        params, tags, gold = _random_small_setup(seed)
        rng = np.random.default_rng(seed)

        # smooth functional of the score tensor: exercises every tensor's
        # backpropagation path with an arbitrary upstream gradient
        scores, caches = model.forward_scores(params, tags)
        upstream = rng.standard_normal(scores.shape)
        upstream[:, :, 0] = 0.0
        grads = model.backward_scores(params, caches, upstream)

        def smooth():
            return float((model.sentence_scores(params, tags) * upstream).sum())

        for name, tensor in params.tensors.items():
            fd = oracles.fd_tensor_gradient(smooth, tensor, step)
            err = np.linalg.norm(grads[name] - fd) / (np.linalg.norm(fd) + 1e-12)
            assert err < 1e-4, (seed, name, err)

        # structured hinge loss: piecewise linear, so finite differences are
        # compared only where the loss-augmented decode is stable across the
        # step (at a decode flip the two-sided difference straddles a kink)
        gold_spans, _ = chart.tree_spans(gold)
        gold_idx = chart.spans_to_indices(gold_spans, params.labels)
        augment = oracles.dense_hamming_augment(len(tags), len(params.labels), gold_idx)
        base_loss, base_spans = _hinge_loss_value(params, tags, gold_idx, augment)
        loss, loss_grads = oracles.sentence_loss(params, tags, gold)
        assert loss == pytest.approx(base_loss, abs=1e-12)
        assert loss > 0.0, f"seed {seed} starts at zero loss"
        skipped = total_entries = 0
        for name, tensor in params.tensors.items():
            fd = np.zeros_like(tensor)
            include = np.ones_like(tensor, dtype=bool)
            iterator = np.nditer(tensor, flags=["multi_index"])
            for _ in iterator:
                index = iterator.multi_index
                original = tensor[index]
                tensor[index] = original + step
                up, spans_up = _hinge_loss_value(params, tags, gold_idx, augment)
                tensor[index] = original - step
                down, spans_down = _hinge_loss_value(params, tags, gold_idx, augment)
                tensor[index] = original
                total_entries += 1
                if spans_up != base_spans or spans_down != base_spans:
                    include[index] = False
                    skipped += 1
                    continue
                fd[index] = (up - down) / (2 * step)
            reference = np.where(include, loss_grads[name], 0.0)
            fd = np.where(include, fd, 0.0)
            err = np.linalg.norm(reference - fd) / (np.linalg.norm(fd) + 1e-12)
            assert err < 1e-4, (seed, name, err)
        assert skipped <= 0.05 * total_entries, f"{skipped}/{total_entries} kinks"
        models_checked += 1
    assert models_checked == 10
    elapsed = time.monotonic() - started
    assert elapsed < 300.0, f"took {elapsed:.1f}s"


# --------------------------------------------------------------- criterion 3

@criterion(3, "overfit oracle on bundled toy treebank")
def test_03_overfit_oracle(tmp_path):
    started = time.monotonic()
    raw = read_treebank(data.toy_treebank_path())
    assert len(raw) == 50
    tcfg = transform.TransformConfig()
    trees = [binarize(delexicalize_tree(strip_annotations(t, tcfg), tcfg))
             for t in raw]
    log_path = tmp_path / "train.log"
    params = trainer.train(trees, trees, model.ModelConfig(),
                           trainer.TrainConfig(), log_path=log_path)
    tags = [trainer.tree_tag_sequence(t) for t in trees]
    gold = [debinarize(t) for t in trees]
    predictions = trainer.parse_corpus(params, tags)
    assert predictions.count(None) == 0
    fscore = evalb.score_corpus(gold, predictions).fscore
    exact = sum(g == p for g, p in zip(gold, predictions))
    elapsed = time.monotonic() - started
    assert fscore >= 99.00, f"training-set F1 {fscore:.2f}"
    assert exact >= 48, f"only {exact}/50 exact"
    # the toy data is separable, so the hinge loss eventually reaches zero
    final_loss = float(log_path.read_text().splitlines()[-1].split("\t")[1])
    assert final_loss == 0.0
    assert elapsed < 600.0, f"took {elapsed:.1f}s"


# --------------------------------------------------------------- criterion 4

def _insert_punctuation(tree, rng):
    punct = Tree.node(("$.", "$,")[int(rng.integers(2))],
                      [Tree.leaf((".", ",")[int(rng.integers(2))])])

    def walk(node):
        if node.is_leaf or node.is_preterminal:
            return node
        children = [walk(c) for c in node.children]
        if rng.random() < 0.5:
            children.insert(int(rng.integers(len(children) + 1)), punct)
        return Tree.node(node.label, children)

    return walk(tree)


@criterion(4, "bracket scorer differential")
def test_04_evalb_differential():
    rng = np.random.default_rng(4004)
    gold, pred = [], []
    for _ in range(50):
        base = oracles.random_tree(rng)
        n = len(base.leaf_tokens())
        other = oracles.random_tree(rng)
        while len(other.leaf_tokens()) != n:
            other = oracles.random_tree(rng)
        gold.append(base)
        pred.append(other)

    result = evalb.score_corpus(gold, pred)
    naive = oracles.naive_score(gold, pred)
    assert result.recall == naive["recall"]
    assert result.precision == naive["precision"]
    assert result.fscore == naive["fscore"]
    assert result.complete_match == naive["complete_match"]
    assert (result.matched, result.gold_total, result.pred_total,
            result.exact_trees) == (naive["matched"], naive["gold_total"],
                                    naive["pred_total"], naive["exact"])

    self_result = evalb.score_corpus(gold, gold)
    assert evalb.format_summary(self_result) == "100.00 100.00 100.00 100.00"

    noisy_gold = [_insert_punctuation(t, rng) for t in gold]
    noisy_pred = [_insert_punctuation(t, rng) for t in pred]
    noisy = evalb.score_corpus(noisy_gold, noisy_pred)
    assert noisy == result


# --------------------------------------------------------------- criterion 5

@criterion(5, "tag map ground truth")
def test_05_tag_map_ground_truth():
    table = tagmap.default_table()
    expected = {
        "CARDD": "CARD", "DDA": "PDAT", "DDART": "ART", "DIA": "PIAT",
        "DIART": "ART", "DID": "PDAT", "NA": "NN", "VAPS": "ADJD.Pos",
    }
    for source, target in expected.items():
        mapped = tagmap.map_extended_tag(ExtendedTag(source), table)
        assert mapped == ExtendedTag.parse(target), (source, mapped)
    composite = tagmap.map_extended_tag(ExtendedTag("APPR|NA"), table)
    assert composite == ExtendedTag("APPR")


# --------------------------------------------------------------- criterion 6

def _ablation_files(tmp_path):
    trees = synthetic.morph_structure_treebank(128, seed=7)
    train_raw, held_raw = trees[:96], trees[96:]
    write_treebank(train_raw, tmp_path / "train.brackets")
    write_treebank([strip_annotations(t) for t in held_raw],
                   tmp_path / "held_gold.brackets")
    sentences = []
    renamed = []
    for tree in held_raw:
        tokens = tuple(tree.leaf_tokens())
        tags = tuple(ExtendedTag.parse(p.label) for p in tree.preterminals())
        sentences.append(TaggedSentence(tokens, tags))
        renamed.append(TaggedSentence(tokens, tuple(
            ExtendedTag(t.pos + "H", t.features) for t in tags)))
    write_tagged_corpus(sentences, tmp_path / "held.tags")
    write_tagged_corpus(renamed, tmp_path / "held_renamed.tags")
    pos_inventory = sorted({t.pos for s in sentences for t in s.tags})
    lines = ["[pos]"] + [f"{pos}H\t{pos}" for pos in pos_inventory] + ["[features]"]
    (tmp_path / "rename.tagmap").write_text(
        "".join(line + "\n" for line in lines), encoding="utf-8")


def _run_f1(tmp_path, run_name, train_args, parse_args):
    checkpoint = tmp_path / f"{run_name}.ckpt"
    if train_args is not None:
        code = cli.main(["train",
                         "--train-treebank", str(tmp_path / "train.brackets"),
                         "--checkpoint", str(checkpoint),
                         "--train-log", str(tmp_path / f"{run_name}.log"),
                         "--seed", "10", *train_args])
        assert code == 0
    output = tmp_path / f"{run_name}.brackets"
    code = cli.main(["parse", "--checkpoint", str(checkpoint),
                     "--parse-output", str(output), "--seed", "10", *parse_args])
    assert code == 0
    gold = read_treebank(tmp_path / "held_gold.brackets")
    pred = read_treebank(output)
    return evalb.score_corpus(gold, pred).fscore


@criterion(6, "ablation mechanics are directional")
def test_06_ablation_mechanics(tmp_path):
    _ablation_files(tmp_path)
    epochs = ["--config", str(tmp_path / "ablation.ini")]
    (tmp_path / "ablation.ini").write_text("[train]\nepochs = 40\n", encoding="utf-8")
    gold_held = ["--use-gold-tags", "--gold-treebank",
                 str(tmp_path / "held_gold.brackets")]

    f_full = _run_f1(tmp_path, "full", epochs, epochs + gold_held)
    f_nomorph = _run_f1(tmp_path, "nomorph", epochs + ["--no-morph"],
                        epochs + gold_held + ["--no-morph"])
    assert f_nomorph <= f_full, (f_nomorph, f_full)

    # tag-renamed target corpus, parsed with the full model: mapping the
    # historical names back beats feeding them through unmapped
    tagged = ["--tagged-corpus", str(tmp_path / "held_renamed.tags")]
    f_mapped = _run_f1(tmp_path, "full", None,
                       epochs + tagged + ["--tag-map", str(tmp_path / "rename.tagmap")])
    f_unmapped = _run_f1(tmp_path, "full", None, epochs + tagged + ["--no-mapping"])
    assert f_unmapped <= f_mapped, (f_unmapped, f_mapped)

    # mirror of the published ordering, direction only
    assert f_full >= f_nomorph and f_mapped >= f_unmapped
    print(f"\n  full {f_full:.2f} >= no-morph {f_nomorph:.2f}; "
          f"mapped {f_mapped:.2f} >= unmapped {f_unmapped:.2f}")


# --------------------------------------------------------------- criterion 7

@criterion(7, "round trips and idempotence")
def test_07_round_trips():
    rng = np.random.default_rng(7007)
    for _ in range(1000):
        tree = oracles.random_tree(rng)
        assert parse_bracketed(serialize_tree(tree)) == [tree]
    for _ in range(1000):
        tree = oracles.random_tree(rng)
        assert debinarize(binarize(tree)) == tree
    checked = 0
    while checked < 500:
        tree = oracles.random_annotated_tree(rng)
        try:
            once = strip_annotations(tree)
        except ValueError:
            continue  # stripped to nothing; not a valid idempotence subject
        assert strip_annotations(once) == once
        checked += 1


# --------------------------------------------------------------- criterion 8

_DETERMINISM_CONFIG = """\
[paths]
train_treebank = toy.brackets
gold_treebank = toy.brackets
checkpoint = out/parser.ckpt
train_log = out/train.log
parse_output = out/pred.brackets
report = out/eval.report
[mode]
use_gold_tags = true
[train]
epochs = 5
"""


def _end_to_end(workdir, monkeypatch):
    workdir.mkdir()
    (workdir / "toy.brackets").write_bytes(data.toy_treebank_path().read_bytes())
    (workdir / "run.ini").write_text(_DETERMINISM_CONFIG, encoding="utf-8")
    monkeypatch.chdir(workdir)
    assert cli.main(["train", "--config", "run.ini"]) == 0
    assert cli.main(["parse", "--config", "run.ini"]) == 0
    assert cli.main(["eval", "--config", "run.ini",
                     "--pred-treebank", "out/pred.brackets"]) == 0
    monkeypatch.undo()
    return {p.name: p.read_bytes() for p in (workdir / "out").iterdir()}


@criterion(8, "end-to-end determinism")
def test_08_determinism(tmp_path, monkeypatch):
    first = _end_to_end(tmp_path / "one", monkeypatch)
    second = _end_to_end(tmp_path / "two", monkeypatch)
    assert sorted(first) == sorted(second)
    expected = {"parser.ckpt", "parser.ckpt.manifest", "train.log",
                "pred.brackets", "pred.brackets.manifest",
                "eval.report", "eval.report.manifest"}
    assert expected <= set(first)
    for name in first:
        assert first[name] == second[name], f"{name} differs between runs"
