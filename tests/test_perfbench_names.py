"""The benchmark's tracer names layer functions by string; keep them valid,
and keep the hot path under the names its per-layer metrics time."""

import importlib
import importlib.util
from pathlib import Path

from delexparse import cli, data, model
from delexparse.transform import EMPTY_LABEL

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_function_resolves():
    tracing = load_tracing()
    missing = []
    for layer, functions in tracing.TRACED.items():
        module = importlib.import_module(f"delexparse.{layer}")
        for name in functions:
            owner = module
            for part in name.split("."):
                owner = getattr(owner, part, None)
            if not callable(owner):
                missing.append(f"{layer}.{name}")
    assert not missing


def test_traced_train_and_parse_time_the_scorer_cky_and_augmentation(tmp_path):
    sentences, epochs = 6, 2
    lines = data.toy_treebank_path().read_text(encoding="utf-8").splitlines()[:sentences]
    treebank = tmp_path / "train.brackets"
    treebank.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    config = tmp_path / "run.ini"
    config.write_text(f"[train]\nepochs = {epochs}\n[model]\nmodel_dim = 16\nnum_layers = 1\n"
                      "num_heads = 2\nhead_dim = 4\nff_dim = 16\nlabel_hidden_dim = 12\n",
                      encoding="utf-8")
    checkpoint = tmp_path / "parser.ckpt"
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        assert cli.main(["train", "--config", str(config), "--train-treebank", str(treebank),
                         "--checkpoint", str(checkpoint)]) == 0
        assert cli.main(["parse", "--config", str(config), "--use-gold-tags",
                         "--gold-treebank", str(treebank), "--checkpoint", str(checkpoint),
                         "--parse-output", str(tmp_path / "pred.brackets")]) == 0
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(1)
    # the packed forward and the backward reach these under their traced names
    for name in ("model.embed_fwd_s", "model.encode_fwd_s", "model.scores_fwd_s",
                 "model.scores_bwd_s", "model.encode_bwd_s", "model.embed_bwd_s",
                 "chart.cky_s", "chart.augment_s"):
        assert metrics[name] > 0.0, name
    # each epoch decodes every training sentence for the loss and again for
    # the dev score (the training set is the dev set); parse decodes each
    assert metrics["chart.decodes"] == epochs * 2 * sentences + sentences
    # the training counters read loss_and_gradients' result, once per sentence
    assert tracer.counts["trainer.updates"] == epochs * sentences
    assert 0.0 <= metrics["trainer.zero_loss_share"] <= 1.0


def test_every_timed_and_counted_function_is_traced():
    # a metric over a function the tracer does not wrap reads 0 without an error
    tracing = load_tracing()
    named = {name for functions in tracing.TIMED.values() for name in functions}
    named |= set(tracing.COUNTERS)
    traced = {f"{layer}.{name}" for layer, functions in tracing.TRACED.items()
              for name in functions}
    assert named - traced == set()


def test_traced_parse_counts_every_mapped_tag(tmp_path):
    corpus = tmp_path / "hist.tags"
    sentences = [[("diu", "DDART.Nom"), ("frouwe", "NA.Nom")],
                 [("der", "DDART.Nom"), ("man", "NA.Nom"), ("sach", "VVFIN")]]
    corpus.write_text("".join("".join(f"{token}\t{tag}\n" for token, tag in sentence) + "\n"
                              for sentence in sentences), encoding="utf-8")
    tag_map = tmp_path / "hist.tagmap"
    tag_map.write_text("[pos]\nDDART\tART\nNA\tNN\n", encoding="utf-8")
    checkpoint = tmp_path / "parser.ckpt"
    cfg = model.ModelConfig(model_dim=8, num_layers=1, num_heads=2, head_dim=3, ff_dim=8,
                            label_hidden_dim=6, max_len=32, seed=1)
    model.save_checkpoint(model.init_params(cfg, [model.UNK, "ART", "NN"], [model.UNK, "Nom"],
                                            [EMPTY_LABEL, "S"]), checkpoint)
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        assert cli.main(["parse", "--tagged-corpus", str(corpus), "--tag-map", str(tag_map),
                         "--checkpoint", str(checkpoint),
                         "--parse-output", str(tmp_path / "pred.brackets")]) == 0
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(1)
    assert metrics["tagmap.tags"] == sum(map(len, sentences))
    assert metrics["tagmap.map_s"] > 0.0
    assert metrics["tagmap.changed_share"] == 4 / 5
