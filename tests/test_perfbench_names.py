"""The benchmark's tracer names layer functions by string; keep them valid,
and keep the hot path under the names its per-layer metrics time."""

import importlib
import importlib.util
from pathlib import Path

from delexparse import cli, data

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
