import errno
import json
import os
from pathlib import Path

import pytest

from delexparse import cli, data, evalb, model, trainer, transform
from delexparse.transform import EMPTY_LABEL
from delexparse.treebank import (ExtendedTag, parse_bracketed,
                                 read_tagged_corpus_file, read_treebank,
                                 write_treebank)

FAST_TRAIN = "[train]\nepochs = 4\nbatch_size = 8\n"
TINY_MODEL = ("[model]\nmodel_dim = 16\nnum_layers = 1\nnum_heads = 2\n"
              "head_dim = 4\nff_dim = 16\nlabel_hidden_dim = 12\nmax_len = 32\n")


def write_config(tmp_path, extra=""):
    toy = data.toy_treebank_path()
    config = tmp_path / "run.ini"
    config.write_text(
        "[paths]\n"
        f"train_treebank = {toy}\n"
        f"gold_treebank = {toy}\n"
        f"checkpoint = {tmp_path}/out/parser.ckpt\n"
        f"train_log = {tmp_path}/out/train.log\n"
        f"parse_output = {tmp_path}/out/pred.brackets\n"
        f"report = {tmp_path}/out/eval.report\n"
        "[mode]\nuse_gold_tags = true\n"
        + FAST_TRAIN + TINY_MODEL + extra)
    return config


def test_train_parse_eval_pipeline(tmp_path, capsys):
    config = write_config(tmp_path)
    assert cli.main(["train", "--config", str(config)]) == 0
    assert (tmp_path / "out/parser.ckpt").exists()
    assert (tmp_path / "out/parser.ckpt.manifest").exists()
    assert len((tmp_path / "out/train.log").read_text().splitlines()) == 4

    assert cli.main(["parse", "--config", str(config)]) == 0
    predictions = read_treebank(tmp_path / "out/pred.brackets")
    assert len(predictions) == 50
    gold = read_treebank(data.toy_treebank_path())
    for g, p in zip(gold, predictions):
        assert p.leaf_tokens() == g.leaf_tokens()  # re-lexicalization contract

    assert cli.main(["eval", "--config", str(config),
                     "--pred-treebank", f"{tmp_path}/out/pred.brackets"]) == 0
    summary = capsys.readouterr().out.strip().splitlines()[-1]
    parts = summary.split()
    assert len(parts) == 4
    for part in parts:
        assert len(part.split(".")[1]) == 2  # two decimals


def test_eval_overfit_predictions_against_toy_gold(tmp_path, capsys):
    # desk-preset model, enough epochs to memorize the toy treebank
    toy = data.toy_treebank_path()
    config = tmp_path / "run.ini"
    config.write_text(
        "[paths]\n"
        f"train_treebank = {toy}\n"
        f"gold_treebank = {toy}\n"
        f"checkpoint = {tmp_path}/parser.ckpt\n"
        f"parse_output = {tmp_path}/pred.brackets\n"
        f"report = {tmp_path}/eval.report\n"
        "[mode]\nuse_gold_tags = true\n"
        "[train]\nepochs = 15\n")
    assert cli.main(["train", "--config", str(config)]) == 0
    assert cli.main(["parse", "--config", str(config)]) == 0
    assert cli.main(["delex", "--treebank", str(toy), "--strip-only",
                     "--delex-output", f"{tmp_path}/gold_stripped.brackets"]) == 0
    assert cli.main(["eval", "--config", str(config),
                     "--gold-treebank", f"{tmp_path}/gold_stripped.brackets",
                     "--pred-treebank", f"{tmp_path}/pred.brackets"]) == 0
    summary = capsys.readouterr().out.strip().splitlines()[-1]
    fscore = float(summary.split()[2])
    assert fscore >= 99.00


def test_eval_gold_vs_itself(tmp_path, capsys):
    toy = data.toy_treebank_path()
    assert cli.main(["eval", "--gold-treebank", str(toy),
                     "--pred-treebank", str(toy),
                     "--report", f"{tmp_path}/self.report"]) == 0
    assert capsys.readouterr().out.strip().splitlines()[-1] == \
        "100.00 100.00 100.00 100.00"


def test_eval_length_mismatch_exits_2(tmp_path, capsys):
    toy = data.toy_treebank_path()
    short = tmp_path / "short.brackets"
    write_treebank(read_treebank(toy)[:10], short)
    code = cli.main(["eval", "--gold-treebank", str(toy),
                     "--pred-treebank", str(short),
                     "--report", f"{tmp_path}/x.report"])
    assert code == 2
    assert "stage=eval" in capsys.readouterr().err


def test_missing_treebank_exits_2(tmp_path, capsys):
    code = cli.main(["train", "--train-treebank", f"{tmp_path}/nope.brackets",
                     "--checkpoint", f"{tmp_path}/out.ckpt"])
    assert code == 2
    assert "stage=load" in capsys.readouterr().err


def test_lexicalized_mode_distinct_checkpoint(tmp_path):
    config = write_config(tmp_path)
    assert cli.main(["train", "--config", str(config)]) == 0
    delexicalized = (tmp_path / "out/parser.ckpt").read_bytes()
    assert cli.main(["train", "--config", str(config), "--mode", "lexicalized"]) == 0
    lexicalized = (tmp_path / "out/parser.ckpt").read_bytes()
    assert delexicalized != lexicalized
    header = json.loads(lexicalized[16:16 + int.from_bytes(lexicalized[8:16], "little")])
    assert "der" in header["pos_vocab"]  # word types, not tags


def test_lexicalized_end_to_end_quality(tmp_path, capsys):
    config = write_config(tmp_path, extra="")
    assert cli.main(["train", "--config", str(config),
                     "--mode", "lexicalized"]) == 0
    # dev selection stays meaningful: punctuation matches after the output
    # preterminals are restored from the reference tags
    final = (tmp_path / "out/train.log").read_text().splitlines()[-1]
    assert float(final.split("\t")[2]) > 0.0
    assert cli.main(["parse", "--config", str(config),
                     "--mode", "lexicalized"]) == 0
    predictions = read_treebank(tmp_path / "out/pred.brackets")
    gold = read_treebank(data.toy_treebank_path())
    assert len(predictions) == len(gold)
    for g, p in zip(gold, predictions):
        assert p.leaf_tokens() == g.leaf_tokens()
        assert [q.label for q in p.preterminals()] == \
            [ExtendedTag.parse(q.label).pos for q in g.preterminals()]


def test_no_morph_flag_changes_parser_input(tmp_path):
    config = write_config(tmp_path)
    assert cli.main(["train", "--config", str(config), "--no-morph"]) == 0
    assert cli.main(["parse", "--config", str(config), "--no-morph"]) == 0
    predictions = read_treebank(tmp_path / "out/pred.brackets")
    assert len(predictions) == 50
    header_bytes = (tmp_path / "out/parser.ckpt").read_bytes()
    header = json.loads(header_bytes[16:16 + int.from_bytes(header_bytes[8:16], "little")])
    assert header["feature_vocab"] == ["<UNK>"]


def test_tag_train_and_apply(tmp_path):
    corpus = tmp_path / "train.tags"
    corpus.write_text("der\tART.Nom\nMann\tNN.Nom\nlacht\tVVFIN\n\n"
                      "die\tART.Akk\nFrau\tNN.Akk\n\n", encoding="utf-8")
    tokens = tmp_path / "raw.txt"
    tokens.write_text("der Mann lacht\ndie Frau\n", encoding="utf-8")
    assert cli.main(["tag", "--train-corpus", str(corpus),
                     "--tagger-model", f"{tmp_path}/tagger.txt",
                     "--tokens", str(tokens),
                     "--tagged-output", f"{tmp_path}/out.tags"]) == 0
    sentences = read_tagged_corpus_file(tmp_path / "out.tags")
    assert [len(s) for s in sentences] == [3, 2]
    assert sentences[0].tags[0].serialized() == "ART.Nom"
    # one manifest, named after the last output
    assert not (tmp_path / "tagger.txt.manifest").exists()
    manifest = json.loads((tmp_path / "out.tags.manifest").read_text())
    assert manifest["outputs"] == [f"{tmp_path}/tagger.txt", f"{tmp_path}/out.tags"]
    assert sorted(manifest["inputs"]) == ["tokens", "train_corpus"]


def test_map_tags_roundtrip(tmp_path):
    corpus = tmp_path / "hist.tags"
    corpus.write_text("diu\tDDART.Nom.Sg.Fem\nfrouwe\tNA.Nom.Sg.Fem\n\n",
                      encoding="utf-8")
    assert cli.main(["map-tags", "--tagged-corpus", str(corpus),
                     "--tagged-output", f"{tmp_path}/mapped.tags"]) == 0
    mapped = read_tagged_corpus_file(tmp_path / "mapped.tags")
    assert mapped[0].tags[0].serialized() == "ART.Nom.Sg.Fem"
    assert mapped[0].tags[1].serialized() == "NN.Nom.Sg.Fem"


def test_delex_treebank_and_strip_only(tmp_path):
    toy = data.toy_treebank_path()
    assert cli.main(["delex", "--treebank", str(toy),
                     "--delex-output", f"{tmp_path}/delexed.brackets"]) == 0
    delexed = read_treebank(tmp_path / "delexed.brackets")
    for tree in delexed:
        for pret in tree.preterminals():
            token = pret.children[0].token
            assert token == pret.label or token.startswith(pret.label + ".")
    assert cli.main(["delex", "--treebank", str(toy), "--strip-only",
                     "--delex-output", f"{tmp_path}/stripped.brackets"]) == 0
    stripped = read_treebank(tmp_path / "stripped.brackets")
    assert stripped[0].leaf_tokens() == read_treebank(toy)[0].leaf_tokens()


def test_delex_tagged_corpus(tmp_path):
    corpus = tmp_path / "x.tags"
    corpus.write_text("a\tNN.Nom\nb\tVVFIN\n\n", encoding="utf-8")
    assert cli.main(["delex", "--tagged-corpus", str(corpus),
                     "--delex-output", f"{tmp_path}/out.txt"]) == 0
    assert (tmp_path / "out.txt").read_text() == "NN.Nom VVFIN\n"


def test_filter_command(tmp_path):
    trees = [parse_bracketed("(S (NN Tag) (NN Nacht))")[0],
             parse_bracketed("(S (FM laudamus) (FM te) (NN x))")[0],
             parse_bracketed("(S (NN kurz))")[0]]
    source = tmp_path / "raw.brackets"
    write_treebank(trees, source)
    lexicon = tmp_path / "latin.txt"
    lexicon.write_text("laudamus\nte\n", encoding="utf-8")
    assert cli.main(["filter", "--treebank", str(source),
                     "--latin-lexicon", str(lexicon),
                     "--filtered-treebank", f"{tmp_path}/kept.brackets",
                     "--filter-report", f"{tmp_path}/filter.report"]) == 0
    kept = read_treebank(tmp_path / "kept.brackets")
    assert len(kept) == 1
    report = (tmp_path / "filter.report").read_text().splitlines()
    assert len(report) == 2
    assert not (tmp_path / "filter.report.manifest").exists()
    manifest = json.loads((tmp_path / "kept.brackets.manifest").read_text())
    assert manifest["outputs"] == [f"{tmp_path}/kept.brackets", f"{tmp_path}/filter.report"]


# a command run whose second output's manifest name is taken by a
# directory: only the anchor output gets a manifest, so the run succeeds
SECOND_OUTPUTS = {
    "tag": (["tag", "--train-corpus", "{corpus}", "--tagger-model", "{tmp}/tagger.txt",
             "--tokens", "{tokens}", "--tagged-output", "{tmp}/out.tags"],
            "{tmp}/tagger.txt", "{tmp}/out.tags"),
    "train": (["train", "--config", "{config}", "--train-log", "{tmp}/run.log"],
              "{tmp}/run.log", "{tmp}/out/parser.ckpt"),
    "filter": (["filter", "--treebank", "{toy}", "--filtered-treebank", "{tmp}/kept.brackets",
                "--filter-report", "{tmp}/filter.report"],
               "{tmp}/filter.report", "{tmp}/kept.brackets"),
}


@pytest.mark.parametrize("case", SECOND_OUTPUTS)
def test_only_the_anchor_manifest_path_is_checked(tmp_path, case):
    argv, second, anchor = SECOND_OUTPUTS[case]
    corpus = tmp_path / "train.tags"
    corpus.write_text("der\tART.Nom\nMann\tNN.Nom\n\n", encoding="utf-8")
    tokens = tmp_path / "raw.txt"
    tokens.write_text("der Mann\n", encoding="utf-8")
    slots = {"tmp": tmp_path, "corpus": corpus, "tokens": tokens,
             "config": write_config(tmp_path), "toy": data.toy_treebank_path()}
    blocked = Path(second.format(**slots) + ".manifest")
    blocked.mkdir()
    assert cli.main([arg.format(**slots) for arg in argv]) == 0
    assert Path(second.format(**slots)).is_file() and blocked.is_dir()
    assert Path(anchor.format(**slots) + ".manifest").is_file()


def test_parse_writes_a_fallback_tree_for_each_sentence_it_cannot_parse(tmp_path, capsys):
    # the checkpoint's max_len is 32: the 40-token sentence cannot be parsed
    long_tokens = [f"w{k}" for k in range(40)]
    corpus = tmp_path / "in.tags"
    corpus.write_text("a\tNN\nb\tNN\n\n" + "".join(f"{w}\tNN\n" for w in long_tokens),
                      encoding="utf-8")
    gold = tmp_path / "gold.brackets"
    gold.write_text("(S (NN a) (NN b))\n(S " + " ".join(f"(NN {w})" for w in long_tokens)
                    + ")\n", encoding="utf-8")
    pred = tmp_path / "pred.brackets"
    assert cli.main(["parse", "--no-mapping", "--tagged-corpus", str(corpus),
                     "--checkpoint", str(tiny_checkpoint(tmp_path / "ok.ckpt")),
                     "--parse-output", str(pred)]) == 0
    assert f"parsed 1/2 sentences (1 failures) -> {pred}" in capsys.readouterr().out
    lines = pred.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2
    assert lines[1] == "(FAILED " + " ".join(f"(NN {w})" for w in long_tokens) + ")"
    # aligned with its input, so eval scores it: one bracket, none correct
    assert cli.main(["eval", "--gold-treebank", str(gold), "--pred-treebank", str(pred),
                     "--report", f"{tmp_path}/eval.report"]) == 0
    assert (tmp_path / "eval.report").read_text().splitlines()[-1] == "1\t1\t1\t0\t0"


def test_parse_with_a_non_finite_boundary_writes_a_fallback_tree_per_line(tmp_path, capsys):
    checkpoint = tiny_checkpoint(tmp_path / "ok.ckpt")
    params = model.load_checkpoint(checkpoint)
    params.tensors["boundary"][1] = float("nan")
    model.save_checkpoint(params, checkpoint)
    corpus = tmp_path / "in.tags"
    corpus.write_text("a\tNN\n\nb\tNN\nc\tNN\n\nd\tNN\ne\tNN\nf\tNN\n\n",
                      encoding="utf-8")
    pred = tmp_path / "pred.brackets"
    assert cli.main(["parse", "--no-mapping", "--tagged-corpus", str(corpus),
                     "--checkpoint", str(checkpoint), "--parse-output", str(pred)]) == 0
    assert f"parsed 0/3 sentences (3 failures) -> {pred}" in capsys.readouterr().out
    assert pred.read_text(encoding="utf-8").splitlines() == [
        "(FAILED (NN a))", "(FAILED (NN b) (NN c))", "(FAILED (NN d) (NN e) (NN f))"]


def test_gold_tags_from_an_ill_formed_tree_exit_2_at_transform(tmp_path, capsys):
    gold = tmp_path / "gold.brackets"
    gold.write_text("(S (NN a) (NN b))\n(S (NN a b))\n", encoding="utf-8")
    code = cli.main(["parse", "--use-gold-tags", "--gold-treebank", str(gold),
                     "--checkpoint", str(tiny_checkpoint(tmp_path / "ok.ckpt")),
                     "--parse-output", f"{tmp_path}/pred.brackets"])
    assert code == 2
    assert ("error: stage=transform: tree 1: gold tags need one preterminal per leaf: "
            "preterminal 'NN' has 2 leaves") in capsys.readouterr().err


def test_manifest_contents(tmp_path):
    config = write_config(tmp_path)
    assert cli.main(["train", "--config", str(config)]) == 0
    manifest = json.loads((tmp_path / "out/parser.ckpt.manifest").read_text())
    assert manifest["command"] == "train"
    assert manifest["config"]["mode"] == "delexicalized"
    entry = manifest["inputs"]["train_treebank"]
    assert len(entry["sha256"]) == 64
    assert any(path.endswith("parser.ckpt") for path in manifest["outputs"])


def test_seed_flag_overrides_all_seeds(tmp_path):
    config = write_config(tmp_path)
    assert cli.main(["train", "--config", str(config), "--seed", "99"]) == 0
    manifest = json.loads((tmp_path / "out/parser.ckpt.manifest").read_text())
    assert manifest["config"]["model"]["seed"] == 99
    assert manifest["config"]["train"]["seed"] == 99


@pytest.mark.parametrize("section, key, value", [
    ("train", "beta1", "1"), ("train", "beta1", "-0.1"), ("train", "beta2", "2"),
    ("train", "eps", "-1"), ("train", "eps", "nan"), ("train", "checkpoint_every", "-1"),
    ("train", "seed", "-1"), ("model", "seed", "-1")])
def test_out_of_range_setting_exits_2_at_load_writing_no_checkpoint(tmp_path, capsys,
                                                                    section, key, value):
    config = write_config(tmp_path)
    text = config.read_text().replace(f"[{section}]\n", f"[{section}]\n{key} = {value}\n")
    config.write_text(text.replace("[paths]\n", f"[paths]\ncheckpoint_dir = {tmp_path}/ckpts\n"))
    assert cli.main(["train", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: stage=load: ") and key in err, err
    assert not list(tmp_path.rglob("*.ckpt"))


def test_checkpoint_every_without_a_checkpoint_dir_exits_2_at_load(tmp_path, capsys):
    config = write_config(tmp_path)
    config.write_text(config.read_text().replace("[train]\n", "[train]\ncheckpoint_every = 1\n"))
    assert cli.main(["train", "--config", str(config)]) == 2
    assert capsys.readouterr().err == ("error: stage=load: checkpoint_every needs a "
                                       "checkpoint_dir path\n")
    assert not (tmp_path / "out").exists()
    # other commands sharing the config are unaffected
    assert cli.main(["eval", "--config", str(config), "--pred-treebank",
                     str(data.toy_treebank_path())]) == 0


@pytest.mark.parametrize("key, value", [("epochs", "0"), ("epochs", "-3"), ("seed", "-1")])
def test_out_of_range_tagger_setting_exits_2_at_load_writing_no_tagger(tmp_path, capsys,
                                                                       key, value):
    corpus = tmp_path / "train.tags"
    corpus.write_text("der\tART.Nom\nMann\tNN.Nom\n\n", encoding="utf-8")
    config = tmp_path / "run.ini"
    config.write_text(f"[tagger]\n{key} = {value}\n", encoding="utf-8")
    assert cli.main(["tag", "--config", str(config), "--train-corpus", str(corpus),
                     "--tagger-model", f"{tmp_path}/tagger.txt"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: stage=load: [tagger] ") and key in err, err
    assert not (tmp_path / "tagger.txt").exists()


@pytest.mark.parametrize("value", ["", "a b"])
@pytest.mark.parametrize("command", ["map-tags", "parse"])
def test_bad_composite_separator_exits_2_at_load(tmp_path, capsys, command, value):
    corpus = tmp_path / "hist.tags"
    corpus.write_text("diu\tDDART.Nom\nfrouwe\tNA|NE.Nom\n\n", encoding="utf-8")
    config = tmp_path / "run.ini"
    config.write_text(f"[mode]\ncomposite_separator = {value}\n", encoding="utf-8")
    output = tmp_path / "out.txt"
    argv = {"map-tags": ["--tagged-output", str(output)],
            "parse": ["--checkpoint", str(tiny_checkpoint(tmp_path / "ok.ckpt")),
                      "--parse-output", str(output)]}[command]
    assert cli.main([command, "--config", str(config), "--tagged-corpus", str(corpus)]
                    + argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: stage=load: composite_separator ") and repr(value) in err
    assert not output.exists()


@pytest.mark.parametrize("separator", ["|", "+"])
@pytest.mark.parametrize("target", ["NN|Y", "NN+Y"])
def test_tag_map_targets_may_not_hold_the_configured_composite_separator(tmp_path, capsys,
                                                                          separator, target):
    corpus = tmp_path / "hist.tags"
    corpus.write_text("frouwe\tNA\n\n", encoding="utf-8")
    table = tmp_path / "hist.tagmap"
    table.write_text(f"[pos]\nNA\t{target}\n", encoding="utf-8")
    config = tmp_path / "run.ini"
    config.write_text(f"[mode]\ncomposite_separator = {separator}\n", encoding="utf-8")
    output = tmp_path / "mapped.tags"
    code = cli.main(["map-tags", "--config", str(config), "--tagged-corpus", str(corpus),
                     "--tag-map", str(table), "--tagged-output", str(output)])
    if separator in target:
        assert code == 2
        assert capsys.readouterr().err == (f"error: stage=load: {table}: target tag "
                                           f"{target!r} contains {separator!r} (line 2)\n")
        assert not output.exists()
    else:
        assert code == 0
        assert output.read_text(encoding="utf-8") == f"frouwe\t{target}\n\n"


def test_bundled_tag_map_holding_the_composite_separator_exits_2_at_load(tmp_path, capsys):
    corpus = tmp_path / "hist.tags"
    corpus.write_text("frouwe\tNA\n\n", encoding="utf-8")
    config = tmp_path / "run.ini"
    config.write_text("[mode]\ncomposite_separator = A\n", encoding="utf-8")
    output = tmp_path / "mapped.tags"
    assert cli.main(["map-tags", "--config", str(config), "--tagged-corpus", str(corpus),
                     "--tagged-output", str(output)]) == 2
    assert capsys.readouterr().err == ("error: stage=load: bundled tag map: target tag "
                                       "'CARD' contains 'A' (line 4)\n")
    assert not output.exists()


def test_train_makes_no_checkpoint_dir_without_checkpoint_every(tmp_path):
    config = write_config(tmp_path)
    checkpoints = tmp_path / "ckpts"
    assert cli.main(["train", "--config", str(config),
                     "--checkpoint-dir", str(checkpoints)]) == 0
    assert (tmp_path / "out/parser.ckpt").exists() and not checkpoints.exists()
    empty = tmp_path / "empty.brackets"
    empty.write_text("")
    assert cli.main(["train", "--config", str(config), "--checkpoint-dir", str(checkpoints),
                     "--dev-treebank", str(empty)]) == 2
    assert not checkpoints.exists()


def test_empty_dev_treebank_exits_2_at_train(tmp_path, capsys):
    config = write_config(tmp_path)
    empty = tmp_path / "empty.brackets"
    empty.write_text("")
    assert cli.main(["train", "--config", str(config), "--dev-treebank", str(empty)]) == 2
    assert capsys.readouterr().err == "error: stage=train: empty dev set\n"
    assert not (tmp_path / "out/parser.ckpt").exists()


def test_mapping_is_identity_on_target_inventory(tmp_path):
    # toy treebank tags are already modern-inventory tags, so parsing with
    # and without mapping produces identical trees
    config = write_config(tmp_path)
    assert cli.main(["train", "--config", str(config)]) == 0
    assert cli.main(["parse", "--config", str(config)]) == 0
    mapped = (tmp_path / "out/pred.brackets").read_bytes()
    assert cli.main(["parse", "--config", str(config), "--no-mapping"]) == 0
    unmapped = (tmp_path / "out/pred.brackets").read_bytes()
    assert mapped == unmapped


def test_use_gold_tags_requires_gold_treebank(tmp_path, capsys):
    code = cli.main(["parse", "--use-gold-tags",
                     "--checkpoint", f"{tmp_path}/none.ckpt",
                     "--parse-output", f"{tmp_path}/out.brackets"])
    assert code == 2
    assert "stage=load" in capsys.readouterr().err


HASH_TREES = ("(S (NP (ART#Nom der) (NN#Nom Mann)) (VVFIN#Sg lacht))\n"
              "(S (NP (ART#Akk die) (NN#Akk Frau)) (VVFIN#Pl lachen))\n")
HASH_TAGS = ("der\tART#Nom\nMann\tNN#Nom\nlacht\tVVFIN#3.Sg\n\n"
             "die\tART#Akk\nFrau\tNN#Akk\nlachen\tVVFIN#Pl\n\n")


def test_morph_separator_reaches_training_tagging_and_parsing(tmp_path, monkeypatch):
    (tmp_path / "train.brackets").write_text(HASH_TREES, encoding="utf-8")
    (tmp_path / "train.tags").write_text(HASH_TAGS, encoding="utf-8")
    (tmp_path / "raw.txt").write_text("der Mann lacht\n", encoding="utf-8")
    config = tmp_path / "run.ini"
    config.write_text(
        "[paths]\n"
        f"train_treebank = {tmp_path}/train.brackets\n"
        f"checkpoint = {tmp_path}/parser.ckpt\n"
        f"train_corpus = {tmp_path}/train.tags\n"
        f"tagger_model = {tmp_path}/tagger.txt\n"
        f"tokens = {tmp_path}/raw.txt\n"
        f"tagged_output = {tmp_path}/out.tags\n"
        f"parse_output = {tmp_path}/pred.brackets\n"
        "[transform]\nmorph_separator = #\n" + FAST_TRAIN + TINY_MODEL)
    assert cli.main(["train", "--config", str(config)]) == 0
    raw = (tmp_path / "parser.ckpt").read_bytes()
    header = json.loads(raw[16:16 + int.from_bytes(raw[8:16], "little")])
    assert header["pos_vocab"] == ["<UNK>", "ART", "NN", "VVFIN"]
    assert header["feature_vocab"] == ["<UNK>", "Akk", "Nom", "Pl", "Sg"]

    assert cli.main(["tag", "--config", str(config)]) == 0
    assert (tmp_path / "out.tags").read_text(encoding="utf-8") == \
        "der\tART#Nom\nMann\tNN#Nom\nlacht\tVVFIN#3.Sg\n\n"

    seen = []
    parse_corpus = trainer.parse_corpus

    def spy(params, sentences):
        seen.extend(sentences)
        return parse_corpus(params, sentences)

    monkeypatch.setattr(trainer, "parse_corpus", spy)
    assert cli.main(["parse", "--config", str(config), "--no-mapping"]) == 0
    assert seen == [[ExtendedTag("ART", ("Nom",)), ExtendedTag("NN", ("Nom",)),
                     ExtendedTag("VVFIN", ("3.Sg",))]]
    pred = read_treebank(tmp_path / "pred.brackets")[0]
    assert [p.label for p in pred.preterminals()] == ["ART", "NN", "VVFIN"]


def tiny_checkpoint(path):
    cfg = model.ModelConfig(model_dim=8, num_layers=1, num_heads=2, head_dim=3,
                            ff_dim=8, label_hidden_dim=6, max_len=32, seed=1)
    model.save_checkpoint(model.init_params(cfg, [model.UNK, "NN"], [model.UNK],
                                            [EMPTY_LABEL, "S"]), path)
    return path


def test_truncated_checkpoint_exits_2_at_load(tmp_path, capsys):
    blob = tiny_checkpoint(tmp_path / "full.ckpt").read_bytes()
    cut = tmp_path / "cut.ckpt"
    for offset in (10, 40, len(blob) // 2, len(blob) - 1):
        cut.write_bytes(blob[:offset])
        code = cli.main(["parse", "--use-gold-tags", "--checkpoint", str(cut),
                         "--gold-treebank", str(data.toy_treebank_path()),
                         "--parse-output", f"{tmp_path}/pred.brackets"])
        assert code == 2, offset
        assert "error: stage=load" in capsys.readouterr().err


def non_utf8_copy(tmp_path, text, name):
    """``text`` as UTF-8 with one 0xff byte inserted at byte offset 5."""
    raw = text.encode("utf-8")
    path = tmp_path / name
    path.write_bytes(raw[:5] + b"\xff" + raw[5:])
    return path


def test_non_utf8_treebank_exits_2(tmp_path, capsys):
    toy = data.toy_treebank_path()
    gold = non_utf8_copy(tmp_path, toy.read_text(encoding="utf-8"), "gold.brackets")
    code = cli.main(["eval", "--gold-treebank", str(gold), "--pred-treebank", str(toy),
                     "--report", f"{tmp_path}/x.report"])
    assert code == 2
    err = capsys.readouterr().err
    assert "error: stage=" in err and str(gold) in err and "byte offset 5" in err


def test_non_utf8_tagged_corpus_exits_2(tmp_path, capsys):
    corpus = non_utf8_copy(tmp_path, "diu\tDDART.Nom\nfrouwe\tNA.Nom\n\n", "hist.tags")
    code = cli.main(["map-tags", "--tagged-corpus", str(corpus),
                     "--tagged-output", f"{tmp_path}/mapped.tags"])
    assert code == 2
    err = capsys.readouterr().err
    assert "error: stage=" in err and str(corpus) in err and "byte offset 5" in err


def test_non_utf8_tag_map_exits_2(tmp_path, capsys):
    corpus = tmp_path / "hist.tags"
    corpus.write_text("diu\tDDART.Nom\n\n", encoding="utf-8")
    table = non_utf8_copy(tmp_path, "[pos]\nDDART\tART\n", "hist.tagmap")
    code = cli.main(["map-tags", "--tagged-corpus", str(corpus), "--tag-map", str(table),
                     "--tagged-output", f"{tmp_path}/mapped.tags"])
    assert code == 2
    err = capsys.readouterr().err
    assert "error: stage=" in err and str(table) in err and "byte offset 5" in err


def trained_tagger(tmp_path):
    corpus = tmp_path / "train.tags"
    corpus.write_text("der\tART.Nom\nMann\tNN.Nom\nlacht\tVVFIN\n\n", encoding="utf-8")
    model_path = tmp_path / "tagger.txt"
    assert cli.main(["tag", "--train-corpus", str(corpus),
                     "--tagger-model", str(model_path)]) == 0
    return model_path


def test_non_utf8_tokens_exit_2_in_tag_and_parse(tmp_path, capsys):
    tagger_model = trained_tagger(tmp_path)
    tokens = non_utf8_copy(tmp_path, "der Mann lacht\n", "raw.txt")
    code = cli.main(["tag", "--tagger-model", str(tagger_model), "--tokens", str(tokens),
                     "--tagged-output", f"{tmp_path}/out.tags"])
    assert code == 2
    err = capsys.readouterr().err
    assert "error: stage=" in err and str(tokens) in err and "byte offset 5" in err
    checkpoint = tiny_checkpoint(tmp_path / "parser.ckpt")
    code = cli.main(["parse", "--checkpoint", str(checkpoint), "--tokens", str(tokens),
                     "--tagger-model", str(tagger_model),
                     "--parse-output", f"{tmp_path}/pred.brackets"])
    assert code == 2
    err = capsys.readouterr().err
    assert "error: stage=" in err and str(tokens) in err and "byte offset 5" in err


def test_non_utf8_latin_lexicon_exits_2(tmp_path, capsys):
    source = tmp_path / "raw.brackets"
    write_treebank([parse_bracketed("(S (NN Tag) (NN Nacht))")[0]], source)
    lexicon = non_utf8_copy(tmp_path, "laudamus\nte\n", "latin.txt")
    code = cli.main(["filter", "--treebank", str(source), "--latin-lexicon", str(lexicon),
                     "--filtered-treebank", f"{tmp_path}/kept.brackets"])
    assert code == 2
    err = capsys.readouterr().err
    assert "error: stage=" in err and str(lexicon) in err and "byte offset 5" in err


def test_non_utf8_tagger_checkpoint_exits_2(tmp_path, capsys):
    saved = trained_tagger(tmp_path).read_text(encoding="utf-8")
    tagger_model = non_utf8_copy(tmp_path, saved, "bad_tagger.txt")
    tokens = tmp_path / "ok.txt"
    tokens.write_text("der Mann\n", encoding="utf-8")
    code = cli.main(["tag", "--tagger-model", str(tagger_model), "--tokens", str(tokens),
                     "--tagged-output", f"{tmp_path}/out.tags"])
    assert code == 2
    err = capsys.readouterr().err
    assert "error: stage=" in err and str(tagger_model) in err and "byte offset 5" in err


@pytest.mark.parametrize("field, value", [
    ("version", "one"), ("weight", "notanumber"), ("weight", "nan"), ("weight", "-inf"),
    ("weight", "1e999"), ("tag", "")])
def test_bad_tagger_checkpoint_value_exits_2_with_line(tmp_path, capsys, field, value):
    lines = trained_tagger(tmp_path).read_text(encoding="utf-8").splitlines()
    if field == "version":
        line = 1
        lines[0] = lines[0].split("\t")[0] + "\t" + value
    elif field == "tag":
        line = next(k for k, text in enumerate(lines, start=1) if text.startswith("tag\t"))
        lines[line - 1] = "tag\t" + value
    else:
        line = next(k for k, text in enumerate(lines, start=1) if text.count("\t") == 2)
        feature, tag, _ = lines[line - 1].split("\t")
        lines[line - 1] = f"{feature}\t{tag}\t{value}"
    bad = tmp_path / "bad_tagger.txt"
    bad.write_text("".join(text + "\n" for text in lines), encoding="utf-8")
    tokens = tmp_path / "ok.txt"
    tokens.write_text("der Mann\n", encoding="utf-8")
    code = cli.main(["tag", "--tagger-model", str(bad), "--tokens", str(tokens),
                     "--tagged-output", f"{tmp_path}/out.tags"])
    assert code == 2
    err = capsys.readouterr().err
    assert "error: stage=" in err and repr(value) in err and f"(line {line})" in err
    assert str(bad) in err


# one malformed file of each input kind, as bytes
MALFORMED = {
    "treebank": b"(S (NN a)\n",
    "tags": b"diu\tDDART.Nom\nfrouwe\n\n",
    "tagmap": b"[pos]\nDDART\n",
    "tokens": b"der \xffMann\n",
    "tagger": b"delexparse-tagger\t1\ntag\t\n",
    "checkpoint": b"not a checkpoint",
    "lexicon": b"laud\xffamus\n",
    "directory": None,  # a directory where a file belongs
}

# every command with each input kind it reads; {bad} is the malformed file
READS = {
    "train-treebank": ("treebank", ["train", "--train-treebank", "{bad}",
                                    "--checkpoint", "{out}/p.ckpt"]),
    "train-dev-treebank": ("treebank", ["train", "--train-treebank", "{toy}",
                                        "--dev-treebank", "{bad}",
                                        "--checkpoint", "{out}/p.ckpt"]),
    "eval-gold-treebank": ("treebank", ["eval", "--gold-treebank", "{bad}",
                                        "--pred-treebank", "{toy}", "--report", "{out}/r"]),
    "eval-pred-treebank": ("treebank", ["eval", "--gold-treebank", "{toy}",
                                        "--pred-treebank", "{bad}", "--report", "{out}/r"]),
    "delex-treebank": ("treebank", ["delex", "--treebank", "{bad}",
                                    "--delex-output", "{out}/d"]),
    "filter-treebank": ("treebank", ["filter", "--treebank", "{bad}",
                                     "--filtered-treebank", "{out}/f"]),
    "parse-gold-treebank": ("treebank", ["parse", "--use-gold-tags", "--gold-treebank",
                                         "{bad}", "--checkpoint", "{ckpt}",
                                         "--parse-output", "{out}/p"]),
    "map-tags-tags": ("tags", ["map-tags", "--tagged-corpus", "{bad}",
                               "--tagged-output", "{out}/m"]),
    "delex-tags": ("tags", ["delex", "--tagged-corpus", "{bad}", "--delex-output", "{out}/d"]),
    "parse-tags": ("tags", ["parse", "--tagged-corpus", "{bad}", "--checkpoint", "{ckpt}",
                            "--parse-output", "{out}/p"]),
    "tag-train-corpus": ("tags", ["tag", "--train-corpus", "{bad}",
                                  "--tagger-model", "{out}/t"]),
    "parse-tagmap": ("tagmap", ["parse", "--tagged-corpus", "{tags}", "--tag-map", "{bad}",
                                "--checkpoint", "{ckpt}", "--parse-output", "{out}/p"]),
    "map-tags-tagmap": ("tagmap", ["map-tags", "--tagged-corpus", "{tags}",
                                   "--tag-map", "{bad}", "--tagged-output", "{out}/m"]),
    "tag-tokens": ("tokens", ["tag", "--tagger-model", "{tagger}", "--tokens", "{bad}",
                              "--tagged-output", "{out}/o"]),
    "parse-tokens": ("tokens", ["parse", "--tokens", "{bad}", "--tagger-model", "{tagger}",
                                "--checkpoint", "{ckpt}", "--parse-output", "{out}/p"]),
    "tag-tagger": ("tagger", ["tag", "--tagger-model", "{bad}", "--tokens", "{tokens}",
                              "--tagged-output", "{out}/o"]),
    "parse-tagger": ("tagger", ["parse", "--tokens", "{tokens}", "--tagger-model", "{bad}",
                                "--checkpoint", "{ckpt}", "--parse-output", "{out}/p"]),
    "parse-checkpoint": ("checkpoint", ["parse", "--use-gold-tags", "--gold-treebank",
                                        "{toy}", "--checkpoint", "{bad}",
                                        "--parse-output", "{out}/p"]),
    "filter-lexicon": ("lexicon", ["filter", "--treebank", "{toy}", "--latin-lexicon",
                                   "{bad}", "--filtered-treebank", "{out}/f"]),
    "eval-directory": ("directory", ["eval", "--gold-treebank", "{bad}",
                                     "--pred-treebank", "{bad}", "--report", "{out}/r"]),
    "map-tags-directory": ("directory", ["map-tags", "--tagged-corpus", "{bad}",
                                         "--tagged-output", "{out}/m"]),
    "parse-checkpoint-directory": ("directory", ["parse", "--use-gold-tags",
                                                 "--gold-treebank", "{toy}",
                                                 "--checkpoint", "{bad}",
                                                 "--parse-output", "{out}/p"]),
}


@pytest.mark.parametrize("case", READS)
def test_malformed_input_names_its_file_once_at_load(tmp_path, capsys, case):
    kind, argv = READS[case]
    bad = tmp_path / f"bad.{kind}"
    if MALFORMED[kind] is None:
        bad.mkdir()
    else:
        bad.write_bytes(MALFORMED[kind])
    tags = tmp_path / "ok.tags"
    tags.write_text("diu\tDDART.Nom\nfrouwe\tNA.Nom\n\n", encoding="utf-8")
    tokens = tmp_path / "ok.txt"
    tokens.write_text("der Mann\n", encoding="utf-8")
    slots = {"bad": bad, "out": tmp_path / "out", "toy": data.toy_treebank_path(),
             "tags": tags, "tokens": tokens, "ckpt": tiny_checkpoint(tmp_path / "ok.ckpt"),
             "tagger": trained_tagger(tmp_path)}
    capsys.readouterr()
    code = cli.main([arg.format(**slots) for arg in argv])
    err = capsys.readouterr().err
    assert code == 2, err
    assert f"error: stage=load: {bad}: " in err and err.count(str(bad)) == 1, err
    assert "Traceback" not in err


def test_gold_tree_of_traces_exits_2_at_transform(tmp_path, capsys):
    gold = tmp_path / "gold.brackets"
    gold.write_text("(S (-NONE- *T*-1))\n", encoding="utf-8")
    code = cli.main(["parse", "--use-gold-tags", "--gold-treebank", str(gold),
                     "--checkpoint", str(tiny_checkpoint(tmp_path / "ok.ckpt")),
                     "--parse-output", f"{tmp_path}/pred.brackets"])
    assert code == 2
    assert "error: stage=transform: tree 0: " in capsys.readouterr().err


# output paths that cannot become files, with the work each command must
# not start: {dir} is an existing directory, {file} a regular file, and
# {report} a free name whose manifest name is taken by a directory
WRITES = {
    "eval-report": (["eval", "--gold-treebank", "{toy}", "--pred-treebank", "{toy}",
                     "--report", "{dir}"], "{dir}", (evalb, "score_corpus_detailed")),
    "eval-manifest": (["eval", "--gold-treebank", "{toy}", "--pred-treebank", "{toy}",
                       "--report", "{report}"], "{report}.manifest",
                      (evalb, "score_corpus_detailed")),
    "delex-output": (["delex", "--treebank", "{toy}", "--delex-output", "{file}/out"],
                     "{file}/out", (transform, "strip_annotations")),
    "train-checkpoint": (["train", "--train-treebank", "{toy}", "--checkpoint", "{dir}"],
                         "{dir}", (trainer, "train")),
    "parse-output": (["parse", "--use-gold-tags", "--gold-treebank", "{toy}",
                      "--checkpoint", "{ckpt}", "--parse-output", "{dir}"],
                     "{dir}", (trainer, "parse_corpus")),
}


@pytest.mark.parametrize("case", WRITES)
def test_unwritable_output_exits_2_at_load_before_any_work(tmp_path, capsys, monkeypatch,
                                                           case):
    argv, output, (module, work) = WRITES[case]
    (tmp_path / "adir").mkdir()
    (tmp_path / "afile").write_text("x\n", encoding="utf-8")
    (tmp_path / "r.report.manifest").mkdir()
    slots = {"dir": tmp_path / "adir", "file": tmp_path / "afile", "report": tmp_path / "r.report",
             "toy": data.toy_treebank_path(), "ckpt": tiny_checkpoint(tmp_path / "ok.ckpt")}

    def forbidden(*args, **kwargs):
        raise AssertionError(f"{work} ran before the output path was checked")

    monkeypatch.setattr(module, work, forbidden)
    capsys.readouterr()
    code = cli.main([arg.format(**slots) for arg in argv])
    err = capsys.readouterr().err
    path = output.format(**slots)
    assert code == 2, err
    assert f"error: stage=load: {path}: " in err and err.count(path) == 1, err
    assert "Traceback" not in err


# one failing write of every file a command writes, each after the work is
# done: {full} is a name linked to /dev/full, where a write fails with
# ENOSPC; so is {out}/r.report.manifest; {out}/ck/epoch_0002.ckpt is a
# directory
FAILED_WRITES = {
    "train-checkpoint": (["train", "--config", "{ini}", "--checkpoint", "{full}",
                          "--train-log", "{out}/p.log", "--checkpoint-dir", "{out}/every"],
                         "{full}", errno.ENOSPC),
    "train-log": (["train", "--config", "{ini}", "--checkpoint", "{out}/p.ckpt",
                   "--train-log", "{full}", "--checkpoint-dir", "{out}/every"],
                  "{full}", errno.ENOSPC),
    "train-intermediate-checkpoint": (["train", "--config", "{ini}", "--checkpoint",
                                       "{out}/p.ckpt", "--checkpoint-dir", "{out}/ck"],
                                      "{out}/ck/epoch_0002.ckpt", errno.EISDIR),
    "parse-output": (["parse", "--tagged-corpus", "{tags}", "--checkpoint", "{ckpt}",
                      "--parse-output", "{full}"], "{full}", errno.ENOSPC),
    "eval-report": (["eval", "--gold-treebank", "{toy}", "--pred-treebank", "{toy}",
                     "--report", "{full}"], "{full}", errno.ENOSPC),
    "eval-manifest": (["eval", "--gold-treebank", "{toy}", "--pred-treebank", "{toy}",
                       "--report", "{out}/r.report"], "{out}/r.report.manifest", errno.ENOSPC),
    "tag-model": (["tag", "--train-corpus", "{tags}", "--tagger-model", "{full}"],
                  "{full}", errno.ENOSPC),
    "tag-output": (["tag", "--tagger-model", "{tagger}", "--tokens", "{tokens}",
                    "--tagged-output", "{full}"], "{full}", errno.ENOSPC),
    "map-tags-output": (["map-tags", "--tagged-corpus", "{tags}", "--tagged-output", "{full}"],
                        "{full}", errno.ENOSPC),
    "delex-treebank-output": (["delex", "--treebank", "{toy}", "--delex-output", "{full}"],
                              "{full}", errno.ENOSPC),
    "delex-tags-output": (["delex", "--tagged-corpus", "{tags}", "--delex-output", "{full}"],
                          "{full}", errno.ENOSPC),
    "filter-treebank": (["filter", "--treebank", "{toy}", "--filtered-treebank", "{full}",
                         "--filter-report", "{out}/f.report"], "{full}", errno.ENOSPC),
    "filter-report": (["filter", "--treebank", "{short}", "--filtered-treebank", "{out}/f",
                       "--filter-report", "{full}"], "{full}", errno.ENOSPC),
}


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
@pytest.mark.parametrize("case", FAILED_WRITES)
def test_failed_write_exits_2_at_write_naming_its_path_once(tmp_path, capsys, case):
    argv, failed, code = FAILED_WRITES[case]
    out = tmp_path / "out"
    (out / "ck" / "epoch_0002.ckpt").mkdir(parents=True)
    for link in (tmp_path / "full", out / "r.report.manifest"):
        link.symlink_to("/dev/full")
    ini = tmp_path / "run.ini"
    ini.write_text(f"[paths]\ntrain_treebank = {data.toy_treebank_path()}\n"
                   "[train]\nepochs = 2\ncheckpoint_every = 2\n" + TINY_MODEL,
                   encoding="utf-8")
    tags = tmp_path / "ok.tags"
    tags.write_text("diu\tDDART.Nom\nfrouwe\tNA.Nom\n\n", encoding="utf-8")
    tokens = tmp_path / "ok.txt"
    tokens.write_text("der Mann\n", encoding="utf-8")
    short = tmp_path / "short.brackets"  # a one-leaf tree, which filter reports
    short.write_text("(S (NN kurz))\n", encoding="utf-8")
    slots = {"full": tmp_path / "full", "out": out, "ini": ini, "tags": tags,
             "tokens": tokens, "short": short, "toy": data.toy_treebank_path(),
             "ckpt": tiny_checkpoint(tmp_path / "ok.ckpt"), "tagger": trained_tagger(tmp_path)}
    capsys.readouterr()
    assert cli.main([arg.format(**slots) for arg in argv]) == 2
    err = capsys.readouterr().err
    path = failed.format(**slots)
    assert err.splitlines()[-1] == f"error: stage=write: {path}: {os.strerror(code)}", err
    assert err.count(path) == 1 and "Traceback" not in err, err
