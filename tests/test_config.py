import configparser
import functools
import json
import re
from dataclasses import asdict, fields

import pytest

from delexparse import cli
from delexparse.config import _MODE_KEYS, PATH_KEYS, load_pipeline_config, write_example_config
from delexparse.evalb import EvalConfig
from delexparse.model import PAPER_MODEL, ModelConfig
from delexparse.trainer import PAPER_TRAIN, TrainConfig
from delexparse.transform import TransformConfig


def test_defaults_are_desk_preset():
    cfg = load_pipeline_config()
    assert cfg.preset == "desk"
    assert cfg.model.model_dim == 128
    assert cfg.train.epochs == 200
    assert cfg.mode == "delexicalized"
    assert cfg.apply_mapping and cfg.transform.keep_morphology and not cfg.use_gold_tags


def test_paper_preset_dimensions():
    cfg = load_pipeline_config(overrides={"preset": "paper"})
    assert cfg.model.model_dim == 1024
    assert cfg.model.num_layers == 8
    assert cfg.model.num_heads == 8
    assert cfg.model.head_dim == 64
    assert cfg.model.ff_dim == 2048
    assert cfg.model.max_len == 512
    assert cfg.train.batch_size == 32
    assert cfg.train.learning_rate == 5e-5


def test_file_values_override_preset(tmp_path):
    config = tmp_path / "run.ini"
    config.write_text("[mode]\npreset = paper\n[model]\nnum_layers = 3\n"
                      "[train]\nepochs = 7\n", encoding="utf-8")
    cfg = load_pipeline_config(str(config))
    assert cfg.model.num_layers == 3
    assert cfg.model.model_dim == 1024  # untouched preset value
    assert cfg.train.epochs == 7


def test_flag_overrides_beat_file(tmp_path):
    config = tmp_path / "run.ini"
    config.write_text("[mode]\nmode = lexicalized\nkeep_morphology = true\n",
                      encoding="utf-8")
    cfg = load_pipeline_config(str(config),
                               overrides={"mode": "delexicalized",
                                          "keep_morphology": False})
    assert cfg.mode == "delexicalized"
    assert not cfg.transform.keep_morphology


def test_keep_morphology_has_one_home(tmp_path):
    config = tmp_path / "run.ini"
    config.write_text("[transform]\nkeep_morphology = false\n", encoding="utf-8")
    cfg = load_pipeline_config(str(config))
    assert cfg.transform.keep_morphology is False
    assert "keep_morphology" not in asdict(cfg)
    # precedence: [transform] < [mode] < command-line flag
    config.write_text("[transform]\nkeep_morphology = false\n"
                      "[mode]\nkeep_morphology = true\n", encoding="utf-8")
    assert load_pipeline_config(str(config)).transform.keep_morphology is True
    cfg = load_pipeline_config(str(config), overrides={"keep_morphology": False})
    assert cfg.transform.keep_morphology is False


def test_seed_override_reaches_all_components(tmp_path):
    cfg = load_pipeline_config(overrides={"seed": 123})
    assert cfg.model.seed == 123
    assert cfg.train.seed == 123
    assert cfg.tagger_seed == 123


def test_unknown_keys_rejected(tmp_path):
    config = tmp_path / "run.ini"
    config.write_text("[model]\nwidth = 4\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"unknown \[model\] key 'width'"):
        load_pipeline_config(str(config))
    config.write_text("[paths]\nbogus = x\n", encoding="utf-8")
    with pytest.raises(ValueError, match="unknown path key"):
        load_pipeline_config(str(config))


@pytest.mark.parametrize("section, needle", [
    ("[eval]\nfoo = 1\n", "'foo'"),
    ("[mode]\nkeep_morphlogy = false\n", "'keep_morphlogy'"),
    ("[tagger]\nepoch = 3\n", "'epoch'"),
    ("[eval]\nlabel_equivalences = SBAR=S PP\n", "'PP'"),
    ("[trian]\nepochs = 1\n", "[trian]"),
    ("[DEFAULT]\nepochs = 1\n", "[DEFAULT]"),
    ("[train]\nepochs = 1\n[train]\nepochs = 2\n", "already exists"),
    ("epochs = 1\n", "no section headers"),
    ("[train]\nfoo = 1\n", "unknown [train] key 'foo'"),
    ("[train]\nepochs = abc\n", "[train] epochs: invalid literal for int() with base 10: 'abc'"),
    ("[tagger]\nseed = 1.5\n", "[tagger] seed: invalid literal for int() with base 10: '1.5'"),
    ("[train]\nshuffle = maybe\n", "[train] shuffle: not a boolean: 'maybe'"),
    ("[mode]\nuse_gold_tags = sure\n", "[mode] use_gold_tags: not a boolean: 'sure'"),
    ("[model]\nmodel_dim = 3\n", "[model] model_dim must be positive and even, got 3"),
], ids=["eval-key", "mode-key", "tagger-key", "label-equivalence", "section",
        "default-section", "duplicate-section", "no-section", "train-key", "non-integer",
        "non-integer-tagger", "non-boolean", "non-boolean-mode", "model-range"])
def test_bad_section_keys_exit_2_at_load(tmp_path, capsys, section, needle):
    config = tmp_path / "run.ini"
    config.write_text(section, encoding="utf-8")
    code = cli.main(["eval", "--config", str(config)])
    assert code == 2
    err = capsys.readouterr().err
    assert "error: stage=load" in err and needle in err


def test_unknown_mode_and_preset_rejected():
    with pytest.raises(ValueError):
        load_pipeline_config(overrides={"mode": "bilexical"})
    with pytest.raises(ValueError):
        load_pipeline_config(overrides={"preset": "cluster"})


def test_use_gold_tags_requires_gold_path():
    with pytest.raises(ValueError, match="gold_treebank"):
        load_pipeline_config(overrides={"use_gold_tags": True})


def test_missing_config_file():
    with pytest.raises(FileNotFoundError):
        load_pipeline_config("/does/not/exist.ini")


def test_eval_section_parsing(tmp_path):
    config = tmp_path / "run.ini"
    config.write_text("[eval]\npunctuation_tags = $. PUNCT $%\n"
                      "ignore_labels = TOP\nlabel_equivalences = SBAR=S\n"
                      "include_root = false\n", encoding="utf-8")
    cfg = load_pipeline_config(str(config))
    assert cfg.eval.punctuation_tags == frozenset({"$.", "PUNCT", "$%"})
    assert cfg.eval.ignore_labels == frozenset({"TOP"})
    assert cfg.eval.label_equivalences == {"SBAR": "S"}
    assert not cfg.eval.include_root


def test_example_config_loads(tmp_path):
    path = tmp_path / "example.ini"
    write_example_config(path)
    cfg = load_pipeline_config(str(path))
    assert cfg.paths["train_treebank"] == "data/source.brackets"
    assert cfg.train.epochs == 200


def _uncommented(text: str) -> str:
    """A template with its commented-out ``key = value`` lines made live."""
    return re.sub(r"^# (\w+ =)", r"\1", text, flags=re.MULTILINE)


def test_example_config_lists_every_key_and_loads_to_the_defaults(tmp_path):
    path = tmp_path / "example.ini"
    write_example_config(path)
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    # [model] and [train] are written commented out: the preset governs them
    parser.read_string(_uncommented(path.read_text(encoding="utf-8")))
    components = {"model": ModelConfig, "train": TrainConfig, "transform": TransformConfig,
                  "eval": EvalConfig}
    # keep_morphology, a key of [mode] and [transform], is written once
    assert {name: set(parser[name]) for name in parser.sections()} == {
        "paths": PATH_KEYS, "mode": set(_MODE_KEYS) - {"keep_morphology"},
        "tagger": {"epochs", "seed"},
        **{name: {f.name for f in fields(cls)} for name, cls in components.items()}}
    live = tmp_path / "live.ini"
    live.write_text(_uncommented(path.read_text(encoding="utf-8")), encoding="utf-8")
    for template in (path, live):
        cfg = load_pipeline_config(str(template))
        assert asdict(cfg) == asdict(load_pipeline_config()) | {"paths": cfg.paths}
        assert sum(map(bool, cfg.paths.values())) == 9


def test_example_config_with_the_paper_preset_loads_the_paper_preset(tmp_path):
    path = tmp_path / "example.ini"
    write_example_config(path)
    text = path.read_text(encoding="utf-8")
    assert text.count("\npreset = desk\n") == 1
    path.write_text(text.replace("\npreset = desk\n", "\npreset = paper\n"), encoding="utf-8")
    cfg = load_pipeline_config(str(path))
    assert (cfg.preset, cfg.model, cfg.train) == ("paper", PAPER_MODEL, PAPER_TRAIN)


@pytest.mark.parametrize("kind", ["directory", "non-utf8", "missing"])
def test_unreadable_config_names_its_file_once_at_load(tmp_path, capsys, kind):
    config = tmp_path / "run.ini"
    if kind == "directory":
        config.mkdir()
    elif kind == "non-utf8":
        config.write_bytes(b"[train]\nepochs = \xff\n")
    code = cli.main(["eval", "--config", str(config)])
    err = capsys.readouterr().err
    assert code == 2, err
    assert f"error: stage=load: {config}: " in err and err.count(str(config)) == 1, err
    assert "Traceback" not in err


def _recorded_config(tmp_path, monkeypatch, file_text, flags):
    """The ``config`` that ``delex`` records, run on a config file and flags."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "in.tags").write_text("a\tNN.Nom\n\n", encoding="utf-8")
    (tmp_path / "run.ini").write_text(file_text, encoding="utf-8")
    assert cli.main(["delex", "--config", "run.ini", "--tagged-corpus", "in.tags",
                     "--delex-output", "out.txt", *flags]) == 0
    [manifest] = tmp_path.glob("*.manifest")
    return json.loads(manifest.read_text(encoding="utf-8"))["config"]


# a flag, a config file setting the same keys otherwise, and the values
# (by dotted path into the manifest's config) the flag must record
LAYERS = {
    "mode": (["--mode", "lexicalized"], "[mode]\nmode = delexicalized\n",
             {"mode": "lexicalized"}),
    "use-gold-tags": (["--use-gold-tags"],
                      "[mode]\nuse_gold_tags = false\n[paths]\ngold_treebank = g\n",
                      {"use_gold_tags": True}),
    "no-mapping": (["--no-mapping"], "[mode]\napply_mapping = true\n",
                   {"apply_mapping": False}),
    "no-morph": (["--no-morph"],
                 "[transform]\nkeep_morphology = true\n[mode]\nkeep_morphology = true\n",
                 {"transform.keep_morphology": False}),
    "seed": (["--seed", "7"], "[model]\nseed = 1\n[train]\nseed = 2\n[tagger]\nseed = 3\n",
             {"model.seed": 7, "train.seed": 7, "tagger_seed": 7}),
    "preset": (["--preset", "paper"], "[mode]\npreset = desk\n",
               {"preset": "paper", "model.model_dim": 1024}),
    "path": (["--delex-output", "flag.txt"], "[paths]\ndelex_output = file.txt\n",
             {"paths.delex_output": "flag.txt"}),
}


@pytest.mark.parametrize("case", LAYERS)
def test_every_flag_beats_its_file_key(tmp_path, monkeypatch, case):
    flags, file_text, expected = LAYERS[case]
    config = _recorded_config(tmp_path, monkeypatch, file_text, flags)
    for dotted, value in expected.items():
        assert functools.reduce(dict.__getitem__, dotted.split("."), config) == value, dotted


def test_manifest_records_every_field(tmp_path, monkeypatch):
    recorded = _recorded_config(tmp_path, monkeypatch, "[mode]\nmode = lexicalized\n",
                                ["--strip-only"])
    cfg = load_pipeline_config("run.ini", {"strip_only": True},
                               {"tagged_corpus": "in.tags", "delex_output": "out.txt"})
    assert recorded["strip_only"] is True
    assert recorded == json.loads(json.dumps(asdict(cfg), default=sorted))
