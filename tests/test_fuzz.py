"""Property tests: readers given generated input load it or reject it cleanly."""

import copy
import json
import tempfile
from dataclasses import fields
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from delexparse import cli, model, tagger
from delexparse.config import (_MODE_KEYS, _SECTIONS, PATH_KEYS, PipelineConfig,
                               load_pipeline_config)
from delexparse.evalb import EvalConfig
from delexparse.model import ModelConfig
from delexparse.trainer import TrainConfig
from delexparse.transform import EMPTY_LABEL, TransformConfig
from delexparse.treebank import (ExtendedTag, TaggedSentence, TagMapTable, Tree,
                                 TreebankFormatError, parse_bracketed, read_tag_map_file,
                                 read_tagged_corpus_file, read_treebank, write_tagged_corpus)
from oracles import recursive_scan_bracketed

# deterministic runs that leave no example database behind
FUZZ = settings(max_examples=300, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

SECTION_KEYS = {
    "paths": sorted(PATH_KEYS), "mode": _MODE_KEYS, "tagger": ("epochs", "seed"),
    **{name: [f.name for f in fields(cls)] for name, cls in (
        ("model", ModelConfig), ("train", TrainConfig), ("transform", TransformConfig),
        ("eval", EvalConfig))}}
VALUES = ("true", "false", "0", "1", "-3", "7", "0.5", "1e400", "nan", "", "paper", "desk",
          "lexicalized", "delexicalized", "adam", "sgd", ".", "-", "#", "SBAR=S", "SBAR=S PP",
          "$. $,", "%(x)s", "in.tags", "out.txt", "run.ini", "missing.brackets")

_values = st.one_of(st.sampled_from(VALUES), st.text(max_size=12))
# files of known sections and keys, files of any names, and raw bytes
_known = st.lists(st.sampled_from(_SECTIONS), unique=True, max_size=4).flatmap(
    lambda names: st.tuples(*(
        st.tuples(st.just(name),
                  st.dictionaries(st.sampled_from(SECTION_KEYS[name]), _values,
                                  max_size=4).map(dict.items))
        for name in names)))
_any = st.lists(st.tuples(st.text(max_size=8), st.lists(
    st.tuples(st.text(max_size=8), _values), max_size=4)), max_size=4)
config_files = st.one_of(
    st.one_of(_known, _any).map(lambda sections: "".join(
        f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in items)
        for name, items in sections).encode("utf-8")),
    st.binary(max_size=64))


@FUZZ
@given(data=config_files)
def test_config_reader_loads_or_raises_value_error(tmp_path, data):
    config = tmp_path / "run.ini"
    config.write_bytes(data)
    try:
        assert isinstance(load_pipeline_config(str(config)), PipelineConfig)
    except (ValueError, FileNotFoundError):
        pass


@FUZZ
@given(data=config_files)
def test_cli_exits_0_or_2_on_any_config(tmp_path, monkeypatch, data):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "in.tags").write_text("a\tNN.Nom\nb\tVVFIN\n\n", encoding="utf-8")
    (tmp_path / "run.ini").write_bytes(data)
    assert cli.main(["delex", "--config", "run.ini", "--tagged-corpus", "in.tags",
                     "--delex-output", "out.txt"]) in (0, 2)


# bracket texts: loose characters, or generated trees between runs of
# whitespace (one of them not ASCII) with now and then a stray token or a
# childless node
_SPACES = (" ", "\t", "\n", "\u3000")
_ATOMS = ("a", "b", "-", "L", "R", "B", "-LRB-", "-RRB-", "a-RRB-b")


def _node(parts):
    label, children = parts
    return "(" + " ".join((label, *children)) + ")"


_bracket_trees = st.tuples(st.sampled_from(_ATOMS), st.lists(st.recursive(
    st.sampled_from(_ATOMS),
    lambda kids: st.tuples(st.sampled_from(_ATOMS), st.lists(kids, min_size=1, max_size=4))
    .map(_node), max_leaves=24), min_size=1, max_size=4)).map(_node)
_separators = st.sampled_from(_SPACES * 8 + ("",) * 4 + (" ) ", "x", "(a)", "((", "( )"))
bracket_texts = st.one_of(
    st.lists(st.sampled_from(("(", ")") + _ATOMS + _SPACES), max_size=40).map("".join),
    st.lists(st.tuples(_separators, _bracket_trees), max_size=4).map(
        lambda parts: "".join(sep + tree for sep, tree in parts)))


def _scan_or_error(scan, text):
    try:
        return scan(text)
    except TreebankFormatError as exc:
        return str(exc), exc.offset


@FUZZ
@given(text=bracket_texts)
def test_bracket_reader_is_the_recursive_oracle(text):
    assert _scan_or_error(parse_bracketed, text) == _scan_or_error(recursive_scan_bracketed, text)


@FUZZ
@given(data=st.one_of(st.binary(max_size=64), bracket_texts.map(str.encode)))
def test_treebank_reader_loads_or_raises_format_error(tmp_path, data):
    path = tmp_path / "in.brackets"
    path.write_bytes(data)
    try:
        trees = read_treebank(path)
    except TreebankFormatError:
        return
    assert all(isinstance(tree, Tree) and not tree.is_leaf for tree in trees)


def _loads_or_format_error(reader, path, *args):
    try:
        return reader(path, *args)
    except TreebankFormatError:
        return None


_TAG_TEXTS = ("NN", "NN.Nom", "$.", "a.b.c", ".", "", " ", "a b", "-LRB-", "#", "x#y", "\u3000")
_SEPARATORS = (".", "#")


def _fields(*fragments):
    """Lines of up to four tab-separated ``fragments``."""
    return st.lists(st.sampled_from(fragments), max_size=4).map("\t".join)


def _texts(first, line):
    """A ``first`` line, then up to eight ``line``s, as bytes."""
    return st.tuples(first, st.lists(line, max_size=8)).map(
        lambda parts: "\n".join((parts[0], *parts[1])).encode("utf-8"))


_tag_text = st.sampled_from(_TAG_TEXTS)
_tag_line = st.one_of(_fields(*_TAG_TEXTS, "\r"),
                      st.tuples(st.sampled_from(("der", "x", "")), _tag_text).map("\t".join))


@FUZZ
@given(data=st.one_of(st.binary(max_size=64), _texts(_tag_line, _tag_line)),
       sep=st.sampled_from(_SEPARATORS))
def test_tagged_corpus_reader_loads_or_raises_format_error(tmp_path, data, sep):
    path = tmp_path / "in.tags"
    path.write_bytes(data)
    corpus = _loads_or_format_error(read_tagged_corpus_file, path, sep)
    assert corpus is None or all(isinstance(s, TaggedSentence) and len(s) for s in corpus)


_map_line = st.one_of(
    st.sampled_from(("[pos]", "[features]", "[other]", "# note", "[pos", "")),
    _fields(*_TAG_TEXTS, "A|B"), st.tuples(st.sampled_from(("NA", "Fem")), _tag_text).map("\t".join))


@FUZZ
@given(data=st.one_of(st.binary(max_size=64), _texts(st.sampled_from(("[pos]", "A\tB")),
                                                     _map_line)),
       sep=st.sampled_from(_SEPARATORS))
def test_tag_map_reader_loads_or_raises_format_error(tmp_path, data, sep):
    path = tmp_path / "in.tagmap"
    path.write_bytes(data)
    table = _loads_or_format_error(read_tag_map_file, path, sep)
    assert table is None or isinstance(table, TagMapTable)


_WEIGHTS = ("0.5", "-1e3", "nan", "inf", "1e999", "x", "")
_tagger_line = st.one_of(
    st.tuples(st.just("tag"), _tag_text).map("\t".join),
    st.tuples(st.sampled_from(("w=der", "tag", "")), _tag_text, st.sampled_from(_WEIGHTS))
    .map("\t".join),
    _fields(*_TAG_TEXTS, "tag", *_WEIGHTS))


@FUZZ
@given(data=st.one_of(st.binary(max_size=64), _texts(st.sampled_from(
    ("delexparse-tagger\t1", "delexparse-tagger\t2", "delexparse-tagger", "")), _tagger_line)),
       sep=st.sampled_from(_SEPARATORS))
def test_tagger_loader_loads_or_raises_format_error(tmp_path, data, sep):
    path = tmp_path / "tagger.txt"
    path.write_bytes(data)
    loaded = _loads_or_format_error(tagger.load_tagger, path, sep)
    assert loaded is None or (isinstance(loaded, tagger.TaggerModel) and loaded.tag_inventory)


# atoms that no reader splits: no whitespace, line break or control character
_atoms = st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zs", "Zl", "Zp")),
                 min_size=1, max_size=6)


@st.composite
def _tagged_corpora(draw):
    sep = draw(st.sampled_from(_SEPARATORS))
    part = _atoms.filter(lambda text: sep not in text)
    tag = st.builds(ExtendedTag, part, st.lists(part, max_size=3).map(tuple))
    sentence = st.lists(st.tuples(_atoms.filter(lambda text: "\t" not in text), tag),
                        min_size=1, max_size=5).map(
        lambda pairs: TaggedSentence(*map(tuple, zip(*pairs))))
    return draw(st.lists(sentence, max_size=4)), sep


@FUZZ
@given(case=_tagged_corpora())
def test_tagged_corpus_round_trips(tmp_path, case):
    sentences, sep = case
    path = tmp_path / "out.tags"
    write_tagged_corpus(sentences, path, sep)
    assert read_tagged_corpus_file(path, sep) == sentences


@st.composite
def _tagger_models(draw):
    sep = draw(st.sampled_from(_SEPARATORS))
    tags = draw(st.lists(_atoms, min_size=1, max_size=4))
    weight = st.floats(allow_nan=False, allow_infinity=False)
    rows = st.dictionaries(st.sampled_from(tags), weight, min_size=1)
    features = st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")),
                       max_size=6)
    return tagger.TaggerModel(draw(st.dictionaries(features, rows, max_size=5)),
                              tuple(tags), separator=sep)


@FUZZ
@given(tag_model=_tagger_models())
def test_tagger_checkpoint_round_trips(tmp_path, tag_model):
    path = tmp_path / "tagger.txt"
    tagger.save_tagger(tag_model, path)
    assert tagger.load_tagger(path, tag_model.separator) == tag_model


def _checkpoint_bytes():
    cfg = ModelConfig(model_dim=4, num_layers=1, num_heads=1, head_dim=2, ff_dim=4,
                      label_hidden_dim=3, max_len=8, seed=1)
    params = model.init_params(cfg, [model.UNK, "NN"], [model.UNK], [EMPTY_LABEL, "S"])
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "model.ckpt"
        model.save_checkpoint(params, path)
        return path.read_bytes()


CHECKPOINT = _checkpoint_bytes()
_HEADER_LENGTH = int.from_bytes(CHECKPOINT[8:16], "little")
HEADER = json.loads(CHECKPOINT[16:16 + _HEADER_LENGTH])

# every field of the header, as a path of keys
_FIELDS = ([(key,) for key in HEADER] + [("config", key) for key in HEADER["config"]]
           + [("tensors", index, key) for index in (0, -1) for key in HEADER["tensors"][0]])
_ints = st.one_of(st.integers(-2, 40), st.sampled_from((10**12, 10**9, 2**63, -(2**63))))
_json_values = st.one_of(_ints, st.recursive(
    st.one_of(st.none(), st.booleans(), _ints, st.floats(), st.text(max_size=4)),
    lambda values: st.lists(values, max_size=3)
    | st.dictionaries(st.text(max_size=4), values, max_size=3), max_leaves=6))


def _replaced(field, value):
    header = copy.deepcopy(HEADER)
    *parents, last = field
    node = header
    for key in parents:
        node = node[key]
    node[last] = value
    text = json.dumps(header).encode("ascii")
    return (CHECKPOINT[:8] + len(text).to_bytes(8, "little") + text
            + CHECKPOINT[16 + _HEADER_LENGTH:])


@FUZZ
@given(data=st.one_of(
    st.binary(max_size=64),
    st.binary(max_size=64).map(CHECKPOINT[:8].__add__),
    st.tuples(st.sampled_from(_FIELDS), _json_values).map(lambda case: _replaced(*case))))
def test_checkpoint_loader_loads_or_raises_model_error(tmp_path, data):
    path = tmp_path / "model.ckpt"
    path.write_bytes(data)
    try:
        params = model.load_checkpoint(path)
    except model.ModelError:
        return
    assert set(params.tensors) == set(model.tensor_names(params.config))
    header = json.loads(data[16:16 + int.from_bytes(data[8:16], "little")])
    assert type(header["format_version"]) is int
    assert header["format_version"] == model.CHECKPOINT_VERSION
    assert all(entry["dtype"] == "<f8" for entry in header["tensors"])
