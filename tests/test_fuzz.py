"""Property tests: readers given generated input load it or reject it cleanly."""

from dataclasses import fields

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from delexparse import cli
from delexparse.config import (_MODE_KEYS, _SECTIONS, PATH_KEYS, PipelineConfig,
                               load_pipeline_config)
from delexparse.evalb import EvalConfig
from delexparse.model import ModelConfig
from delexparse.trainer import TrainConfig
from delexparse.transform import TransformConfig
from delexparse.treebank import Tree, TreebankFormatError, read_treebank, scan_bracketed
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
    assert _scan_or_error(scan_bracketed, text) == _scan_or_error(recursive_scan_bracketed, text)


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
