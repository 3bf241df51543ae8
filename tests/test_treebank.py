import re

import numpy as np
import pytest

import oracles
from delexparse import synthetic, treebank
from delexparse.treebank import (_SPACE, _TOKEN_RE, ExtendedTag, TaggedSentence, Tree,
                                 TreebankFormatError, parse_bracketed,
                                 read_tag_map, read_tagged_corpus, scan_bracketed,
                                 serialize_tree, split_treebank)


def test_parse_single_tree():
    trees = parse_bracketed("(S (NP (ART der) (NN Mann)) (VP (VVFIN lacht)))")
    assert len(trees) == 1
    root = trees[0]
    assert root.label == "S"

    def internal_nodes(node):
        if node.is_leaf:
            return 0
        return 1 + sum(internal_nodes(c) for c in node.children)

    assert internal_nodes(root) - 1 == 5  # labeled nodes below the root
    assert root.leaf_tokens() == ["der", "Mann", "lacht"]


def test_parse_multiple_trees():
    trees = parse_bracketed("(X a) (Y b)")
    assert [t.label for t in trees] == ["X", "Y"]


def test_unbalanced_raises_at_end_of_input():
    text = "(S (NP (ART der)"
    with pytest.raises(TreebankFormatError) as err:
        parse_bracketed(text)
    assert err.value.offset == len(text)


def test_empty_label_rejected():
    with pytest.raises(TreebankFormatError):
        parse_bracketed("(S () (NN x))")
    with pytest.raises(TreebankFormatError):
        parse_bracketed("((S (NN x)))")


def test_stray_closing_paren():
    with pytest.raises(TreebankFormatError):
        parse_bracketed("(S (NN x))) ")


def test_empty_constituent_rejected():
    with pytest.raises(TreebankFormatError):
        parse_bracketed("(S (NP) (NN x))")


def test_flat_tree_accepted_with_diagnostic():
    trees, diagnostics = scan_bracketed("(S (NP x) word)")
    assert len(trees) == 1
    assert diagnostics and "'S'" in diagnostics[0]
    trees, diagnostics = scan_bracketed("(NN a b)")
    assert len(trees) == 1
    assert diagnostics and "flat preterminal" in diagnostics[0]


def test_parse_never_crashes_on_junk():
    rng = np.random.default_rng(5)
    alphabet = list("()ab (\t\n)")
    for _ in range(300):
        text = "".join(rng.choice(alphabet, size=rng.integers(0, 30)))
        try:
            parse_bracketed(text)
        except TreebankFormatError:
            pass


def test_serialize_preterminal():
    assert serialize_tree(Tree.node("NN", [Tree.leaf("Haus")])) == "(NN Haus)"


def test_serialize_unary_chain():
    tree = parse_bracketed("(S (VP (VVFIN lacht)))")[0]
    assert serialize_tree(tree) == "(S (VP (VVFIN lacht)))"


def test_paren_escaping_round_trip():
    tree = Tree.node("S", [Tree.node("$(", [Tree.leaf("(")]),
                           Tree.node("NN", [Tree.leaf("a(b)c")])])
    line = serialize_tree(tree)
    assert "-LRB-" in line and "(( " not in line
    assert parse_bracketed(line) == [tree]


def test_round_trip_random_trees():
    rng = np.random.default_rng(11)
    for _ in range(100):
        tree = synthetic.random_tree(rng)
        assert parse_bracketed(serialize_tree(tree)) == [tree]


def test_multiline_input_single_line_output():
    text = "(S\n  (NP (ART der)\n      (NN Mann))\n  (VVFIN lacht))\n"
    tree = parse_bracketed(text)[0]
    assert "\n" not in serialize_tree(tree)


def test_a_5000_deep_chain_reads_through():
    depth = 5000
    text = "(X (P w) " * depth + "(P w)" + ")" * depth
    (tree,) = parse_bracketed(text)
    node = tree
    for _ in range(depth):
        assert node.label == "X" and len(node.children) == 2
        preterminal, node = node.children
        assert preterminal.label == "P" and preterminal.children == (Tree.leaf("w"),)
    assert node.label == "P" and node.children == (Tree.leaf("w"),)
    assert tree.leaf_tokens() == ["w"] * (depth + 1)


class _CountingTokenRe:
    """``_TOKEN_RE`` that counts its ``finditer`` scans."""

    def __init__(self):
        self.scans = 0

    def finditer(self, text):
        self.scans += 1
        return _TOKEN_RE.finditer(text)


def test_thousands_of_diagnostics_carry_the_oracles_offsets_from_one_scan(monkeypatch):
    text = "\n".join(f"(S (NN a{k} b) (NP (ART c) x) ( VP\t(V d e f)))" for k in range(2000))
    counting = _CountingTokenRe()
    monkeypatch.setattr(treebank, "_TOKEN_RE", counting)
    trees, diagnostics = scan_bracketed(text)
    assert (trees, diagnostics) == oracles.recursive_scan_bracketed(text)
    assert len(diagnostics) == 3 * 2000
    assert counting.scans == 1
    counting.scans = 0
    clean = " ".join(f"(S (NN a{k}) (VP (V b)))" for k in range(2000))
    assert scan_bracketed(clean) == oracles.recursive_scan_bracketed(clean)
    assert counting.scans == 0


def test_space_search_and_split_agree_with_isspace_on_every_code_point():
    chars = [chr(c) for c in range(0x110000)]
    assert [c for c in chars if bool(_SPACE(c)) != c.isspace()] == []
    # the reader's split() leaves exactly the regex's tokens
    spaced = "".join(chars)
    assert set(spaced) - set("".join(spaced.split())) == set(re.findall(r"\s", spaced))


def test_extended_tag_parse():
    tag = ExtendedTag.parse("ART.Nom.Pl.Fem")
    assert tag.pos == "ART"
    assert tag.features == ("Nom", "Pl", "Fem")
    assert tag.serialized() == "ART.Nom.Pl.Fem"


def test_extended_tag_atomic_fallback():
    # STTS punctuation tags contain the separator and stay atomic
    assert ExtendedTag.parse("$.") == ExtendedTag("$.", ())
    assert ExtendedTag.parse("$,") == ExtendedTag("$,", ())


def test_extended_tag_invalid():
    with pytest.raises(ValueError):
        ExtendedTag.parse("")
    with pytest.raises(ValueError):
        ExtendedTag.parse("A B")


def test_read_tagged_corpus_single():
    sentences = read_tagged_corpus("diu\tDDART.Nom.Sg.Fem\n\n")
    assert len(sentences) == 1
    assert len(sentences[0]) == 1
    tag = sentences[0].tags[0]
    assert tag.pos == "DDART"
    assert len(tag.features) == 3


def test_read_tagged_corpus_two_sentences():
    text = "a\tNN\nb\tNN\n\nc\tNN\nd\tNN\ne\tNN\n"
    assert [len(s) for s in read_tagged_corpus(text)] == [2, 3]


def test_read_tagged_corpus_missing_tab():
    with pytest.raises(TreebankFormatError) as err:
        read_tagged_corpus("wort\n")
    assert err.value.line == 1


def test_read_tagged_corpus_skips_empty_sentence(caplog):
    text = "a\tNN\n\n\nb\tNN\n"
    with caplog.at_level("WARNING"):
        sentences = read_tagged_corpus(text)
    assert [len(s) for s in sentences] == [1, 1]
    assert any("empty sentence" in r.message for r in caplog.records)


def test_tagged_sentence_validation():
    with pytest.raises(ValueError):
        TaggedSentence(("a",), ())


def test_read_tag_map_plain_and_extended_targets():
    table = read_tag_map("[pos]\nDDART\tART\n")
    assert table.pos_map["DDART"] == ExtendedTag("ART")
    table = read_tag_map("[pos]\nVAPS\tADJD.Pos\n")
    assert table.pos_map["VAPS"] == ExtendedTag("ADJD", ("Pos",))


def test_read_tag_map_duplicate_key():
    with pytest.raises(TreebankFormatError):
        read_tag_map("[pos]\nNA\tNN\nNA\tNE\n")


def test_read_tag_map_features_and_comments():
    text = "# comment\n[pos]\nNA\tNN\n[features]\nSing\tSg\n"
    table = read_tag_map(text)
    assert table.feature_map == {"Sing": "Sg"}


def test_read_tag_map_targets_may_not_hold_the_composite_separator():
    for text in ("[pos]\nNA\tNN|Y\n", "[pos]\nNA\tNN.Y|Z\n", "[features]\nSing\tS|g\n"):
        with pytest.raises(TreebankFormatError, match=r"contains '\|'|invalid target"):
            read_tag_map(text)
    table = read_tag_map("[pos]\nNA\tNN|Y\n[features]\nSing\tS|g\n", composite="+")
    assert table.pos_map["NA"] == ExtendedTag("NN|Y") and table.feature_map == {"Sing": "S|g"}
    with pytest.raises(TreebankFormatError, match=r"contains '\+'"):
        read_tag_map("[pos]\nNA\tNN+Y\n", composite="+")
    # a separator shared with the features' one is only looked for inside the parts
    assert read_tag_map("[pos]\nVAPS\tADJD.Pos\n", composite=".").pos_map["VAPS"] == \
        ExtendedTag("ADJD", ("Pos",))


def test_read_tag_map_rejects_entry_before_section():
    with pytest.raises(TreebankFormatError):
        read_tag_map("NA\tNN\n")


def test_split_treebank():
    trees = parse_bracketed(" ".join(f"(S (NN t{k}))" for k in range(10)))
    train, dev = split_treebank(trees, 7)
    assert len(train) == 7 and len(dev) == 3
    assert train + dev == trees
    train, dev = split_treebank(trees, 0)
    assert not train and len(dev) == 10
    with pytest.raises(ValueError):
        split_treebank(trees, 11)
    with pytest.raises(ValueError):
        split_treebank(trees, -1)


def test_split_counts_match_corpus_scale():
    # 50,474-tree split leaves a 3,000-tree dev set
    trees = list(range(50474))  # split_treebank only slices
    train, dev = trees[:47474], trees[47474:]
    assert len(dev) == 3000
