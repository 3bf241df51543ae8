import numpy as np
import pytest

import oracles
from delexparse.transform import (CHAIN_SEPARATOR, EMPTY_LABEL, TransformConfig,
                                  binarize, debinarize, delexicalize_sentence,
                                  delexicalize_tree, filter_target_treebank,
                                  relexicalize_tree, strip_annotations)
from delexparse.treebank import (ExtendedTag, TaggedSentence, Tree,
                                 parse_bracketed, serialize_tree)

CFG = TransformConfig()


def t(text):
    return parse_bracketed(text)[0]


def test_strip_edge_labels():
    tree = t("(S (NP-SB (ART der) (NN Mann)) (VVFIN lacht))")
    stripped = strip_annotations(tree, CFG)
    assert serialize_tree(stripped) == "(S (NP (ART der) (NN Mann)) (VVFIN lacht))"


def test_strip_traces_and_coindexation():
    tree = t("(S (NP=1 (NN x)) (VP (-NONE- *T*1)))")
    stripped = strip_annotations(tree, CFG)
    assert serialize_tree(stripped) == "(S (NP (NN x)))"


def test_strip_trace_by_token_pattern():
    tree = t("(S (NN x) (XY *T*2))")
    assert serialize_tree(strip_annotations(tree, CFG)) == "(S (NN x))"


def test_strip_empty_raises():
    with pytest.raises(ValueError, match="empty after stripping"):
        strip_annotations(t("(S (-NONE- *))"), CFG)


def test_strip_keeps_preterminal_labels():
    tree = t("(S (PP-MO (APPR-AC mit)) (NN x))")
    stripped = strip_annotations(tree, CFG)
    assert serialize_tree(stripped) == "(S (PP (APPR-AC mit)) (NN x))"


def test_strip_idempotent_on_random_annotated_trees():
    rng = np.random.default_rng(23)
    for _ in range(200):
        tree = oracles.random_annotated_tree(rng)
        try:
            once = strip_annotations(tree, CFG)
        except ValueError:
            continue
        assert strip_annotations(once, CFG) == once


def test_delexicalize_tree_overwrites_leaves():
    tree = t("(S (NP (ART.Nom.Pl.Fem Die)) (NN.Nom.Pl.Fem Frauen))")
    delexed = delexicalize_tree(tree, CFG)
    assert serialize_tree(delexed) == \
        "(S (NP (ART ART.Nom.Pl.Fem)) (NN NN.Nom.Pl.Fem))"


def test_delexicalize_without_morphology():
    cfg = TransformConfig(keep_morphology=False)
    tree = t("(S (ART.Nom.Pl.Fem Die) (NN Haus))")
    assert serialize_tree(delexicalize_tree(tree, cfg)) == "(S (ART ART) (NN NN))"


def test_delexicalize_shape_preserved():
    rng = np.random.default_rng(3)
    for _ in range(50):
        tree = oracles.random_tree(rng)

        def shape(node):
            if node.is_leaf:
                return "*"
            return tuple(shape(c) for c in node.children)

        delexed = delexicalize_tree(tree, CFG)
        assert shape(delexed) == shape(tree)
        for pret in delexed.preterminals():
            token = pret.children[0].token
            assert token == pret.label or token.startswith(pret.label + ".")


def test_delexicalize_rejects_flat_preterminal():
    with pytest.raises(ValueError, match="leaves"):
        delexicalize_tree(t("(S (NN a b) (NN c))"), CFG)


def test_delexicalize_names_bad_label():
    with pytest.raises(ValueError, match="preterminal label"):
        delexicalize_tree(Tree.node("S", [Tree.node("A B", [Tree.leaf("x")])]), CFG)


def test_delexicalize_sentence():
    sentence = TaggedSentence(("diu",), (ExtendedTag.parse("DDART.Nom.Sg.Fem"),))
    assert delexicalize_sentence(sentence, CFG) == ["DDART.Nom.Sg.Fem"]
    cfg = TransformConfig(keep_morphology=False)
    assert delexicalize_sentence(sentence, cfg) == ["DDART"]
    three = TaggedSentence(("a", "b", "c"), tuple(ExtendedTag("NN") for _ in range(3)))
    assert len(delexicalize_sentence(three, CFG)) == 3


def test_binarize_ternary():
    tree = t("(S (A a) (B b) (C c))")
    out = binarize(tree)
    assert serialize_tree(out) == f"(S (A a) ({EMPTY_LABEL} (B b) (C c)))"


def test_binarize_wide_node_nests_empties():
    tree = t("(S (A a) (B b) (C c) (D d))")
    assert serialize_tree(binarize(tree)) == \
        f"(S (A a) ({EMPTY_LABEL} (B b) ({EMPTY_LABEL} (C c) (D d))))"


def test_binarize_unary_collapse():
    tree = t("(S (VP (VVFIN lacht)))")
    out = binarize(tree)
    assert out.label == f"S{CHAIN_SEPARATOR}VP"
    assert serialize_tree(debinarize(out)) == "(S (VP (VVFIN lacht)))"


def test_binarize_keeps_phrase_over_preterminal():
    tree = t("(NP (NN Haus))")
    assert binarize(tree) == tree


def test_binarize_rejects_reserved_labels():
    with pytest.raises(ValueError, match="reserved"):
        binarize(Tree.node("A+B", [Tree.node("NN", [Tree.leaf("x")])]))


def test_debinarize_splices_and_expands():
    tree = parse_bracketed(f"(S (A a) ({EMPTY_LABEL} (B b) (C c)))")[0]
    assert serialize_tree(debinarize(tree)) == "(S (A a) (B b) (C c))"
    tree = parse_bracketed(f"(S{CHAIN_SEPARATOR}VP (VVFIN x))")[0]
    assert serialize_tree(debinarize(tree)) == "(S (VP (VVFIN x)))"


def test_debinarize_identity_without_reserved_labels():
    tree = t("(S (NP (ART der) (NN Mann)) (VVFIN lacht))")
    assert debinarize(tree) == tree


def test_debinarize_rejects_empty_root():
    tree = parse_bracketed(f"({EMPTY_LABEL} (A a) (B b))")[0]
    with pytest.raises(ValueError):
        debinarize(tree)


def test_binarize_round_trip_random():
    rng = np.random.default_rng(17)
    for _ in range(100):
        tree = oracles.random_tree(rng)
        binary = binarize(tree)

        def max_arity(node):
            if not node.children:
                return 0
            return max([len(node.children)] + [max_arity(c) for c in node.children])

        assert max_arity(binary) <= 2
        assert debinarize(binary) == tree


def test_relexicalize():
    tree = t("(S (ART ART.Nom) (NN NN.Nom))")
    out = relexicalize_tree(tree, ["der", "Mann"])
    assert out.leaf_tokens() == ["der", "Mann"]
    with pytest.raises(ValueError):
        relexicalize_tree(tree, ["der"])


def test_filter_drops_short_and_latin_trees():
    short = t("(S (NN x))")
    latin = t("(S (FM dominus) (FM vobiscum) (NN Tag))")
    good = t("(S (NN Tag) (NN Nacht))")
    kept, report = filter_target_treebank([short, latin, good],
                                          {"dominus", "vobiscum"})
    assert kept == [good]
    assert len(report) == 2


def test_filter_removes_leading_number_token():
    tree = t("(S (CARD 1.) (NN a) (NN b) (NN c) (NN d) (NN e) (NN f) (NN g) (NN h))")
    kept, report = filter_target_treebank([tree], set())
    assert len(kept) == 1
    assert kept[0].leaf_tokens() == list("abcdefgh")
    assert len(report) == 1


def test_filter_latin_threshold_is_majority():
    tokens = [f"w{k}" for k in range(10)]
    tree = Tree.node("S", [Tree.node("NN", [Tree.leaf(tok)]) for tok in tokens])
    kept, _ = filter_target_treebank([tree], set(tokens[:5]))
    assert kept  # exactly half is not "mostly"
    kept, _ = filter_target_treebank([tree], set(tokens[:6]))
    assert not kept


def test_filter_report_counts_modifications():
    trees = [t("(S (NN a) (NN b))") for _ in range(96)]
    trees += [t("(S (NN x))") for _ in range(4)]
    kept, report = filter_target_treebank(trees, set())
    assert len(kept) == 96
    assert len(report) == 4
