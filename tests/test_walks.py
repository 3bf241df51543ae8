"""Every tree walk against its recursive oracle, and on trees of any depth."""

import gc
import time
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from delexparse import chart, cli, evalb, model, transform
from delexparse.evalb import EvalConfig
from delexparse.transform import TransformConfig
from delexparse.treebank import (Tree, parse_bracketed, read_treebank, serialize_tree,
                                 well_formedness_problems)
from oracles import (recursive_binarize, recursive_debinarize, recursive_delexicalize_tree,
                     recursive_drop_leaf, recursive_eq, recursive_label_inventory,
                     recursive_leaf_tokens, recursive_preterminals,
                     recursive_relabel_preterminals, recursive_relexicalize_tree,
                     recursive_repr, recursive_serialize_tree, recursive_spans_and_length,
                     recursive_strip_annotations, recursive_tree_spans,
                     recursive_well_formedness_problems)

FUZZ = settings(max_examples=300, deadline=None, derandomize=True, database=None)

# labels and tokens that reach every branch: traces, edge labels and
# coindexation, reserved characters, atoms that cannot be written, and
# preterminal labels that are or are not extended tags
LABELS = ("S", "NP", "NN.Nom", "$.", "-NONE-", "NP-SB", "VP=1", "=2", "∅", "A+B", "∅+S", "∅+∅",
          "", "a b", "X(", "NN..x")
TOKENS = ("w", "*T*1", "*", "1.", "x)", "", "a b")
NO_MORPH = TransformConfig(keep_morphology=False)
EVAL_VARIANT = EvalConfig(include_root=False, ignore_labels=frozenset({"NP"}),
                          label_equivalences={"S": "VP=1"})

_leaves = st.sampled_from(TOKENS).map(Tree.leaf)
_preterminals = st.builds(lambda label, leaf: Tree.node(label, [leaf]),
                          st.sampled_from(LABELS), _leaves)
# any shape: flat preterminals, bare leaves beside phrases, a leaf as root
trees = st.recursive(
    st.one_of(_leaves, _preterminals),
    lambda children: st.builds(Tree.node, st.sampled_from(LABELS),
                               st.lists(children, min_size=1, max_size=4)),
    max_leaves=12)


def _outcome(walk, *args):
    """``walk(*args)``, or the message of the ValueError it raises."""
    try:
        return "ok", walk(*args)
    except ValueError as exc:
        return "error", str(exc)


def _same(a, b) -> bool:
    if isinstance(a, Tree) or isinstance(b, Tree):
        return isinstance(a, Tree) and isinstance(b, Tree) and recursive_eq(a, b)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return a == b


def _span_counts(tree: Tree, cfg: EvalConfig):
    """evalb's span list as the multiset its oracle gives, and the length."""
    spans, length = evalb._spans_and_length(tree, cfg)
    return Counter(spans), length


def _walks(tree: Tree, labels: list[str], tokens: list[str], target: int):
    """(name, fold-based walk, its recursive oracle, arguments) per walk."""
    binarized = _outcome(transform.binarize, tree)[1]
    cases = [
        ("leaf_tokens", Tree.leaf_tokens, recursive_leaf_tokens, (tree,)),
        ("repr", repr, recursive_repr, (tree,)),
        ("well_formedness_problems", well_formedness_problems,
         recursive_well_formedness_problems, (tree,)),
        ("serialize_tree", serialize_tree, recursive_serialize_tree, (tree,)),
        ("strip_annotations", transform.strip_annotations, recursive_strip_annotations,
         (tree,)),
        ("delexicalize_tree", transform.delexicalize_tree, recursive_delexicalize_tree,
         (tree,)),
        ("delexicalize_tree/no-morph", transform.delexicalize_tree,
         recursive_delexicalize_tree, (tree, NO_MORPH)),
        ("binarize", transform.binarize, recursive_binarize, (tree,)),
        ("debinarize", transform.debinarize, recursive_debinarize, (tree,)),
        ("relabel_preterminals", transform.relabel_preterminals,
         recursive_relabel_preterminals, (tree, labels)),
        ("relexicalize_tree", transform.relexicalize_tree, recursive_relexicalize_tree,
         (tree, tokens)),
        ("_drop_leaf", transform._drop_leaf, recursive_drop_leaf, (tree, target)),
        ("tree_spans", chart.tree_spans, recursive_tree_spans, (tree,)),
        ("_spans_and_length", _span_counts, recursive_spans_and_length,
         (tree, EvalConfig())),
        ("_spans_and_length/variant", _span_counts, recursive_spans_and_length,
         (tree, EVAL_VARIANT)),
        ("build_label_inventory", model.build_label_inventory, recursive_label_inventory,
         ([tree, tree],)),
    ]
    if isinstance(binarized, Tree):
        cases.append(("debinarize/binarized", transform.debinarize, recursive_debinarize,
                      (binarized,)))
    return cases


@FUZZ
@given(tree=trees, labels=st.lists(st.sampled_from(LABELS), max_size=8),
       tokens=st.lists(st.sampled_from(TOKENS), max_size=8), target=st.integers(0, 8))
def test_every_walk_matches_its_recursive_oracle(tree, labels, tokens, target):
    # a preterminal walk over any shape, and the leaf and label lists a
    # parse gives, so both count errors and the success path all occur
    for labels_given, tokens_given in ((labels, tokens),
                                       ([p.label for p in recursive_preterminals(tree)],
                                        recursive_leaf_tokens(tree))):
        for name, walk, oracle, args in _walks(tree, labels_given, tokens_given, target):
            got, want = _outcome(walk, *args), _outcome(oracle, *args)
            assert got[0] == want[0] and _same(got[1], want[1]), (name, got, want)
    assert all(a is b for a, b in zip(tree.preterminals(), recursive_preterminals(tree)))
    assert len(tree.preterminals()) == len(recursive_preterminals(tree))


def _copy(tree: Tree) -> Tree:
    return Tree(tree.label, tuple(_copy(c) for c in tree.children))


@FUZZ
@given(a=trees, b=trees)
def test_equality_and_hash_match_field_by_field_equality(a, b):
    for x, y in ((a, b), (a, _copy(a)), (b, b)):
        assert (x == y) is recursive_eq(x, y)
        assert (x != y) is not recursive_eq(x, y)
        if x == y:
            assert hash(x) == hash(y)
    assert a != "not a tree" and a != None  # noqa: E711


def right_chain(depth: int) -> Tree:
    """``(ROOT (X (P w) (X (P w) ...)))`` with ``depth`` X levels."""
    tree = Tree.node("X", [Tree.node("P", [Tree.leaf("w")])])
    for _ in range(depth - 1):
        tree = Tree.node("X", [Tree.node("P", [Tree.leaf("w")]), tree])
    return Tree.node("ROOT", [tree])


def unary_chain(depth: int) -> Tree:
    tree = Tree.node("X", [Tree.node("P", [Tree.leaf("w")])])
    for _ in range(depth - 1):
        tree = Tree.node("X", [tree])
    return Tree.node("ROOT", [tree, Tree.node("P", [Tree.leaf("w")])])


def flat(width: int) -> Tree:
    return Tree.node("ROOT", [Tree.node("P", [Tree.leaf("w")]) for _ in range(width)])


def test_every_walk_gets_through_deep_chains_and_wide_nodes():
    for tree in (right_chain(5000), unary_chain(5000), flat(1200)):
        n = len(tree.leaf_tokens())
        assert len(tree.preterminals()) == n
        assert well_formedness_problems(tree) == []
        text = serialize_tree(tree)
        assert repr(tree) == text
        copy = parse_bracketed(text)[0]
        assert copy == tree and copy is not tree and hash(copy) == hash(tree)
        assert transform.strip_annotations(tree) == tree
        delexed = transform.delexicalize_tree(tree)
        assert delexed.leaf_tokens() == ["P"] * n
        binarized = transform.binarize(tree)
        assert transform.debinarize(binarized) == tree
        spans, length = chart.tree_spans(binarized)
        assert length == n and spans[-1] == (0, n, binarized.label)
        assert model.build_label_inventory([binarized])[1:] == sorted(
            {label for _, _, label in spans} - {transform.EMPTY_LABEL})
        relabeled = transform.relabel_preterminals(tree, ["Q"] * n)
        assert [p.label for p in relabeled.preterminals()] == ["Q"] * n
        assert transform.relexicalize_tree(tree, ["v"] * n).leaf_tokens() == ["v"] * n
        assert transform._drop_leaf(tree, 0).leaf_tokens() == ["w"] * (n - 1)
        gold = evalb.extract_eval_spans(tree)
        assert sum(gold.values()) == len(list(tree.subtrees())) - 2 * n
        assert evalb.score_corpus([tree], [copy]).fscore == 100.0


def test_debinarize_round_trips_a_20000_child_node_in_linear_time():
    def seconds(width: int) -> float:
        tree = flat(width)
        binarized = transform.binarize(tree)
        best = float("inf")
        gc.disable()
        try:
            for _ in range(5):
                start = time.perf_counter()
                result = transform.debinarize(binarized)
                best = min(best, time.perf_counter() - start)
        finally:
            gc.enable()
        assert result == tree
        return best

    # two doublings of the width, each less than tripling the time; the
    # quadratic splicing took 16 times as long at 4 times the width
    assert seconds(20000) < 9 * seconds(5000)


def test_delex_filter_and_eval_run_on_a_1200_deep_treebank(tmp_path, capsys):
    deep = tmp_path / "deep.brackets"
    deep.write_text(serialize_tree(right_chain(1200)) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["delex", "--treebank", str(deep),
                     "--delex-output", f"{out}/delexed.brackets"]) == 0
    assert read_treebank(out / "delexed.brackets")[0].leaf_tokens() == ["P"] * 1200
    assert cli.main(["filter", "--treebank", str(deep),
                     "--filtered-treebank", f"{out}/kept.brackets"]) == 0
    assert (out / "kept.brackets").read_text(encoding="utf-8") == deep.read_text(
        encoding="utf-8")
    assert cli.main(["eval", "--gold-treebank", str(deep), "--pred-treebank", str(deep),
                     "--report", f"{out}/eval.report"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "100.00 100.00 100.00 100.00"
