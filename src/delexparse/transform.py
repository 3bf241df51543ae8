"""Tree normalization: annotation stripping, delexicalization, binarization.

The chart decoder consumes right-branching binary trees in which unary
chains are collapsed into ``+``-joined labels and surplus children hang
under intermediate nodes with the reserved empty label.  ``debinarize``
inverts both devices exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .treebank import (TAG_SEPARATOR, ExtendedTag, TaggedSentence, Tree, _Memo,
                       well_formedness_problems)

EMPTY_LABEL = "∅"
CHAIN_SEPARATOR = "+"

_COINDEX_RE = re.compile(r"=\d+$")
_LEADING_FILLER_RE = re.compile(r"[0-9.]+")


@dataclass(frozen=True)
class TransformConfig:
    """Knobs for annotation stripping and delexicalization."""

    edge_separator: str = "-"
    trace_label: str = "-NONE-"
    trace_token_patterns: tuple[str, ...] = ("*T*", "*")  # token prefixes
    morph_separator: str = TAG_SEPARATOR
    keep_morphology: bool = True

    def __post_init__(self):
        for name in ("edge_separator", "morph_separator"):
            value = getattr(self, name)
            if len(value) != 1 or not value.isprintable() or value.isspace():
                raise ValueError(f"{name} must be one printable character")
        if self.edge_separator == self.morph_separator:
            raise ValueError("edge and morphology separators must differ")


def _clean_label(label: str, cfg: TransformConfig) -> str:
    cut = label.find(cfg.edge_separator)
    if cut > 0:
        label = label[:cut]
    stripped = _COINDEX_RE.sub("", label)
    return stripped if stripped else label


def _is_trace(node: Tree, cfg: TransformConfig) -> bool:
    if node.label == cfg.trace_label:
        return True
    if len(node.children) == 1:
        token = node.children[0].label
        return any(token.startswith(p) for p in cfg.trace_token_patterns)
    return False


def strip_annotations(tree: Tree, cfg: TransformConfig = TransformConfig()) -> Tree:
    """Remove edge labels, coindexation suffixes, and trace subtrees.

    Phrase labels are truncated at the first edge separator and trailing
    ``=N`` indices are dropped; preterminal labels are left untouched.
    Trace preterminals are deleted together with any ancestors that end up
    childless.  Raises ValueError if nothing remains below the root.
    """

    def node(t: Tree, done: list[Tree | None]) -> Tree | None:
        if t.is_preterminal:
            return None if _is_trace(t, cfg) else t
        children = [c for c in done if c is not None]
        return Tree.node(_clean_label(t.label, cfg), children) if children else None

    result = tree.fold(lambda t: t, node)
    if result is None:
        raise ValueError("empty after stripping")
    return result


def delexicalize_tree(tree: Tree, cfg: TransformConfig = TransformConfig()) -> Tree:
    """Overwrite each leaf with its preterminal's extended tag.

    The preterminal keeps only the POS part of its label; the leaf token
    becomes the full serialized tag, or just the POS when morphology is
    dropped.  Tree shape is unchanged.  An ill-formed tree raises
    ValueError with the first of its :func:`well_formedness_problems`;
    otherwise the first preterminal label in document order that is not an
    extended tag does.  Preterminals of one label share one new subtree.
    """
    problems = well_formedness_problems(tree)
    if problems:
        raise ValueError(problems[0])

    def delexed(label: str) -> Tree:
        try:
            tag = ExtendedTag.parse(label, cfg.morph_separator)
        except ValueError as exc:
            raise ValueError(
                f"preterminal label {label!r} is not an extended tag") from exc
        token = tag.serialized(cfg.morph_separator) if cfg.keep_morphology else tag.pos
        return Tree.node(tag.pos, [Tree.leaf(token)])

    by_label = _Memo(delexed)
    return tree.fold(lambda t: t, lambda t, done: (
        by_label[t.label] if t.is_preterminal else Tree.node(t.label, done)))


def delexicalize_sentence(sentence: TaggedSentence,
                          cfg: TransformConfig = TransformConfig()) -> list[str]:
    """Replace each token with its serialized tag (or POS without morphology)."""
    if cfg.keep_morphology:
        return [tag.serialized(cfg.morph_separator) for tag in sentence.tags]
    return [tag.pos for tag in sentence.tags]


def binarize(tree: Tree) -> Tree:
    """Right-branching binarization with unary chain collapse.

    A node with more than two children keeps its first child and pushes the
    rest under an intermediate empty-label node, recursively.  Chains of
    unary phrase nodes merge into one node with ``+``-joined labels; a
    phrase node directly over a preterminal is kept as is.
    """
    for t in tree.subtrees():
        if ((EMPTY_LABEL in t.label or CHAIN_SEPARATOR in t.label)
                and t.children and not t.is_preterminal):
            raise ValueError(f"label {t.label!r} uses a reserved character")

    def node(t: Tree, done: list[Tree]) -> Tree:
        if t.is_preterminal:
            return t
        if len(done) == 1 and not done[0].is_leaf and not done[0].is_preterminal:
            # a unary chain: the child's merged label and folded children
            return Tree.node(t.label + CHAIN_SEPARATOR + done[0].label, done[0].children)
        children = done[-2:]
        for child in reversed(done[:-2]):
            children = [child, Tree.node(EMPTY_LABEL, children)]
        return Tree.node(t.label, children)

    return tree.fold(lambda t: t, node)


def debinarize(tree: Tree) -> Tree:
    """Invert :func:`binarize`: splice empty nodes, expand ``+`` chains.

    An empty-label node folds to the list of its children's values rather
    than to a node, and its parent splices each such list, nested ones
    included, once: a chain of k empty levels costs O(k), not O(k^2).
    """
    if not tree.is_leaf and not tree.is_preterminal and tree.label == EMPTY_LABEL:
        raise ValueError("cannot splice an empty-label node at the root")

    def node(t: Tree, done: list) -> Tree | list:
        if t.is_preterminal:
            return t
        if t.label == EMPTY_LABEL:
            return done
        children: list[Tree] = []
        pending = done[::-1]
        while pending:
            child = pending.pop()
            if isinstance(child, list):
                pending += child[::-1]
            elif (child.label == EMPTY_LABEL and not child.is_leaf
                  and not child.is_preterminal):
                children.extend(child.children)
            else:
                children.append(child)
        parts = t.label.split(CHAIN_SEPARATOR)
        result = Tree.node(parts[-1], children)
        for part in reversed(parts[:-1]):
            result = Tree.node(part, [result])
        return result

    return tree.fold(lambda t: t, node)


def relabel_preterminals(tree: Tree, labels: list[str]) -> Tree:
    """Replace preterminal labels left to right with the given tag labels.

    Decoded trees carry whatever the model embedded at the preterminals;
    when the true tags are known (gold or predicted by a tagger), this
    restores them so the output looks like a normal treebank tree.
    """
    position = 0

    def node(t: Tree, done: list[Tree]) -> Tree:
        nonlocal position
        if not t.is_preterminal:
            return Tree.node(t.label, done)
        if position >= len(labels):
            raise ValueError(
                f"tree has more preterminals than the {len(labels)} labels given")
        position += 1
        return Tree.node(labels[position - 1], t.children)

    result = tree.fold(lambda t: t, node)
    if position != len(labels):
        raise ValueError(
            f"tree has {position} preterminals but {len(labels)} labels given")
    return result


def relexicalize_tree(tree: Tree, tokens: list[str]) -> Tree:
    """Replace leaf tokens left to right with the given surface tokens."""
    position = 0

    def leaf(t: Tree) -> Tree:
        nonlocal position
        if position >= len(tokens):
            raise ValueError(
                f"tree has more leaves than the {len(tokens)} tokens given")
        position += 1
        return Tree.leaf(tokens[position - 1])

    result = tree.fold(leaf, lambda t, done: Tree.node(t.label, done))
    if position != len(tokens):
        raise ValueError(f"tree has {position} leaves but {len(tokens)} tokens given")
    return result


def _drop_leaf(tree: Tree, target: int) -> Tree | None:
    """Remove the leaf at index ``target`` plus any ancestors left empty."""
    position = -1

    def leaf(t: Tree) -> Tree | None:
        nonlocal position
        position += 1
        return None if position == target else t

    def node(t: Tree, done: list[Tree | None]) -> Tree | None:
        children = [c for c in done if c is not None]
        return Tree.node(t.label, children) if children else None

    return tree.fold(leaf, node)


def filter_target_treebank(trees: list[Tree], latin_lexicon: set[str],
                           ) -> tuple[list[Tree], list[str]]:
    """Clean an evaluation treebank; returns (kept trees, report lines).

    Drops trees covering fewer than two leaves or failing well-formedness,
    drops trees where more than half of the tokens appear in the given
    Latin lexicon, and deletes a leading leaf made of digits and periods.
    The <2-leaf criterion is this toolkit's reading of "incomplete" trees.
    """
    kept: list[Tree] = []
    report: list[str] = []
    for index, tree in enumerate(trees):
        tokens = tree.leaf_tokens()
        if len(tokens) < 2:
            report.append(f"tree {index}: dropped (covers {len(tokens)} leaves)")
            continue
        problems = well_formedness_problems(tree)
        if problems:
            report.append(f"tree {index}: dropped (ill-formed: {problems[0]})")
            continue
        latin = sum(1 for t in tokens if t in latin_lexicon)
        if 2 * latin > len(tokens):
            report.append(
                f"tree {index}: dropped (mostly Latin: {latin}/{len(tokens)} tokens)")
            continue
        if _LEADING_FILLER_RE.fullmatch(tokens[0]):
            trimmed = _drop_leaf(tree, 0)
            if trimmed is None:
                report.append(f"tree {index}: dropped (empty after trimming)")
                continue
            report.append(f"tree {index}: removed leading token {tokens[0]!r}")
            tree = trimmed
        kept.append(tree)
    return kept, report
