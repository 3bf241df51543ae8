"""Reading and writing bracketed treebanks, tagged corpora, and tag map tables.

File formats:

* ``.brackets`` -- parenthesized trees, UTF-8, one tree per line on output;
  input may spread a tree over several lines.  Literal parentheses in labels
  and tokens are written as ``-LRB-`` / ``-RRB-`` and decoded on read.
* ``.tags`` -- one ``token<TAB>TAG.Feat1.Feat2`` line per token, sentences
  separated by a blank line.
* ``.tagmap`` -- sectioned TSV with ``[pos]`` and ``[features]`` sections,
  each line ``source<TAB>target``; ``#`` starts a comment line.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, TypeVar

log = logging.getLogger(__name__)

T = TypeVar("T")

TAG_SEPARATOR = "."
COMPOSITE_SEPARATOR = "|"  # joins the parts of a composite POS such as APPR|NA

_ESCAPES = (("(", "-LRB-"), (")", "-RRB-"))
_TOKEN_RE = re.compile(r"[()]|[^\s()]+")
_SPACE = re.compile(r"\s").search  # a match iff some char.isspace()
_CHILDREN = attrgetter("children")


class TreebankFormatError(ValueError):
    """Malformed treebank, tagged corpus, or tag map input.

    ``offset`` is a character offset into the input for bracketing errors;
    ``line`` is a 1-based line number for line-oriented formats.
    """

    def __init__(self, message: str, offset: int | None = None, line: int | None = None):
        if offset is not None:
            message = f"{message} (offset {offset})"
        if line is not None:
            message = f"{message} (line {line})"
        super().__init__(message)
        self.offset = offset
        self.line = line


def escape_atom(text: str) -> str:
    for char, code in _ESCAPES:
        text = text.replace(char, code)
    return text


def unescape_atom(text: str) -> str:
    for char, code in _ESCAPES:
        text = text.replace(code, char)
    return text


class _Memo(dict):
    """A dict that fills a missing key with ``make(key)``; a ``make`` that
    raises stores nothing.  Readers keep one per call, so a repeated atom
    is one object and no table outlives its read."""

    def __init__(self, make: Callable[[str], object]):
        super().__init__()
        self.make = make

    def __missing__(self, key: str) -> object:
        value = self[key] = self.make(key)
        return value


@dataclass(frozen=True, eq=False, slots=True)
class Tree:
    """Rooted ordered tree; a leaf is a node without children, and its
    label is its token.

    A preterminal is an internal node all of whose children are leaves.
    Every walk over a tree goes through :meth:`subtrees` or :meth:`fold`,
    which keep their own stack, so trees may nest to any depth.  Trees are
    immutable, so one node may sit at several places; nothing tells a
    shared node from a copy but ``is``.
    """

    label: str
    children: tuple["Tree", ...] = ()

    @staticmethod
    def leaf(token: str) -> "Tree":
        return Tree(token)

    @staticmethod
    def node(label: str, children: Iterable["Tree"]) -> "Tree":
        return Tree(label, tuple(children))

    @property
    def token(self) -> str | None:
        """A leaf's token, its label; ``None`` on an internal node."""
        return None if self.children else self.label

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def is_preterminal(self) -> bool:
        return bool(self.children) and not any(map(_CHILDREN, self.children))

    def subtrees(self) -> Iterator["Tree"]:
        """Every node of the tree in preorder, this one first."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def fold(self, leaf: Callable[["Tree"], T], node: Callable[["Tree", list[T]], T]) -> T:
        """The root's value, computed bottom-up: ``leaf(t)`` for each leaf and
        ``node(t, values)`` for each internal node with its children's
        values.  Calls follow document order, children before their parent.
        """
        # preorder with the children taken right to left: read backwards,
        # that is document order with children before their parent
        order: list[Tree] = []
        stack = [self]
        visit, pop, push = order.append, stack.pop, stack.extend
        while stack:
            t = pop()
            visit(t)
            push(t.children)
        values: list[T] = []
        append = values.append
        for t in reversed(order):
            if t.children:
                k = -len(t.children)
                values[k:] = [node(t, values[k:])]
            else:
                append(leaf(t))
        return values[0]

    def leaf_tokens(self) -> list[str]:
        return [t.label for t in self.subtrees() if not t.children]

    def preterminals(self) -> list["Tree"]:
        return [t for t in self.subtrees() if t.is_preterminal]

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Tree:
            return NotImplemented
        return all(a.label == b.label and len(a.children) == len(b.children)
                   for a, b in zip(self.subtrees(), other.subtrees()))

    def __hash__(self) -> int:
        return self.fold(lambda t: hash(t.label),
                         lambda t, hashes: hash((t.label, *hashes)))

    def __repr__(self) -> str:  # compact form, easier to read in test output
        return self.fold(lambda t: t.label,
                         lambda t, parts: f"({t.label} {' '.join(parts)})")


def well_formedness_problems(tree: Tree) -> list[str]:
    """Return a list of violations of the well-formed tree shape.

    Well-formed means every leaf hangs under a preterminal with exactly one
    child.  Flat preterminals and bare leaves under phrase nodes are legal
    input (they occur in converted treebanks) but are reported here, in
    document order.
    """
    if tree.is_leaf:
        return ["bare leaf as root"]

    def node(t: Tree, found: list[list[str] | None]) -> list[str]:
        if t.is_preterminal:
            n = len(t.children)
            return [] if n == 1 else [f"preterminal {t.label!r} has {n} leaves"]
        problems: list[str] = []
        for child, below in zip(t.children, found):  # a leaf's is None
            problems += below if below is not None else [
                f"leaf {child.label!r} has non-preterminal parent {t.label!r}"]
        return problems

    return tree.fold(lambda t: None, node)


def parse_bracketed(text: str) -> list[Tree]:
    """Parse every top-level bracketed tree in ``text``, in order.

    Irregular shapes (flat preterminals, leaves beside phrases) are
    accepted; :func:`well_formedness_problems` reports them.  Hard format
    problems raise :class:`TreebankFormatError` with a character offset.
    Trees may nest to any depth: one pass over the tokens keeps the open
    nodes on a stack.  The trees of one call share one ``str`` per distinct
    label or token and one leaf per distinct token.
    """
    # each distinct raw atom's decoded str, and each distinct token's leaf
    atoms = _Memo(lambda raw: unescape_atom(raw) if "-" in raw else raw)
    leaves = _Memo(lambda raw: Tree.leaf(atoms[raw]))

    def offset(index: int) -> int:
        """Character offset of the input's token ``index``, from a regex
        scan made only when an error needs it."""
        return [m.start() for m in _TOKEN_RE.finditer(text)][index]

    trees: list[Tree] = []
    # the innermost open node is (label, index of its "(", children) in
    # locals; the nodes enclosing it wait on the stack
    stack: list[tuple[str, int, list[Tree]]] = []
    label: str | None = None
    opened: int | None = None  # index of a "(" whose label comes next
    i = -1  # index of ``tok`` among the input's tokens
    # the tokens of _TOKEN_RE, a line at a time so that no list holds them
    # all: split() and the regex's \s agree on whitespace, "\n" among it
    for line in text.split("\n"):
        for tok in line.replace("(", " ( ").replace(")", " ) ").split():
            i += 1
            if opened is not None:
                if tok == ")":
                    raise TreebankFormatError("empty label", offset=offset(i))
                if tok == "(":
                    raise TreebankFormatError("missing label before '('", offset=offset(i))
                if label is not None:
                    stack.append((label, start, children))
                label, start, children, opened = atoms[tok], opened, [], None
            elif tok == "(":
                opened = i
            elif label is None:
                raise TreebankFormatError(f"unexpected {tok!r} outside tree", offset=offset(i))
            elif tok == ")":
                if not children:
                    raise TreebankFormatError(
                        f"constituent {label!r} has no children", offset=offset(start))
                node = Tree(label, tuple(children))
                if stack:
                    label, start, children = stack.pop()
                    children.append(node)
                else:
                    label = None
                    trees.append(node)
            else:
                children.append(leaves[tok])
    if label is not None or opened is not None:
        raise TreebankFormatError("unbalanced parentheses", offset=len(text))
    return trees


def serialize_tree(tree: Tree) -> str:
    """Render a tree as a single bracketed line; inverse of parse_bracketed."""
    return tree.fold(lambda t: escape_atom(_checked_atom(t.label, "token")),
                     lambda t, parts: "({} {})".format(
                         escape_atom(_checked_atom(t.label, "label")), " ".join(parts)))


def _checked_atom(text: str, kind: str) -> str:
    if not text:
        raise ValueError(f"empty {kind} is not serializable")
    if _SPACE(text):
        raise ValueError(f"{kind} {text!r} contains whitespace")
    return text


def _read_utf8(path: str | Path) -> str:
    """A text file's content with universal newlines, as ``read_text``
    gives it; bytes that are not UTF-8 raise :class:`TreebankFormatError`
    naming the byte offset."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise TreebankFormatError(
            f"not UTF-8: {exc.reason} at byte offset {exc.start}") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def read_treebank(path: str | Path) -> list[Tree]:
    return parse_bracketed(_read_utf8(path))


def write_lines(path: str | Path, lines: Iterable[str]) -> None:
    """Write ``lines`` as UTF-8 text, each ended by ``\\n``.  A failed
    write raises ``OSError`` with ``path`` as its ``filename``, also when
    it fails after the file opened (a full disk)."""
    try:
        Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    except OSError as exc:
        exc.filename = path
        raise


def write_treebank(trees: Iterable[Tree], path: str | Path) -> None:
    write_lines(path, [serialize_tree(t) for t in trees])


def split_treebank(trees: list[Tree], train_count: int) -> tuple[list[Tree], list[Tree]]:
    """Split a treebank into (first ``train_count`` trees, the remainder)."""
    if not 0 <= train_count <= len(trees):
        raise ValueError(
            f"train_count {train_count} out of range for {len(trees)} trees")
    return trees[:train_count], trees[train_count:]


@dataclass(frozen=True, slots=True)
class ExtendedTag:
    """A POS tag plus an ordered tuple of morphological feature values."""

    pos: str
    features: tuple[str, ...] = ()

    def serialized(self, sep: str = TAG_SEPARATOR) -> str:
        return sep.join((self.pos,) + self.features)

    @staticmethod
    def parse(text: str, sep: str = TAG_SEPARATOR) -> "ExtendedTag":
        """Parse ``POS.Feat1.Feat2`` notation.

        Strings that do not split cleanly on ``sep`` (empty parts, e.g. the
        punctuation tag ``$.``) are treated as an atomic POS with no
        features, so that real tag inventories never halt the pipeline.
        """
        if not text or _SPACE(text):
            raise ValueError(f"invalid extended tag {text!r}")
        parts = text.split(sep)
        if any(not p for p in parts):
            return ExtendedTag(text, ())
        return ExtendedTag(parts[0], tuple(parts[1:]))


@dataclass(frozen=True, slots=True)
class TaggedSentence:
    """Parallel token and tag sequences of equal, nonzero length."""

    tokens: tuple[str, ...]
    tags: tuple[ExtendedTag, ...]

    def __post_init__(self):
        if not self.tokens or len(self.tokens) != len(self.tags):
            raise ValueError(
                f"{len(self.tokens)} tokens vs {len(self.tags)} tags")

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)
class TagMapTable:
    """Source-to-target tag correspondences; lookups not present fall through."""

    pos_map: Mapping[str, ExtendedTag]
    feature_map: Mapping[str, str]


def read_tagged_corpus(text: str, sep: str = TAG_SEPARATOR) -> list[TaggedSentence]:
    """Read a tab-separated tagged corpus; blank lines separate sentences.
    A token or tag that is empty or holds whitespace is malformed.  The
    sentences share one ``str`` per distinct token and one
    :class:`ExtendedTag` per distinct tag text."""
    sentences: list[TaggedSentence] = []
    atoms = _Memo(lambda token: _checked_atom(token, "token"))
    parsed = _Memo(lambda text: ExtendedTag.parse(text, sep))
    tokens: list[str] = []
    tags: list[ExtendedTag] = []
    prev_blank = False

    def flush():
        nonlocal tokens, tags
        if tokens:
            sentences.append(TaggedSentence(tuple(tokens), tuple(tags)))
            tokens, tags = [], []

    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            if prev_blank:
                log.warning("skipping empty sentence at line %d", lineno)
            flush()
            prev_blank = True
            continue
        prev_blank = False
        if "\t" not in line:
            raise TreebankFormatError("expected token<TAB>tag", line=lineno)
        token, tag_text = line.split("\t", 1)
        try:
            tokens.append(atoms[token])
            tags.append(parsed[tag_text])
        except ValueError:
            raise TreebankFormatError(f"malformed tagged line {line!r}", line=lineno) from None
    flush()
    return sentences


def write_tagged_corpus(sentences: Iterable[TaggedSentence], path: str | Path,
                        sep: str = TAG_SEPARATOR) -> None:
    lines: list[str] = []
    for sentence in sentences:
        for token, tag in zip(sentence.tokens, sentence.tags):
            lines.append(f"{token}\t{tag.serialized(sep)}")
        lines.append("")
    write_lines(path, lines)


def read_tagged_corpus_file(path: str | Path, sep: str = TAG_SEPARATOR) -> list[TaggedSentence]:
    return read_tagged_corpus(_read_utf8(path), sep)


_SECTIONS = ("pos", "features")


def read_tag_map(text: str, sep: str = TAG_SEPARATOR,
                 composite: str = COMPOSITE_SEPARATOR) -> TagMapTable:
    """Read a sectioned ``[pos]`` / ``[features]`` tag map table.  No part of
    a target, POS or feature, may be empty or hold whitespace or the
    ``composite`` separator, so none reads as a composite."""
    pos_map: dict[str, ExtendedTag] = {}
    feature_map: dict[str, str] = {}
    section: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1]
            if section not in _SECTIONS:
                raise TreebankFormatError(
                    f"unknown section {section!r}", line=lineno)
            continue
        if section is None:
            raise TreebankFormatError("entry before section header", line=lineno)
        if "\t" not in line:
            raise TreebankFormatError("expected source<TAB>target", line=lineno)
        source, target = (part.strip() for part in line.split("\t", 1))
        if not source or not target:
            raise TreebankFormatError("empty source or target", line=lineno)
        if section == "pos":
            if source in pos_map:
                raise TreebankFormatError(
                    f"duplicate source tag {source!r}", line=lineno)
            try:
                tag = ExtendedTag.parse(target, sep)
            except ValueError as exc:
                raise TreebankFormatError(str(exc), line=lineno) from exc
            if any(composite in part for part in (tag.pos,) + tag.features):
                raise TreebankFormatError(
                    f"target tag {target!r} contains {composite!r}", line=lineno)
            pos_map[source] = tag
        else:
            if source in feature_map:
                raise TreebankFormatError(
                    f"duplicate source feature {source!r}", line=lineno)
            if sep in target or composite in target or _SPACE(target):
                raise TreebankFormatError(
                    f"invalid target feature {target!r}", line=lineno)
            feature_map[source] = target
    return TagMapTable(pos_map, feature_map)


def read_tag_map_file(path: str | Path, sep: str = TAG_SEPARATOR,
                      composite: str = COMPOSITE_SEPARATOR) -> TagMapTable:
    return read_tag_map(_read_utf8(path), sep, composite)
