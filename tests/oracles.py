"""Independent reference implementations used to verify the library.

Everything here is deliberately naive: enumeration instead of dynamic
programming, a dense score tensor reduced to CKY's span tables in one
pass, a direct span walk instead of the scorer's rebuild pass, a
span-by-span label MLP and a span-by-span CKY loop for the vectorized
scorer and chart, a scorer backward over every span for the row-only
one, a dense cost tensor for the in-place loss augmentation, a
recursive-descent bracket reader over per-token (token, offset) pairs
for the one-pass reader, plain recursion for every tree walk that the
library folds over an explicit stack, a one-sentence-at-a-time encoder
and training loop for the packed ones, and a ground-truth HMM with
Viterbi decoding for the tagger.  None of it shares code paths with the
implementations under test, except the one-sentence forward and loss
helpers and the training loop built on them, which take each sentence's
forward, loss and gradients from the library, one sentence at a time.
"""

from __future__ import annotations

import itertools
import re
from collections import Counter
from dataclasses import dataclass

import numpy as np

from delexparse.chart import SpanTables
from delexparse.evalb import EvalConfig, LabeledSpan
from delexparse.transform import CHAIN_SEPARATOR, EMPTY_LABEL, TransformConfig
from delexparse.treebank import (ExtendedTag, TaggedSentence, Tree, TreebankFormatError,
                                 unescape_atom)

DEFAULT_PUNCT = frozenset({"$,", "$.", "$("})


# ---------------------------------------------------------------- CKY oracle

def all_bracketings(i: int, j: int):
    """Every full binary bracketing of (i, j), root span first."""
    if j - i == 1:
        yield ((i, j),)
        return
    for k in range(i + 1, j):
        for left in all_bracketings(i, k):
            for right in all_bracketings(k, j):
                yield ((i, j),) + left + right


def best_tree_score(scores: np.ndarray) -> float:
    """Max total score over all binary bracketings, best label per span.

    The root span is restricted to non-empty labels; every other span may
    take any label including the empty one.
    """
    n = scores.shape[0]
    num_labels = scores.shape[2]
    best = -np.inf
    for spans in all_bracketings(0, n):
        total = 0.0
        for index, (i, j) in enumerate(spans):
            choices = range(1, num_labels) if index == 0 else range(num_labels)
            total += max(scores[i, j, l] for l in choices)
        best = max(best, total)
    return best


def best_tree_score_full_enumeration(scores: np.ndarray) -> float:
    """Same value via brute force over every labeling; tiny inputs only."""
    n = scores.shape[0]
    num_labels = scores.shape[2]
    best = -np.inf
    for spans in all_bracketings(0, n):
        for labeling in itertools.product(range(num_labels), repeat=len(spans)):
            if labeling[0] == 0:
                continue
            total = sum(scores[i, j, l] for (i, j), l in zip(spans, labeling))
            best = max(best, total)
    return best


def dense_tables(scores: np.ndarray) -> SpanTables:
    """The per-span tables CKY reads, reduced from a dense (n, n+1, L)
    score tensor: each cell's argmax label and max score, except that the
    root span (0, n) holds its best non-empty label and that label's
    score."""
    n, _, num_labels = scores.shape
    score, label = scores.max(axis=2), scores.argmax(axis=2)
    label[0, n] = 1 + int(scores[0, n, 1:].argmax())
    score[0, n] = scores[0, n, label[0, n]]
    return SpanTables(score, label, num_labels)


def per_span_chart(scores: np.ndarray):
    """CKY filled one span at a time, each span's splits scanned left to
    right, the root span restricted to non-empty labels; returns
    (best_score, best_split, best_label) as the chart and its tables do."""
    n = scores.shape[0]
    best = np.zeros((n, n + 1))
    split = np.full((n, n + 1), -1, dtype=np.int64)
    labels = scores.argmax(axis=2)
    labels[0, n] = 1 + int(scores[0, n, 1:].argmax())
    for i in range(n):
        best[i, i + 1] = scores[i, i + 1, labels[i, i + 1]]
    for width in range(2, n + 1):
        for i in range(n - width + 1):
            j = i + width
            inner = np.arange(i + 1, j)
            totals = best[i, inner] + best[inner, j]
            k = int(totals.argmax())
            best[i, j] = scores[i, j, labels[i, j]] + totals[k]
            split[i, j] = i + 1 + k
    return best, split, labels


# ------------------------------------------ one sentence at a time, unpacked

def per_sentence_fenceposts(params, tags: list[ExtendedTag]) -> np.ndarray:
    """One sentence's fenceposts, embedded and encoded on its own rows
    only, the way the encoder ran before sentences were packed."""
    t, cfg = params.tensors, params.config
    n, d = len(tags), cfg.model_dim
    heads, dk = cfg.num_heads, cfg.head_dim
    x = (t["pos_embedding"][[params.pos_index.get(tag.pos, 0) for tag in tags]]
         + t["position_encoding"][:n])
    for i, tag in enumerate(tags):
        ids = [params.feature_index.get(f, 0) for f in tag.features]
        if ids:
            x[i] += t["feature_embedding"][ids].sum(axis=0)

    def norm(v, gain, bias):
        centered = v - v.mean(axis=-1, keepdims=True)
        var = (centered * centered).mean(axis=-1, keepdims=True)
        return gain * (centered * (1.0 / np.sqrt(var + 1e-5))) + bias

    h = x
    for i in range(cfg.num_layers):
        p = f"layer_{i}/"
        u = norm(h, t[p + "ln1_gain"], t[p + "ln1_bias"])
        q, k, v = ((u @ t[p + w]).reshape(n, heads, dk).transpose(1, 0, 2)
                   for w in ("wq", "wk", "wv"))
        logits = q @ k.transpose(0, 2, 1) * (1.0 / np.sqrt(dk))
        logits -= logits.max(axis=-1, keepdims=True)
        weights = np.exp(logits)
        weights /= weights.sum(axis=-1, keepdims=True)
        a = h + (weights @ v).transpose(1, 0, 2).reshape(n, heads * dk) @ t[p + "wo"]
        z = norm(a, t[p + "ln2_gain"], t[p + "ln2_bias"]) @ t[p + "ff_w1"] + t[p + "ff_b1"]
        h = a + np.maximum(z, 0.0) @ t[p + "ff_w2"] + t[p + "ff_b2"]
    half = d // 2
    ext = np.concatenate([t["boundary"][0:1], h, t["boundary"][1:2]], axis=0)
    return np.concatenate([ext[:-1, :half], ext[1:, half:]], axis=1)


def sentence_forward(params, tags: list[ExtendedTag], gold=None):
    """One sentence's :func:`model.forward_packed` result, backward caches
    kept; its :class:`model.ModelError` is raised."""
    from delexparse import model

    result = next(model.forward_packed(params, [tags], [gold]))
    if isinstance(result, model.ModelError):
        raise result
    return result


def sentence_loss(params, tags: list[ExtendedTag], gold_tree: Tree):
    """One sentence's hinge loss, with its subgradient in a fresh
    zero-filled dict."""
    from delexparse import model

    gold = model.gold_indices(params, tags, gold_tree)
    return model.loss_and_gradients(params, sentence_forward(params, tags, gold), gold,
                                    params.zero_grads())


def per_sentence_train(train_trees: list[Tree], dev_trees: list[Tree], mconfig, tconfig):
    """The training loop one sentence at a time: each sentence's forward
    on its own, its subgradient in a fresh zero-filled dict that is then
    added into the minibatch's, and dev F1 from one-sentence parses.
    Returns the dev-best parameters and the log lines."""
    from delexparse import chart, evalb, model, trainer
    from delexparse.transform import debinarize, relabel_preterminals

    train_tags = [trainer.tree_tag_sequence(t) for t in train_trees]
    dev_tags = [trainer.tree_tag_sequence(t) for t in dev_trees]
    params = model.init_params(mconfig, *model.build_vocabularies(train_tags),
                               model.build_label_inventory(train_trees))
    optimizer = trainer._Optimizer(params, tconfig)
    rng = np.random.default_rng(tconfig.seed)
    dev_gold = [debinarize(t) for t in dev_trees]
    best_f1, best_tensors, log_lines = -1.0, params.copy_tensors(), []
    order = np.arange(len(train_trees))
    for epoch in range(1, tconfig.epochs + 1):
        if tconfig.shuffle:
            order = rng.permutation(len(train_trees))
        losses = []
        for start in range(0, len(order), tconfig.batch_size):
            batch = order[start:start + tconfig.batch_size]
            grads = params.zero_grads()
            for index in batch:
                loss, g = sentence_loss(params, train_tags[index], train_trees[index])
                losses.append(loss)
                for name, value in g.items():
                    grads[name] += value
            for name in grads:
                grads[name] *= 1.0 / len(batch)
            optimizer.step(params, grads)
        predictions = []
        for tags, gold in zip(dev_tags, dev_gold):
            tables, _, _ = sentence_forward(params, tags)
            pred = debinarize(chart.cky_decode(tables, params.labels, tags))
            predictions.append(relabel_preterminals(pred, [p.label
                                                           for p in gold.preterminals()]))
        dev_f1 = evalb.score_corpus(dev_gold, predictions).fscore
        log_lines.append(f"{epoch}\t{float(np.mean(losses)):.6f}\t{dev_f1:.4f}")
        if dev_f1 > best_f1:
            best_f1, best_tensors = dev_f1, params.copy_tensors()
    return model.ModelParams(mconfig, params.pos_names, params.feature_names,
                             params.labels, best_tensors), log_lines


# ------------------------------------------------------- span scorer oracle

def unfactored_span_scores(tensors: dict[str, np.ndarray],
                           fenceposts: np.ndarray, num_labels: int) -> np.ndarray:
    """Label scores span by span: (F[j] - F[i]) @ W1 + b1, layer norm, ReLU,
    W2 + b2; the empty-label column stays zero."""
    n = fenceposts.shape[0] - 1
    scores = np.zeros((n, n + 1, num_labels))
    for i in range(n):
        for j in range(i + 1, n + 1):
            z = (fenceposts[j] - fenceposts[i]) @ tensors["label_w1"] + tensors["label_b1"]
            centered = z - z.mean()
            xhat = centered / np.sqrt((centered * centered).mean() + 1e-5)
            hidden = tensors["label_ln_gain"] * xhat + tensors["label_ln_bias"]
            scores[i, j, 1:] = np.maximum(hidden, 0.0) @ tensors["label_w2"] \
                + tensors["label_b2"]
    return scores


def _start_blocks(n: int):
    offset = 0
    for i in range(n):
        yield i, slice(offset, offset + n - i)
        offset += n - i


def dense_scores_forward(tensors: dict[str, np.ndarray], fenceposts: np.ndarray,
                         num_labels: int):
    """The factored scorer that caches the n(n+1)/2-row ``xhat``, ``inv``
    and ``r``, as the dense backward below needs them."""
    n = fenceposts.shape[0] - 1
    proj = fenceposts @ tensors["label_w1"]
    shifted = proj + tensors["label_b1"]
    hidden_dim = proj.shape[1]
    xhat = np.empty((n * (n + 1) // 2, hidden_dim))
    for i, rows in _start_blocks(n):
        np.subtract(shifted[i + 1:], proj[i], out=xhat[rows])
    xhat -= xhat.mean(axis=-1, keepdims=True)
    var = np.einsum("ij,ij->i", xhat, xhat)[:, None] / hidden_dim
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat *= inv
    r = xhat * tensors["label_ln_gain"]
    r += tensors["label_ln_bias"]
    np.maximum(r, 0.0, out=r)
    out = r @ tensors["label_w2"]
    out += tensors["label_b2"]
    scores = np.zeros((n, n + 1, num_labels))
    for i, rows in _start_blocks(n):
        scores[i, i + 1:, 1:] = out[rows]
    return scores, (fenceposts, xhat, inv, r, n)


def dense_scores_backward(tensors: dict[str, np.ndarray], cache, dscores):
    """Backward of :func:`dense_scores_forward` over every span of a dense
    score gradient; returns the six ``label_*`` gradients and ``dfence``."""
    fenceposts, xhat, inv, r, n = cache
    grads = {name: np.zeros_like(tensors[name]) for name in (
        "label_w1", "label_b1", "label_ln_gain", "label_ln_bias",
        "label_w2", "label_b2")}
    dout = np.empty((len(r), dscores.shape[2] - 1))
    for i, rows in _start_blocks(n):
        dout[rows] = dscores[i, i + 1:, 1:]
    grads["label_w2"] += r.T @ dout
    grads["label_b2"] += dout.sum(axis=0)
    dz = dout @ tensors["label_w2"].T
    dz *= r > 0.0
    grads["label_ln_gain"] += np.einsum("ij,ij->j", dz, xhat)
    grads["label_ln_bias"] += dz.sum(axis=0)
    dz *= tensors["label_ln_gain"]
    mean_dot = np.einsum("ij,ij->i", dz, xhat)[:, None] / dz.shape[1]
    dz -= dz.mean(axis=-1, keepdims=True)
    dproj = np.zeros((n + 1, dz.shape[1]))
    dstart = np.empty((n, dz.shape[1]))
    for i, rows in _start_blocks(n):
        block = dz[rows]
        block -= xhat[rows] * mean_dot[rows]
        block *= inv[rows]
        dstart[i] = block.sum(axis=0)
        dproj[i + 1:] += block
    dproj[:n] -= dstart
    grads["label_b1"] += dstart.sum(axis=0)
    grads["label_w1"] += fenceposts.T @ dproj
    return grads, dproj @ tensors["label_w1"].T


# ------------------------------------------------------ loss augmentation oracle

def dense_hamming_augment(n: int, num_labels: int,
                          gold_spans: list[tuple[int, int, int]]) -> np.ndarray:
    """Cost tensor adding 1 to every span labeling that disagrees with gold;
    the empty label costs nothing off the gold bracketing."""
    augment = np.ones((n, n + 1, num_labels))
    augment[:, :, 0] = 0.0
    for i, j, label in gold_spans:
        if label != 0:
            augment[i, j, 0] = 1.0
        augment[i, j, label] = 0.0
    return augment


# ------------------------------------------------------------- reader oracle

_BRACKET_TOKEN = re.compile(r"[()]|[^\s()]+")


def recursive_scan_bracketed(text: str) -> tuple[list[Tree], list[str]]:
    """``treebank.scan_bracketed`` by recursive descent: the same trees,
    diagnostics, errors and offsets, one Python frame per tree level."""
    tokens = [(m.group(), m.start()) for m in _BRACKET_TOKEN.finditer(text)]
    trees: list[Tree] = []
    diagnostics: list[str] = []
    pos = 0

    def parse_node(i: int) -> tuple[Tree, int]:
        # tokens[i] is the "(" that opens this node
        open_offset = tokens[i][1]
        i += 1
        if i >= len(tokens):
            raise TreebankFormatError("unbalanced parentheses", offset=len(text))
        head, head_offset = tokens[i]
        if head == ")":
            raise TreebankFormatError("empty label", offset=head_offset)
        if head == "(":
            raise TreebankFormatError("missing label before '('", offset=head_offset)
        label = unescape_atom(head)
        i += 1
        children: list[Tree] = []
        while True:
            if i >= len(tokens):
                raise TreebankFormatError("unbalanced parentheses", offset=len(text))
            tok, offset = tokens[i]
            if tok == "(":
                child, i = parse_node(i)
                children.append(child)
            elif tok == ")":
                i += 1
                break
            else:
                children.append(Tree.leaf(unescape_atom(tok)))
                i += 1
        if not children:
            raise TreebankFormatError(
                f"constituent {label!r} has no children", offset=open_offset)
        node = Tree.node(label, children)
        leaf_kids = sum(1 for c in children if c.is_leaf)
        if leaf_kids and leaf_kids < len(children):
            diagnostics.append(
                f"leaf with non-leaf siblings under {label!r} (offset {open_offset})")
        elif leaf_kids > 1:
            diagnostics.append(
                f"flat preterminal {label!r} with {leaf_kids} leaves (offset {open_offset})")
        return node, i

    while pos < len(tokens):
        tok, offset = tokens[pos]
        if tok != "(":
            raise TreebankFormatError(f"unexpected {tok!r} outside tree", offset=offset)
        tree, pos = parse_node(pos)
        trees.append(tree)
    return trees, diagnostics


# -------------------------------------------------------------- evalb oracle

def _leaf_preterminal_labels(tree: Tree) -> list[str | None]:
    labels: list[str | None] = []

    def collect(node: Tree, pre: str | None):
        if node.is_leaf:
            labels.append(pre)
            return
        for child in node.children:
            collect(child, node.label if node.is_preterminal else None)

    collect(tree, None)
    return labels


def naive_eval_spans(tree: Tree, punctuation=DEFAULT_PUNCT) -> Counter:
    """Scoring spans computed from original leaf ranges plus a prefix map."""
    pre_labels = _leaf_preterminal_labels(tree)
    kept = [lab is None or lab not in punctuation for lab in pre_labels]
    prefix = [0]
    for flag in kept:
        prefix.append(prefix[-1] + int(flag))
    spans: Counter = Counter()
    cursor = 0

    def walk(node: Tree) -> tuple[int, int]:
        nonlocal cursor
        if node.is_leaf:
            cursor += 1
            return cursor - 1, cursor
        first = last = None
        for child in node.children:
            a, b = walk(child)
            first = a if first is None else first
            last = b
        if not node.is_preterminal:
            start, end = prefix[first], prefix[last]
            if end > start:
                spans[(start, end, node.label)] += 1
        return first, last

    walk(tree)
    return spans


def naive_kept_leaves(tree: Tree, punctuation=DEFAULT_PUNCT) -> int:
    return sum(lab is None or lab not in punctuation
               for lab in _leaf_preterminal_labels(tree))


def naive_score(gold: list[Tree], pred: list[Tree], punctuation=DEFAULT_PUNCT):
    """Corpus metrics (recall, precision, fscore, cm) plus raw counts."""
    matched = gold_total = pred_total = exact = scored = 0
    for g, p in zip(gold, pred):
        if naive_kept_leaves(g, punctuation) != naive_kept_leaves(p, punctuation):
            continue
        gs = naive_eval_spans(g, punctuation)
        ps = naive_eval_spans(p, punctuation)
        matched += sum(min(count, ps.get(span, 0)) for span, count in gs.items())
        gold_total += sum(gs.values())
        pred_total += sum(ps.values())
        exact += gs == ps
        scored += 1
    precision = 100.0 * matched / pred_total if pred_total else 0.0
    recall = 100.0 * matched / gold_total if gold_total else 0.0
    if precision + recall:
        fscore = 2.0 * precision * recall / (precision + recall)
    else:
        fscore = 0.0
    cm = 100.0 * exact / scored if scored else 0.0
    return {"recall": recall, "precision": precision, "fscore": fscore,
            "complete_match": cm, "matched": matched, "gold_total": gold_total,
            "pred_total": pred_total, "exact": exact, "scored": scored}


# ---------------------------------------------------------- tree walk oracles
#
# Each walk over a tree, written as plain recursion, one Python frame per
# tree level.  The library folds over an explicit stack instead; these
# give the results and the first error it must match.

def recursive_leaf_tokens(tree: Tree) -> list[str]:
    if tree.is_leaf:
        return [tree.token]
    return [token for child in tree.children for token in recursive_leaf_tokens(child)]


def recursive_preterminals(tree: Tree) -> list[Tree]:
    if tree.is_leaf:
        return []
    if tree.is_preterminal:
        return [tree]
    return [p for child in tree.children for p in recursive_preterminals(child)]


def recursive_repr(tree: Tree) -> str:
    if tree.is_leaf:
        return tree.token
    return "({} {})".format(tree.label, " ".join(recursive_repr(c) for c in tree.children))


def recursive_eq(a: Tree, b: Tree) -> bool:
    """The field-by-field equality a frozen dataclass generates."""
    return (a.label == b.label and a.token == b.token
            and len(a.children) == len(b.children)
            and all(recursive_eq(x, y) for x, y in zip(a.children, b.children)))


def recursive_well_formedness_problems(tree: Tree) -> list[str]:
    problems: list[str] = []

    def walk(node: Tree) -> None:
        if node.is_leaf:
            return
        if node.is_preterminal:
            if len(node.children) != 1:
                problems.append(
                    f"preterminal {node.label!r} has {len(node.children)} leaves")
            return
        for child in node.children:
            if child.is_leaf:
                problems.append(
                    f"leaf {child.token!r} has non-preterminal parent {node.label!r}")
            else:
                walk(child)

    if tree.is_leaf:
        problems.append("bare leaf as root")
    else:
        walk(tree)
    return problems


def _checked_atom(text: str | None, kind: str) -> str:
    if not text:
        raise ValueError(f"empty {kind} is not serializable")
    if any(char.isspace() for char in text):
        raise ValueError(f"{kind} {text!r} contains whitespace")
    return text


def _escape_atom(text: str) -> str:
    return text.replace("(", "-LRB-").replace(")", "-RRB-")


def recursive_serialize_tree(tree: Tree) -> str:
    if tree.is_leaf:
        return _escape_atom(_checked_atom(tree.token, "token"))
    inner = " ".join(recursive_serialize_tree(c) for c in tree.children)
    return f"({_escape_atom(_checked_atom(tree.label, 'label'))} {inner})"


def recursive_strip_annotations(tree: Tree, cfg: TransformConfig = TransformConfig()) -> Tree:
    def clean(label: str) -> str:
        cut = label.find(cfg.edge_separator)
        if cut > 0:
            label = label[:cut]
        stripped = re.sub(r"=\d+$", "", label)
        return stripped if stripped else label

    def is_trace(node: Tree) -> bool:
        if node.label == cfg.trace_label:
            return True
        return len(node.children) == 1 and any(
            node.children[0].token.startswith(p) for p in cfg.trace_token_patterns)

    def walk(node: Tree) -> Tree | None:
        if node.is_leaf:
            return node
        if node.is_preterminal:
            return None if is_trace(node) else node
        children = [c for c in (walk(child) for child in node.children) if c is not None]
        if not children:
            return None
        return Tree.node(clean(node.label), children)

    result = walk(tree)
    if result is None:
        raise ValueError("empty after stripping")
    return result


def recursive_delexicalize_tree(tree: Tree,
                                cfg: TransformConfig = TransformConfig()) -> Tree:
    def walk(node: Tree) -> Tree:
        if node.is_leaf:
            raise ValueError(f"leaf {node.token!r} has no preterminal parent")
        if node.is_preterminal:
            if len(node.children) != 1:
                raise ValueError(
                    f"preterminal {node.label!r} has {len(node.children)} children")
            try:
                tag = ExtendedTag.parse(node.label, cfg.morph_separator)
            except ValueError as exc:
                raise ValueError(
                    f"preterminal label {node.label!r} is not an extended tag") from exc
            token = tag.serialized(cfg.morph_separator) if cfg.keep_morphology else tag.pos
            return Tree.node(tag.pos, [Tree.leaf(token)])
        return Tree.node(node.label, [walk(c) for c in node.children])

    return walk(tree)


def _check_reserved(tree: Tree) -> None:
    if tree.is_leaf or tree.is_preterminal:
        return
    if EMPTY_LABEL in tree.label or CHAIN_SEPARATOR in tree.label:
        raise ValueError(f"label {tree.label!r} uses a reserved character")
    for child in tree.children:
        _check_reserved(child)


def _fold_right(children: list[Tree]) -> list[Tree]:
    if len(children) <= 2:
        return children
    return [children[0], Tree.node(EMPTY_LABEL, _fold_right(children[1:]))]


def recursive_binarize(tree: Tree) -> Tree:
    _check_reserved(tree)

    def walk(node: Tree) -> Tree:
        if node.is_leaf or node.is_preterminal:
            return node
        label = node.label
        while (len(node.children) == 1
               and not node.children[0].is_leaf
               and not node.children[0].is_preterminal):
            node = node.children[0]
            label = label + CHAIN_SEPARATOR + node.label
        return Tree.node(label, _fold_right([walk(c) for c in node.children]))

    return walk(tree)


def recursive_debinarize(tree: Tree) -> Tree:
    if not tree.is_leaf and not tree.is_preterminal and tree.label == EMPTY_LABEL:
        raise ValueError("cannot splice an empty-label node at the root")

    def walk(node: Tree) -> Tree:
        if node.is_leaf or node.is_preterminal:
            return node
        children: list[Tree] = []
        for child in node.children:
            done = walk(child)
            if not done.is_leaf and not done.is_preterminal and done.label == EMPTY_LABEL:
                children.extend(done.children)
            else:
                children.append(done)
        parts = node.label.split(CHAIN_SEPARATOR)
        result = Tree.node(parts[-1], children)
        for part in reversed(parts[:-1]):
            result = Tree.node(part, [result])
        return result

    return walk(tree)


def recursive_relabel_preterminals(tree: Tree, labels: list[str]) -> Tree:
    position = 0

    def walk(node: Tree) -> Tree:
        nonlocal position
        if node.is_leaf:
            return node
        if node.is_preterminal:
            if position >= len(labels):
                raise ValueError(
                    f"tree has more preterminals than the {len(labels)} labels given")
            position += 1
            return Tree.node(labels[position - 1], list(node.children))
        return Tree.node(node.label, [walk(c) for c in node.children])

    result = walk(tree)
    if position != len(labels):
        raise ValueError(
            f"tree has {position} preterminals but {len(labels)} labels given")
    return result


def recursive_relexicalize_tree(tree: Tree, tokens: list[str]) -> Tree:
    position = 0

    def walk(node: Tree) -> Tree:
        nonlocal position
        if node.is_leaf:
            if position >= len(tokens):
                raise ValueError(
                    f"tree has more leaves than the {len(tokens)} tokens given")
            position += 1
            return Tree.leaf(tokens[position - 1])
        return Tree.node(node.label, [walk(c) for c in node.children])

    result = walk(tree)
    if position != len(tokens):
        raise ValueError(f"tree has {position} leaves but {len(tokens)} tokens given")
    return result


def recursive_drop_leaf(tree: Tree, target: int) -> Tree | None:
    position = 0

    def walk(node: Tree) -> Tree | None:
        nonlocal position
        if node.is_leaf:
            position += 1
            return None if position - 1 == target else node
        children = [c for c in (walk(child) for child in node.children) if c is not None]
        if not children:
            return None
        return Tree.node(node.label, children)

    return walk(tree)


def recursive_tree_spans(tree: Tree) -> tuple[list[tuple[int, int, str]], int]:
    spans: list[tuple[int, int, str]] = []

    def walk(node: Tree, i: int) -> int:
        if node.is_leaf:
            return i + 1
        if node.is_preterminal:
            return i + len(node.children)
        j = i
        for child in node.children:
            j = walk(child, j)
        spans.append((i, j, node.label))
        return j

    n = walk(tree, 0)
    return spans, n


def recursive_spans_and_length(tree: Tree, cfg: EvalConfig) -> tuple[Counter, int]:
    spans: Counter = Counter()

    def walk(node: Tree, i: int, is_root: bool) -> int:
        if node.is_leaf:
            return i + 1
        if node.is_preterminal:
            if node.label in cfg.punctuation_tags:
                return i
            return i + len(node.children)
        j = i
        for child in node.children:
            j = walk(child, j, False)
        if j > i and (cfg.include_root or not is_root):
            label = cfg.label_equivalences.get(node.label, node.label)
            if label not in cfg.ignore_labels:
                spans[LabeledSpan(i, j, label)] += 1
        return j

    length = walk(tree, 0, True)
    return spans, length


def recursive_label_inventory(trees: list[Tree]) -> list[str]:
    labels: set[str] = set()

    def walk(node: Tree):
        if node.is_leaf or node.is_preterminal:
            return
        if node.label != EMPTY_LABEL:
            labels.add(node.label)
        for child in node.children:
            walk(child)

    for tree in trees:
        walk(tree)
    return [EMPTY_LABEL] + sorted(labels)


# ---------------------------------------------------------------- HMM oracle

@dataclass
class HMM:
    start: np.ndarray   # (T,)
    trans: np.ndarray   # (T, T)
    emit: np.ndarray    # (T, W)
    tags: list[str]
    words: list[str]


def make_hmm(rng: np.random.Generator, n_tags: int = 8, n_words: int = 60) -> HMM:
    """A peaked HMM: words mostly stick to a home tag, transitions cycle."""
    start = np.full(n_tags, 1.0 / n_tags)
    trans = np.full((n_tags, n_tags), 0.25 / max(n_tags - 2, 1))
    for t in range(n_tags):
        trans[t, (t + 1) % n_tags] = 0.55
        trans[t, t] = 0.20
    trans /= trans.sum(axis=1, keepdims=True)
    emit = np.full((n_tags, n_words), 0.1)
    for w in range(n_words):
        emit[w % n_tags, w] = 12.0
    emit *= 1.0 + 0.2 * rng.random((n_tags, n_words))  # break symmetry
    emit /= emit.sum(axis=1, keepdims=True)
    tags = [f"T{t}" for t in range(n_tags)]
    words = [f"w{w}" for w in range(n_words)]
    return HMM(start, trans, emit, tags, words)


def sample_corpus(hmm: HMM, rng: np.random.Generator, n_sentences: int,
                  min_len: int = 4, max_len: int = 12) -> list[TaggedSentence]:
    corpus = []
    n_tags = len(hmm.tags)
    for _ in range(n_sentences):
        length = int(rng.integers(min_len, max_len + 1))
        tokens, tags = [], []
        state = int(rng.choice(n_tags, p=hmm.start))
        for position in range(length):
            if position:
                state = int(rng.choice(n_tags, p=hmm.trans[state]))
            word = int(rng.choice(len(hmm.words), p=hmm.emit[state]))
            tokens.append(hmm.words[word])
            tags.append(ExtendedTag(hmm.tags[state]))
        corpus.append(TaggedSentence(tuple(tokens), tuple(tags)))
    return corpus


def viterbi_tags(hmm: HMM, tokens: list[str]) -> list[str]:
    """Exact decoding with the true HMM parameters (log space)."""
    word_index = {w: i for i, w in enumerate(hmm.words)}
    n_tags = len(hmm.tags)
    log_trans = np.log(hmm.trans)
    log_emit = np.log(hmm.emit)
    scores = np.log(hmm.start) + log_emit[:, word_index[tokens[0]]]
    back = []
    for token in tokens[1:]:
        cand = scores[:, None] + log_trans
        back.append(cand.argmax(axis=0))
        scores = cand.max(axis=0) + log_emit[:, word_index[token]]
    state = int(scores.argmax())
    path = [state]
    for pointers in reversed(back):
        state = int(pointers[state])
        path.append(state)
    return [hmm.tags[s] for s in reversed(path)]


# ------------------------------------------------- finite-difference helpers

def fd_tensor_gradient(objective, tensor: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central finite differences of ``objective()`` over every entry."""
    grad = np.zeros_like(tensor)
    iterator = np.nditer(tensor, flags=["multi_index"])
    for _ in iterator:
        index = iterator.multi_index
        original = tensor[index]
        tensor[index] = original + step
        up = objective()
        tensor[index] = original - step
        down = objective()
        tensor[index] = original
        grad[index] = (up - down) / (2.0 * step)
    return grad
