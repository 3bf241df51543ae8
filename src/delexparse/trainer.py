"""Mini-batch subgradient training of the span parser and batch parsing.

Training expects trees that are already stripped, delexicalized, and
binarized.  After every epoch the model is scored on the dev set with the
bracket scorer, and the checkpoint with the highest dev F1 is returned.
"""

from __future__ import annotations

import contextlib
import logging
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import chart, evalb, model
from .transform import debinarize, relabel_preterminals
from .treebank import TAG_SEPARATOR, ExtendedTag, Tree, write_lines

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class TrainConfig:
    """Optimization settings; adaptive moment estimation by default."""

    epochs: int = 200
    batch_size: int = 8
    learning_rate: float = 1e-3
    seed: int = 10
    optimizer: str = "adam"  # "adam" or "sgd"
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    shuffle: bool = True
    checkpoint_every: int = 0  # epochs between intermediate checkpoints, 0 = off

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be positive")
        if not np.isfinite(self.learning_rate) or self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive and finite")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("beta1 and beta2 must be in [0, 1)")
        if not np.isfinite(self.eps) or self.eps <= 0:
            raise ValueError("eps must be positive and finite")
        if self.checkpoint_every < 0 or self.seed < 0:
            raise ValueError("checkpoint_every and seed must be >= 0")


DESK_TRAIN = TrainConfig()
PAPER_TRAIN = TrainConfig(epochs=50, batch_size=32, learning_rate=5e-5)


_STEP_BLOCK = 1 << 15  # elements in a row of Adam's scratch, unless a tensor row is wider


class _Optimizer:
    """SGD, or Adam updating its moments and the parameters in place,
    through views of two scratch rows allocated once, in the order of
    ``tensor -= lr * (m / c1) / (sqrt(v / c2) + eps)``.  A tensor larger
    than a row is stepped in blocks of whole rows along axis 0 (views
    whatever the layout), so one dominant tensor does not make the
    scratch cost two more parameter-sized arrays."""

    def __init__(self, params: model.ModelParams, config: TrainConfig):
        self.config = config
        self.step_count = 0
        if config.optimizer == "adam":
            self.m = params.zero_grads()
            self.v = params.zero_grads()
            width = max([_STEP_BLOCK] + [t[:1].size for t in params.tensors.values()])
            scratch = np.empty((2, width))
            # each tensor's blocks: (its rows, or None when it is one block,
            # then the update and denom views of the scratch)
            self.blocks = {}
            for name, t in params.tensors.items():
                step = len(t) if t.size <= width else width // t[:1].size
                self.blocks[name] = [
                    (None if step == len(t) else slice(k, k + step),
                     *(row[:block.size].reshape(block.shape) for row in scratch))
                    for k in range(0, len(t), step) for block in [t[k:k + step]]]

    def step(self, params: model.ModelParams, grads: dict[str, np.ndarray]) -> None:
        cfg = self.config
        self.step_count += 1
        if cfg.optimizer == "sgd":
            for name, tensor in params.tensors.items():
                tensor -= cfg.learning_rate * grads[name]
            return
        b1, b2 = cfg.beta1, cfg.beta2
        correct1 = 1.0 - b1 ** self.step_count
        correct2 = 1.0 - b2 ** self.step_count
        for name, whole in params.tensors.items():
            arrays = whole, grads[name], self.m[name], self.v[name]
            for rows, update, denom in self.blocks[name]:
                tensor, g, m, v = arrays if rows is None else (a[rows] for a in arrays)
                m *= b1
                m += np.multiply(g, 1.0 - b1, out=update)
                v *= b2
                np.multiply(g, 1.0 - b2, out=update)
                v += np.multiply(update, g, out=update)
                np.divide(m, correct1, out=update)
                update *= cfg.learning_rate
                np.divide(v, correct2, out=denom)
                np.sqrt(denom, out=denom)
                denom += cfg.eps
                tensor -= np.divide(update, denom, out=update)


def tree_tag_sequence(tree: Tree, morph_separator: str = TAG_SEPARATOR,
                      reads: str = "tags") -> list[ExtendedTag]:
    """Recover the tag sequence from a delexicalized tree's leaf tokens.

    A model that reads ``"words"`` keeps the tokens whole (the lexicalized
    baseline, which embeds word types rather than factored tags).
    """
    if reads == "words":
        return [ExtendedTag(token) for token in tree.leaf_tokens()]
    return [ExtendedTag.parse(token, morph_separator) for token in tree.leaf_tokens()]


def train(train_trees: list[Tree], dev_trees: list[Tree],
          mconfig: model.ModelConfig, tconfig: TrainConfig,
          log_path: str | Path | None = None,
          checkpoint_dir: str | Path | None = None,
          reads: str = "tags",
          morph_separator: str = TAG_SEPARATOR) -> model.ModelParams:
    """Train on binarized delexicalized trees; return the dev-best params.

    Leaf tokens are the trees' tags, split on ``morph_separator``, or whole
    words for a model that ``reads`` them (one of :data:`model.READS`).
    Vocabularies and the label inventory come from the training trees only.
    The training log gets one ``epoch<TAB>train_loss<TAB>dev_F1`` line per
    epoch.  Dev labels unseen in training simply can never be predicted.
    The dev-best params wait in an anonymous file in the standard
    temporary directory (``TMPDIR``), and an ``OSError`` there names that
    directory.
    """
    if not train_trees:
        raise ValueError("empty training set")
    if not dev_trees:
        raise ValueError("empty dev set")
    train_tags = [tree_tag_sequence(t, morph_separator, reads) for t in train_trees]
    dev_tags = [tree_tag_sequence(t, morph_separator, reads) for t in dev_trees]
    longest = max(len(tags) for tags in train_tags)
    if longest > mconfig.max_len:
        raise ValueError(
            f"training sentence of length {longest} exceeds max_len {mconfig.max_len}")
    pos_names, feature_names = model.build_vocabularies(train_tags)
    labels = model.build_label_inventory(train_trees)
    if len(labels) < 2:
        raise ValueError("training trees contain no phrase labels")
    params = model.init_params(mconfig, pos_names, feature_names, labels, reads)
    golds = [model.gold_indices(params, tags, tree) for tags, tree in zip(train_tags, train_trees)]
    optimizer = _Optimizer(params, tconfig)
    rng = np.random.default_rng(tconfig.seed)
    dev_gold = [debinarize(t) for t in dev_trees]

    best_f1 = -1.0
    best_epoch = 0
    grads = params.zero_grads()
    log_lines: list[str] = []
    order = np.arange(len(train_trees))
    # a file of this call's own, so training holds no fifth
    # parameter-sized array
    with _in_temp_dir():
        best_file = tempfile.TemporaryFile()
    try:
        for epoch in range(1, tconfig.epochs + 1):
            if tconfig.shuffle:
                order = rng.permutation(len(train_trees))
            losses: list[float] = []
            for minibatch, start in enumerate(range(0, len(order), tconfig.batch_size), 1):
                batch = order[start:start + tconfig.batch_size].tolist()
                try:
                    _batch_gradients(params, grads, train_tags, golds, batch, losses)
                except model.ModelError as exc:
                    raise model.ModelError(
                        f"epoch {epoch}, minibatch {minibatch}, {exc}") from None
                optimizer.step(params, grads)
            mean_loss = float(np.mean(losses)) if losses else 0.0
            dev_f1 = _dev_fscore(params, dev_tags, dev_gold)
            log_lines.append(f"{epoch}\t{mean_loss:.6f}\t{dev_f1:.4f}")
            log.info("epoch %d: train_loss %.6f dev_F1 %.4f", epoch, mean_loss, dev_f1)
            if dev_f1 > best_f1:
                best_f1 = dev_f1
                best_epoch = epoch
                with _in_temp_dir():
                    best_file.seek(0)
                    best_file.truncate()
                    model.save_checkpoint(params, best_file)
            if (checkpoint_dir is not None and tconfig.checkpoint_every
                    and epoch % tconfig.checkpoint_every == 0):
                model.save_checkpoint(params, Path(checkpoint_dir) / f"epoch_{epoch:04d}.ckpt")

        if log_path is not None:
            write_lines(log_path, log_lines)
        log.info("best dev F1 %.4f at epoch %d", best_f1, best_epoch)
        # read back once params, the gradient and Adam's moments are freed
        del params, grads, optimizer
        with _in_temp_dir():
            best_file.seek(0)
            return model.load_checkpoint(best_file)
    finally:  # a write that failed leaves bytes that closing tries again
        with _in_temp_dir():
            best_file.close()


@contextlib.contextmanager
def _in_temp_dir():
    """An ``OSError`` raised inside names the temporary directory, since
    the dev-best file in it has no name of its own."""
    try:
        yield
    except OSError as exc:
        exc.filename = tempfile.gettempdir()
        raise


def _batch_gradients(params: model.ModelParams, grads: dict[str, np.ndarray],
                     tags: list[list[ExtendedTag]], golds: list, batch: list[int],
                     losses: list[float]) -> None:
    """The mean subgradient of the training trees ``batch`` (indices into
    ``tags`` and ``golds``) in ``grads``, which is zeroed first; the
    forward passes are packed and each sentence's backward adds into
    ``grads``.  Appends each sentence's loss to ``losses``.

    Each forward is released once its backward is done, so a run's
    forward starts with no cache of the run before it held; a tree that
    cannot be encoded raises :class:`model.ModelError` naming its index."""
    for buffer in grads.values():
        buffer.fill(0.0)
    forwards = model.forward_packed(params, [tags[k] for k in batch],
                                    [golds[k] for k in batch])
    for k in batch:
        forward = next(forwards)
        if isinstance(forward, model.ModelError):
            raise model.ModelError(f"training tree {k}: {forward}")
        loss, _ = model.loss_and_gradients(params, forward, golds[k], grads)
        del forward
        losses.append(loss)
    scale = 1.0 / len(batch)
    for name in grads:
        grads[name] *= scale


def _dev_fscore(params: model.ModelParams, dev_tags: list[list[ExtendedTag]],
                dev_gold: list[Tree]) -> float:
    """Dev F1 over every sentence; one that fails to parse is scored as its
    :func:`fallback_tree`."""
    predictions = []
    for gold, tags, pred in zip(dev_gold, dev_tags, parse_corpus(params, dev_tags)):
        if pred is None:
            pred = fallback_tree(tags)
        # predictions carry embedded symbols at the preterminals; restore
        # the reference tags so punctuation handling matches (a no-op in
        # delexicalized mode, where both sides already agree).  A gold tree
        # whose preterminals do not cover its leaves (lexicalized mode)
        # has no tag per token, and its prediction is scored as parsed.
        try:
            pred = relabel_preterminals(pred, [p.label for p in gold.preterminals()])
        except ValueError:
            pass
        predictions.append(pred)
    return evalb.score_corpus(dev_gold, predictions, evalb.EvalConfig()).fscore


def fallback_tree(tags: list[ExtendedTag]) -> Tree:
    """The tree given to a sentence that cannot be parsed: a ``FAILED``
    root over one preterminal per tag, built as :func:`chart.cky_decode`
    builds them, so it counts as a parse with no correct bracket."""
    return Tree.node("FAILED", [Tree.node(tag.pos, [Tree.leaf(tag.serialized())])
                                for tag in tags])


def parse_corpus(params: model.ModelParams,
                 sentences: list[list[ExtendedTag]]) -> list[Tree | None]:
    """Parse tag sequences into debinarized trees, one entry per input.

    Sentences are encoded in packed runs, each decoded before the next
    is encoded, and no backward caches are kept.  Failures (empty,
    over-length or non-finite sentences) are logged and yield None so that
    a long run never stops on one bad sentence.
    """
    results: list[Tree | None] = []
    forwards = model.forward_packed(params, sentences)
    for index, tags in enumerate(sentences):
        forward = next(forwards)  # released below, before the next run is encoded
        try:
            if isinstance(forward, model.ModelError):
                raise forward
            tree = chart.cky_decode(forward[0], params.labels, tags)
            results.append(debinarize(tree))
        except ValueError as exc:
            log.warning("sentence %d failed: %s", index, exc)
            results.append(None)
        del forward
    return results
