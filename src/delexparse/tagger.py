"""A baseline POS tagger: averaged perceptron with greedy decoding.

Predicts the full serialized extended tag (POS and morphology jointly).
Tags are held, and checkpointed, in the notation of the model's
``separator``, the one the tag files use, so a tag read with it comes back
unchanged whatever its parts contain.  Externally tagged
corpora remain the alternative input path; this tagger only has to
produce :class:`TaggedSentence` values for the pipeline.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

from .treebank import (TAG_SEPARATOR, ExtendedTag, TaggedSentence, TreebankFormatError,
                       _read_utf8, write_lines)

FORMAT_NAME = "delexparse-tagger"
FORMAT_VERSION = 1

_START = "<s>"
_END = "</s>"


@dataclass
class TaggerModel:
    """Averaged feature weights plus the closed tag inventory, whose tags
    are serialized with ``separator``."""

    feature_weights: dict[str, dict[str, float]]
    tag_inventory: tuple[str, ...]
    version: int = FORMAT_VERSION
    separator: str = TAG_SEPARATOR

    def score(self, features: list[str]) -> dict[str, float]:
        scores: dict[str, float] = {}
        for feat in features:
            for tag, weight in self.feature_weights.get(feat, {}).items():
                scores[tag] = scores.get(tag, 0.0) + weight
        return scores

    def predict(self, features: list[str]) -> str:
        scores = self.score(features)
        best_tag = self.tag_inventory[0]
        best = scores.get(best_tag, 0.0)
        for tag in self.tag_inventory[1:]:
            value = scores.get(tag, 0.0)
            if value > best:
                best, best_tag = value, tag
        return best_tag


def token_features(tokens: list[str], i: int, prev_tag: str) -> list[str]:
    """Feature strings for position ``i``; affixes up to length 4."""
    word = tokens[i]
    prev_word = tokens[i - 1] if i > 0 else _START
    next_word = tokens[i + 1] if i + 1 < len(tokens) else _END
    feats = ["bias", "w=" + word, "pw=" + prev_word, "nw=" + next_word,
             "pt=" + prev_tag]
    for k in range(1, 5):
        if len(word) >= k:
            feats.append(f"pre{k}={word[:k]}")
            feats.append(f"suf{k}={word[-k:]}")
    if word.isdigit():
        feats.append("shape=digit")
    if word[:1].isupper():
        feats.append("shape=cap")
    return feats


def train_tagger(corpus: list[TaggedSentence], epochs: int = 5,
                 seed: int = 10, sep: str = TAG_SEPARATOR) -> TaggerModel:
    """Train an averaged perceptron; deterministic given the seed.

    ``sep`` is the morphology separator the corpus was read with.
    """
    if not corpus:
        raise ValueError("empty training corpus")
    if epochs < 1:
        raise ValueError("epochs must be >= 1")

    inventory = tuple(sorted({tag.serialized(sep) for s in corpus for tag in s.tags}))
    model = TaggerModel(feature_weights={}, tag_inventory=inventory, separator=sep)
    weights = model.feature_weights
    totals: dict[str, dict[str, float]] = {}
    stamps: dict[str, dict[str, int]] = {}
    step = 0

    def bump(feat: str, tag: str, delta: float) -> None:
        row = weights.setdefault(feat, {})
        total_row = totals.setdefault(feat, {})
        stamp_row = stamps.setdefault(feat, {})
        total_row[tag] = total_row.get(tag, 0.0) + \
            (step - stamp_row.get(tag, 0)) * row.get(tag, 0.0)
        stamp_row[tag] = step
        row[tag] = row.get(tag, 0.0) + delta

    order = list(range(len(corpus)))
    rng = random.Random(seed)
    for _ in range(epochs):
        rng.shuffle(order)
        for index in order:
            sentence = corpus[index]
            tokens = list(sentence.tokens)
            prev_tag = _START
            for i, gold in enumerate(sentence.tags):
                step += 1
                feats = token_features(tokens, i, prev_tag)
                guess = model.predict(feats)
                truth = gold.serialized(sep)
                if guess != truth:
                    for feat in feats:
                        bump(feat, truth, 1.0)
                        bump(feat, guess, -1.0)
                prev_tag = guess

    averaged: dict[str, dict[str, float]] = {}
    for feat, row in weights.items():
        out_row: dict[str, float] = {}
        for tag, weight in row.items():
            total = totals[feat][tag] + (step - stamps[feat][tag]) * weight
            value = total / step
            if value != 0.0:
                out_row[tag] = value
        if out_row:
            averaged[feat] = out_row
    model.feature_weights = averaged
    return model


def tag_sentence(model: TaggerModel, tokens: list[str]) -> TaggedSentence:
    """Greedy left-to-right tagging with the previous predicted tag."""
    if not tokens:
        raise ValueError("empty token sequence")
    prev_tag = _START
    tags: list[ExtendedTag] = []
    for i in range(len(tokens)):
        predicted = model.predict(token_features(tokens, i, prev_tag))
        tags.append(ExtendedTag.parse(predicted, model.separator))
        prev_tag = predicted
    return TaggedSentence(tuple(tokens), tuple(tags))


def tagger_accuracy(gold: list[TaggedSentence], pred: list[TaggedSentence]) -> float:
    """Token-level accuracy over full extended tags, in [0, 1]."""
    if len(gold) != len(pred):
        raise ValueError(f"{len(gold)} gold vs {len(pred)} predicted sentences")
    correct = total = 0
    for g, p in zip(gold, pred):
        if len(g) != len(p):
            raise ValueError("sentence length mismatch")
        for gt, pt in zip(g.tags, p.tags):
            total += 1
            correct += gt == pt
    return correct / total if total else 0.0


def save_tagger(model: TaggerModel, path: str | Path) -> None:
    """Write the sorted-key text checkpoint (header, tags, weight triples)."""
    lines = [f"{FORMAT_NAME}\t{model.version}"]
    for tag in model.tag_inventory:
        lines.append(f"tag\t{tag}")
    for feat in sorted(model.feature_weights):
        row = model.feature_weights[feat]
        for tag in sorted(row):
            lines.append(f"{feat}\t{tag}\t{row[tag]!r}")
    write_lines(path, lines)


def load_tagger(path: str | Path, sep: str = TAG_SEPARATOR) -> TaggerModel:
    """Read a checkpoint whose tags are serialized with ``sep``; a malformed
    one raises :class:`TreebankFormatError` with the line number."""
    lines = _read_utf8(path).splitlines()
    if not lines:
        raise TreebankFormatError("empty tagger checkpoint", line=1)
    header = lines[0].split("\t")
    if len(header) != 2 or header[0] != FORMAT_NAME:
        raise TreebankFormatError("not a tagger checkpoint", line=1)
    if header[1] != str(FORMAT_VERSION):
        raise TreebankFormatError(f"unsupported version {header[1]!r}", line=1)
    inventory: list[str] = []
    weights: dict[str, dict[str, float]] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split("\t")
        if len(parts) == 2 and parts[0] == "tag":
            try:
                ExtendedTag.parse(parts[1], sep)
            except ValueError as exc:
                raise TreebankFormatError(str(exc), line=lineno) from None
            inventory.append(parts[1])
        elif len(parts) == 3:
            try:
                weight = float(parts[2])
            except ValueError:
                raise TreebankFormatError(f"weight {parts[2]!r} is not a number",
                                          line=lineno) from None
            if not math.isfinite(weight):
                raise TreebankFormatError(f"weight {parts[2]!r} is not finite", line=lineno)
            weights.setdefault(parts[0], {})[parts[1]] = weight
        else:
            raise TreebankFormatError(f"malformed line {line!r}", line=lineno)
    if not inventory:
        raise TreebankFormatError("checkpoint has no tag inventory", line=1)
    return TaggerModel(feature_weights=weights, tag_inventory=tuple(inventory),
                       separator=sep)
