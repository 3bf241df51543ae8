"""Mapping a historical tag inventory onto a modern one.

Unknown tags and features pass through unchanged so that inference never
halts on gaps in the mapping dictionary; unmapped symbols end up in the
parser's unknown-tag backoff instead.
"""

from __future__ import annotations

import logging

from .data import default_tagmap_path
from .treebank import (COMPOSITE_SEPARATOR, ExtendedTag, TaggedSentence, TagMapTable,
                       read_tag_map_file)

log = logging.getLogger(__name__)


def default_table(composite_separator: str = COMPOSITE_SEPARATOR) -> TagMapTable:
    """The bundled table, ``data/default.tagmap``: known HiTS -> STTS POS
    pairs, identity on features."""
    return read_tag_map_file(default_tagmap_path(), composite=composite_separator)


def map_extended_tag(tag: ExtendedTag, table: TagMapTable,
                     composite_separator: str = COMPOSITE_SEPARATOR) -> ExtendedTag:
    """Map one extended tag onto the target inventory.

    Composite tags such as ``APPR|NA`` keep only the part before the first
    separator; a POS with nothing before it, such as ``|NA``, stays whole.
    When a POS maps to a target that itself carries features (e.g. ``VAPS``
    to ``ADJD.Pos``), those features are prepended to the mapped source
    features.
    """
    pos = tag.pos
    if composite_separator in pos:
        pos = pos.split(composite_separator, 1)[0] or pos
    target = table.pos_map.get(pos)
    if target is not None:
        out_pos = target.pos
        prefix = target.features
    else:
        log.debug("tag %r not in mapping table, passing through", pos)
        out_pos = pos
        prefix = ()
    features = tuple(table.feature_map.get(f, f) for f in tag.features)
    return ExtendedTag(out_pos, prefix + features)


def map_sentence(sentence: TaggedSentence, table: TagMapTable,
                 composite_separator: str = COMPOSITE_SEPARATOR) -> TaggedSentence:
    """Map every tag of a sentence; tokens and length are preserved."""
    mapped = tuple(map_extended_tag(t, table, composite_separator)
                   for t in sentence.tags)
    return TaggedSentence(sentence.tokens, mapped)
