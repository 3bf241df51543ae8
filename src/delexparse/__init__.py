"""Delexicalized span-based constituency parsing toolkit.

Trains a constituency parser on tag sequences from a high-resource
treebank and applies it zero-shot to a related low-resource language via
POS tagging and tag-set mapping, with bracket-scoring evaluation.
"""

from .chart import Chart, SpanTables, cky_decode
from .evalb import EvalConfig, EvalResult, LabeledSpan, extract_eval_spans, score_corpus
from .model import (ModelConfig, ModelParams, init_params, load_checkpoint,
                    loss_and_gradients, save_checkpoint)
from .tagger import TaggerModel, load_tagger, save_tagger, tag_sentence, tagger_accuracy, train_tagger
from .tagmap import default_table, map_extended_tag, map_sentence
from .trainer import TrainConfig, parse_corpus, train
from .transform import (TransformConfig, binarize, debinarize, delexicalize_sentence,
                        delexicalize_tree, filter_target_treebank, relexicalize_tree,
                        strip_annotations)
from .treebank import (ExtendedTag, TaggedSentence, TagMapTable, Tree,
                       TreebankFormatError, parse_bracketed, read_tag_map,
                       read_tagged_corpus, serialize_tree, split_treebank)

__version__ = "0.1.0"

__all__ = [
    "Chart", "EvalConfig", "EvalResult", "ExtendedTag", "LabeledSpan",
    "ModelConfig", "ModelParams", "SpanTables", "TagMapTable", "TaggedSentence",
    "TaggerModel", "TrainConfig", "TransformConfig", "Tree",
    "TreebankFormatError", "binarize", "cky_decode", "debinarize",
    "default_table", "delexicalize_sentence", "delexicalize_tree",
    "extract_eval_spans", "filter_target_treebank", "init_params",
    "load_checkpoint", "load_tagger", "loss_and_gradients",
    "map_extended_tag", "map_sentence", "parse_bracketed", "parse_corpus",
    "read_tag_map", "read_tagged_corpus", "relexicalize_tree",
    "save_checkpoint", "save_tagger", "score_corpus", "serialize_tree",
    "split_treebank", "strip_annotations", "tag_sentence",
    "tagger_accuracy", "train", "train_tagger",
]
