"""Span tracing of the program's layers from outside its source.

``Tracer.install`` replaces module-level functions of the layer modules
with wrappers, in every ``delexparse`` module that holds a reference to
them, so internal calls and ``from .x import y`` bindings are traced too.
Each call records a span (name, start, end, parent) in memory; counters
record work done at the same boundaries.  ``uninstall`` restores the
originals, so traced and untraced iterations can alternate in one process.
"""

from __future__ import annotations

import os
import sys
import time
from collections import Counter, defaultdict

# layer -> traced functions; "Class.method" names a method
TRACED = {
    "cli": ("main",),
    "model": ("_embed_forward", "_embed_backward", "_encode_forward", "_encode_backward",
              "_scores_forward", "_scores_backward", "forward_scores", "backward_scores",
              "sentence_scores", "loss_and_gradients", "build_label_inventory",
              "build_vocabularies", "init_params", "save_checkpoint", "load_checkpoint"),
    "chart": ("build_chart", "decode_spans", "cky_decode", "tree_spans",
              "hamming_augment", "spans_to_indices"),
    "trainer": ("train", "_dev_fscore", "parse_corpus", "tree_tag_sequence",
                "_Optimizer.step"),
    "treebank": ("read_treebank", "parse_bracketed", "write_treebank", "serialize_tree",
                 "read_tagged_corpus_file", "write_tagged_corpus", "read_tag_map_file"),
    "transform": ("strip_annotations", "delexicalize_tree", "delexicalize_sentence",
                  "binarize", "debinarize", "relabel_preterminals", "relexicalize_tree"),
    "tagmap": ("default_table", "map_extended_tag", "map_sentence"),
    "tagger": ("train_tagger", "tag_sentence", "save_tagger", "load_tagger"),
    "evalb": ("score_corpus_detailed", "score_corpus", "write_report", "format_summary"),
}

# timed metric -> the functions whose outermost calls it sums
TIMED = {
    "model.embed_fwd_s": ("model._embed_forward",),
    "model.encode_fwd_s": ("model._encode_forward",),
    "model.scores_fwd_s": ("model._scores_forward",),
    "model.scores_bwd_s": ("model._scores_backward",),
    "model.encode_bwd_s": ("model._encode_backward",),
    "model.embed_bwd_s": ("model._embed_backward",),
    "model.checkpoint_load_s": ("model.load_checkpoint",),
    "model.checkpoint_save_s": ("model.save_checkpoint",),
    "chart.cky_s": ("chart.build_chart",),
    "chart.augment_s": ("chart.hamming_augment",),
    "trainer.optimizer_step_s": ("trainer._Optimizer.step",),
    "trainer.dev_eval_s": ("trainer._dev_fscore",),
    "treebank.read_s": ("treebank.read_treebank", "treebank.read_tagged_corpus_file",
                        "treebank.read_tag_map_file"),
    "treebank.write_s": ("treebank.write_treebank", "treebank.write_tagged_corpus",
                         "treebank.serialize_tree"),
    "transform.prepare_s": ("transform.strip_annotations", "transform.delexicalize_tree",
                            "transform.delexicalize_sentence", "transform.binarize"),
    "transform.debinarize_s": ("transform.debinarize",),
    "transform.relex_s": ("transform.relexicalize_tree", "transform.relabel_preterminals"),
    "tagmap.map_s": ("tagmap.map_sentence", "tagmap.map_extended_tag", "tagmap.default_table"),
    "tagger.train_s": ("tagger.train_tagger",),
    "tagger.tag_s": ("tagger.tag_sentence",),
    "evalb.score_s": ("evalb.score_corpus_detailed", "evalb.score_corpus"),
}
_GROUP_OF = {fn: metric for metric, fns in TIMED.items() for fn in fns}


def _size(path) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


def _score_cells(counts, args, result) -> None:
    n = args[1].shape[0] - 1
    counts["model.score_cells"] += n * (n + 1) * len(args[0].labels)


def _chart(counts, args, result) -> None:
    n = args[0].shape[0]
    counts["chart.decodes"] += 1
    counts["chart.cells"] += n * (n + 1) // 2


def _update(counts, args, result) -> None:
    counts["trainer.updates"] += 1
    counts["trainer.zero_loss"] += result[0] == 0.0


def _read_trees(counts, args, result) -> None:
    counts["treebank.trees"] += len(result)
    counts["treebank.bytes"] += _size(args[0])


def _mapped_tag(counts, args, result) -> None:
    counts["tagmap.tags"] += 1
    counts["tagmap.changed"] += result != args[0]


# traced function -> counter of the work it did, called after it returns
COUNTERS = {
    "model._scores_forward": _score_cells,
    "chart.build_chart": _chart,
    "trainer._Optimizer.step": lambda c, args, result: c.update({"trainer.steps": 1}),
    "model.loss_and_gradients": _update,
    "treebank.read_treebank": _read_trees,
    "treebank.read_tagged_corpus_file":
        lambda c, args, result: c.update({"treebank.bytes": _size(args[0])}),
    "treebank.read_tag_map_file":
        lambda c, args, result: c.update({"treebank.bytes": _size(args[0])}),
    "treebank.write_treebank":
        lambda c, args, result: c.update({"treebank.bytes": _size(args[1])}),
    "treebank.write_tagged_corpus":
        lambda c, args, result: c.update({"treebank.bytes": _size(args[1])}),
    "treebank.serialize_tree": lambda c, args, result: c.update({"treebank.trees": 1}),
    "tagmap.map_extended_tag": _mapped_tag,
    "tagger.tag_sentence": lambda c, args, result: c.update({"tagger.tokens": len(args[1])}),
    "evalb.score_corpus_detailed":
        lambda c, args, result: c.update({"evalb.spans": result[0].gold_total
                                          + result[0].pred_total}),
}


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans: list = []   # (name, start, end, parent index, outermost in group)
        self.counts: Counter = Counter()
        self._current = -1
        self._depth: defaultdict = defaultdict(int)
        self._patches: list = []  # (owner, attribute, original)

    def _wrap(self, name: str, fn):
        tracer = self
        group = _GROUP_OF.get(name)
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            parent = tracer._current
            index = len(tracer.spans)
            tracer.spans.append(None)
            tracer._current = index
            outermost = tracer._depth[group] == 0
            tracer._depth[group] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._depth[group] -= 1
                tracer._current = parent
                tracer.spans[index] = (name, start, end, parent, outermost)
            if counter:
                counter(tracer.counts, args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "delexparse" or key.startswith("delexparse."))]
        for layer, functions in TRACED.items():
            module = sys.modules[f"delexparse.{layer}"]
            for function in functions:
                owner, attribute = module, function
                if "." in function:
                    class_name, attribute = function.split(".")
                    owner = getattr(module, class_name)
                original = getattr(owner, attribute)
                wrapper = self._wrap(f"{layer}.{function}", original)
                holders = [owner] if owner is not module else [
                    m for m in modules if any(v is original for v in vars(m).values())]
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, key, wrapper)
                            self._patches.append((holder, key, original))

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches.clear()

    def metrics(self, iterations: int) -> dict[str, float]:
        """Per-layer metrics per iteration, from all spans and counts so far.

        A layer's self time sums each of its spans' duration minus the
        durations of the span's children; times and counts are divided by
        the number of traced iterations, shares are not.
        """
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for metric in TIMED:
            out[metric] = 0.0
        for layer in TRACED:
            out[f"{layer}.self_s"] = 0.0
        out["trainer.loop_self_s"] = 0.0
        for (name, start, end, _, outermost), inner in zip(self.spans, child_time):
            own = end - start - inner
            out[name.split(".", 1)[0] + ".self_s"] += own
            if name == "trainer.train":
                out["trainer.loop_self_s"] += own
            group = _GROUP_OF.get(name)
            if group and outermost:
                out[group] += end - start
        c = self.counts
        for key in ("model.score_cells", "chart.decodes", "chart.cells", "trainer.steps",
                    "treebank.trees", "treebank.bytes", "tagmap.tags", "tagger.tokens",
                    "evalb.spans"):
            out[key] = float(c[key])
        out["model.score_bytes"] = 8.0 * c["model.score_cells"]
        out["trace.spans"] = float(len(self.spans))
        out = {key: value / iterations for key, value in out.items()}
        out["trainer.zero_loss_share"] = (c["trainer.zero_loss"] / c["trainer.updates"]
                                          if c["trainer.updates"] else 0.0)
        out["tagmap.changed_share"] = (c["tagmap.changed"] / c["tagmap.tags"]
                                       if c["tagmap.tags"] else 0.0)
        return out

    def write(self, path) -> None:
        """Write the recorded spans as tab-separated lines."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\n")
            for name, start, end, parent, _ in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")
