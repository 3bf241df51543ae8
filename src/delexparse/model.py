"""Numerical core: factored tag embeddings, a self-attention encoder,
fencepost span representations, and a span label scorer.

Everything is float64 numpy with hand-written backpropagation, so gradients
can be verified against central finite differences.  The encoder uses
pre-layer-norm blocks (multi-head attention, then a two-layer ReLU
feedforward, each with a residual connection).  Contextual vector halves
are recombined across adjacent positions into fencepost vectors; a span
(i, j) is represented by the difference of fenceposts j and i.
"""

from __future__ import annotations

import json
import os
import zlib
from collections import Counter
from dataclasses import asdict, dataclass

import numpy as np

from . import chart as _chart
from .transform import EMPTY_LABEL
from .treebank import ExtendedTag, Tree

UNK = "<UNK>"
LN_EPS = 1e-5

CHECKPOINT_MAGIC = b"DPXM"
CHECKPOINT_VERSION = 1


class ModelError(ValueError):
    pass


@dataclass(frozen=True)
class ModelConfig:
    """Encoder and scorer dimensions.

    ``num_heads * head_dim`` is the attention width; a linear projection
    maps it back to ``model_dim``, which must be even so that fencepost
    vectors can be assembled from forward and backward halves.
    """

    model_dim: int = 128
    num_layers: int = 2
    num_heads: int = 4
    head_dim: int = 32
    ff_dim: int = 256
    label_hidden_dim: int = 250
    max_len: int = 128
    seed: int = 10

    def __post_init__(self):
        if self.model_dim <= 0 or self.model_dim % 2:
            raise ModelError(f"model_dim must be positive and even, got {self.model_dim}")
        for name in ("num_heads", "head_dim", "ff_dim", "label_hidden_dim", "max_len"):
            if getattr(self, name) <= 0:
                raise ModelError(f"{name} must be positive")
        if self.num_layers < 0 or self.seed < 0:
            raise ModelError("num_layers and seed must be >= 0")


# Paper-scale preset; the default ModelConfig above is the desk-scale preset
# sized so that the full verification suite runs on a laptop CPU.
PAPER_MODEL = ModelConfig(model_dim=1024, num_layers=8, num_heads=8, head_dim=64,
                          ff_dim=2048, label_hidden_dim=250, max_len=512, seed=10)
DESK_MODEL = ModelConfig()


class ModelParams:
    """Weight tensors plus the vocabularies and label inventory they index.

    ``tensors`` maps fixed names to float64 arrays; gradient structures use
    the same keys.  Index 0 of both vocabularies is the unknown symbol, and
    label index 0 is the reserved empty label whose score is fixed at zero
    (the label output matrix has one column per non-empty label).
    """

    def __init__(self, config: ModelConfig, pos_names: list[str],
                 feature_names: list[str], labels: list[str],
                 tensors: dict[str, np.ndarray]):
        if labels[0] != EMPTY_LABEL:
            raise ModelError("label inventory must start with the empty label")
        if pos_names[0] != UNK or feature_names[0] != UNK:
            raise ModelError("vocabularies must start with the unknown symbol")
        self.config = config
        self.pos_names = list(pos_names)
        self.feature_names = list(feature_names)
        self.labels = list(labels)
        self.pos_index = {name: k for k, name in enumerate(pos_names)}
        self.feature_index = {name: k for k, name in enumerate(feature_names)}
        self.tensors = tensors

    def zero_grads(self) -> dict[str, np.ndarray]:
        return {name: np.zeros_like(value) for name, value in self.tensors.items()}

    def copy_tensors(self) -> dict[str, np.ndarray]:
        return {name: value.copy() for name, value in self.tensors.items()}


def _tensor_shapes(config: ModelConfig, num_pos: int, num_features: int,
                   num_labels: int) -> dict[str, tuple[int, ...]]:
    """Every tensor's shape, in checkpoint order, for the given vocabulary
    and label inventory sizes."""
    d, ff, hidden = config.model_dim, config.ff_dim, config.label_hidden_dim
    att = config.num_heads * config.head_dim
    shapes = {"pos_embedding": (num_pos, d), "feature_embedding": (num_features, d),
              "position_encoding": (config.max_len, d), "boundary": (2, d)}
    for i in range(config.num_layers):
        prefix = f"layer_{i}/"
        shapes.update({prefix + name: shape for name, shape in (
            ("ln1_gain", (d,)), ("ln1_bias", (d,)), ("wq", (d, att)), ("wk", (d, att)),
            ("wv", (d, att)), ("wo", (att, d)), ("ln2_gain", (d,)), ("ln2_bias", (d,)),
            ("ff_w1", (d, ff)), ("ff_b1", (ff,)), ("ff_w2", (ff, d)), ("ff_b2", (d,)))})
    shapes.update(label_w1=(d, hidden), label_b1=(hidden,), label_ln_gain=(hidden,),
                  label_ln_bias=(hidden,), label_w2=(hidden, num_labels - 1),
                  label_b2=(num_labels - 1,))
    return shapes


def tensor_names(config: ModelConfig) -> list[str]:
    return list(_tensor_shapes(config, 0, 0, 1))


_UNIFORM_INIT = ("pos_embedding", "feature_embedding", "position_encoding", "boundary")


def init_params(config: ModelConfig, pos_names: list[str],
                feature_names: list[str], labels: list[str]) -> ModelParams:
    """Seeded initialization, drawn in checkpoint order: uniform(-0.1, 0.1)
    embeddings, position encodings and boundaries, fan-in scaled Gaussian
    weight matrices, unit gains and zero biases."""
    rng = np.random.default_rng(config.seed)
    tensors: dict[str, np.ndarray] = {}
    for name, shape in _tensor_shapes(config, len(pos_names), len(feature_names),
                                      len(labels)).items():
        if name in _UNIFORM_INIT:
            tensors[name] = rng.uniform(-0.1, 0.1, size=shape)
        elif len(shape) == 2:
            tensors[name] = rng.normal(0.0, 1.0 / np.sqrt(shape[0]), size=shape)
        elif name.endswith("gain"):
            tensors[name] = np.ones(shape)
        else:
            tensors[name] = np.zeros(shape)
    return ModelParams(config, pos_names, feature_names, labels, tensors)


def _ln_forward(x, gain, bias):
    mean = x.mean(axis=-1, keepdims=True)
    centered = x - mean
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = centered * inv
    return gain * xhat + bias, (xhat, inv)


def _ln_backward(dy, cache, gain):
    xhat, inv = cache
    axes = tuple(range(dy.ndim - 1))
    dgain = (dy * xhat).sum(axis=axes)
    dbias = dy.sum(axis=axes)
    dxhat = dy * gain
    dx = (dxhat - dxhat.mean(axis=-1, keepdims=True)
          - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)) * inv
    return dx, dgain, dbias


def _embed_forward(params: ModelParams, sentences: list[list[ExtendedTag]]):
    """Embeddings of the sentences' tokens stacked in one ``(sum n, d)``
    array, and the tokens' POS and feature indices; each sentence has 1 to
    ``max_len`` tokens (:func:`forward_packed` checks)."""
    t = params.tensors
    tokens = [tag for tags in sentences for tag in tags]
    pos_idx = np.array([params.pos_index.get(tag.pos, 0) for tag in tokens])
    feat_idx = [[params.feature_index.get(f, 0) for f in tag.features] for tag in tokens]
    positions = np.concatenate([np.arange(len(tags)) for tags in sentences])
    x = t["pos_embedding"][pos_idx] + t["position_encoding"][positions]
    counts = np.array([len(ids) for ids in feat_idx])
    if counts.any():
        # each token's feature rows summed in order, then added to its row
        width = counts.max()
        ids = np.array([ids + [0] * (width - len(ids)) for ids in feat_idx])
        sums = t["feature_embedding"][ids[:, 0]]
        for k in range(1, width):
            more = counts > k
            sums[more] += t["feature_embedding"][ids[more, k]]
        x[counts > 0] += sums[counts > 0]
    return x, pos_idx, feat_idx


def _add_rows(target: np.ndarray, index: np.ndarray | list[int], rows: np.ndarray) -> None:
    """``target[index[k]] += rows[k]`` for every k, the rows of a repeated
    index summed first from zero in order, as in a zero-filled gradient
    that is then added to ``target``."""
    unique, inverse = np.unique(index, return_inverse=True)
    sums = np.zeros((len(unique), rows.shape[1]))
    np.add.at(sums, inverse, rows)
    target[unique] += sums


def _embed_backward(params, grads, cache, dx):
    pos_idx, feat_idx = cache
    _add_rows(grads["pos_embedding"], pos_idx, dx)
    grads["position_encoding"][:len(dx)] += dx
    counts = [len(ids) for ids in feat_idx]
    if any(counts):
        _add_rows(grads["feature_embedding"], [k for ids in feat_idx for k in ids],
                  dx[np.repeat(np.arange(len(dx)), counts)])


def _encode_forward(params: ModelParams, x: np.ndarray, spans: list[slice],
                    keep_caches: bool):
    """Encode sentences whose token rows are stacked in ``x``, sentence s
    on rows ``spans[s]``: the row-wise work (layer norms, projections,
    feedforward) runs once on all rows, attention per sentence.

    Returns the encoded rows, per layer the mask of rows finite after it,
    and with ``keep_caches`` per layer the row-wise arrays and each
    sentence's attention ``(q, k, v, weights)``.  Rows of different
    sentences never mix, and a non-finite residual row stays non-finite,
    so one sentence's failure leaves the others' bits.
    """
    cfg = params.config
    t = params.tensors
    heads, dk = cfg.num_heads, cfg.head_dim
    scale = 1.0 / np.sqrt(dk)
    h = x
    finite, layers = [], []
    for i in range(cfg.num_layers):
        p = f"layer_{i}/"
        u, (xhat1, inv1) = _ln_forward(h, t[p + "ln1_gain"], t[p + "ln1_bias"])
        q_rows, k_rows, v_rows = u @ t[p + "wq"], u @ t[p + "wk"], u @ t[p + "wv"]
        att_in = np.empty_like(q_rows)
        attention = []
        for rows in spans:
            n = rows.stop - rows.start
            q, k, v = (m[rows].reshape(n, heads, dk).transpose(1, 0, 2)
                       for m in (q_rows, k_rows, v_rows))
            logits = q @ k.transpose(0, 2, 1) * scale
            logits -= logits.max(axis=-1, keepdims=True)
            weights = np.exp(logits)
            weights /= weights.sum(axis=-1, keepdims=True)
            att_in[rows] = (weights @ v).transpose(1, 0, 2).reshape(n, heads * dk)
            if keep_caches:
                attention.append((q, k, v, weights))
        a = h + att_in @ t[p + "wo"]
        v2, (xhat2, inv2) = _ln_forward(a, t[p + "ln2_gain"], t[p + "ln2_bias"])
        z = v2 @ t[p + "ff_w1"] + t[p + "ff_b1"]
        r = np.maximum(z, 0.0)
        h = a + r @ t[p + "ff_w2"] + t[p + "ff_b2"]
        finite.append(np.isfinite(h).all(axis=1))
        if keep_caches:
            layers.append(((u, xhat1, inv1, att_in, v2, xhat2, inv2, z, r), attention))
    return h, finite, layers


def _fenceposts(params: ModelParams, rows: np.ndarray) -> np.ndarray:
    """A sentence's n+1 fenceposts from its n encoded rows: fencepost k is
    row k-1's first half and row k's second, ``boundary`` beyond the ends."""
    half = rows.shape[1] // 2
    f = np.empty((len(rows) + 1, rows.shape[1]))
    f[0, :half] = params.tensors["boundary"][0, :half]
    f[1:, :half] = rows[:, :half]
    f[:-1, half:] = rows[:, half:]
    f[-1, half:] = params.tensors["boundary"][1, half:]
    return f


def _encode_backward(params, grads, layer_caches, dfence):
    cfg = params.config
    t = params.tensors
    n, d = len(dfence) - 1, dfence.shape[1]
    heads, dk = cfg.num_heads, cfg.head_dim
    scale = 1.0 / np.sqrt(dk)
    half = d // 2
    dext = np.zeros((n + 2, d))
    dext[:-1, :half] += dfence[:, :half]
    dext[1:, half:] += dfence[:, half:]
    grads["boundary"][0] += dext[0]
    grads["boundary"][1] += dext[-1]
    dh = dext[1:-1].copy()
    for i in reversed(range(cfg.num_layers)):
        p = f"layer_{i}/"
        u, xhat1, inv1, att_in, v2, xhat2, inv2, z, r, q, k, v, weights = layer_caches[i]
        # feedforward branch
        da = dh.copy()
        dr = dh @ t[p + "ff_w2"].T
        grads[p + "ff_w2"] += r.T @ dh
        grads[p + "ff_b2"] += dh.sum(axis=0)
        dz = dr * (z > 0.0)
        dv2 = dz @ t[p + "ff_w1"].T
        grads[p + "ff_w1"] += v2.T @ dz
        grads[p + "ff_b1"] += dz.sum(axis=0)
        da2, dg2, db2 = _ln_backward(dv2, (xhat2, inv2), t[p + "ln2_gain"])
        grads[p + "ln2_gain"] += dg2
        grads[p + "ln2_bias"] += db2
        da += da2
        # attention branch
        datt = da @ t[p + "wo"].T
        grads[p + "wo"] += att_in.T @ da
        dheads = datt.reshape(n, heads, dk).transpose(1, 0, 2)
        dweights = dheads @ v.transpose(0, 2, 1)
        dv = weights.transpose(0, 2, 1) @ dheads
        dlogits = weights * (dweights - (dweights * weights).sum(axis=-1, keepdims=True))
        dlogits *= scale
        dq = dlogits @ k
        dk_ = dlogits.transpose(0, 2, 1) @ q
        dq_flat = dq.transpose(1, 0, 2).reshape(n, heads * dk)
        dk_flat = dk_.transpose(1, 0, 2).reshape(n, heads * dk)
        dv_flat = dv.transpose(1, 0, 2).reshape(n, heads * dk)
        du = dq_flat @ t[p + "wq"].T + dk_flat @ t[p + "wk"].T + dv_flat @ t[p + "wv"].T
        grads[p + "wq"] += u.T @ dq_flat
        grads[p + "wk"] += u.T @ dk_flat
        grads[p + "wv"] += u.T @ dv_flat
        dh_prev, dg1, db1 = _ln_backward(du, (xhat1, inv1), t[p + "ln1_gain"])
        grads[p + "ln1_gain"] += dg1
        grads[p + "ln1_bias"] += db1
        dh = da + dh_prev
    return dh


# Span rows per block of the scorer's hidden layer: about 1 MB at h = 250,
# so a block stays in L2 cache through its elementwise passes.
_CHUNK_ROWS = 512
# Tokens per packed run of sentences (see :func:`forward_packed`).  On
# one OpenBLAS thread the encoder's throughput is flat from 128 to 1024
# tokens at both presets' widths, and 512 was 8% slower than 256 on 200
# sentences of 5-40 tokens at the desk preset; a smaller run also holds
# fewer backward caches at once in training.
_PACK_TOKENS = 256


def _runs(sizes, budget: int):
    """Greedy runs ``(range(lo, hi), total)`` of consecutive items, their
    sizes' ``total`` at most ``budget`` unless one item is larger."""
    lo = 0
    while lo < len(sizes):
        hi, total = lo + 1, sizes[lo]
        while hi < len(sizes) and total + sizes[hi] <= budget:
            total += sizes[hi]
            hi += 1
        yield range(lo, hi), total
        lo = hi


def _normalize_rows(z: np.ndarray) -> np.ndarray:
    """Label layer norm without gain and bias, in place; returns the row
    scales ``inv``."""
    z -= z.mean(axis=-1, keepdims=True)
    var = np.einsum("ij,ij->i", z, z)[:, None] / z.shape[1]
    inv = 1.0 / np.sqrt(var + LN_EPS)
    z *= inv
    return inv


def _label_projection(params: ModelParams, fenceposts: np.ndarray):
    """The scorer's n+1-row arrays, which are also its backward cache:
    ``F``, ``P = F @ W1`` and ``P + b1``."""
    proj = fenceposts @ params.tensors["label_w1"]
    return fenceposts, proj, proj + params.tensors["label_b1"]


def _span_cells(n: int) -> np.ndarray:
    """Flat index into an (n, n+1) table of every span (i, j), i < j, in
    triu order, the order of the scorer's span rows."""
    return np.flatnonzero(np.arange(n)[:, None] < np.arange(n + 1))


def _score_blocks(params: ModelParams, cache):
    """Label scores of every span, one :func:`_runs` run of start points
    at a time (start point i has n - i spans, a run at most ``_CHUNK_ROWS``
    together), with ``label_w1`` factored through the fenceposts:
    ``(f_j - f_i) @ W1 = P[j] - P[i]``.

    Yields ``(rows, block)``: ``block`` holds span rows ``rows`` (a slice
    of the triu order of :func:`_span_cells`), one column per label, the
    empty label's column 0 being zero.  The hidden layer is built,
    normalized, rectified and projected in one reused buffer of at most
    ``_CHUNK_ROWS`` rows (more only for a single start point with more
    spans), and the block is reused too: it is valid until the next one.
    """
    t = params.tensors
    _, proj, shifted = cache
    n = proj.shape[0] - 1
    size = min(max(_CHUNK_ROWS, n), n * (n + 1) // 2)
    hidden_buffer = np.empty((size, proj.shape[1]))
    block_buffer = np.empty((size, len(params.labels)))
    first = 0
    for run, rows in _runs(range(n, 0, -1), _CHUNK_ROWS):
        hidden, block = hidden_buffer[:rows], block_buffer[:rows]
        offset = 0
        for i in run:
            np.subtract(shifted[i + 1:], proj[i], out=hidden[offset:offset + n - i])
            offset += n - i
        _normalize_rows(hidden)
        hidden *= t["label_ln_gain"]
        hidden += t["label_ln_bias"]
        np.maximum(hidden, 0.0, out=hidden)
        np.add(hidden @ t["label_w2"], t["label_b2"], out=block[:, 1:])
        block[:, 0] = 0.0
        yield slice(first, first + rows), block
        first += rows


def _scores_forward(params: ModelParams, fenceposts: np.ndarray, gold=None):
    """The span tables CKY decodes, reduced from each :func:`_score_blocks`
    block as it is made, so no array has a cell per span and label.

    With ``gold``, a list of ``(i, j, label)`` entries, the tables are
    those of the Hamming-augmented scores (:func:`chart.hamming_augment`
    on each block) and ``gold_scores[k]`` is gold entry k's plain score;
    without it ``gold_scores`` is empty.  Returns ``(tables, gold_scores,
    cache)``; the cache keeps only the n+1-row arrays of
    :func:`_label_projection`, and the backward pass recomputes the hidden
    rows it needs.
    """
    n = fenceposts.shape[0] - 1
    cache = _label_projection(params, fenceposts)
    cells = _span_cells(n)
    score = np.zeros((n, n + 1))
    label = np.zeros((n, n + 1), dtype=np.int64)
    entries = [] if gold is None else gold
    gold_rows = np.searchsorted(cells, [i * (n + 1) + j for i, j, _ in entries])
    gold_labels = np.array([gold_label for _, _, gold_label in entries], dtype=np.int64)
    gold_scores = np.empty(len(entries))
    for rows, block in _score_blocks(params, cache):
        if gold is not None:
            # the block's gold entries, in gold order, as a repeated (i, j) needs
            k = np.flatnonzero((gold_rows >= rows.start) & (gold_rows < rows.stop))
            local, local_labels = gold_rows[k] - rows.start, gold_labels[k]
            gold_scores[k] = block[local, local_labels]
            _chart.hamming_augment(block, list(zip(local.tolist(), local_labels.tolist())))
        best = block.argmax(axis=1)
        if rows.start == 0:  # the root span (0, n) takes a non-empty label
            best[n - 1] = 1 + block[n - 1, 1:].argmax()
        label.reshape(-1)[cells[rows]] = best
        score.reshape(-1)[cells[rows]] = block[np.arange(len(best)), best]
    tables = _chart.SpanTables(score, label, len(params.labels))
    return tables, gold_scores, cache


def _scores_backward(params, grads, cache, starts, ends, dout):
    """Backward of :func:`_scores_forward` for the spans
    ``(starts[k], ends[k])`` with non-empty-label gradient rows ``dout[k]``.

    Only those rows' hidden layers are recomputed, and their gradient is
    scattered onto the n+1 rows of ``P`` before it meets ``label_w1``.
    """
    t = params.tensors
    fenceposts, proj, shifted = cache
    xhat = shifted[ends] - proj[starts]
    inv = _normalize_rows(xhat)
    r = xhat * t["label_ln_gain"]
    r += t["label_ln_bias"]
    np.maximum(r, 0.0, out=r)
    grads["label_w2"] += r.T @ dout
    grads["label_b2"] += dout.sum(axis=0)
    dz = dout @ t["label_w2"].T
    dz *= r > 0.0
    # label layer norm backward, in place
    grads["label_ln_gain"] += np.einsum("ij,ij->j", dz, xhat)
    grads["label_ln_bias"] += dz.sum(axis=0)
    dz *= t["label_ln_gain"]
    mean_dot = np.einsum("ij,ij->i", dz, xhat)[:, None] / dz.shape[1]
    dz -= dz.mean(axis=-1, keepdims=True)
    dz -= xhat * mean_dot
    dz *= inv
    # z1[i, j] = P[j] - P[i] + b1 sends its dz to P[j] and b1, -dz to P[i]
    dproj = np.zeros_like(proj)
    np.add.at(dproj, ends, dz)
    np.subtract.at(dproj, starts, dz)
    grads["label_b1"] += dz.sum(axis=0)
    grads["label_w1"] += fenceposts.T @ dproj
    return dproj @ t["label_w1"].T


def _forward_run(params: ModelParams, sentences: list[list[ExtendedTag]], golds):
    """Forward passes of a run of sentences, their tokens packed into one
    matrix for the embedding and the encoder's row-wise work; the rest runs
    per sentence.  Returns, per sentence, the :func:`forward_packed` result
    for its entry of ``golds``.

    The scorer's ``label_w1`` projection stays per sentence: at its width
    of 250 columns, OpenBLAS gives a row of a product bits that depend on
    how many rows the product has.
    """
    bounds = np.cumsum([0] + [len(tags) for tags in sentences]).tolist()
    spans = [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
    x, pos_idx, feat_idx = _embed_forward(params, sentences)
    h, finite, layers = _encode_forward(params, x, spans, golds is not None)
    results = []
    for s, rows in enumerate(spans):
        fenceposts = _fenceposts(params, h[rows])
        if not np.isfinite(fenceposts).all():
            bad = [i for i, ok in enumerate(finite) if not ok[rows].all()]
            results.append(ModelError(f"non-finite values after encoder layer {bad[0]}" if bad
                                      else "non-finite embedding or boundary values"))
            continue
        gold = None if golds is None else golds[s]
        tables, gold_scores, scores_cache = _scores_forward(params, fenceposts, gold)
        caches = None if golds is None else (
            (pos_idx[rows], feat_idx[rows]),
            [(*(m[rows] for m in arrays), *attention[s]) for arrays, attention in layers],
            scores_cache)
        results.append((tables, gold_scores, caches))
    return results


def forward_packed(params: ModelParams, sentences: list[list[ExtendedTag]], golds=None):
    """The forward pass, tags -> span tables, of each sentence, packed in
    runs of at most ``_PACK_TOKENS`` tokens, a run computed once the
    previous one's results have all been taken.  Yields per sentence
    ``(tables, gold_scores, caches)``, with :func:`_scores_forward`'s gold
    scores for its entry of ``golds`` and backward caches only with
    ``golds``, or the :class:`ModelError` of an empty, over-long or
    non-finite sentence.  A one-token sentence is a run of its own (numpy
    sends a one-row product to gemv, whose bits differ from gemm's), and
    so is an empty or over-long one, which does not run."""
    max_len = params.config.max_len
    sizes = [len(tags) if 1 < len(tags) <= max_len else _PACK_TOKENS + 1
             for tags in sentences]
    for run, _ in _runs(sizes, _PACK_TOKENS):
        n = len(sentences[run.start])
        if n == 0 or n > max_len:
            yield ModelError("cannot embed an empty sentence" if n == 0 else
                             f"sentence length {n} exceeds max_len {max_len}")
            continue
        results = _forward_run(params, [sentences[k] for k in run],
                               None if golds is None else [golds[k] for k in run])
        while results:  # popped, so a result taken is no longer held here
            yield results.pop(0)


def forward_scores(params: ModelParams, tags: list[ExtendedTag]):
    """Full forward pass tags -> dense (n, n+1, L) score tensor, keeping
    backprop caches; cells with j <= i and the empty label's are zero."""
    forward = next(forward_packed(params, [tags], [None]))
    if isinstance(forward, ModelError):
        raise forward
    return _dense_scores(params, forward[2][2]), forward[2]


def _dense_scores(params: ModelParams, cache) -> np.ndarray:
    """The (n, n+1, L) score tensor filled from :func:`_score_blocks`."""
    n = cache[0].shape[0] - 1
    scores = np.zeros((n, n + 1, len(params.labels)))
    cells = _span_cells(n)
    for rows, block in _score_blocks(params, cache):
        scores.reshape(n * (n + 1), -1)[cells[rows]] = block
    return scores


def backward_scores(params: ModelParams, caches, dscores) -> dict[str, np.ndarray]:
    """Backpropagate a dense gradient on the score tensor to all parameters;
    only its nonzero rows of spans i < j reach :func:`backward_span_rows`."""
    starts, ends = np.triu_indices(dscores.shape[0] + 1, k=1)
    dout = dscores[starts, ends, 1:]
    keep = dout.any(axis=1)
    return backward_span_rows(params, caches, starts[keep], ends[keep], dout[keep],
                              params.zero_grads())


def backward_span_rows(params: ModelParams, caches, starts, ends, dout,
                       grads: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Backpropagate label gradient rows to all parameters, adding into
    ``grads``, which is returned: ``dout[k]`` holds the non-empty labels'
    gradient of span ``(starts[k], ends[k])``."""
    embed_cache, encode_cache, scores_cache = caches
    dfence = _scores_backward(params, grads, scores_cache, starts, ends, dout)
    dx = _encode_backward(params, grads, encode_cache, dfence)
    _embed_backward(params, grads, embed_cache, dx)
    return grads


def sentence_scores(params: ModelParams, tags: list[ExtendedTag]) -> np.ndarray:
    scores, _ = forward_scores(params, tags)
    return scores


def gold_indices(params: ModelParams, tags: list[ExtendedTag],
                 gold: Tree) -> list[tuple[int, int, int]]:
    """The labeled spans of the binarized tree ``gold`` over ``tags`` as
    ``(i, j, label index)``; a tree over another number of leaves raises
    :class:`ModelError`."""
    gold_spans, leaves = _chart.tree_spans(gold)
    if leaves != len(tags):
        raise ModelError(f"gold tree covers {leaves} leaves, got {len(tags)} tags")
    return _chart.spans_to_indices(gold_spans, params.labels)


def loss_and_gradients(params: ModelParams, forward, gold_idx: list[tuple[int, int, int]],
                       grads: dict[str, np.ndarray]) -> tuple[float, dict[str, np.ndarray]]:
    """Structured hinge loss and exact subgradients for one sentence.

    The loss is the margin violation of the gold tree against the
    loss-augmented best decode, where the augmentation adds 1 for every
    span labeling disagreeing with gold.  A tree's score is the sum of its
    non-empty span scores, so shared spans cancel in the subgradient.

    ``forward`` is the sentence's :func:`forward_packed` result for its
    :func:`gold_indices` ``gold_idx``.  The subgradient is added into
    ``grads``, which is returned.  Where it is zero nothing is added: at
    zero loss, and where the decode has gold's labeled spans and the loss
    is only the rounding residue of summing them in another order.
    """
    tables, gold_scores, caches = forward
    gold_total = sum(score for score, (_, _, l) in zip(gold_scores, gold_idx) if l != 0)
    augmented_total, pred_spans = _chart.decode_spans(tables)
    loss = augmented_total - gold_total
    if loss <= 0.0:
        return 0.0, grads
    starts, ends, dout = _subgradient_rows(pred_spans, gold_idx, len(params.labels))
    if len(dout):
        backward_span_rows(params, caches, starts, ends, dout, grads)
    return float(loss), grads


def _subgradient_rows(pred_spans, gold_spans, num_labels):
    """The hinge subgradient on the scores as rows: +1 for each predicted
    and -1 for each gold non-empty labeled span, one row per span (i, j),
    with rows that cancel to zero dropped.  Returns ``(starts, ends, dout)``
    in (i, j) order; ``dout`` has no empty-label column."""
    delta: Counter = Counter()
    for i, j, label in pred_spans:
        if label != 0:
            delta[i, j, label] += 1
    for i, j, label in gold_spans:
        if label != 0:
            delta[i, j, label] -= 1
    spans = sorted({(i, j) for (i, j, _), value in delta.items() if value})
    row = {span: k for k, span in enumerate(spans)}
    dout = np.zeros((len(spans), num_labels - 1))
    for (i, j, label), value in delta.items():
        if value:
            dout[row[i, j], label - 1] = value
    index = np.array(spans, dtype=np.int64).reshape(-1, 2)
    return index[:, 0], index[:, 1], dout


def build_label_inventory(trees: list[Tree]) -> list[str]:
    """Empty label first, then all phrase labels of the binarized trees."""
    labels = {node.label for tree in trees for node in tree.subtrees()
              if node.children and not node.is_preterminal and node.label != EMPTY_LABEL}
    return [EMPTY_LABEL] + sorted(labels)


def build_vocabularies(sentences: list[list[ExtendedTag]]) -> tuple[list[str], list[str]]:
    """UNK-first POS and feature vocabularies from training tag sequences."""
    pos: set[str] = set()
    features: set[str] = set()
    for tags in sentences:
        for tag in tags:
            pos.add(tag.pos)
            features.update(tag.features)
    return [UNK] + sorted(pos), [UNK] + sorted(features)


def save_checkpoint(params: ModelParams, path) -> None:
    """Single-file checkpoint: magic, version, JSON header, raw tensors.

    The header records the config, label inventory, vocabularies, and a
    tensor directory with name, shape, byte offset, and CRC32; tensor data
    is little-endian float64 in directory order.
    """
    blobs = []
    directory = []
    offset = 0
    for name in tensor_names(params.config):
        # a byte view of the tensor's data, copied only if not contiguous
        data = np.ascontiguousarray(params.tensors[name], dtype="<f8").reshape(-1).view(np.uint8)
        directory.append({
            "name": name,
            "shape": list(params.tensors[name].shape),
            "dtype": "<f8",
            "offset": offset,
            "nbytes": len(data),
            "crc32": zlib.crc32(data),
        })
        blobs.append(data)
        offset += len(data)
    header = {
        "format_version": CHECKPOINT_VERSION,
        "config": asdict(params.config),
        "labels": params.labels,
        "pos_vocab": params.pos_names,
        "feature_vocab": params.feature_names,
        "tensors": directory,
    }
    header_bytes = json.dumps(header, sort_keys=True, ensure_ascii=True).encode("ascii")
    try:
        with open(path, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(CHECKPOINT_VERSION.to_bytes(4, "little"))
            fh.write(len(header_bytes).to_bytes(8, "little"))
            fh.write(header_bytes)
            for blob in blobs:
                fh.write(blob)
    except OSError as exc:
        exc.filename = path  # named also when the write fails after the open
        raise


_HEADER_KEYS = ("format_version", "config", "labels", "pos_vocab", "feature_vocab",
                "tensors")
_ENTRY_KEYS = ("name", "shape", "dtype", "offset", "nbytes", "crc32")


def load_checkpoint(path) -> ModelParams:
    """Read a :func:`save_checkpoint` file; a malformed or truncated one
    raises :class:`ModelError`.  The tensors are writable views of one
    buffer holding everything after the header."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        prefix = fh.read(16)
        magic = prefix[:4]
        if magic != CHECKPOINT_MAGIC:
            raise ModelError(f"not a model checkpoint: bad magic {magic!r}")
        version = int.from_bytes(prefix[4:8], "little")
        if version != CHECKPOINT_VERSION:
            raise ModelError(f"unsupported checkpoint version {version}")
        header_len = int.from_bytes(prefix[8:16], "little")
        header_bytes = fh.read(min(header_len, size))
        # a buffer of its own, so the tensors' views are aligned as numpy's
        # own arrays are, whatever the header's length
        blob = np.empty(max(size - fh.tell(), 0), dtype=np.uint8)
        blob = blob[:fh.readinto(blob)]
    try:
        header = json.loads(header_bytes.decode("ascii"))
    except ValueError as exc:
        raise ModelError(f"checkpoint header is not ASCII JSON: {exc}") from None
    if not isinstance(header, dict):
        raise ModelError("checkpoint header is not a JSON object")
    missing = [key for key in _HEADER_KEYS if key not in header]
    if missing:
        raise ModelError(f"checkpoint header lacks {', '.join(missing)}")
    format_version = header["format_version"]
    if type(format_version) is not int or format_version != CHECKPOINT_VERSION:
        raise ModelError(f"unsupported checkpoint format_version {format_version!r}")
    for key in ("labels", "pos_vocab", "feature_vocab"):
        if not (isinstance(header[key], list) and header[key]
                and all(isinstance(item, str) for item in header[key])):
            raise ModelError(f"checkpoint header {key} is not a list of strings")
    fields = header["config"]
    if not (isinstance(fields, dict) and all(type(v) is int for v in fields.values())):
        raise ModelError("checkpoint config is not a map of integers")
    try:
        config = ModelConfig(**fields)
    except TypeError as exc:
        raise ModelError(f"bad checkpoint config: {exc}") from None
    entries = header["tensors"]
    if not (isinstance(entries, list)
            and all(isinstance(e, dict) and all(k in e for k in _ENTRY_KEYS)
                    for e in entries)):
        raise ModelError("checkpoint tensor entries need " + ", ".join(_ENTRY_KEYS))
    # every layer has tensors, so a larger claim is false; checked before
    # the expected directory, which grows with the claim, is built
    if config.num_layers > len(entries):
        raise ModelError(f"checkpoint config claims {config.num_layers} layers "
                         f"for {len(entries)} tensors")
    expected = _tensor_shapes(config, len(header["pos_vocab"]),
                              len(header["feature_vocab"]), len(header["labels"]))
    if [entry["name"] for entry in entries] != list(expected):
        raise ModelError("checkpoint tensor names do not match its config")
    tensors: dict[str, np.ndarray] = {}
    for entry in entries:
        name, shape = entry["name"], expected[entry["name"]]
        if entry["dtype"] != "<f8":
            raise ModelError(f"tensor {name!r} has dtype {entry['dtype']!r}, not '<f8'")
        if entry["shape"] != list(shape):
            raise ModelError(f"tensor {name!r} has shape {entry['shape']}, "
                             f"expected {list(shape)} from the config and vocabularies")
        start, nbytes = entry["offset"], 8 * int(np.prod(shape))
        if entry["nbytes"] != nbytes or not isinstance(start, int) or start < 0:
            raise ModelError(f"bad offset or size for tensor {name!r}")
        if start + nbytes > len(blob):
            raise ModelError(f"checkpoint truncated: tensor {name!r} needs bytes "
                             f"{start}..{start + nbytes} of a {len(blob)}-byte blob")
        chunk = blob[start:start + nbytes]
        if zlib.crc32(chunk) != entry["crc32"]:
            raise ModelError(f"checksum mismatch for tensor {name!r}")
        tensors[name] = chunk.view("<f8").reshape(shape)
    return ModelParams(config, header["pos_vocab"], header["feature_vocab"],
                       header["labels"], tensors)
