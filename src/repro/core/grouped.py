"""Grouped ensemble execution: the CamAL ensemble as one traced plan.

:func:`compile_ensemble_plan` records the entire eval-mode forward of a
:class:`~repro.core.ensemble.ResNetEnsemble` — every member, every layer,
detection head and CAM — as a single :class:`repro.nn.plan.ExecutionPlan`.
Two fusions happen during the trace:

* **ensemble batching**: members are permuted so equal conv signatures
  are contiguous (only ``block1``'s member-specific ``k_p`` differs; the
  kernel-5/kernel-3 blocks and the 1x1 shortcuts are shape-identical
  across members), their folded weights are stacked per group, and each
  group executes as **one** batched GEMM —
  ``(G, C_out, C_in*K) @ (G, C_in*K, N*L)`` — instead of a Python
  loop over members.  The plan keeps every activation **channel-major**
  (``(M, C, N, L)``), so the whole micro-batch collapses into the GEMM's
  column dimension: one fat BLAS call per layer group per batch, instead
  of the untraced path's one GEMM *slice* per (member, window, layer).
  Each output column is still the same ``(C_in*K)``-long dot product the
  im2col kernel computes per sample, so per-window float32 bits are
  preserved (the trace-time validation enforces this);
* **conv -> folded-BN -> ReLU**: the batch-norm fold (recomputed from the
  *live* parameters on every replay, so a ``load_state_dict`` can never
  serve stale statistics) lands in stacked weight/shift buffers, and the
  scale/shift + ReLU run in the GEMM epilogue.

All large buffers are views into an arena chunk, at offsets a first pass
of the tracer plans (:func:`repro.nn.plan.trace`), and the ensemble's
plans of every batch size share the chunk; a replay performs **zero** new
large allocations — only the O(C_out) fold temporaries.  A conv group
whose im2col columns would exceed :data:`COLUMN_BUDGET_BYTES` gathers and
multiplies tile by tile (:func:`widest_columns` says from which batch
size), so the columns never outgrow the cache however large the batch.
Plans are compiled
for the ``im2col`` kernel only: under ``reference`` (the ground-truth
kernel) :func:`compile_ensemble_plan` raises :class:`PlanUnsupported`,
so the ensemble runs its member loop with reference numerics and counts
a fallback.

Numerics vs the untraced member loop: softmax, CAM normalization and
the probability/CAM accumulation mirror the untraced ops bit-for-bit.
The conv GEMMs compute the identical per-element dot products with the
batch folded into the GEMM column dimension (``(C_out, C_in*K) @
(C_in*K, N*L)`` instead of one ``(C_in*K, L)`` GEMM per window); each
output column's K-loop is blocked identically regardless of the column
count, so the feature maps match the loop's bits.  Head and CAM come
from one ``(n_classes, C3) @ (C3, N*L)`` GEMM of per-timestep class
scores per member — the logits are their time average, the CAM their
class row — a form whose per-window bits do not depend on the batch
size; :func:`repro.core.cam.cam_from_features` contracts the same way,
so the CAM matches the loop bit for bit and the probabilities within
float rounding.  The first call per signature validates the plan against
the untraced loop before caching it, so a violation falls back rather
than serving.
"""

from __future__ import annotations

import functools
import itertools
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from .. import nn
from ..nn.backend import counters
from ..nn.plan import ExecutionPlan, PlanBuilder, SlotArena, trace
from .resnet import fold_batch_norm

DTYPE = np.float32

#: Most bytes of im2col columns one conv GEMM gathers at once — about a
#: core's L2.  A group whose columns at the traced batch size exceed it
#: runs over tiles of windows (and members) that fit, so a plan's memory
#: is bounded by the cache rather than by the batch size.
COLUMN_BUDGET_BYTES = 2 << 20

#: normalize_cam's default epsilon, mirrored exactly (repro.core.cam).
_CAM_EPS = 1e-8


class PlanUnsupported(Exception):
    """The ensemble's structure cannot be traced; callers fall back."""


def _make_fold_step(conv, norm, w_dst: np.ndarray, s_dst: np.ndarray) -> Callable:
    """Step folding the live BN statistics into stacked weight/shift buffers.

    Reads ``conv``/``norm`` parameters at **replay** time — the fold is
    O(C_out * C_in * K), negligible next to the conv GEMM, and re-running
    it every replay is what keeps a plan correct across
    ``load_state_dict`` and parameter updates.  The scale and shift come
    from :func:`~repro.core.resnet.fold_batch_norm`, as in
    ``ConvBlock._forward_folded``.
    """

    def fold() -> None:
        weight = conv.weight.data
        if norm is None:
            np.copyto(w_dst, weight.reshape(w_dst.shape))
            if conv.bias is not None:
                np.copyto(s_dst, conv.bias.data)
            else:
                s_dst.fill(0.0)
            return
        scale, shift = fold_batch_norm(conv, norm)
        np.multiply(weight.reshape(w_dst.shape), scale[:, None], out=w_dst)
        np.copyto(s_dst, shift)

    return fold


def _emit_conv_column(
    builder: PlanBuilder,
    blocks: Sequence[Tuple[object, Optional[object]]],
    x_src: np.ndarray,
    shared: bool,
    length: int,
    act_out: np.ndarray,
    relu: bool,
) -> None:
    """Emit one conv "column" (the same block of every member) into the plan.

    ``blocks`` lists ``(conv, norm-or-None)`` in permuted member order;
    contiguous runs with equal ``(K, padding, C_in, C_out)`` become one
    grouped GEMM each.  ``x_src`` is channel-major ``(M, C_in, N, L)`` —
    or ``(1, C_in, N, L)`` when ``shared`` (the raw input, broadcast
    across members inside the batched matmul).
    """
    for g0, g1 in _groups([conv for conv, _ in blocks]):
        _emit_conv_group(
            builder, blocks[g0:g1], x_src, shared, g0, g1, length, act_out, relu
        )


def _groups(convs: Sequence[object]) -> Sequence[Tuple[int, int]]:
    """``(g0, g1)`` of each contiguous run of convs with equal
    ``(K, padding, C_in, C_out)``: one grouped GEMM each."""
    keys = [(c.kernel_size, c.padding, c.in_channels, c.out_channels) for c in convs]
    starts = [g for g in range(len(keys)) if g == 0 or keys[g] != keys[g - 1]]
    return list(zip(starts, starts[1:] + [len(keys)]))


def _window_columns(conv, members: int, shared: bool, length: int) -> int:
    """Bytes of one window's im2col columns for ``members`` convs like
    ``conv`` (one member's worth from a ``shared`` source; none for 1x1)."""
    if conv.kernel_size == 1 and conv.padding == 0:
        return 0
    l_out = (length + 2 * conv.padding - conv.kernel_size) // conv.stride + 1
    per_member = conv.in_channels * conv.kernel_size * l_out * np.dtype(DTYPE).itemsize
    return (1 if shared else members) * per_member


def widest_columns(models: Sequence[object], length: int) -> int:
    """Bytes of im2col columns per window of the ensemble's widest conv group.

    A plan of ``n`` windows tiles some group exactly when ``n`` times this
    exceeds :data:`COLUMN_BUDGET_BYTES`.  Raises :class:`PlanUnsupported`
    where :func:`compile_ensemble_plan` would.
    """
    _check_supported(models, length)
    perm_models = sorted(models, key=lambda model: model.kernel_size)
    widest = [0]
    names = ("block1", "block2", "block3", "shortcut")
    for unit_index, name in itertools.product((1, 2, 3), names):
        blocks = [getattr(getattr(model, f"unit{unit_index}"), name) for model in perm_models]
        convs = [getattr(block, "conv", block) for block in blocks if block is not None]
        # Unit 1's block1 and shortcut read the raw input, broadcast.
        shared = unit_index == 1 and name in ("block1", "shortcut")
        widest += [_window_columns(convs[g0], g1 - g0, shared, length) for g0, g1 in _groups(convs)]
    return max(widest)


def _gather(cols5: np.ndarray, src: np.ndarray, kernel: int, l_out: int,
            stride: int, pad: int, length: int) -> None:
    """Fill channel-major columns ``cols5`` ``(M, C_in, K, n, L_out)`` from
    ``src`` ``(M, C_in, n, L)``, a block of ``n`` windows.

    Gathers straight from the *unpadded* source: tap ``j`` reads padded
    positions ``j, j+stride, ...`` = unpadded ``j-pad + i*stride``; the (at
    most ``K-1``) out-of-range columns are the zero margins, rewritten
    every replay because other buffers share the column buffer's bytes.
    """
    for j in range(kernel):
        a = j - pad
        i0 = -(-(-a) // stride) if a < 0 else 0  # ceil(-a / stride)
        i1 = min(l_out, (length - 1 - a) // stride + 1)
        dst = cols5[:, :, j, :, :]
        if i0 > 0:
            dst[..., :i0] = 0.0
        if i1 < l_out:
            dst[..., i1:] = 0.0
        np.copyto(
            dst[..., i0:i1],
            src[..., a + i0 * stride : a + (i1 - 1) * stride + 1 : stride],
        )


def _gemm_shift(w: np.ndarray, cols: np.ndarray, out: np.ndarray,
                shift: np.ndarray, relu: bool) -> None:
    """One tile's GEMM and epilogue: ``out = w @ cols + shift``, then ReLU."""
    np.matmul(w, cols, out=out)
    out += shift[:, :, None]
    if relu:
        np.maximum(out, 0.0, out=out)


def _emit_conv_group(
    builder: PlanBuilder,
    group: Sequence[Tuple[object, Optional[object]]],
    x_src: np.ndarray,
    shared: bool,
    g0: int,
    g1: int,
    length: int,
    act_out: np.ndarray,
    relu: bool,
) -> None:
    """Grouped im2col GEMMs over the members ``g0:g1`` of a conv column.

    One gather + GEMM + epilogue when the group's columns fit
    :data:`COLUMN_BUDGET_BYTES`; otherwise one per member and tile of
    windows whose columns fit, all gathered into one column buffer.
    """
    conv0 = group[0][0]
    kernel, pad = conv0.kernel_size, conv0.padding
    c_in, c_out = conv0.in_channels, conv0.out_channels
    stride = conv0.stride
    n = x_src.shape[2]
    l_pad = length + 2 * pad
    gm = g1 - g0

    w_stack = builder.buffer((gm, c_out, c_in * kernel))
    shift_stack = builder.buffer((gm, c_out))
    for gi, (conv, norm) in enumerate(group):
        builder.emit(
            _make_fold_step(conv, norm, w_stack[gi], shift_stack[gi]),
            label=f"fold[m{g0 + gi}]",
            writes=(w_stack[gi], shift_stack[gi]),
        )

    l_out = (l_pad - kernel) // stride + 1
    gathered = kernel != 1 or pad > 0
    tiled = _window_columns(conv0, gm, shared, length) * n > COLUMN_BUDGET_BYTES
    # Tiles are per member: a tile of the whole group would hold fewer
    # windows, and a GEMM over fewer columns re-packs its weights more
    # often per column (measured slower at paper width).
    m_step = 1 if tiled and not shared else gm
    mi = 1 if shared else m_step
    w_step = n
    if tiled:
        # A shared (broadcast) source gathers its columns once for every member.
        window_bytes = _window_columns(conv0, mi, False, length)
        w_step = min(n, max(1, COLUMN_BUDGET_BYTES // window_bytes))
    flat_out = act_out[g0:g1].reshape(gm, c_out, n * l_out)
    cols = builder.buffer((mi, c_in * kernel, w_step * l_out)) if gathered else None
    for a in range(0, gm, m_step):
        b = a + m_step
        src = x_src[:1] if shared else x_src[g0 + a : g0 + b]
        for w0 in range(0, n, w_step):
            w1 = min(n, w0 + w_step)
            tag = f"m{g0 + a}:{g0 + b}" + (f",w{w0}:{w1}" if tiled else "")
            if gathered:
                # A narrower tile is a contiguous prefix of the column buffer.
                tile = cols.reshape(-1)[: mi * c_in * kernel * (w1 - w0) * l_out]
                tile_src = src[:, :, w0:w1]
                tile_cols = tile.reshape(mi, c_in * kernel, (w1 - w0) * l_out)
                builder.emit(
                    functools.partial(
                        _gather, tile.reshape(mi, c_in, kernel, w1 - w0, l_out),
                        tile_src, kernel, l_out, stride, pad, length,
                    ),
                    label=f"im2col[{tag}]", reads=(tile_src,), writes=(tile_cols,),
                )
            else:
                # The input *is* the column block: (mi, C_in*1, N*L).
                tile_cols = src.reshape(mi, c_in, n * l_out)
            out_view = flat_out[a:b, :, w0 * l_out : w1 * l_out]

            def gemm_step(args=(w_stack[a:b], tile_cols, out_view, shift_stack[a:b], relu)):
                _gemm_shift(*args)
                counters.record("fused_conv_calls")
                counters.record("fused_conv_gemms")

            builder.emit(
                gemm_step,
                label=f"gemm[{tag}]",
                reads=(tile_cols, w_stack, shift_stack),
                writes=(out_view,),
            )
    builder.release(w_stack)
    builder.release(shift_stack)
    if cols is not None:
        builder.release(cols)


def _emit_unit(
    builder: PlanBuilder,
    units: Sequence[object],
    x_src: np.ndarray,
    shared: bool,
    length: int,
    release_input: bool,
) -> np.ndarray:
    """Emit one residual unit (all members) and return its output buffer."""
    n = x_src.shape[2]
    m = len(units)
    c_out = units[0].block1.conv.out_channels

    act_a = builder.buffer((m, c_out, n, length))
    _emit_conv_column(
        builder, [(u.block1.conv, u.block1.norm) for u in units],
        x_src, shared, length, act_a, relu=True,
    )
    act_b = builder.buffer((m, c_out, n, length))
    _emit_conv_column(
        builder, [(u.block2.conv, u.block2.norm) for u in units],
        act_a, False, length, act_b, relu=True,
    )
    builder.release(act_a)
    act_c = builder.buffer((m, c_out, n, length))
    _emit_conv_column(
        builder, [(u.block3.conv, u.block3.norm) for u in units],
        act_b, False, length, act_c, relu=True,
    )
    builder.release(act_b)

    if units[0].shortcut is not None:
        shortcut = builder.buffer((m, c_out, n, length))
        _emit_conv_column(
            builder, [(u.shortcut, None) for u in units],
            x_src, shared, length, shortcut, relu=False,
        )
        residual: np.ndarray = shortcut
    else:
        shortcut = None
        residual = x_src[:1] if shared else x_src  # identity, broadcast if shared

    act_out = builder.buffer((m, c_out, n, length))

    def add_relu_step(a=act_c, r=residual, o=act_out):
        np.add(a, r, out=o)
        np.maximum(o, 0.0, out=o)

    builder.emit(
        add_relu_step,
        label="add_relu",
        reads=(act_c, residual),
        writes=(act_out,),
    )
    builder.release(act_c)
    if shortcut is not None:
        builder.release(shortcut)
    if release_input:
        builder.release(x_src)
    return act_out


def _check_supported(models: Sequence[object], length: int) -> None:
    """Raise :class:`PlanUnsupported` unless the tracer handles this ensemble."""
    if not models:
        raise PlanUnsupported("empty ensemble")
    for model in models:
        if getattr(model, "training", True):
            raise PlanUnsupported("plan tracing requires eval-mode members")
    try:
        units_by_pos = [
            [getattr(model, f"unit{i}") for model in models] for i in (1, 2, 3)
        ]
        heads = [model.head for model in models]
    except AttributeError as exc:
        raise PlanUnsupported(f"not a ResNetTSC ensemble: {exc}") from exc
    head_shape = heads[0].weight.shape
    if any(h.weight.shape != head_shape for h in heads):
        raise PlanUnsupported("heads disagree on shape")
    if head_shape[0] < 2:
        raise PlanUnsupported("the head needs two or more classes")
    for units in units_by_pos:
        if len({u.shortcut is not None for u in units}) != 1:
            raise PlanUnsupported("shortcut presence differs across members")
        for unit in units:
            convs = [unit.block1.conv, unit.block2.conv, unit.block3.conv]
            if unit.shortcut is not None:
                # repro: waive[HOT002] trace-time structure validation, not replay code
                convs.append(unit.shortcut)
            for conv in convs:
                if conv.stride != 1:
                    raise PlanUnsupported("strided conv not traceable")
                # Residual adds need L_out == L ("same" padding).
                if length + 2 * conv.padding - conv.kernel_size + 1 != length:
                    raise PlanUnsupported("non-length-preserving conv")
        ref = units[0]
        for unit in units:
            for name in ("block1", "block2", "block3"):
                a, b = getattr(unit, name).conv, getattr(ref, name).conv
                if (a.in_channels, a.out_channels) != (b.in_channels, b.out_channels):
                    raise PlanUnsupported("channel counts differ across members")


def compile_ensemble_plan(
    models: Sequence[object],
    arena: Optional[SlotArena],
    n: int,
    length: int,
    class_index: int = 1,
    with_cam: bool = True,
) -> ExecutionPlan:
    """Trace the full grouped ensemble forward into an :class:`ExecutionPlan`.

    Inputs: ``plan.inputs["x"]`` — an ``(n, length)`` window batch buffer.
    Outputs: ``plan.outputs["proba"]`` (``(n,)`` ensemble detection
    probability) and, when ``with_cam``, ``plan.outputs["cam"]`` (``(n,
    length)`` averaged normalized CAM).  Probability and CAM accumulate in
    the *original* member order (the permutation is internal), matching
    the untraced loop's accumulation bit-for-bit.  The plan is placed in
    a chunk of ``arena`` (a private one when ``None``), which the caller
    may share across plans it never replays at the same time.  Raises
    :class:`PlanUnsupported` unless the active conv kernel is ``im2col``.
    """
    if nn.backend.get_backend() != "im2col":
        raise PlanUnsupported("plans compile for the im2col kernel only")
    _check_supported(models, length)
    m = len(models)
    # Stable sort by k_p makes equal-kernel members contiguous, so block1
    # splits into as few groups as the kernel set allows; every other
    # column is shape-identical and groups to a single GEMM.
    order = sorted(range(m), key=lambda i: models[i].kernel_size)
    perm_models = [models[i] for i in order]
    pos_of = {orig: pos for pos, orig in enumerate(order)}

    record = functools.partial(
        _record_plan, perm_models, pos_of, n, length, class_index, with_cam
    )
    return trace(record, arena)


def _record_plan(
    perm_models: Sequence[object],
    pos_of: Dict[int, int],
    n: int,
    length: int,
    class_index: int,
    with_cam: bool,
    builder: PlanBuilder,
) -> ExecutionPlan:
    """Record the grouped forward of ``perm_models`` (members in kernel
    order; ``pos_of`` maps an original member index to its position) into
    ``builder``: one pass of :func:`compile_ensemble_plan`'s trace."""
    m = len(perm_models)
    x_in = builder.input((n, length))
    # Channel-major throughout: C_in = 1 makes the raw (N, L) batch already
    # the (1, C, N, L) layout — no input transpose.
    act = x_in.reshape(1, 1, n, length)
    shared = True
    for unit_index in (1, 2, 3):
        units = [getattr(model, f"unit{unit_index}") for model in perm_models]
        act = _emit_unit(
            builder, units, act, shared, length, release_input=not shared
        )
        shared = False
    feats = act  # (M, C3, N, L) — the last conv feature maps of every member

    c3 = feats.shape[1]
    n_classes = perm_models[0].head.weight.shape[0]
    inv_members = 1.0 / m

    # Head weights re-read from the live modules each replay (tiny copies).
    w_head = builder.buffer((m, n_classes, c3))
    b_head = builder.buffer((m, n_classes))

    def head_load_step(ms=perm_models, w=w_head, b=b_head):
        for mi, model in enumerate(ms):
            np.copyto(w[mi], model.head.weight.data)
            if model.head.bias is not None:
                np.copyto(b[mi], model.head.bias.data)
            else:
                b[mi].fill(0.0)

    builder.emit(head_load_step, label="head_load", writes=(w_head, b_head))

    # Per-timestep class scores, one (n_classes, C3) @ (C3, N*L) GEMM per
    # member: the head's logits are their time average and the CAM is the
    # class row.  A GEMM of two or more rows over the window columns sums
    # each window in the same order at any batch size, where GAP first
    # and then (n_classes, C3) @ (C3, N) does not (gemv at N = 1, small-N
    # kernels above), nor does a one-row CAM product (gemv).
    scores = builder.buffer((m, n_classes, n * length))

    def scores_step(w=w_head, f=feats.reshape(m, c3, n * length), o=scores):
        np.matmul(w, f, out=o)

    builder.emit(
        scores_step, label="scores", reads=(w_head, feats), writes=(scores,)
    )
    builder.release(feats)
    builder.release(w_head)

    # GAP mirrors Tensor.mean: sum over time, then * (1/L).
    logits = builder.buffer((m, n_classes, n))

    def head_step(sc=scores.reshape(m, n_classes, n, length), b=b_head, o=logits,
                  inv=1.0 / length):
        np.sum(sc, axis=3, out=o)
        np.multiply(o, inv, out=o)
        o += b[:, :, None]

    builder.emit(
        head_step, label="head", reads=(scores, b_head), writes=(logits,)
    )
    builder.release(b_head)

    lmax = builder.buffer((m, 1, n))
    soft = builder.buffer((m, n_classes, n))
    ssum = builder.buffer((m, 1, n))

    def softmax_step(lg=logits, mx=lmax, sf=soft, sm=ssum):
        np.max(lg, axis=1, keepdims=True, out=mx)
        np.subtract(lg, mx, out=sf)
        np.exp(sf, out=sf)
        np.sum(sf, axis=1, keepdims=True, out=sm)
        sf /= sm

    builder.emit(
        softmax_step,
        label="softmax",
        reads=(logits,),
        writes=(lmax, soft, ssum),
    )
    builder.release(logits)
    builder.release(lmax)
    builder.release(ssum)

    out_proba = builder.buffer((n,))
    builder.emit(
        lambda o=out_proba: o.fill(0.0), label="zero:proba", writes=(out_proba,)
    )
    tmp_n = builder.buffer((n,))
    for orig in range(m):  # accumulate in original member order (bit parity)
        def acc_proba(sf=soft, p=pos_of[orig], t=tmp_n, o=out_proba, inv=inv_members):
            np.multiply(sf[p, 1, :], inv, out=t)
            np.add(o, t, out=o)

        builder.emit(
            acc_proba,
            label=f"acc_proba[m{orig}]",
            reads=(soft, out_proba),
            writes=(tmp_n, out_proba),
        )
    builder.release(soft)
    builder.release(tmp_n)
    outputs = {"proba": out_proba}

    if with_cam:
        cam_raw = scores[:, class_index]  # (M, N*L), normalized in place
        cam = cam_raw.reshape(m, n, length)
        maxima = builder.buffer((m, n, 1))
        notpos = builder.buffer((m, n, 1), dtype=bool)

        def norm_step(c=cam, mx=maxima, np_=notpos, eps=_CAM_EPS):
            # normalize_cam, slot-for-slot: divide by the per-window max,
            # zero windows whose max is not positive.
            np.max(c, axis=2, keepdims=True, out=mx)
            np.greater(mx, eps, out=np_)
            np.logical_not(np_, out=np_)
            np.copyto(mx, 1.0, where=np_)
            c /= mx
            np.copyto(c, 0.0, where=np_)

        builder.emit(
            norm_step,
            label="cam_norm",
            reads=(cam_raw,),
            writes=(cam_raw, maxima, notpos),
        )
        builder.release(maxima)
        builder.release(notpos)

        out_cam = builder.buffer((n, length))
        builder.emit(
            lambda o=out_cam: o.fill(0.0), label="zero:cam", writes=(out_cam,)
        )
        tmp_l = builder.buffer((n, length))
        for orig in range(m):
            def acc_cam(c=cam, p=pos_of[orig], t=tmp_l, o=out_cam, inv=inv_members):
                np.multiply(c[p], inv, out=t)
                np.add(o, t, out=o)

            builder.emit(
                acc_cam,
                label=f"acc_cam[m{orig}]",
                reads=(cam_raw, out_cam),
                writes=(tmp_l, out_cam),
            )
        builder.release(tmp_l)
        outputs["cam"] = out_cam
    builder.release(scores)

    signature = (n, length, class_index, with_cam, nn.backend.get_backend(), m)
    return builder.build(signature, {"x": x_in}, outputs)
