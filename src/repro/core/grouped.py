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
  serve stale statistics) lands in stacked weight/shift slots, and the
  scale/shift + ReLU run in the GEMM epilogue.

All large buffers are views of plan-owned ``BufferPool.take_persistent``
slots, which the builder reuses by size across layers (the tracer knows
every lifetime, so a slot goes to the next buffer that fits once its
last reader is recorded); a replay performs **zero** new large
allocations — only the O(C_out) fold temporaries.  Plans are compiled
for the ``im2col`` kernel only: under ``reference`` (the ground-truth
kernel) :func:`compile_ensemble_plan` raises :class:`PlanUnsupported`,
so the ensemble runs its member loop with reference numerics and counts
a fallback.

Numerics vs the untraced member loop: the GAP (``sum * 1/L``), softmax
and probability/CAM accumulation mirror the untraced ops bit-for-bit;
the conv, head and CAM GEMMs compute the identical per-element dot
products but with the batch folded into the GEMM column dimension
(``(C_out, C_in*K) @ (C_in*K, N*L)`` instead of one ``(C_in*K, L)``
GEMM per window), so their bits can in principle reassociate within
BLAS — bounded ≤1e-5 and typically exactly zero (each output column's
K-loop is blocked identically regardless of the column count).  The
first call per signature validates the plan against the untraced loop
before caching it, so a violation falls back rather than serving.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .. import nn
from ..nn.backend import counters
from ..nn.plan import ExecutionPlan, PlanBuilder

DTYPE = np.float32

#: normalize_cam's default epsilon, mirrored exactly (repro.core.cam).
_CAM_EPS = 1e-8


class PlanUnsupported(Exception):
    """The ensemble's structure cannot be traced; callers fall back."""


def _make_fold_step(conv, norm, w_dst: np.ndarray, s_dst: np.ndarray) -> Callable:
    """Step folding the live BN statistics into stacked weight/shift slots.

    Reads ``conv``/``norm`` parameters at **replay** time — the fold is
    O(C_out * C_in * K), negligible next to the conv GEMM, and re-running
    it every replay is what keeps a plan correct across
    ``load_state_dict`` and parameter updates.  Mirrors
    ``ConvBlock._forward_folded`` operation-for-operation.
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
        inv_std = 1.0 / np.sqrt(norm.running_var + norm.eps)
        scale = norm.gamma.data * inv_std
        shift = norm.beta.data - norm.running_mean * scale
        if conv.bias is not None:
            shift = shift + conv.bias.data * scale
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
    m = len(blocks)
    g0 = 0
    while g0 < m:
        conv0 = blocks[g0][0]
        key = (conv0.kernel_size, conv0.padding, conv0.in_channels, conv0.out_channels)
        g1 = g0 + 1
        while g1 < m:
            c = blocks[g1][0]
            if (c.kernel_size, c.padding, c.in_channels, c.out_channels) != key:
                break
            g1 += 1
        _emit_conv_group(
            builder, blocks[g0:g1], x_src, shared, g0, g1, length, act_out, relu
        )
        g0 = g1


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
    """One grouped im2col GEMM over the members ``g0:g1`` of a conv column."""
    conv0 = group[0][0]
    kernel, pad = conv0.kernel_size, conv0.padding
    c_in, c_out = conv0.in_channels, conv0.out_channels
    stride = conv0.stride
    n = x_src.shape[2]
    l_pad = length + 2 * pad
    gm = g1 - g0
    mi = 1 if shared else gm

    src_view = x_src[:1] if shared else x_src[g0:g1]
    w_stack = builder.buffer((gm, c_out, c_in * kernel))
    shift_stack = builder.buffer((gm, c_out))
    for gi, (conv, norm) in enumerate(group):
        builder.emit(
            _make_fold_step(conv, norm, w_stack[gi], shift_stack[gi]),
            label=f"fold[m{g0 + gi}]",
            writes=(w_stack[gi], shift_stack[gi]),
        )

    l_out = (l_pad - kernel) // stride + 1
    if kernel == 1 and pad == 0:
        # The input *is* the column block: (mi, C_in*1, N*L).
        cols = src_view.reshape(mi, c_in, n * l_out)
    else:
        cols = builder.buffer((mi, c_in * kernel, n * l_out))
        cols5 = cols.reshape(mi, c_in, kernel, n, l_out)

        def fill_step(c5=cols5, src=src_view, k=kernel, lo=l_out, st=stride,
                      p=pad, L=length):
            # Gather straight from the *unpadded* source: tap ``j`` reads
            # padded positions ``j, j+st, ...`` = unpadded ``j-p + i*st``;
            # the (at most ``k-1``) out-of-range columns are the zero
            # margins, rewritten every replay because the slot may have
            # been recycled into (and clobbered by) another buffer since.
            for j in range(k):
                a = j - p
                i0 = -(-(-a) // st) if a < 0 else 0  # ceil(-a / st)
                i1 = min(lo, (L - 1 - a) // st + 1)
                dst = c5[:, :, j, :, :]
                if i0 > 0:
                    dst[..., :i0] = 0.0
                if i1 < lo:
                    dst[..., i1:] = 0.0
                np.copyto(
                    dst[..., i0:i1],
                    src[..., a + i0 * st : a + (i1 - 1) * st + 1 : st],
                )

        builder.emit(
            fill_step,
            label=f"im2col[m{g0}:{g1}]",
            reads=(src_view,),
            writes=(cols,),
        )

    out_view = act_out[g0:g1].reshape(gm, c_out, n * l_out)

    def gemm_step(w=w_stack, c=cols, o=out_view, s=shift_stack, r=relu):
        np.matmul(w, c, out=o)
        counters.record("fused_conv_calls")
        counters.record("fused_conv_gemms")
        o += s[:, :, None]
        if r:
            np.maximum(o, 0.0, out=o)

    builder.emit(
        gemm_step,
        label=f"gemm[m{g0}:{g1}]",
        reads=(cols, w_stack, shift_stack),
        writes=(out_view,),
    )
    builder.release(w_stack)
    builder.release(shift_stack)
    if kernel != 1 or pad > 0:
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
    pool,
    n: int,
    length: int,
    class_index: int = 1,
    with_cam: bool = True,
) -> ExecutionPlan:
    """Trace the full grouped ensemble forward into an :class:`ExecutionPlan`.

    Inputs: ``plan.inputs["x"]`` — an ``(n, length)`` window batch slot.
    Outputs: ``plan.outputs["proba"]`` (``(n,)`` ensemble detection
    probability) and, when ``with_cam``, ``plan.outputs["cam"]`` (``(n,
    length)`` averaged normalized CAM).  Probability and CAM accumulate in
    the *original* member order (the permutation is internal), matching
    the untraced loop's accumulation bit-for-bit.  Raises
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

    builder = PlanBuilder(pool)
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

    # GAP mirrors Tensor.mean: sum over time, then * (1/L).
    pooled = builder.buffer((m, c3, n))

    def gap_step(f=feats, p=pooled, inv=1.0 / length):
        np.sum(f, axis=3, out=p)
        np.multiply(p, inv, out=p)

    builder.emit(gap_step, label="gap", reads=(feats,), writes=(pooled,))

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
    logits = builder.buffer((m, n_classes, n))

    def head_step(p=pooled, w=w_head, b=b_head, o=logits):
        np.matmul(w, p, out=o)
        o += b[:, :, None]

    builder.emit(
        head_step,
        label="head",
        reads=(pooled, w_head, b_head),
        writes=(logits,),
    )
    builder.release(pooled)
    builder.release(w_head)
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
        cam_w = builder.buffer((m, 1, c3))

        def cam_w_step(ms=perm_models, w=cam_w, ci=class_index):
            for mi, model in enumerate(ms):
                np.copyto(w[mi, 0], model.head.weight.data[ci])

        builder.emit(cam_w_step, label="cam_w", writes=(cam_w,))
        cam_raw = builder.buffer((m, 1, n * length))
        feats_flat = feats.reshape(m, c3, n * length)

        def cam_step(w=cam_w, f=feats_flat, o=cam_raw):
            np.matmul(w, f, out=o)  # one (1,C3)@(C3,N*L) GEMM per member

        builder.emit(
            cam_step,
            label="cam_gemm",
            reads=(cam_w, feats_flat),
            writes=(cam_raw,),
        )
        builder.release(cam_w)

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
        builder.release(cam_raw)
        outputs["cam"] = out_cam
    builder.release(feats)

    signature = (n, length, class_index, with_cam, nn.backend.get_backend(), m)
    return builder.build(signature, {"x": x_in}, outputs)
