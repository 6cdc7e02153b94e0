"""Fixed-width featurization of (hardware, mapping, layer shape) triples.

Every feature lives in log2 space (sizes, tiles, buffer fills) or is a
0/1 categorical indicator, so one standardization pass puts all of them
on comparable scales.  The layout is frozen behind
:data:`FEATURE_VERSION`: a trained model records the version it was fit
against and refuses to score features from a different layout.

Two views of the same vector are provided:

* :func:`featurize` / :func:`featurize_batch` — exact features of a
  discrete :class:`~repro.mapping.gemm_mapping.GemmMapping` (batch path
  vectorized over the precomputed ``GemmMapping._row`` SoA tuples, the
  same encoder the batch cost-model kernels consume).
* :func:`relaxed_features` — the differentiable relaxation used by the
  one-loop search: tile sizes become continuous ``(lm, ln, lk)`` log2
  coordinates and the function returns the Jacobian of the feature
  vector with respect to them, so a model gradient in feature space
  chains back to a gradient over tile sizes.

Buffer-fill features use the same double-buffered footprint expressions
as :meth:`GemmMappingSpace.seeded_mapping_for` and the MAESTRO kernels,
minus the integer ceils (which do not differentiate); they are features,
not feasibility checks, so the smooth approximation is fine.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

import numpy as np

#: Bump whenever the feature layout below changes; models refuse to
#: score vectors from a different version.
FEATURE_VERSION = 1

#: bytes per fp16 operand / fp32 accumulator, matching the cost model
_OPERAND_BYTES = 2.0
_ACC_BYTES = 4.0

_HW_NAMES = (
    "log2_pe_x",
    "log2_pe_y",
    "log2_l1_bytes",
    "log2_l2_bytes",
    "log2_noc_bw",
    "dataflow_ws",
    "log2_l1_banks",
    "log2_l2_banks",
)
_SHAPE_NAMES = ("log2_m", "log2_n", "log2_k", "reuse_penalty")
_CAT_NAMES = ("spatial_mn", "log2_unroll", "inner_m", "inner_n", "inner_k")
_TILE_NAMES = (
    "log2_tile_m",
    "log2_tile_n",
    "log2_tile_k",
    "tile_m_frac",
    "tile_n_frac",
    "tile_k_frac",
    "tile_m_per_pe_x",
    "tile_n_per_pe_y",
    "l1_fill_log2",
    "l2_fill_log2",
    "log2_num_tiles",
    "log2_macs_per_tile",
)

_NAMES: Tuple[str, ...] = _HW_NAMES + _SHAPE_NAMES + _CAT_NAMES + _TILE_NAMES
_TILE_OFFSET = len(_HW_NAMES) + len(_SHAPE_NAMES) + len(_CAT_NAMES)


def feature_names() -> Tuple[str, ...]:
    """Ordered names of the feature columns (length :func:`feature_dim`)."""
    return _NAMES


def feature_dim() -> int:
    """Width of every feature vector under :data:`FEATURE_VERSION`."""
    return len(_NAMES)


def _hw_fields(hw) -> Tuple[float, ...]:
    """Hardware half of the prefix; raises AttributeError for foreign hw."""
    l2_bytes = float(hw.l2_kb) * 1024.0
    return (
        math.log2(float(hw.pe_x)),
        math.log2(float(hw.pe_y)),
        math.log2(float(hw.l1_bytes)),
        math.log2(l2_bytes),
        math.log2(float(hw.noc_bw)),
        1.0 if getattr(hw, "dataflow", "ws") == "ws" else 0.0,
        math.log2(float(getattr(hw, "l1_banks", 1))),
        math.log2(float(getattr(hw, "l2_banks", 1))),
    )


def _shape_fields(shape) -> Tuple[float, ...]:
    return (
        math.log2(float(shape.m)),
        math.log2(float(shape.n)),
        math.log2(float(shape.k)),
        float(shape.reuse_penalty),
    )


def hw_shape_prefix(hw, shape) -> np.ndarray:
    """The mapping-independent feature prefix, shared across a batch."""
    return np.asarray(_hw_fields(hw) + _shape_fields(shape), dtype=np.float64)


def _tile_block(
    log_tiles: np.ndarray,
    hw,
    shape,
) -> Tuple[np.ndarray, np.ndarray]:
    """Tile-dependent feature block plus its Jacobian w.r.t. ``log_tiles``.

    ``log_tiles`` is shape (B, 3) of log2 tile sizes; returns
    ``(block (B, 12), jac (B, 12, 3))``.  All expressions are smooth in
    the log coordinates, which is what makes the one-loop relaxation
    differentiable.
    """
    log_tiles = np.asarray(log_tiles, dtype=np.float64)
    batch = log_tiles.shape[0]
    lm, ln, lk = log_tiles[:, 0], log_tiles[:, 1], log_tiles[:, 2]
    log2_m, log2_n, log2_k = (
        math.log2(float(shape.m)),
        math.log2(float(shape.n)),
        math.log2(float(shape.k)),
    )
    log2_px, log2_py = math.log2(float(hw.pe_x)), math.log2(float(hw.pe_y))
    tm, tn, tk = 2.0 ** lm, 2.0 ** ln, 2.0 ** lk
    sub_m, sub_n = tm / float(hw.pe_x), tn / float(hw.pe_y)
    # double-buffered footprints (smooth: no per-PE ceil)
    l1_fp = (
        _OPERAND_BYTES * (sub_m * tk + tk * sub_n) * 2.0
        + _ACC_BYTES * sub_m * sub_n
    )
    l2_fp = _OPERAND_BYTES * (tm + tn) * tk * 2.0 + _ACC_BYTES * tm * tn
    l2_bytes = float(hw.l2_kb) * 1024.0

    block = np.empty((batch, len(_TILE_NAMES)), dtype=np.float64)
    block[:, 0] = lm
    block[:, 1] = ln
    block[:, 2] = lk
    block[:, 3] = lm - log2_m
    block[:, 4] = ln - log2_n
    block[:, 5] = lk - log2_k
    block[:, 6] = lm - log2_px
    block[:, 7] = ln - log2_py
    block[:, 8] = np.log2(l1_fp) - math.log2(float(hw.l1_bytes))
    block[:, 9] = np.log2(l2_fp) - math.log2(l2_bytes)
    block[:, 10] = (log2_m - lm) + (log2_n - ln) + (log2_k - lk)
    block[:, 11] = lm + ln + lk

    jac = np.zeros((batch, len(_TILE_NAMES), 3), dtype=np.float64)
    for row, col in ((0, 0), (1, 1), (2, 2), (3, 0), (4, 1), (5, 2), (6, 0), (7, 1)):
        jac[:, row, col] = 1.0
    two, four = 2.0 * _OPERAND_BYTES, _ACC_BYTES
    jac[:, 8, 0] = sub_m * (two * tk + four * sub_n) / l1_fp
    jac[:, 8, 1] = sub_n * (two * tk + four * sub_m) / l1_fp
    jac[:, 8, 2] = two * tk * (sub_m + sub_n) / l1_fp
    jac[:, 9, 0] = tm * (two * tk + four * tn) / l2_fp
    jac[:, 9, 1] = tn * (two * tk + four * tm) / l2_fp
    jac[:, 9, 2] = two * tk * (tm + tn) / l2_fp
    jac[:, 10, :] = -1.0
    jac[:, 11, :] = 1.0
    return block, jac


def _cat_block(
    spatial_mn: np.ndarray, unroll: np.ndarray, inner_index: np.ndarray
) -> np.ndarray:
    batch = spatial_mn.shape[0]
    block = np.zeros((batch, len(_CAT_NAMES)), dtype=np.float64)
    block[:, 0] = spatial_mn
    block[:, 1] = np.log2(unroll.astype(np.float64))
    block[np.arange(batch), 2 + inner_index.astype(np.intp)] = 1.0
    return block


def featurize_batch(hw, mappings: Sequence, shape) -> np.ndarray:
    """Feature matrix (B, D) for a batch of mappings of one layer."""
    if not mappings:
        return np.empty((0, feature_dim()), dtype=np.float64)
    rows = np.asarray([m._row for m in mappings], dtype=np.float64)
    prefix = hw_shape_prefix(hw, shape)
    cat = _cat_block(rows[:, 4], rows[:, 3], rows[:, 5])
    tiles, _ = _tile_block(np.log2(rows[:, 0:3]), hw, shape)
    out = np.empty((len(mappings), feature_dim()), dtype=np.float64)
    out[:, : prefix.size] = prefix
    out[:, prefix.size : _TILE_OFFSET] = cat
    out[:, _TILE_OFFSET :] = tiles
    return out


def featurize(hw, mapping, shape) -> np.ndarray:
    """Feature vector (D,) for one mapping; matches the batch path exactly."""
    return featurize_batch(hw, [mapping], shape)[0]


def relaxed_features(
    hw,
    shape,
    log_tiles: Sequence[float],
    spatial_mn: int,
    unroll: int,
    inner_index: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Features of a relaxed (continuous-tile) mapping, with the Jacobian.

    Returns ``(x, jac)`` where ``x`` has shape (D,) and ``jac`` has shape
    (D, 3): ``jac[i, j] = d x[i] / d log_tiles[j]``.  At integer log2
    tile sizes ``x`` equals :func:`featurize` of the corresponding
    discrete mapping bit for bit.
    """
    prefix = hw_shape_prefix(hw, shape)
    cat = _cat_block(
        np.asarray([float(spatial_mn)]),
        np.asarray([float(unroll)]),
        np.asarray([inner_index]),
    )
    tiles, tile_jac = _tile_block(
        np.asarray(log_tiles, dtype=np.float64).reshape(1, 3), hw, shape
    )
    x = np.concatenate([prefix, cat[0], tiles[0]])
    jac = np.zeros((feature_dim(), 3), dtype=np.float64)
    jac[_TILE_OFFSET :, :] = tile_jac[0]
    return x, jac


__all__ = [
    "FEATURE_VERSION",
    "feature_dim",
    "feature_names",
    "featurize",
    "featurize_batch",
    "hw_shape_prefix",
    "relaxed_features",
]
