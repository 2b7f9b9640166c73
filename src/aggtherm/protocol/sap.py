"""Secure aggregation: pairwise antisymmetric masks that cancel in the sum.

Shares are elements of the ring Z_2^64.  Each agent encodes its private
tensor as signed fixed-point with ``FRAC_BITS`` fractional bits, views it
as uint64, and for each unordered agent pair (i, j), i < j, adds (agent i)
or subtracts (agent j) a mask of uniform 64-bit words derived from the
pair's seed, with wrap-around arithmetic.  The coordinator sums the shares
mod 2^64, which cancels every mask, and decodes the sum once: it is the
exact sum of the quantized inputs, in any share order.  Each share on its
own is uniform over the ring.  Mask streams are keyed by iteration and are
fresh every round.
"""

from __future__ import annotations

import numpy as np

from ..model import lag_columns

__all__ = [
    "FRAC_BITS",
    "PairwiseMaskSet",
    "fixed_point_bound",
    "encode_fixed",
    "decode_fixed",
    "sap_mask",
    "sap_aggregate",
    "assemble_sp1_inputs",
]

# mask kinds: (code, sub) identifies an independent stream per pair
KIND_SAP_S = 0  # weighted temperature series (T + M rows)
KIND_SAP_LOAD = 1  # load series (T + M rows)
KIND_TE_A1 = 2
KIND_TE_A2 = 3
KIND_TE_W = 4

FRAC_BITS = 44  # quantization step 2^-44; rounding error at most 2^-45 per entry
_SCALE = float(2**FRAC_BITS)


class PairwiseMaskSet:
    """Deterministic pairwise mask source for one protocol iteration.

    Both members of a pair reconstruct identical masks from the shared
    seed, standing in for an out-of-band pairwise agreement.  Entries are
    the raw uniform 64-bit output of a PCG64 stream, one independent stream
    per (pair, iteration, kind, sub).  This is a simulation PRG, not a
    cryptographic one.
    """

    def __init__(self, master_seed: int, agent_ids, iteration: int):
        self.master_seed = master_seed
        self.agent_ids = sorted(agent_ids)
        self.iteration = iteration

    def mask(self, i: int, j: int, kind: int, sub: int, shape) -> np.ndarray:
        """Mask shared by pair (i, j), i < j, for one stream and shape (uint64)."""
        if not i < j:
            raise ValueError(f"pair must be ordered i < j, got ({i}, {j})")
        seq = np.random.SeedSequence(
            self.master_seed, spawn_key=(1000 + self.iteration, kind, sub, i, j)
        )
        return np.random.PCG64(seq).random_raw(shape)


def fixed_point_bound(K: int) -> float:
    """Largest magnitude an entry may have so that a sum of K shares cannot
    wrap: K entries below 2^(62-F)/K encode to a sum below 2^62 < 2^63."""
    return 2.0 ** (62 - FRAC_BITS) / K


def encode_fixed(x, K: int) -> np.ndarray:
    """Encode a real tensor as signed fixed-point ring elements (uint64).

    Raises ValueError when an entry is non-finite or not below
    ``fixed_point_bound(K)``, instead of letting it wrap."""
    x = np.asarray(x, dtype=float)
    bound = fixed_point_bound(K)
    inside = np.abs(x) < bound
    if not inside.all():
        bad = x[~inside].ravel()[0]
        raise ValueError(
            f"entry {bad!r} is non-finite or outside the fixed-point range "
            f"|x| < {bound!r} (2^{62 - FRAC_BITS}/K for K={K})"
        )
    return np.rint(x * _SCALE).astype(np.int64).view(np.uint64)


def decode_fixed(u) -> np.ndarray:
    """Read ring elements (uint64) as signed fixed-point reals."""
    u = np.asarray(u)
    if u.dtype != np.uint64:
        raise ValueError(f"ring elements must be uint64, got {u.dtype}")
    return u.view(np.int64) / _SCALE


def sap_mask(x, agent_id: int, masks: PairwiseMaskSet, kind: int, sub: int = 0) -> np.ndarray:
    """Encode and mask a private tensor: add pair masks toward higher ids,
    subtract toward lower ids, mod 2^64.  Summing all K masked tensors
    cancels every mask."""
    out = encode_fixed(x, len(masks.agent_ids))
    for j in masks.agent_ids:
        if j == agent_id:
            continue
        if j > agent_id:
            out += masks.mask(agent_id, j, kind, sub, out.shape)
        else:
            out -= masks.mask(j, agent_id, kind, sub, out.shape)
    return out


def sap_aggregate(shares: list) -> np.ndarray:
    """Sum a complete set of ring shares mod 2^64 and decode the sum."""
    if not shares:
        raise ValueError("no shares to aggregate")
    first = np.asarray(shares[0])
    out = first.copy()
    for s in shares[1:]:
        s = np.asarray(s)
        if s.shape != first.shape:
            raise ValueError(f"share shape {s.shape} does not match {first.shape}")
        if s.dtype != first.dtype:
            raise ValueError(f"share dtype {s.dtype} does not match {first.dtype}")
        out += s
    return decode_fixed(out)


def assemble_sp1_inputs(s_sum, load_sum, M: int):
    """Coordinator-side regressors from the two aggregated series.

    ``s_sum`` is the aggregated weighted temperature series and ``load_sum``
    the aggregated cluster load, both of T + M rows; the coordinator slices
    their lag-0..M views itself.  Returns (c0_xi, c1_xi_cols, c2).
    """
    s_sum = np.asarray(s_sum, dtype=float)
    load_sum = np.asarray(load_sum, dtype=float)
    if s_sum.ndim != 1 or s_sum.shape != load_sum.shape or len(s_sum) <= M:
        raise ValueError(
            f"need two aggregated series of equal length > M={M}, "
            f"got {s_sum.shape} and {load_sum.shape}"
        )
    s_lags = lag_columns(s_sum, M)
    return s_lags[:, 0], s_lags[:, 1:], lag_columns(load_sum, M)
