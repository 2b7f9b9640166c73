"""Secure aggregation: pairwise antisymmetric masks that cancel in the sum.

Each unordered agent pair (i, j), i < j, derives a shared mask stream from
the pair's seed; agent i adds the mask, agent j subtracts it, so the
coordinator recovers the exact sum of the private inputs and nothing else.
Mask streams are keyed by iteration and are fresh every round.
"""

from __future__ import annotations

import numpy as np

from ..model import lag_columns

__all__ = [
    "PairwiseMaskSet",
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


class PairwiseMaskSet:
    """Deterministic pairwise mask source for one protocol iteration.

    Both members of a pair reconstruct identical masks from the shared
    seed, standing in for an out-of-band pairwise agreement.  Entries are
    drawn from Normal(0, sd) with sd large relative to the data scale.
    """

    def __init__(self, master_seed: int, agent_ids, iteration: int, sd: float = 10.0):
        self.master_seed = master_seed
        self.agent_ids = sorted(agent_ids)
        self.iteration = iteration
        self.sd = sd

    def mask(self, i: int, j: int, kind: int, sub: int, shape) -> np.ndarray:
        """Mask shared by pair (i, j), i < j, for one stream and shape."""
        if not i < j:
            raise ValueError(f"pair must be ordered i < j, got ({i}, {j})")
        seq = np.random.SeedSequence(
            self.master_seed, spawn_key=(1000 + self.iteration, kind, sub, i, j)
        )
        rng = np.random.default_rng(seq)
        return rng.normal(0.0, self.sd, size=shape)


def sap_mask(x, agent_id: int, masks: PairwiseMaskSet, kind: int, sub: int = 0):
    """Mask a private tensor: add pair masks toward higher ids, subtract
    toward lower ids.  Summing all K masked tensors cancels every mask."""
    x = np.asarray(x, dtype=float)
    out = x.copy()
    for j in masks.agent_ids:
        if j == agent_id:
            continue
        if j > agent_id:
            out += masks.mask(agent_id, j, kind, sub, x.shape)
        else:
            out -= masks.mask(j, agent_id, kind, sub, x.shape)
    return out


def sap_aggregate(shares: list) -> np.ndarray:
    """Sum a complete set of masked shares, left to right in agent order."""
    if not shares:
        raise ValueError("no shares to aggregate")
    first = np.asarray(shares[0], dtype=float)
    out = first.copy()
    for s in shares[1:]:
        s = np.asarray(s, dtype=float)
        if s.shape != first.shape:
            raise ValueError(f"share shape {s.shape} does not match {first.shape}")
        out += s
    return out


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
