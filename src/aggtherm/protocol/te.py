"""Multiplicative transformation masking for the weights subproblem.

Each agent holds a private random column of the encryption matrix W, drawn
once per run, and uploads only outer products of its temperature series
and that column (secure-aggregated, in round 0).  From their sums the
coordinator forms each round's transformed problem in the encrypted weight
vector.  With invertible W the transformed problem is an exact
reparameterization of the plain one.
"""

from __future__ import annotations

import numpy as np

from ..estimator import EstimationError, solve_weights_qp
from .sap import FRAC_BITS

__all__ = [
    "gen_encryption_col",
    "compute_te_uploads",
    "solve_sp2_masked",
    "te_recover",
]


# the distribution of encryption entries, Normal(W_MEAN, W_SD)
W_MEAN, W_SD = 0.1, 0.1


def gen_encryption_col(K: int, rng: np.random.Generator):
    """One agent's private encryption column: K draws from Normal(W_MEAN, W_SD),
    rounded to the grid of step 2^-(FRAC_BITS/2).  Every product w_i w_j is
    then a multiple of 2^-FRAC_BITS, so the fixed-point shares of w w^T carry
    no rounding and the coordinator's Gram sum W W^T is exact."""
    steps = 2.0 ** (FRAC_BITS // 2)  # grid steps per unit
    return np.rint(rng.normal(W_MEAN, W_SD, size=K) * steps) / steps


def compute_te_uploads(rows: np.ndarray, w_col: np.ndarray) -> np.ndarray:
    """One outer-product upload of an agent: rows x w^T.  An agent uploads
    tau x w^T (``TE_A1``) and w x w^T (``TE_A2``)."""
    return np.outer(np.asarray(rows, dtype=float), np.asarray(w_col, dtype=float))


def solve_sp2_masked(
    A1_sum: np.ndarray,
    A2_sum: np.ndarray,
    w_sum: np.ndarray,
    c2: np.ndarray,
    c3: np.ndarray,
    c4: np.ndarray,
    T_occ: int,
    lam: float,
):
    """Coordinator-side solve of the transformed weights subproblem.

    Minimizes ||A1_sum v - c2 b - c3 g - c4 th - u[t mod T_occ]||^2
    + lam v'A2_sum v subject to w_sum'v = 1.  Returns (xi_bar, beta, gamma,
    theta, tau_occ_free, f2).  Raises EstimationError when A2_sum = W W^T is
    singular: the transformed problem is then no reparameterization of the
    plain one, and its solution would be wrong without a warning.
    """
    A1_sum = np.asarray(A1_sum, dtype=float)
    A2_sum = np.asarray(A2_sum, dtype=float)
    w_sum = np.asarray(w_sum, dtype=float).ravel()
    K = len(w_sum)
    if A2_sum.shape != (K, K) or A1_sum.shape[1] != K:
        raise ValueError("upload sums have inconsistent shapes")
    asym = float(np.max(np.abs(A2_sum - A2_sum.T))) if K else 0.0
    if asym > 1e-9 * max(1.0, float(np.max(np.abs(A2_sum)))):
        raise ValueError(f"aggregated Gram matrix is asymmetric (max dev {asym:.3e})")
    if not np.any(w_sum):
        raise ValueError("aggregated encryption-column sum is zero")
    rank = np.linalg.matrix_rank(A2_sum)
    if rank < K:
        raise EstimationError(f"aggregated Gram matrix W W^T has rank {rank} < K={K}: the encryption matrix is singular")
    A2_sym = 0.5 * (A2_sum + A2_sum.T)
    return solve_weights_qp(
        A1_sum, c2, c3, c4, T_occ, lam * A2_sym, w_sum, nonneg=False
    )


def te_recover(w_col: np.ndarray, xi_bar: np.ndarray) -> float:
    """Agent-side recovery of its own weight: w_col dot xi_bar."""
    return float(np.asarray(w_col, dtype=float) @ np.asarray(xi_bar, dtype=float))
