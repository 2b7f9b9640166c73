"""The closed-form attack on the coordinator's view: stages 1 and 2.

``aggtherm.adversary`` does not import this module, so loading the attack
harness does not load it.

Round l shows the coordinator D_l = Ĥ_l W_lᵀ (``A1_sum``), where
Ĥ_l = F_l τ for the known T x (T+M) lag filter F_l of α_l, the Gram
G_l = W_l W_lᵀ (``A2_sum``), the column sums W_l 1 (``w_sum``) and, in the
clear, every weight vector ξ it handled.  Put V_l = W_l⁻ᵀ; then
F_l τ = D_l V_l in every round, which is linear in τ and the V_l.

Stage 1 eliminates τ.  With F the rounds' filters stacked (LT x (T+M)) and
D the D_l block-diagonal (LT x LK), each column of τ is X v for
X = (FᵀF)⁻¹FᵀD, where v stacks the matching columns of the V_l and lies in
the null space of D − FX.  X is ``recover_tau_from_hat`` on the D_l, each
zero-padded into its own column block; its rank test on FᵀF reports rounds
whose filters do not pin τ.  Once T(L−1) ≥ (L−1)K + M that null space is
K-dimensional; for a basis N of it, V = NC and τ = XNC with one unknown K x K
matrix C.

Stage 2 fixes CCᵀ by one Gram identity: V_l V_lᵀ = G_l⁻¹, so
(CCᵀ)⁻¹ = N_lᵀ G_l N_l in every round l.  Then ττᵀ = XN CCᵀ NᵀXᵀ, and since
Cᵀ N_lᵀ (W_l 1) = 1, τ1 = XN CCᵀ N_lᵀ (W_l 1).  Only an orthogonal factor
of C is left (stage 3, not built here).  The idea of solving a quadratic
system as a linear one in products of unknowns is relinearization (Kipnis
and Shamir, CRYPTO 1999).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..model import lag_filter
from .leakage import filtered_gram_from_view, recover_tau_from_hat

__all__ = ["NULL_RTOL", "TranscriptLeak", "transcript_attack"]

# a singular value of D − FX at most this share of D's largest spans the null space
NULL_RTOL = 1e-9


@dataclass
class TranscriptLeak:
    """What stages 1 and 2 take from a list of round views.

    When the stages cannot run (``reason`` says why), ``gram`` is round 0's
    filtered Gram ĤĤᵀ (T x T) from ``filtered_gram_from_view`` and
    ``tau_sum`` and ``spread`` are None."""

    gram: np.ndarray  # ττᵀ, (T+M) x (T+M)
    tau_sum: np.ndarray | None  # τ1, (T+M,)
    r: int  # dim span{1, every ξ the coordinator handled}
    null_dim: int | None  # stage-1 null-space dimension; None at L = 1
    null_gap: float | None  # smallest kept singular value over the largest null one
    spread: float | None  # largest relative difference of (CCᵀ)⁻¹ from round 0's
    reason: str | None = None


def transcript_attack(views) -> TranscriptLeak:
    """Stages 1 and 2 on the coordinator's ``RoundView`` list.

    Returns ττᵀ and τ1 when the stage-1 null space has dimension K.  With
    one round, rounds whose filters do not pin τ, or a null space of
    another dimension, it returns round 0's ĤĤᵀ and says why."""
    views = list(views)
    if not views:
        raise ValueError("need the view of at least one round")
    L = len(views)
    T, K = np.shape(views[0].A1_sum)
    M = np.size(views[0].alpha)
    if any(np.shape(v.A1_sum) != (T, K) or np.size(v.alpha) != M for v in views):
        raise ValueError("the rounds' views have inconsistent shapes")
    seen = [np.ones(K)] + [v.xi_in for v in views] + [v.xi_recovered for v in views]
    r = int(np.linalg.matrix_rank(np.column_stack(seen)))

    def hat_gram(reason, null_dim=None, null_gap=None):
        return TranscriptLeak(filtered_gram_from_view(views[0]), None, r, null_dim, null_gap, None, reason)

    if L == 1:
        return hat_gram("one round: its filter has an M-dimensional null space, so τ is not eliminated")

    # stage 1: X = (FᵀF)⁻¹FᵀD, each D_l padded to its column block, then the null space of D − FX
    alphas = [np.asarray(v.alpha, dtype=float).ravel() for v in views]
    D = [np.pad(v.A1_sum, ((0, 0), (l * K, (L - 1 - l) * K))) for l, v in enumerate(views)]
    try:
        X = recover_tau_from_hat(D, alphas)
    except ValueError:
        return hat_gram("the rounds' stacked filters are rank-deficient, so τ is not eliminated")
    R = np.vstack([d - lag_filter(X, M, a) for d, a in zip(D, alphas)])
    if len(R) < L * K:  # zero rows keep the null space and make every direction a row of Vt
        R = np.vstack([R, np.zeros((L * K - len(R), L * K))])
    _, s, Vt = np.linalg.svd(R, full_matrices=False)
    n = int(np.sum(s <= NULL_RTOL * max(np.linalg.norm(v.A1_sum, 2) for v in views)))
    keep = L * K - n
    gap = float(s[keep - 1] / s[keep]) if 0 < n < L * K and s[keep] > 0 else np.inf
    if n != K:
        side = "wider" if n > K else "narrower"
        return hat_gram(f"the stage-1 null space has dimension {n}, {side} than K={K}", n, gap)

    # stage 2: (CCᵀ)⁻¹ = N_lᵀ G_l N_l in every round
    N = Vt[keep:].T
    blocks = [N[l * K : (l + 1) * K] for l in range(L)]
    inv_ccs = [b.T @ np.asarray(v.A2_sum, dtype=float) @ b for b, v in zip(blocks, views)]
    spread = max(float(np.linalg.norm(c - inv_ccs[0]) / np.linalg.norm(inv_ccs[0])) for c in inv_ccs)
    CC = np.linalg.inv(inv_ccs[0])
    B = X @ N
    tau_sum = B @ CC @ blocks[0].T @ np.asarray(views[0].w_sum, dtype=float)
    return TranscriptLeak(B @ CC @ B.T, tau_sum, r, n, gap, spread)
