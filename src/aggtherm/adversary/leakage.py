"""Executable leakage demonstrations.

Two constructions show why specific intermediates must stay masked: the
filtered temperature matrix lets the coordinator solve for the raw
temperatures once it has seen two rounds whose dynamics share no root (the
closed-form attack in ``linear`` undoes its filters with the same solve),
and a raw rank-1 Gram upload betrays its generating encryption
column up to a sign that the weight-recovery relation then fixes.  A third
shows why masks must be uniform: averaging masked copies of one share
estimates the zone's mean when the masks are zero-mean real draws.  A
fourth needs no careless protocol: the aggregates the coordinator is meant
to see give the Gram of the filtered per-zone series in closed form.
"""

from __future__ import annotations

import numpy as np

from ..model import lag_filter
from ..protocol.transcript import RoundView

__all__ = [
    "recover_tau_from_hat",
    "recover_W_from_gram",
    "estimate_share_mean",
    "filtered_gram_from_view",
    "GramNotRankOneError",
]


class GramNotRankOneError(ValueError):
    """The upload is not a rank-1 Gram matrix (masking did its job)."""


def _filter_adjoint(Y: np.ndarray, M: int, alpha: np.ndarray) -> np.ndarray:
    """F_αᵀ Y for the T-row Y: the adjoint of ``lag_filter``, T + M rows."""
    out = np.zeros((len(Y) + M, *Y.shape[1:]))
    out[M:] += Y
    for m, a in enumerate(alpha, 1):
        out[M - m : len(out) - m] -= a * Y
    return out


def recover_tau_from_hat(hat_tau_per_iter: list, alpha_per_iter: list) -> np.ndarray:
    """Undo L >= 2 rounds of lag filters: the τ with F_l τ = Ĥ_l in every
    round, for F_l the T x (T+M) filter of round l's dynamics, from the
    normal equations (Σ F_lᵀF_l) τ = Σ F_lᵀĤ_l.  Raises ValueError when
    FᵀF is rank-deficient, as when the rounds' dynamics share a root; the
    rank comes from FᵀF's eigenvalues, since Cholesky factors this singular
    FᵀF without complaint.
    """
    L = len(hat_tau_per_iter)
    if L < 2 or len(alpha_per_iter) != L:
        raise ValueError(f"need at least 2 iterations with their dynamics, got {L}")
    alphas = [np.asarray(a, dtype=float).ravel() for a in alpha_per_iter]
    mats = [np.asarray(h, dtype=float) for h in hat_tau_per_iter]
    M = len(alphas[0])
    T = len(mats[0])
    if any(len(a) != M for a in alphas) or any(m.shape != mats[0].shape for m in mats):
        raise ValueError("iterations have inconsistent shapes")

    FtF = sum(_filter_adjoint(lag_filter(np.eye(T + M), M, a), M, a) for a in alphas)
    rank = np.linalg.matrix_rank(FtF, hermitian=True)
    if rank < T + M:
        raise ValueError(
            f"filter system is rank-deficient ({rank} < {T + M}); "
            "the rounds' dynamics share a root"
        )
    return np.linalg.solve(FtF, sum(_filter_adjoint(h, M, a) for h, a in zip(mats, alphas)))


def recover_W_from_gram(A2_set: list, xi: np.ndarray, xi_bar: np.ndarray) -> np.ndarray:
    """Rebuild the encryption matrix from raw per-agent Gram uploads.

    Each rank-1 Gram matrix determines its generating column up to sign
    (magnitudes from the diagonal, relative signs from one reference row);
    the remaining global sign per column comes from the weight-recovery
    relation.  Raises GramNotRankOneError when an upload is not rank-1
    positive semidefinite, which is exactly what secure aggregation
    produces.
    """
    xi = np.asarray(xi, dtype=float).ravel()
    xi_bar = np.asarray(xi_bar, dtype=float).ravel()
    K = len(xi)
    if len(A2_set) != K or len(xi_bar) != K:
        raise ValueError("need one Gram upload per agent and matching weight vectors")
    W = np.zeros((K, K))
    for i, A2 in enumerate(A2_set):
        A2 = np.asarray(A2, dtype=float)
        if A2.shape != (K, K):
            raise ValueError(f"upload {i} has shape {A2.shape}, expected {(K, K)}")
        scale = max(1.0, float(np.max(np.abs(A2))))
        if np.max(np.abs(A2 - A2.T)) > 1e-9 * scale:
            raise GramNotRankOneError(f"upload {i} is not symmetric")
        d = np.diag(A2)
        if np.min(d) < -1e-9 * scale:
            raise GramNotRankOneError(f"upload {i} has a negative diagonal")
        if np.max(d) <= 1e-12 * scale:
            raise ValueError(
                f"upload {i} has an all-zero diagonal; column sign unrecoverable"
            )
        # zero diagonal entries are benign (that component is zero); relative
        # signs come from the row of the largest-magnitude entry
        mag = np.sqrt(np.clip(d, 0.0, None))
        ref = int(np.argmax(mag))
        signs = np.sign(A2[:, ref])
        signs[ref] = 1.0
        col = signs * mag
        if np.max(np.abs(np.outer(col, col) - A2)) > 1e-8 * scale:
            raise GramNotRankOneError(
                f"upload {i} is not rank-1; reconstruction mismatch"
            )
        recovered = float(col @ xi_bar)
        if abs(recovered) < 1e-12:
            raise ValueError(f"upload {i}: weight relation degenerate, sign ambiguous")
        if np.sign(recovered) != np.sign(xi[i]):
            col = -col
        W[:, i] = col
    return W


def estimate_share_mean(shares: list) -> float:
    """Estimate a zone's mean from L masked copies of its share.

    Each copy is the zone's series plus a sum of pairwise masks drawn afresh
    every round.  Averaging every entry of every copy leaves the series mean
    plus mask noise that shrinks as 1/sqrt(L n), so zero-mean real masks
    (Normal(0, 10), say) give the mean away.  Decoded uniform ring shares
    are spread over the whole fixed-point range and swamp it.
    """
    copies = [np.asarray(s, dtype=float).ravel() for s in shares]
    if not copies:
        raise ValueError("need at least one masked copy")
    return float(np.concatenate(copies).mean())


def filtered_gram_from_view(view: RoundView) -> np.ndarray:
    """The T x T Gram Ĥ_l Ĥ_lᵀ of round l's filtered per-zone temperatures,
    from that round's ``RoundView``.

    The round's aggregates are ``A1_sum`` = Ĥ_l W_lᵀ and ``A2_sum`` = W_l W_lᵀ
    for the invertible encryption matrix W_l, so A1 A2⁻¹ A1ᵀ = Ĥ_l Ĥ_lᵀ: one
    K x K solve, at any K, whatever the masks.
    """
    A1 = view.A1_sum
    return A1 @ np.linalg.solve(view.A2_sum, A1.T)
