"""Non-private cluster model estimation.

Evaluates the regularized least-squares objective and solves the two
block-coordinate subproblems in the clear: the weights-fixed problem is an
unconstrained linear least squares over the remaining coefficients, and the
dynamics-fixed problem is an equality-constrained convex QP over the zone
weights (with an active-set fallback for the nonnegativity bounds).  Both
remove the free occupancy levels in closed form: the levels are slot means
of the residual, so each subproblem solves only its other unknowns on
slot-demeaned columns (``_project_out_slots``).
``alternate`` is the alternating loop both fit modes share: ``bcd_fit``
runs it on these solvers, the private protocol on its rounds.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .model import AtdmParameters, DesignMatrices, lag_columns, lag_filter, occupancy_slots

__all__ = [
    "EstimationError",
    "IllConditionedWarning",
    "RCOND_MIN",
    "GapRecord",
    "FitResult",
    "objective",
    "solve_sp1",
    "solve_sp1_from_parts",
    "solve_sp2_plain",
    "solve_weights_qp",
    "solve_constrained_quadratic",
    "gap",
    "DESCENT_RTOL",
    "check_penalty",
    "check_start",
    "alternate",
    "bcd_fit",
]

# Descent slack of the alternating fit, relative to the objective's scale:
# a step fails to descend when f_new > f_old + DESCENT_RTOL * max(1, |f_old|).
# Encryption columns on the 2^-22 grid make the private fit's Gram sum
# W W^T exact, so the slack covers only the series' rounding: in 1600
# private fits at K 2-7, T 30-300 and 80 at K=32, T=1080 no f1/f2 step
# rose at all.
DESCENT_RTOL = 1e-9

# A weights step is ill-conditioned when one of its KKT solves has a
# reciprocal condition number below this: its solution may have no digits left.
RCOND_MIN = np.finfo(float).eps


class EstimationError(RuntimeError):
    """Solver failure: singular system, active-set cycle, or divergence."""


class IllConditionedWarning(UserWarning):
    """``alternate``'s warning for a weights step with rcond below ``RCOND_MIN``."""


@dataclass
class GapRecord:
    """One iteration of the alternating fit: both objective values and the gap."""

    f1: float
    f2: float
    gap: float
    negative: bool = False
    absolute_only: bool = False


@dataclass
class FitResult:
    params: AtdmParameters
    objective: float
    iterations: int
    gap_trace: list = field(default_factory=list)
    converged: bool = False
    warnings: list = field(default_factory=list)


def _residual(params: AtdmParameters, design: DesignMatrices) -> np.ndarray:
    r = lag_filter(design.tau @ params.xi, design.M, params.alpha)
    r = r - design.c2 @ params.beta
    r = r - design.c3 @ params.gamma
    r = r - design.c4 @ params.theta
    r = r - params.tau_occ_free[occupancy_slots(design.T, design.T_occ)]
    return r


def check_penalty(lam: float) -> None:
    """Raise ValueError unless the ridge penalty ``lam`` is finite and >= 0."""
    if not (np.isfinite(lam) and lam >= 0):
        raise ValueError(f"penalty lambda must be finite and >= 0, got {lam!r}")


def objective(params: AtdmParameters, design: DesignMatrices, lam: float) -> float:
    """Sum of squared model residuals plus the lam * ||xi||^2 penalty."""
    check_penalty(lam)
    design.check_params(params)
    r = _residual(params, design)
    return float(r @ r + lam * (params.xi @ params.xi))


def _split_exogenous(rest: np.ndarray, n1: int):
    """(beta, gamma, theta) from coefficients stacked in the column order
    c2 | c3 | c4, each n1 wide."""
    return rest[:n1], rest[n1 : 2 * n1], rest[2 * n1 :]


def _project_out_slots(T_occ: int, blocks: list):
    """Remove the occupancy block from the columns of ``blocks``.

    Row t belongs to occupancy slot t mod T_occ.  Returns the blocks side
    by side (X, T x p) minus each row's slot mean, and the slot means
    (T_occ x p); a slot with no rows has mean 0.  For any coefficients c
    the slot levels u that best fit X c are u = means @ c, and the residual
    left is the projected X times c (Frisch-Waugh-Lovell), so the occupancy
    levels drop out of both subproblems.
    """
    X = np.hstack(blocks)
    slots = occupancy_slots(len(X), T_occ)
    whole = len(X) - len(X) % T_occ
    sums = X[:whole].reshape(-1, T_occ, X.shape[1]).sum(axis=0)
    sums[: len(X) - whole] += X[whole:]
    means = sums / np.maximum(np.bincount(slots, minlength=T_occ), 1)[:, None]
    X -= means[slots]
    return X, means


def solve_sp1_from_parts(
    s: np.ndarray,
    c2: np.ndarray,
    c3: np.ndarray,
    c4: np.ndarray,
    T_occ: int,
    lam: float,
    xi_norm_sq: float,
):
    """Weights-fixed least squares from the weighted temperature series.

    ``s`` is the weighted series (T + M rows, lag history first), needing
    no access to per-zone data; its lag-0 view is the target and its
    lag-1..M views are the dynamics regressors.  M is read from ``c2``
    (T x (M+1)); row t has occupancy slot t mod ``T_occ``.  The target and
    the M + 3(M+1) regressor columns are slot-demeaned and solved by least
    squares, minimum-norm when the demeaned columns are rank-deficient (for
    example a constant exogenous column, which demeaning zeroes); the
    occupancy levels are then the slot means of the target minus the
    fitted regressors, 0 for a slot with no rows.  Returns (alpha, beta, gamma, theta, tau_occ_free, f1).
    """
    s = np.asarray(s, dtype=float)
    M = c2.shape[1] - 1
    if s.ndim != 1 or len(s) != c2.shape[0] + M or len(s) <= M:
        raise ValueError(
            f"the weighted series must be 1-D with T + M = {c2.shape[0] + M} rows, "
            f"more than M = {M}; got shape {s.shape}"
        )
    X, means = _project_out_slots(T_occ, [lag_columns(s, M), c2, c3, c4])
    y, Z = X[:, 0], X[:, 1:]
    coef, *_ = np.linalg.lstsq(Z, y, rcond=None)
    resid = y - Z @ coef
    f1 = float(resid @ resid + lam * xi_norm_sq)
    tau_occ = means[:, 0] - means[:, 1:] @ coef
    return (coef[:M], *_split_exogenous(coef[M:], c2.shape[1]), tau_occ, f1)


def solve_sp1(xi: np.ndarray, design: DesignMatrices, lam: float):
    """Minimize the objective over all coefficients with the zone weights fixed.

    Returns (alpha, beta, gamma, theta, tau_occ_free, f1), solved as in
    ``solve_sp1_from_parts``: with rank-deficient regressors, alpha, beta,
    gamma and theta have minimum norm and the occupancy levels follow from
    them, which need not be the minimum-norm solution over all
    coefficients.  f1 includes the (constant) weight penalty term.
    """
    xi = np.asarray(xi, dtype=float).ravel()
    if not np.all(np.isfinite(xi)):
        raise ValueError("xi contains non-finite entries")
    if len(xi) != design.K:
        raise ValueError(f"xi must have {design.K} entries, got {len(xi)}")
    return solve_sp1_from_parts(
        design.tau @ xi,
        design.c2,
        design.c3,
        design.c4,
        design.T_occ,
        lam,
        float(xi @ xi),
    )


def solve_constrained_quadratic(H: np.ndarray, c: np.ndarray):
    """Solve min x'Hx subject to c'x = 1 via the KKT linear system.

    Returns (x, nu, rcond): 2Hx + nu c = 0, and rcond is the KKT matrix's
    sigma_min/sigma_max, for the caller to judge.  A singular matrix gets the
    least-squares minimum-norm solution; a large system residual raises
    EstimationError, and so does a violated constraint row, judged on its
    own scale: |c'x - 1| > 1e-6 max(1, |c| |x|).
    """
    n = H.shape[0]
    kkt = np.zeros((n + 1, n + 1))
    kkt[:n, :n] = 2.0 * H
    kkt[:n, n] = c
    kkt[n, :n] = c
    rhs = np.zeros(n + 1)
    rhs[n] = 1.0
    sol, _, _, sv = np.linalg.lstsq(kkt, rhs, rcond=None)
    rcond = float(sv[-1] / sv[0]) if sv[0] > 0 else 0.0
    scale = max(1.0, float(np.abs(kkt).max()))
    gap_norm = float(np.max(np.abs(kkt @ sol - rhs)))
    if gap_norm > 1e-6 * scale:
        raise EstimationError(
            f"singular KKT system: residual {gap_norm:.3e} exceeds tolerance"
        )
    x = sol[:n]
    row_gap = abs(float(c @ x) - 1.0)
    if row_gap > 1e-6 * max(1.0, float(np.linalg.norm(c) * np.linalg.norm(x))):
        raise EstimationError(
            f"KKT solve violates its constraint: |c'x - 1| = {row_gap:.3e}"
        )
    return x, float(sol[n]), rcond


def solve_weights_qp(
    S: np.ndarray,
    c2: np.ndarray,
    c3: np.ndarray,
    c4: np.ndarray,
    T_occ: int,
    reg: np.ndarray,
    cvec: np.ndarray,
    nonneg: bool,
):
    """Shared weights-block QP: min ||S v - c2 b - c3 g - c4 th - u[t mod T_occ]||^2
    + v'reg v subject to cvec'v = 1 (and optionally v >= 0 via an active set).

    The occupancy levels u are eliminated first: the columns [S, -c2, -c3,
    -c4] are slot-demeaned, so the KKT system has K + 3(M+1) unknowns, less
    the weights held at their bound, which are returned as exactly 0; u is
    the slot means of S v - c2 b - c3 g - c4 th, 0 for a slot with no rows.
    Returns (v, beta, gamma, theta, tau_occ_free, rcond, f), rcond the
    smallest reciprocal condition number of the KKT solves.
    """
    K = S.shape[1]
    A, means = _project_out_slots(T_occ, [S, -c2, -c3, -c4])
    n = A.shape[1]
    H = A.T @ A
    H[:K, :K] += reg
    e = np.zeros(n)
    e[:K] = cvec

    fixed: list[int] = []
    rcond = np.inf
    for _ in range(2 * K + 1):
        free = np.ones(n, dtype=bool)
        free[fixed] = False
        x = np.zeros(n)
        x[free], nu, rc = solve_constrained_quadratic(H[np.ix_(free, free)] if fixed else H, e[free])
        rcond = min(rcond, rc)
        v = x[:K]
        if not nonneg:
            break
        violated = [i for i in range(K) if i not in fixed and v[i] < -1e-9]
        if violated:
            fixed.append(min(violated, key=lambda i: v[i]))
            continue
        if fixed:
            mu = 2.0 * (H[fixed] @ x) + nu * e[fixed]  # the bound multipliers
            if mu.min() < -1e-9:
                fixed.pop(int(np.argmin(mu)))
                continue
        break
    else:
        raise EstimationError("active-set cycle limit exceeded in weights subproblem")

    resid = A @ x
    f = float(resid @ resid + v @ reg @ v)
    return (v, *_split_exogenous(x[K:], c2.shape[1]), means @ x, rcond, f)


def solve_sp2_plain(alpha: np.ndarray, design: DesignMatrices, lam: float):
    """Minimize the objective over weights and coefficients with alpha fixed.

    The zone weights are constrained to the probability simplex; negative
    coordinates are handled by an active-set loop on the KKT system.
    Returns (xi, beta, gamma, theta, tau_occ_free, rcond, f2), with rcond as
    in ``solve_weights_qp``.
    """
    K = design.K
    return solve_weights_qp(
        lag_filter(design.tau, design.M, alpha),
        design.c2,
        design.c3,
        design.c4,
        design.T_occ,
        lam * np.eye(K),
        np.ones(K),
        nonneg=True,
    )


def gap(f1: float, f2: float) -> float:
    """Convergence measure min(f1 - f2, (f1 - f2) / f2); absolute-only if f2 == 0."""
    diff = f1 - f2
    if f2 == 0.0:
        return diff
    return min(diff, diff / f2)


def check_start(xi0: np.ndarray | None, K: int) -> np.ndarray:
    """Starting weights of the alternating fit: uniform when ``xi0`` is None,
    else ``xi0`` itself, which must be a finite length-K point of the simplex."""
    xi = np.full(K, 1.0 / K) if xi0 is None else np.asarray(xi0, dtype=float).ravel()
    if len(xi) != K:
        raise ValueError(f"xi0 must have {K} entries, got {len(xi)}")
    if not np.all(np.isfinite(xi)):
        raise ValueError(f"xi0 must be finite, got {xi.tolist()}")
    if abs(xi.sum() - 1.0) > 1e-8 or xi.min() < -1e-8:
        raise ValueError(
            f"xi0 must lie on the probability simplex, got sum {float(xi.sum())!r} "
            f"and minimum entry {float(xi.min())!r}"
        )
    return xi


def _rises(f_new: float, f_old: float) -> bool:
    return f_new > f_old + DESCENT_RTOL * max(1.0, abs(f_old))


def alternate(sp1, sp2, xi: np.ndarray, tol: float, max_iter: int) -> FitResult:
    """Block coordinate descent from the weights ``xi`` until the gap drops below tol.

    Round l calls the dynamics step ``sp1(l, xi) -> (alpha, f1)`` and then the
    weights step ``sp2(l, alpha) -> (xi, beta, gamma, theta, tau_occ_free,
    rcond, f2)``, rcond the smallest reciprocal condition number of its KKT
    solves.  f1 must not exceed the previous round's f2, nor f2 this round's
    f1, beyond the ``DESCENT_RTOL`` slack; a rise aborts with EstimationError.
    A rise within the slack is rounding noise: the trace marks its gap
    ``negative`` but it is not a warning.  Warnings name rounds by l, from 0,
    and flag an ill-conditioned weights solve (rcond < ``RCOND_MIN``, also
    issued as an IllConditionedWarning as the step returns), an absolute-only
    gap, weights on or past their zero bound, and weights that do not sum to
    one.
    """
    if not tol > 0:  # NaN fails this too
        raise ValueError(f"tol must be > 0, got {tol!r}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter!r}")
    trace: list[GapRecord] = []
    notes: list[str] = []
    converged = False
    for l in range(max_iter):
        alpha, f1 = sp1(l, xi)
        if trace and _rises(f1, f2):
            raise EstimationError(f"divergence at iteration {l}: f1={f1!r} > previous f2={f2!r}")
        xi, beta, gamma_, theta, tau_occ, rcond, f2 = sp2(l, alpha)
        if rcond < RCOND_MIN:
            ill = f"ill-conditioned KKT system: rcond {rcond:.3e} < {RCOND_MIN:.3e}"
            warnings.warn(ill, IllConditionedWarning, stacklevel=2)
            notes.append(f"iteration {l}: ill-conditioned weights solve ({ill})")
        if _rises(f2, f1):
            raise EstimationError(f"divergence at iteration {l}: f2={f2!r} > f1={f1!r}")
        g = gap(f1, f2)
        rec = GapRecord(f1=f1, f2=f2, gap=g, negative=f1 - f2 < 0, absolute_only=f2 == 0.0)
        trace.append(rec)
        if rec.absolute_only:
            notes.append(f"iteration {l}: f2 == 0, absolute-only gap")
        if xi.min() <= 0.0:
            notes.append(f"iteration {l}: active weight bound (min xi {float(xi.min())!r})")
        if abs(xi.sum() - 1.0) > 1e-8:
            notes.append(f"iteration {l}: weights sum to {float(xi.sum())!r}")
        if g < tol:
            converged = True
            break

    params = AtdmParameters(
        xi=xi, alpha=alpha, beta=beta, gamma=gamma_, theta=theta, tau_occ_free=tau_occ
    )
    return FitResult(
        params=params,
        objective=float(f2),
        iterations=len(trace),
        gap_trace=trace,
        converged=converged,
        warnings=notes,
    )


def bcd_fit(
    design: DesignMatrices,
    lam: float,
    tol: float = 1e-6,
    xi0: np.ndarray | None = None,
    max_iter: int = 20,
) -> FitResult:
    """Alternate the two plain subproblem solvers until the gap drops below tol
    (see ``alternate`` for the descent checks and warnings)."""
    check_penalty(lam)

    def sp1(l, xi):
        alpha, *_unused, f1 = solve_sp1(xi, design, lam)
        return alpha, f1

    return alternate(
        sp1,
        lambda l, alpha: solve_sp2_plain(alpha, design, lam),
        check_start(xi0, design.K),
        tol,
        max_iter,
    )
