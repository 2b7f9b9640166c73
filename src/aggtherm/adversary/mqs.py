"""The coordinator's full inference problem as a multivariate quadratic
system, and its numerical attack.

Unknowns are the raw temperature block (one (T+M) x K matrix, lags
realized as shifted views) and one K x K encryption matrix per iteration.
Knowns are the coordinator's view of each round (``RoundView``): the
aggregate weighted temperature series, Gram sums, column sums,
weight-recovery relations, and the filtered-temperature products.  The
attack minimizes the squared residual of all equation blocks with an
analytic Jacobian.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..model import lag_filter
from ..protocol.te import W_MEAN, W_SD
from ..protocol.transcript import RoundView
from .counting import check_sizes

__all__ = [
    "MqsTruth",
    "MqsInstance",
    "AttackResult",
    "SweepConfig",
    "make_attack_instance",
    "solve_mqs",
    "attack_sweep",
    "write_sweep_csv",
]

# the attack instances' draws: temperatures Normal(TAU_MEAN, TAU_SD),
# encryption entries Normal(W_MEAN, W_SD) as in the protocol
TAU_MEAN, TAU_SD = 20.0, 1.0
PERTURBATION = 1.0  # half-width of the uniform start perturbation
GRAD_TOL = 1e-8


@dataclass
class MqsTruth:
    """Ground truth for evaluation only; the solver never sees it."""

    tau: np.ndarray  # (T+M, K)
    W: np.ndarray  # (L, K, K)


@dataclass
class AttackResult:
    relative_error: float
    final_residual: float
    solver_time_seconds: float
    iterations: int
    converged: bool


class MqsInstance:
    """Assembled residual system with packing helpers and analytic Jacobian.

    ``views`` holds one ``RoundView`` per round; each field is stacked once
    over the rounds, as ``self.<field>`` with a leading round axis.  K and T
    are read from round 0's ``A1_sum`` and M from its ``alpha``; a field of
    another shape in any round raises ValueError naming it.  The Jacobian's
    sparsity depends only on (K, L, T, M), so where each block's entries go
    is worked out once, on the first ``jacobian`` call, and each call then
    fills a fresh dense J by index.
    """

    def __init__(self, views, true_values: MqsTruth):
        self.views = tuple(views)
        if not self.views:
            raise ValueError("need the view of at least one round")
        L = len(self.views)
        T, K = np.shape(self.views[0].A1_sum)
        M = np.size(self.views[0].alpha)
        self.K, self.L, self.T, self.M = K, L, T, M
        shapes = {
            "xi_in": (K,), "s_sum": (T + M,), "alpha": (M,), "A1_sum": (T, K),
            "A2_sum": (K, K), "w_sum": (K,), "xi_bar": (K,), "xi_recovered": (K,),
        }
        for name, shape in shapes.items():
            rounds = [np.asarray(getattr(v, name), dtype=float) for v in self.views]
            for l, a in enumerate(rounds):
                if a.shape != shape:
                    raise ValueError(f"round {l}: {name} has shape {a.shape}, expected {shape}")
            setattr(self, name, np.stack(rounds))
        self.true_values = true_values
        for name, shape in (("tau", (T + M, K)), ("W", (L, K, K))):
            got = np.shape(getattr(true_values, name))
            if got != shape:
                raise ValueError(f"true {name} has shape {got}, expected {shape}")
        self.n_tau = (T + M) * K
        self.n_unknowns = self.n_tau + L * K * K
        self._triu = np.triu_indices(K)
        self.n_equations = (
            L * (T + M) + L * len(self._triu[0]) + 2 * L * K + L * T * K
        )
        self._check_self_consistency()

    def _check_self_consistency(self):
        r = self.residual(self.pack(self.true_values.tau, self.true_values.W))
        norm = float(np.linalg.norm(r))
        if norm > 1e-8:
            raise ValueError(f"instance inconsistent: residual {norm:.3e} at true values")

    # -- packing -----------------------------------------------------------

    def pack(self, tau: np.ndarray, W: np.ndarray) -> np.ndarray:
        return np.concatenate([np.ravel(tau), np.ravel(W)])

    def unpack(self, x: np.ndarray):
        K, L, T, M = self.K, self.L, self.T, self.M
        tau = x[: self.n_tau].reshape(T + M, K)
        W = x[self.n_tau :].reshape(L, K, K)
        return tau, W

    def perturbed_start(self, rng: np.random.Generator) -> np.ndarray:
        x = self.pack(self.true_values.tau, self.true_values.W)
        return x + rng.uniform(-PERTURBATION, PERTURBATION, size=x.shape)

    # -- residual and Jacobian ----------------------------------------------

    def residual(self, x: np.ndarray) -> np.ndarray:
        K, L, T, M = self.K, self.L, self.T, self.M
        tau, W = self.unpack(x)
        parts = []
        iu, ju = self._triu
        for l in range(L):
            Wl = W[l]
            parts.append(tau @ self.xi_in[l] - self.s_sum[l])
            gram = Wl @ Wl.T - self.A2_sum[l]
            parts.append(gram[iu, ju])
            parts.append(Wl @ np.ones(K) - self.w_sum[l])
            parts.append(Wl.T @ self.xi_bar[l] - self.xi_recovered[l])
            hat = lag_filter(tau, M, self.alpha[l])
            parts.append(((hat @ Wl.T) - self.A1_sum[l]).ravel())
        return np.concatenate(parts)

    @cached_property
    def _jacobian_index(self):
        """Flat positions in J of the entries each equation block writes,
        stacked over the L rounds, in the order ``jacobian`` writes them;
        each array's shape matches the values written there."""
        K, L, T, M = self.K, self.L, self.T, self.M
        iu, ju = self._triu
        n_pairs = len(iu)
        l, p, n = np.arange(L), np.arange(T + M), np.arange(n_pairs)
        t, c, m = np.arange(T), np.arange(K), np.arange(1, M + 1)
        # first row of each block of round l, and round l's first W column
        agg = (l * (T + M + n_pairs + 2 * K + T * K))[:, None, None]
        gram = agg + T + M
        colsum = gram + n_pairs
        recover = colsum + K
        mixed = recover + K
        w_off = (self.n_tau + l * K * K)[:, None, None]
        w_block = w_off + c[:, None] * K + c  # (l, j, c): column of W[l, j, c]
        mixed_rows = (mixed + t[:, None] * K + c)[..., None]  # (l, t, j, 1)

        def flat(rows, cols):
            rows, cols = np.broadcast_arrays(rows, cols)
            return rows * self.n_unknowns + cols

        return (
            flat(agg + p[:, None], p[:, None] * K + c),  # (l, p, i)
            flat(gram + n[:, None], w_off + iu[:, None] * K + c),  # (l, n, c)
            flat(gram + n[:, None], w_off + ju[:, None] * K + c),
            flat(colsum + c[:, None], w_block),  # (l, j, c)
            flat((recover + c[:, None])[..., None], w_block[:, None]),  # (l, i, j, c)
            flat(mixed_rows, w_block[:, None]),  # (l, t, j, c)
            flat(mixed_rows, (M + t)[:, None, None] * K + c),  # (l, t, j, c): tau[t + M, c]
            # (l, m, t, j, c): tau[t + M - m, c]
            flat(mixed_rows[:, None], (M + t - m[:, None])[..., None, None] * K + c),
        )

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        """Dense Jacobian of ``residual`` at ``x``, one row per equation.

        Every entry is written through ``_jacobian_index`` with the float
        operation the block's algebra gives it (an assignment, one ``+=``
        or ``-=`` onto zero, or two ``+=`` on the Gram diagonal, where
        row (j, j) meets W[j] twice), so J is the same bit for bit, signed
        zeros included, as a row-by-row assembly."""
        K, M = self.K, self.M
        tau, W = self.unpack(x)
        iu, ju = self._triu
        agg, gram_j, gram_k, colsum, recover, mixed_w, mixed_now, mixed_lag = (
            self._jacobian_index
        )
        hat = np.stack([lag_filter(tau, M, a) for a in self.alpha])
        J = np.zeros((self.n_equations, self.n_unknowns))
        flat = J.reshape(-1)
        # aggregate rows: d/dtau[p, i] = xi_in[i]
        flat[agg] = self.xi_in[:, None, :]
        # gram rows (upper triangle (j, k)): W[k] in block j, W[j] in block k
        flat[gram_j] += W[:, ju]
        flat[gram_k] += W[:, iu]
        # column-sum rows
        flat[colsum] = 1.0
        # weight-recovery rows: residual_i = sum_j W[j, i] xi_bar[j]
        flat[recover] += np.eye(K)[None, :, None, :] * self.xi_bar[:, None, :, None]
        # mixed rows: residual[t, j] = sum_i hat_tau[t, i] W[j, i]
        flat[mixed_w] = hat[:, :, None, :]
        flat[mixed_now] += W[:, None]
        flat[mixed_lag] -= self.alpha[:, :, None, None, None] * W[:, None, None]
        return J


def make_attack_instance(
    K: int = 6,
    L: int = 3,
    T: int = 48,
    M: int = 2,
    seed: int = 0,
    w_like_tau: bool = False,
) -> MqsInstance:
    """Standalone view/truth generator for the attack experiments.

    Temperatures are Normal(TAU_MEAN, TAU_SD); encryption matrices follow
    the protocol distribution unless ``w_like_tau`` applies the temperature
    distribution to them as well.  Weight vectors are chained across
    iterations exactly as a protocol run would produce them, and each
    round's view is formed from them as the protocol's sums would be.
    """
    check_sizes(K=K, L=L, T=T, M=M)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(3000,)))
    tau = rng.normal(TAU_MEAN, TAU_SD, size=(T + M, K))
    if w_like_tau:
        W = rng.normal(TAU_MEAN, TAU_SD, size=(L, K, K))
    else:
        W = rng.normal(W_MEAN, W_SD, size=(L, K, K))

    alpha = rng.normal(0.0, 0.5, size=(L, M))
    xi = rng.dirichlet(np.ones(K))
    views = []
    for l in range(L):
        xi_bar = np.linalg.solve(W[l].T, rng.dirichlet(np.ones(K)))
        xi_out = W[l].T @ xi_bar
        views.append(
            RoundView(
                xi_in=xi,
                s_sum=tau @ xi,
                alpha=alpha[l],
                A1_sum=lag_filter(tau, M, alpha[l]) @ W[l].T,
                A2_sum=W[l] @ W[l].T,
                w_sum=W[l] @ np.ones(K),
                xi_bar=xi_bar,
                xi_recovered=xi_out,
            )
        )
        xi = xi_out
    return MqsInstance(views, MqsTruth(tau=tau, W=W))


def solve_mqs(
    instance: MqsInstance,
    init: np.ndarray,
    max_iter: int = 500,
    method: str = "lbfgs",
) -> AttackResult:
    """Gradient-based minimization of the squared residual system.

    ``method="lbfgs"`` runs a quasi-Newton scheme on the scalarized sum of
    squares with an analytic gradient, matching the general-purpose NLP
    solver class the original experiments used.  ``method="trf"`` runs a
    Gauss-Newton trust-region least-squares solver with the analytic
    residual Jacobian; it is a substantially stronger attack on
    well-determined instances.  Returns the temperature-block error
    against the held-out truth, the final residual norm, wall time and
    iteration count.  A non-finite residual during iteration marks the
    scenario failed.
    """
    check_sizes(max_iter=max_iter)
    init = np.asarray(init, dtype=float).ravel()
    if init.shape != (instance.n_unknowns,):
        raise ValueError(
            f"init must have {instance.n_unknowns} entries, got {init.shape}"
        )
    if method not in ("lbfgs", "trf"):
        raise ValueError(f"unknown method {method!r}")
    # imported here, outside the timed solve: loading scipy.optimize costs
    # about 0.3 s and 13 MiB, which runs that never attack should not pay
    from scipy.optimize import least_squares, minimize

    t0 = time.perf_counter()
    try:
        if method == "trf":
            res = least_squares(
                instance.residual,
                init,
                jac=instance.jacobian,
                method="trf",
                gtol=GRAD_TOL,
                xtol=1e-12,
                ftol=1e-12,
                max_nfev=max_iter,
            )
            x, fun = res.x, res.fun
            iterations = int(res.nfev)
            converged = bool(res.status > 0)
        else:

            def fun_grad(x):
                r = instance.residual(x)
                J = instance.jacobian(x)
                return float(r @ r), 2.0 * (J.T @ r)

            res = minimize(
                fun_grad,
                init,
                jac=True,
                method="L-BFGS-B",
                options={"maxiter": max_iter, "gtol": GRAD_TOL},
            )
            x = res.x
            fun = instance.residual(x)
            iterations = int(res.nit)
            converged = bool(res.success)
        if not np.all(np.isfinite(fun)):
            raise ValueError("non-finite residual")
    except ValueError:
        elapsed = time.perf_counter() - t0
        return AttackResult(
            relative_error=float("inf"),
            final_residual=float("inf"),
            solver_time_seconds=elapsed,
            iterations=0,
            converged=False,
        )
    elapsed = time.perf_counter() - t0
    tau_est, _ = instance.unpack(x)
    tau_true = instance.true_values.tau
    rel = float(np.linalg.norm(tau_est - tau_true) / np.linalg.norm(tau_true))
    return AttackResult(
        relative_error=rel,
        final_residual=float(np.linalg.norm(fun)),
        solver_time_seconds=elapsed,
        iterations=iterations,
        converged=converged,
    )


@dataclass
class SweepConfig:
    K: int = 6
    L: int = 3
    M: int = 2
    T_list: tuple = (1, 2, 3, 4, 6, 12, 24, 48)
    scenarios: int = 20
    seed: int = 0
    max_iter: int = 500
    w_like_tau: bool = False
    method: str = "lbfgs"


def attack_sweep(cfg: SweepConfig):
    """Run the full grid of attack scenarios.

    Returns (rows, summary): rows are per-scenario dicts matching the CSV
    columns, T-major (every scenario of one T before the next T); summary
    maps each case T to median/min/max error and median time over its
    scenarios.  The solves run scenario by scenario instead (every T of
    scenario 0, then of scenario 1, ...), so a slow spell of the host is
    shared by all T values rather than landing on neighbouring ones and
    bending the time trend; each (T, scenario) draws from its own seeds, so
    only the times depend on the order.  Failed scenarios are kept (error
    inf), never fatal.  Sizes and an iteration budget below 1 raise
    ValueError before any draw.
    """
    check_sizes(
        K=cfg.K, L=cfg.L, M=cfg.M, scenarios=cfg.scenarios, T=min(cfg.T_list, default=1),
        max_iter=cfg.max_iter,
    )
    results = {}
    for s in range(cfg.scenarios):
        for T in cfg.T_list:
            case_seed = int(
                np.random.SeedSequence(cfg.seed, spawn_key=(3100, T, s)).generate_state(1)[0]
            )
            inst = make_attack_instance(
                K=cfg.K, L=cfg.L, T=T, M=cfg.M, seed=case_seed, w_like_tau=cfg.w_like_tau,
            )
            rng = np.random.default_rng(
                np.random.SeedSequence(cfg.seed, spawn_key=(4000, T, s))
            )
            init = inst.perturbed_start(rng)
            results[T, s] = solve_mqs(inst, init, max_iter=cfg.max_iter, method=cfg.method)
    rows = []
    summary = {}
    for T in cfg.T_list:
        case = [results[T, s] for s in range(cfg.scenarios)]
        rows += [
            {
                "case_T": T,
                "scenario": s,
                "relative_error": r.relative_error,
                "residual": r.final_residual,
                "time_seconds": r.solver_time_seconds,
                "converged": r.converged,
            }
            for s, r in enumerate(case)
        ]
        errors = [r.relative_error for r in case]
        times = [r.solver_time_seconds for r in case]
        summary[T] = {
            "median_error": float(np.median(errors)),
            "min_error": float(np.min(errors)),
            "max_error": float(np.max(errors)),
            "median_time": float(np.median(times)),
            "failed": int(sum(1 for e in errors if not np.isfinite(e))),
        }
    return rows, summary


def write_sweep_csv(rows: list, path):
    from ..dataio import format_float

    with open(path, "w", encoding="utf-8") as fh:
        fh.write("case_T,scenario,relative_error,residual,time_seconds,converged\n")
        for r in rows:
            fh.write(
                f"{r['case_T']},{r['scenario']},{format_float(r['relative_error'])},"
                f"{format_float(r['residual'])},{format_float(r['time_seconds'])},"
                f"{str(bool(r['converged'])).lower()}\n"
            )
