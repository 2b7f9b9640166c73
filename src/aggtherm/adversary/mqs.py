"""The coordinator's full inference problem as a multivariate quadratic
system, and its numerical attack.

Unknowns are the raw temperature block (one (T+M) x K matrix, lags
realized as shifted views) and one K x K encryption matrix per iteration.
Knowns are everything the coordinator legitimately sees: the aggregate
weighted temperature series, Gram sums, column sums, weight-recovery
relations, and the filtered-temperature products.  The attack minimizes the squared residual
of all equation blocks with an analytic Jacobian.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..model import lag_filter

__all__ = [
    "MqsKnowns",
    "MqsTruth",
    "MqsInstance",
    "AttackResult",
    "SweepConfig",
    "build_mqs",
    "make_attack_instance",
    "build_mqs_from_run",
    "solve_mqs",
    "attack_sweep",
    "write_sweep_csv",
]


@dataclass
class MqsKnowns:
    """Coordinator-visible quantities, one leading axis entry per iteration."""

    d1: np.ndarray  # (L, T+M) aggregate weighted temperature series
    D1: np.ndarray  # (L, K, K) Gram sums
    d2: np.ndarray  # (L, K) encryption-column sums
    D2: np.ndarray  # (L, T, K) filtered-temperature products
    xi_in: np.ndarray  # (L, K) weights the aggregates were formed with
    xi_out: np.ndarray  # (L, K) weights recovered through the encryption
    xi_bar: np.ndarray  # (L, K) encrypted weight vectors
    alpha: np.ndarray  # (L, M) dynamics broadcast per iteration


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

    def as_dict(self) -> dict:
        return {
            "relative_error": self.relative_error,
            "final_residual": self.final_residual,
            "solver_time_seconds": self.solver_time_seconds,
            "iterations": self.iterations,
            "converged": self.converged,
        }


class MqsInstance:
    """Assembled residual system with packing helpers and analytic Jacobian."""

    def __init__(self, knowns: MqsKnowns, true_values: MqsTruth):
        self.knowns = knowns
        self.true_values = true_values
        L, K = knowns.d2.shape
        T, M = knowns.D2.shape[1], knowns.alpha.shape[1]
        self.K, self.L, self.T, self.M = K, L, T, M
        if (
            knowns.d1.shape != (L, T + M)
            or knowns.D1.shape != (L, K, K)
            or knowns.D2.shape != (L, T, K)
        ):
            raise ValueError("known blocks have inconsistent shapes")
        if knowns.alpha.shape != (L, M) or any(
            v.shape != (L, K) for v in (knowns.xi_in, knowns.xi_out, knowns.xi_bar)
        ):
            raise ValueError("known vectors have inconsistent shapes")
        if true_values.tau.shape != (T + M, K) or true_values.W.shape != (L, K, K):
            raise ValueError("true values have inconsistent shapes")
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

    def perturbed_start(self, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
        x = self.pack(self.true_values.tau, self.true_values.W)
        return x + rng.uniform(-scale, scale, size=x.shape)

    # -- residual and Jacobian ----------------------------------------------

    def residual(self, x: np.ndarray) -> np.ndarray:
        K, L, T, M = self.K, self.L, self.T, self.M
        tau, W = self.unpack(x)
        parts = []
        iu, ju = self._triu
        for l in range(L):
            Wl = W[l]
            parts.append(tau @ self.knowns.xi_in[l] - self.knowns.d1[l])
            gram = Wl @ Wl.T - self.knowns.D1[l]
            parts.append(gram[iu, ju])
            parts.append(Wl @ np.ones(K) - self.knowns.d2[l])
            parts.append(Wl.T @ self.knowns.xi_bar[l] - self.knowns.xi_out[l])
            hat = lag_filter(tau, M, self.knowns.alpha[l])
            parts.append(((hat @ Wl.T) - self.knowns.D2[l]).ravel())
        return np.concatenate(parts)

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        K, L, T, M = self.K, self.L, self.T, self.M
        tau, W = self.unpack(x)
        J = np.zeros((self.n_equations, self.n_unknowns))
        iu, ju = self._triu
        n_pairs = len(iu)
        row = 0
        for l in range(L):
            Wl = W[l]
            w_off = self.n_tau + l * K * K
            # aggregate rows: d/dtau[p, i] = xi_in[i]
            for p in range(T + M):
                J[row + p, p * K : (p + 1) * K] = self.knowns.xi_in[l]
            row += T + M
            # gram rows (upper triangle)
            for n in range(n_pairs):
                j, k = iu[n], ju[n]
                J[row + n, w_off + j * K : w_off + (j + 1) * K] += Wl[k]
                J[row + n, w_off + k * K : w_off + (k + 1) * K] += Wl[j]
            row += n_pairs
            # column-sum rows
            for j in range(K):
                J[row + j, w_off + j * K : w_off + (j + 1) * K] = 1.0
            row += K
            # weight-recovery rows: residual_i = sum_j W[j, i] xi_bar[j]
            for j in range(K):
                J[row : row + K, w_off + j * K : w_off + (j + 1) * K] += (
                    np.eye(K) * self.knowns.xi_bar[l, j]
                )
            row += K
            # mixed rows: residual[t, j] = sum_i hat_tau[t, i] W[j, i]
            alpha = self.knowns.alpha[l]
            hat = lag_filter(tau, M, alpha)
            for t in range(T):
                base = row + t * K
                for j in range(K):
                    r = base + j
                    J[r, w_off + j * K : w_off + (j + 1) * K] = hat[t]
                    cols0 = (M + t) * K
                    J[r, cols0 : cols0 + K] += Wl[j]
                    for m in range(1, M + 1):
                        colm = (M + t - m) * K
                        J[r, colm : colm + K] -= alpha[m - 1] * Wl[j]
            row += T * K
        return J


def build_mqs(knowns: MqsKnowns, true_values: MqsTruth) -> MqsInstance:
    """Assemble and self-check the inference system."""
    return MqsInstance(knowns, true_values)


def make_attack_instance(
    K: int = 6,
    L: int = 3,
    T: int = 48,
    M: int = 2,
    seed: int = 0,
    w_like_tau: bool = False,
    tau_mean: float = 20.0,
    tau_sd: float = 1.0,
    w_mean: float = 0.1,
    w_sd: float = 0.1,
) -> MqsInstance:
    """Standalone known/unknown generator for the attack experiments.

    Temperatures are Normal(tau_mean, tau_sd); encryption matrices follow
    the protocol distribution unless ``w_like_tau`` applies the temperature
    distribution to them as well.  Weight vectors are chained across
    iterations exactly as a protocol run would produce them.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(3000,)))
    tau = rng.normal(tau_mean, tau_sd, size=(T + M, K))
    if w_like_tau:
        W = rng.normal(tau_mean, tau_sd, size=(L, K, K))
    else:
        W = rng.normal(w_mean, w_sd, size=(L, K, K))

    xi_in = np.zeros((L, K))
    xi_out = np.zeros((L, K))
    xi_bar = np.zeros((L, K))
    alpha = rng.normal(0.0, 0.5, size=(L, M))
    xi = rng.dirichlet(np.ones(K))
    for l in range(L):
        xi_in[l] = xi
        xi_next = rng.dirichlet(np.ones(K))
        xi_bar[l] = np.linalg.solve(W[l].T, xi_next)
        xi_out[l] = W[l].T @ xi_bar[l]
        xi = xi_out[l]

    d1 = np.zeros((L, T + M))
    D1 = np.zeros((L, K, K))
    d2 = np.zeros((L, K))
    D2 = np.zeros((L, T, K))
    for l in range(L):
        d1[l] = tau @ xi_in[l]
        D1[l] = W[l] @ W[l].T
        d2[l] = W[l] @ np.ones(K)
        D2[l] = lag_filter(tau, M, alpha[l]) @ W[l].T
    knowns = MqsKnowns(
        d1=d1, D1=D1, d2=d2, D2=D2, xi_in=xi_in, xi_out=xi_out, xi_bar=xi_bar, alpha=alpha
    )
    return build_mqs(knowns, MqsTruth(tau=tau, W=W))


def build_mqs_from_run(runner) -> MqsInstance:
    """Replay a finished protocol run as an inference instance.

    Takes a ProtocolRunner after run(); the coordinator-visible aggregates
    become the knowns, and the dataset plus the agents' private encryption
    columns become the evaluation truth.
    """
    view = runner.transcript.bla_view
    if not view:
        raise ValueError("protocol run has no recorded iterations")
    K, T, M = runner.K, runner.T, runner.M
    L = len(view)
    d1 = np.zeros((L, T + M))
    D1 = np.zeros((L, K, K))
    d2 = np.zeros((L, K))
    D2 = np.zeros((L, T, K))
    xi_in = np.zeros((L, K))
    xi_out = np.zeros((L, K))
    xi_bar = np.zeros((L, K))
    alpha = np.zeros((L, M))
    W = np.zeros((L, K, K))
    for l, v in enumerate(view):
        d1[l] = v["s_sum"]
        D1[l] = v["A2_sum"]
        d2[l] = v["w_sum"]
        D2[l] = v["A1_sum"]
        xi_in[l] = v["xi_in"]
        xi_out[l] = v["xi_recovered"]
        xi_bar[l] = v["xi_bar"]
        alpha[l] = v["alpha"]
        W[l] = np.column_stack(
            [runner.agents[i].w_history[l] for i in runner.agent_ids]
        )
    knowns = MqsKnowns(
        d1=d1, D1=D1, d2=d2, D2=D2, xi_in=xi_in, xi_out=xi_out, xi_bar=xi_bar, alpha=alpha
    )
    return build_mqs(knowns, MqsTruth(tau=runner.dataset.tau_in.copy(), W=W))


def solve_mqs(
    instance: MqsInstance,
    init: np.ndarray,
    max_iter: int = 500,
    grad_tol: float = 1e-8,
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
                gtol=grad_tol,
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
                options={"maxiter": max_iter, "gtol": grad_tol},
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
    perturbation: float = 1.0
    max_iter: int = 500
    grad_tol: float = 1e-8
    w_like_tau: bool = False
    method: str = "lbfgs"


def attack_sweep(cfg: SweepConfig):
    """Run the full grid of attack scenarios.

    Returns (rows, summary): rows are per-scenario dicts matching the CSV
    columns; summary maps each case T to median/min/max error and median
    time over its scenarios.  Failed scenarios are kept (error inf), never
    fatal.
    """
    rows = []
    summary = {}
    for T in cfg.T_list:
        errors, times = [], []
        for s in range(cfg.scenarios):
            case_seed = int(
                np.random.SeedSequence(cfg.seed, spawn_key=(3100, T, s)).generate_state(1)[0]
            )
            inst = make_attack_instance(
                K=cfg.K, L=cfg.L, T=T, M=cfg.M, seed=case_seed, w_like_tau=cfg.w_like_tau,
            )
            rng = np.random.default_rng(
                np.random.SeedSequence(cfg.seed, spawn_key=(4000, T, s))
            )
            init = inst.perturbed_start(rng, cfg.perturbation)
            result = solve_mqs(
                inst, init, max_iter=cfg.max_iter, grad_tol=cfg.grad_tol, method=cfg.method
            )
            rows.append(
                {
                    "case_T": T,
                    "scenario": s,
                    "relative_error": result.relative_error,
                    "residual": result.final_residual,
                    "time_seconds": result.solver_time_seconds,
                    "converged": result.converged,
                }
            )
            errors.append(result.relative_error)
            times.append(result.solver_time_seconds)
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
