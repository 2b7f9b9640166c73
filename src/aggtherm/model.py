"""Cluster dataset containers, lagged design construction, aggregation,
forward simulation and error metrics.

Conventions used throughout the package:

* Every time series carries ``T + M`` rows.  Row 0 holds period ``1 - M``
  and row ``M + t - 1`` holds period ``t``, so the first ``M`` rows are lag
  history and the last ``T`` rows are the estimation horizon.
* The lag-``m`` view of a series is the block of rows ``M - m .. T + M - m``
  (0-based, exclusive end), i.e. row ``t`` of the view is period ``t - m``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ClusterDataset",
    "DesignMatrices",
    "AtdmParameters",
    "Metrics",
    "lag_view",
    "lag_columns",
    "lag_filter",
    "occupancy_slots",
    "build_design",
    "aggregate_state",
    "predict_aggregate",
    "split_dataset",
    "evaluate_metrics",
]

SIMPLEX_TOL = 1e-8


@dataclass
class ClusterDataset:
    """Measured series for a cluster of K zones over T + M periods.

    Parameters
    ----------
    K : int
        Number of zones.
    T : int
        Estimation horizon in periods.
    M : int
        Model order (number of lags); the first M rows of every series
        are lag history for period 1.
    dt_minutes : float
        Sampling interval.
    tau_in : ndarray, shape (T + M, K)
        Indoor temperature per zone, degC.
    h_load : ndarray, shape (T + M, K)
        Heating/cooling power per zone, kW.
    tau_out : ndarray, shape (T + M,)
        Outdoor temperature, degC.
    h_rad : ndarray, shape (T + M,)
        Solar radiation power (exogenous regressor, nominal kW/m^2).
    """

    K: int
    T: int
    M: int
    dt_minutes: float
    tau_in: np.ndarray
    h_load: np.ndarray
    tau_out: np.ndarray
    h_rad: np.ndarray

    def __post_init__(self):
        if self.K < 1 or self.T < 1 or self.M < 1:
            raise ValueError(
                f"need K >= 1, T >= 1, M >= 1, got K={self.K}, T={self.T}, M={self.M}"
            )
        self.tau_in = np.asarray(self.tau_in, dtype=float)
        self.h_load = np.asarray(self.h_load, dtype=float)
        self.tau_out = np.asarray(self.tau_out, dtype=float)
        self.h_rad = np.asarray(self.h_rad, dtype=float)
        rows = self.T + self.M
        if self.tau_in.shape != (rows, self.K):
            raise ValueError(f"tau_in must be {(rows, self.K)}, got {self.tau_in.shape}")
        if self.h_load.shape != (rows, self.K):
            raise ValueError(f"h_load must be {(rows, self.K)}, got {self.h_load.shape}")
        if self.tau_out.shape != (rows,):
            raise ValueError(f"tau_out must be ({rows},), got {self.tau_out.shape}")
        if self.h_rad.shape != (rows,):
            raise ValueError(f"h_rad must be ({rows},), got {self.h_rad.shape}")
        for name in ("tau_in", "h_load", "tau_out", "h_rad"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} contains missing or non-finite values")


@dataclass
class DesignMatrices:
    """Constant regressor blocks of the cluster-level least squares problem.

    ``tau`` is the raw indoor temperature series ((T+M) x K, lag history
    first); ``c0`` and ``c1_block(m)`` are its lag-0 and lag-m views
    (T x K).  ``c2`` holds per-lag cluster-total loads (T x (M+1)),
    ``c3``/``c4`` the lagged outdoor temperature and solar radiation
    (T x (M+1)), and ``T_occ`` is the period of the occupancy term: row t
    uses free level ``occupancy_slots(T, T_occ)[t]``.
    """

    tau: np.ndarray
    c2: np.ndarray
    c3: np.ndarray
    c4: np.ndarray
    T_occ: int

    @property
    def T(self) -> int:
        return self.c2.shape[0]

    @property
    def K(self) -> int:
        return self.tau.shape[1]

    @property
    def M(self) -> int:
        return self.c2.shape[1] - 1

    @property
    def c0(self) -> np.ndarray:
        """Zero-lag indoor temperature block (T x K), a view of ``tau``."""
        return lag_view(self.tau, self.M, 0)

    def c1_block(self, m: int) -> np.ndarray:
        """Lag-m indoor temperature block (T x K), 1 <= m <= M, a view of ``tau``."""
        if not 1 <= m <= self.M:
            raise ValueError(f"lag must be in 1..{self.M}, got {m}")
        return lag_view(self.tau, self.M, m)

    def check_params(self, params: AtdmParameters) -> None:
        """Raise ValueError unless ``params`` has this design's K, M and T_occ."""
        got, want = (params.K, params.M, len(params.tau_occ_free)), (self.K, self.M, self.T_occ)
        if got != want:
            raise ValueError(f"parameter dims (K, M, T_occ) = {got} do not match design {want}")


@dataclass
class AtdmParameters:
    """Parameters of the aggregate thermal dynamic model.

    ``xi`` are the simplex-constrained zone aggregation weights, ``alpha``
    the autoregressive coefficients (lags 1..M), ``beta``/``gamma``/``theta``
    the load/outdoor/solar coefficients (lags 0..M), and ``tau_occ_free``
    the T_occ free values of the periodic occupancy term.
    """

    xi: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    theta: np.ndarray
    tau_occ_free: np.ndarray

    def __post_init__(self):
        for name in ("xi", "alpha", "beta", "gamma", "theta", "tau_occ_free"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=float).ravel())
        for name in ("xi", "alpha", "beta", "gamma", "theta", "tau_occ_free"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} contains non-finite entries")
        if len(self.beta) != len(self.alpha) + 1:
            raise ValueError("beta must have one more entry than alpha (lags 0..M)")
        if len(self.gamma) != len(self.beta) or len(self.theta) != len(self.beta):
            raise ValueError("beta, gamma, theta must all cover lags 0..M")

    @property
    def K(self) -> int:
        return len(self.xi)

    @property
    def M(self) -> int:
        return len(self.alpha)

    def validate_simplex(self, tol: float = SIMPLEX_TOL):
        """Check the aggregation-weight constraints (sum to one, nonnegative)."""
        if abs(self.xi.sum() - 1.0) > tol:
            raise ValueError(f"xi must sum to 1, got {self.xi.sum()!r}")
        if self.xi.min() < -tol:
            raise ValueError(f"xi must be nonnegative, min entry {self.xi.min()!r}")


@dataclass
class Metrics:
    """Prediction error summary: RMSE (degC), MAPE (percent), R^2."""

    rmse: float
    mape: float
    r2: float


def lag_view(series: np.ndarray, M: int, m: int) -> np.ndarray:
    """Lag-m view of a series of T + M rows: row t is period t - m.

    Requires 0 <= m <= M.  Every lag view in the package is sliced here.
    """
    if not 0 <= m <= M:
        raise ValueError(f"lag must be in 0..{M}, got {m}")
    return series[M - m : len(series) - m]


def lag_columns(series: np.ndarray, M: int) -> np.ndarray:
    """Lag-0..M views of a one-dimensional series, side by side (T x (M+1))."""
    return np.column_stack([lag_view(series, M, m) for m in range(M + 1)])


def lag_filter(series: np.ndarray, M: int, alpha) -> np.ndarray:
    """Dynamics-filtered series: the lag-0 view minus the alpha-weighted
    lag-1..M views, so row t is s_t - sum_m alpha_m s_{t-m}.

    ``series`` is 1-D or 2-D with T + M rows; the result has T rows.  Every
    lag filter in the package is formed here.
    """
    alpha = np.asarray(alpha, dtype=float).ravel()
    if len(alpha) != M:
        raise ValueError(f"alpha must have M={M} entries, got {len(alpha)}")
    series = np.asarray(series, dtype=float)
    if series.ndim not in (1, 2) or len(series) <= M:
        raise ValueError(
            f"series must be 1-D or 2-D with more than M={M} rows, got shape {series.shape}"
        )
    out = lag_view(series, M, 0).copy()
    for m in range(1, M + 1):
        out -= alpha[m - 1] * lag_view(series, M, m)
    return out


def occupancy_slots(T: int, T_occ: int) -> np.ndarray:
    """Occupancy slot of each of the T periods: row t (from 0) uses free
    level t mod T_occ.  Raises TypeError for a non-integer ``T_occ``."""
    if operator.index(T_occ) < 1:
        raise ValueError(f"T_occ must be >= 1, got {T_occ}")
    return np.arange(T) % T_occ


def build_design(dataset: ClusterDataset, T_occ: int) -> DesignMatrices:
    """Assemble the indoor series and the constant regressor blocks c2..c4;
    rejects a ``T_occ`` that ``occupancy_slots`` rejects."""
    occupancy_slots(dataset.T, T_occ)
    M = dataset.M
    return DesignMatrices(
        tau=dataset.tau_in.copy(),
        c2=lag_columns(dataset.h_load.sum(axis=1), M),
        c3=lag_columns(dataset.tau_out, M),
        c4=lag_columns(dataset.h_rad, M),
        T_occ=T_occ,
    )


def aggregate_state(xi: np.ndarray, tau_rows: np.ndarray) -> np.ndarray:
    """Weighted cluster state: entry t is sum_i xi_i * tau_rows[t, i]."""
    xi = np.asarray(xi, dtype=float).ravel()
    tau_rows = np.asarray(tau_rows, dtype=float)
    if tau_rows.ndim != 2 or tau_rows.shape[1] != len(xi):
        raise ValueError(
            f"tau_rows must be (T, {len(xi)}), got {tau_rows.shape}"
        )
    return tau_rows @ xi


def predict_aggregate(
    params: AtdmParameters, design: DesignMatrices, init_history: np.ndarray
) -> np.ndarray:
    """Simulate the aggregate state forward over the design horizon.

    The recursion feeds its own predictions back into the temperature lags;
    loads, weather and occupancy come from the design matrices.  Parameters
    that do not fit the design raise ValueError (``check_params``).

    Parameters
    ----------
    params : AtdmParameters
        Model coefficients.
    design : DesignMatrices
        Exogenous regressors for the horizon being predicted.
    init_history : ndarray, shape (M,)
        Aggregate state for periods 1-M .. 0, oldest first.

    Returns
    -------
    ndarray, shape (T,)
        Predicted aggregate state for periods 1..T.
    """
    design.check_params(params)
    M, T = params.M, design.T
    slots = occupancy_slots(T, design.T_occ)
    init_history = np.asarray(init_history, dtype=float).ravel()
    if len(init_history) != M:
        raise ValueError(f"init_history must have {M} entries, got {len(init_history)}")
    # scalar accumulation in the model equation's term order, so the result
    # is bit-reproducible against a direct transcription of that equation
    state = np.concatenate([init_history, np.zeros(T)])
    with np.errstate(over="ignore", invalid="ignore"):  # divergence checked below
        for t in range(T):
            idx = M + t
            value = 0.0
            for m in range(1, M + 1):
                value += params.alpha[m - 1] * state[idx - m]
            for m in range(M + 1):
                value += params.beta[m] * design.c2[t, m]
            for m in range(M + 1):
                value += params.gamma[m] * design.c3[t, m]
            for m in range(M + 1):
                value += params.theta[m] * design.c4[t, m]
            value += params.tau_occ_free[slots[t]]
            if not np.isfinite(value):
                raise FloatingPointError(
                    f"prediction diverged at period {t + 1} (model unstable)"
                )
            state[idx] = value
    return lag_view(state, M, 0)


def split_dataset(dataset: ClusterDataset, train_fraction: float):
    """Chronological split into train and test clusters.

    The train segment covers the first floor(T * train_fraction) periods;
    the test segment keeps the M rows preceding its first period as lag
    history.  Both segments must span at least M + 1 periods.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    M, T = dataset.M, dataset.T
    T_train = int(np.floor(T * train_fraction))
    T_test = T - T_train
    if T_train < M + 1 or T_test < M + 1:
        raise ValueError(
            f"split {T_train}/{T_test} leaves a segment shorter than M+1={M + 1} periods"
        )

    def _slice(lo, hi):
        return ClusterDataset(
            K=dataset.K,
            T=hi - lo - M,
            M=M,
            dt_minutes=dataset.dt_minutes,
            tau_in=dataset.tau_in[lo:hi].copy(),
            h_load=dataset.h_load[lo:hi].copy(),
            tau_out=dataset.tau_out[lo:hi].copy(),
            h_rad=dataset.h_rad[lo:hi].copy(),
        )

    train = _slice(0, M + T_train)
    test = _slice(T_train, M + T)
    return train, test


def evaluate_metrics(pred: np.ndarray, real: np.ndarray) -> Metrics:
    """RMSE, MAPE (percent) and R^2 of a prediction against the real series.

    Raises ValueError when a MAPE denominator is (near) zero or when the
    real series is constant, which leaves R^2 undefined.
    """
    pred = np.asarray(pred, dtype=float).ravel()
    real = np.asarray(real, dtype=float).ravel()
    if pred.shape != real.shape:
        raise ValueError(f"length mismatch: pred {pred.shape}, real {real.shape}")
    if len(real) == 0:
        raise ValueError("empty series")
    err = pred - real
    rmse = float(np.sqrt(np.mean(err**2)))
    if np.min(np.abs(real)) < 1e-6:
        raise ValueError("MAPE undefined: real series has (near-)zero entries")
    mape = float(np.mean(np.abs(err / real))) * 100.0
    sst = float(np.sum((real - real.mean()) ** 2))
    if sst <= 0.0:
        raise ValueError("R^2 undefined: real series is constant")
    r2 = 1.0 - float(np.sum(err**2)) / sst
    return Metrics(rmse=rmse, mape=mape, r2=r2)
