"""Seeded synthetic cluster generation.

Each zone follows its own M-order linear recursion driven by the shared
weather, its own load and a periodic occupancy profile.  Per-zone
coefficients are arranged so that the xi-weighted combination of the zone
recursions reproduces the target aggregate model exactly: the aggregate
measurement residual at the target parameters is the injected Gaussian
noise, and exactly zero when ``noise_sigma`` is zero.

The simulation is vectorised over zones: it loops over periods only and
steps all K zones as one vector.  Each entry still sees the same
floating-point operations in the same order, and the random stream is drawn
in the same order, as a scalar per-(period, zone) transcription, so a given
seed gives the same bits either way.
"""

from __future__ import annotations

import numpy as np

from .model import AtdmParameters, ClusterDataset, occupancy_slots

__all__ = ["default_true_params", "generate_synthetic"]


def _ar_roots(alpha: np.ndarray) -> np.ndarray:
    """Roots of z^M - alpha_1 z^(M-1) - ... - alpha_M."""
    return np.roots(np.concatenate([[1.0], -np.asarray(alpha, dtype=float)]))


def default_true_params(K: int, M: int, T_occ: int, seed: int = 0) -> AtdmParameters:
    """A stable, interior-xi parameter set suitable as a generation target."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(901,)))
    g = rng.uniform(0.6, 1.4, size=K)
    xi = g / g.sum()
    alpha = np.zeros(M)
    alpha[0] = 1.2 if M > 1 else 0.7
    if M > 1:
        alpha[1] = -0.35
    # beta multiplies the cluster-total load, so keep its scale ~1/K
    beta = np.array([0.03, 0.02, 0.005] + [0.002] * max(0, M - 2))[: M + 1] * (7.0 / K)
    gamma = np.array([0.05, 0.03, 0.01] + [0.005] * max(0, M - 2))[: M + 1]
    theta = np.array([0.4, 0.1, -0.2] + [0.05] * max(0, M - 2))[: M + 1]
    occ_slots = np.arange(T_occ)
    tau_occ = 0.25 + 0.2 * np.sin(2 * np.pi * occ_slots / T_occ) + 0.05 * rng.standard_normal(T_occ)
    return AtdmParameters(
        xi=xi, alpha=alpha, beta=beta, gamma=gamma, theta=theta, tau_occ_free=tau_occ
    )


def _weather(rng: np.random.Generator, rows: int, per_day: int):
    """Outdoor temperature and solar radiation with a daily cycle plus AR noise."""
    t = np.arange(rows)
    day_phase = 2 * np.pi * t / per_day
    tau_out = 10.0 + 5.0 * np.sin(day_phase - np.pi / 2)
    noise = np.zeros(rows)
    e = rng.standard_normal(rows) * 0.5
    for i in range(1, rows):
        noise[i] = 0.9 * noise[i - 1] + e[i]
    tau_out = tau_out + noise
    rad = np.clip(np.sin(day_phase - np.pi / 2), 0.0, None) ** 2
    rad = 0.8 * rad + 0.05 * np.abs(rng.standard_normal(rows)) * rad
    return tau_out, rad


def _zone_loads(rng, rows: int, K: int, per_day: int):
    """Per-zone heating load: daily pattern plus independent AR(1) variation.

    One ``standard_normal((K, rows))`` draw consumes the stream exactly as K
    per-zone draws of ``rows`` would, and the AR(1) recursion takes one
    K-vector step per row, so every zone's series matches a per-zone loop
    bit for bit.
    """
    t = np.arange(rows)
    base = rng.uniform(3.0, 8.0, size=K)
    amp = rng.uniform(0.5, 2.0, size=K)
    phase = rng.uniform(0.0, 2 * np.pi, size=K)
    pattern = base + amp * np.sin((2 * np.pi * t / per_day)[:, None] + phase)
    e = np.ascontiguousarray(rng.standard_normal((K, rows)).T) * 0.8
    ar = np.zeros((rows, K))
    for s in range(1, rows):
        ar[s] = 0.7 * ar[s - 1] + e[s]
    return np.clip(pattern + ar, 0.1, None)


def generate_synthetic(
    K: int,
    T: int,
    M: int,
    T_occ: int,
    noise_sigma: float = 0.0,
    seed: int = 0,
    true_params: AtdmParameters | None = None,
    dt_minutes: float = 30.0,
    zone_noise_sigma: float = 0.5,
):
    """Generate a cluster dataset whose aggregate obeys the target model.

    ``noise_sigma`` is the aggregate measurement-equation noise;
    ``zone_noise_sigma`` adds idiosyncratic per-zone disturbances whose
    weighted sum is exactly zero, so zones behave individually without
    touching the aggregate residual.

    Returns
    -------
    (ClusterDataset, AtdmParameters)
        The dataset and the aggregate-level parameters it was built from.

    Raises
    ------
    ValueError
        Before any draw, if K, T, M or ``T_occ`` is below 1, ``dt_minutes``
        is not finite and positive, or a noise level is negative or NaN; and
        if the target autoregressive dynamics are unstable or xi has
        (near-)zero entries, which the construction cannot support.
    """
    if K < 1 or T < 1 or M < 1:
        raise ValueError(f"need K >= 1, T >= 1, M >= 1, got K={K}, T={T}, M={M}")
    if not noise_sigma >= 0:
        raise ValueError("noise_sigma must be >= 0")
    if not zone_noise_sigma >= 0:
        raise ValueError(f"zone_noise_sigma must be >= 0, got {zone_noise_sigma}")
    slots = occupancy_slots(T, T_occ)
    if not (np.isfinite(dt_minutes) and dt_minutes > 0):
        raise ValueError(f"dt_minutes must be finite and > 0, got {dt_minutes}")
    if true_params is None:
        true_params = default_true_params(K, M, T_occ, seed)
    if true_params.K != K or true_params.M != M or len(true_params.tau_occ_free) != T_occ:
        raise ValueError("true_params dimensions do not match K/M/T_occ")
    true_params.validate_simplex()
    roots = _ar_roots(true_params.alpha)
    if np.any(np.abs(roots) >= 1.0):
        raise ValueError(
            f"unstable zone dynamics: characteristic roots {np.abs(roots)} not all < 1"
        )
    xi = true_params.xi
    if xi.min() < 1e-6:
        raise ValueError("generation requires strictly positive xi entries")

    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(902,)))
    rows = T + M
    per_day = max(2, int(round(24 * 60 / dt_minutes)))
    tau_out, h_rad = _weather(rng, rows, per_day)
    h_load = _zone_loads(rng, rows, K, per_day)

    # Per-zone coefficients.  The alpha block is shared and the load response
    # is beta/xi_i, so the xi-weighted sum telescopes to the aggregate model;
    # gamma/theta/occupancy get a +-10% spread re-centered to the target.
    def _spread(target_vec):
        draws = target_vec[None, :] * (1.0 + 0.1 * rng.uniform(-1, 1, size=(K, len(target_vec))))
        correction = target_vec - xi @ draws
        return draws + correction[None, :]

    beta_z = true_params.beta[None, :] / xi[:, None]
    gamma_z = _spread(true_params.gamma)
    theta_z = _spread(true_params.theta)
    occ_z = _spread(true_params.tau_occ_free)

    # Common process noise: the aggregate residual per period is exactly eps.
    eps = rng.standard_normal(T) * noise_sigma if noise_sigma > 0 else np.zeros(T)
    # Idiosyncratic zone disturbances, projected so their weighted sum is 0.
    eta = np.zeros((T, K))
    if zone_noise_sigma > 0:
        eta = rng.standard_normal((T, K)) * zone_noise_sigma
        eta -= np.outer((eta @ xi) / (xi @ xi), xi)

    # Each period adds, per zone: occupancy + eps + eta, the alpha lag terms,
    # then beta/gamma/theta products lag by lag.  Everything but the lag terms
    # is known up front, so it is formed for all periods at once and the loop
    # adds it in that same order, one K-vector per term.
    exo = np.empty((T, 3 * (M + 1), K))
    for m in range(M + 1):
        lag = slice(M - m, rows - m)  # rows r - m for r = M .. rows - 1
        exo[:, 3 * m] = beta_z[:, m] * h_load[lag]
        exo[:, 3 * m + 1] = gamma_z[:, m] * tau_out[lag, None]
        exo[:, 3 * m + 2] = theta_z[:, m] * h_rad[lag, None]
    alpha = true_params.alpha

    tau_in = np.empty((rows, K))
    tau_in[:M] = 20.0 + rng.uniform(-1.0, 1.0, size=K)[None, :]
    tau_in[M:] = occ_z.T[slots] + eps[:, None] + eta
    for r in range(M, rows):
        v = tau_in[r]
        for m in range(1, M + 1):
            v += alpha[m - 1] * tau_in[r - m]
        for term in exo[r - M]:
            v += term
    if not np.all(np.isfinite(tau_in)):
        raise ValueError("zone simulation diverged; check target dynamics")

    dataset = ClusterDataset(
        K=K,
        T=T,
        M=M,
        dt_minutes=dt_minutes,
        tau_in=tau_in,
        h_load=h_load,
        tau_out=tau_out,
        h_rad=h_rad,
    )
    return dataset, true_params
