import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aggtherm import bcd_fit, build_design, generate_synthetic, objective, synthetic
from aggtherm.model import AtdmParameters
from aggtherm.synthetic import default_true_params


def measurement_residual_oracle(dataset, params, T_occ):
    """Scalar transcription of the aggregate measurement equation, per period."""
    M, T, K = dataset.M, dataset.T, dataset.K
    res = np.zeros(T)
    for t in range(T):
        r = M + t
        lhs = sum(params.xi[i] * dataset.tau_in[r, i] for i in range(K))
        rhs = 0.0
        for m in range(1, M + 1):
            rhs += params.alpha[m - 1] * sum(
                params.xi[i] * dataset.tau_in[r - m, i] for i in range(K)
            )
        for m in range(M + 1):
            rhs += params.beta[m] * sum(dataset.h_load[r - m, i] for i in range(K))
            rhs += params.gamma[m] * dataset.tau_out[r - m]
            rhs += params.theta[m] * dataset.h_rad[r - m]
        rhs += params.tau_occ_free[t % T_occ]
        res[t] = lhs - rhs
    return res


class TestGenerateSynthetic:
    def test_noise_free_residual_is_zero(self):
        ds, true = generate_synthetic(K=5, T=60, M=2, T_occ=8, noise_sigma=0.0, seed=0)
        res = measurement_residual_oracle(ds, true, 8)
        assert np.max(np.abs(res)) < 1e-10
        design = build_design(ds, 8)
        assert objective(true, design, 0.0) < 1e-16 * ds.T

    def test_noise_scale(self):
        ds, true = generate_synthetic(K=4, T=2000, M=2, T_occ=8, noise_sigma=0.3, seed=1)
        res = measurement_residual_oracle(ds, true, 8)
        assert 0.25 < res.std() < 0.35
        assert abs(res.mean()) < 0.05

    def test_same_seed_bit_identical(self):
        a, _ = generate_synthetic(K=3, T=40, M=2, T_occ=6, noise_sigma=0.1, seed=7)
        b, _ = generate_synthetic(K=3, T=40, M=2, T_occ=6, noise_sigma=0.1, seed=7)
        assert np.array_equal(a.tau_in, b.tau_in)
        assert np.array_equal(a.h_load, b.h_load)
        assert np.array_equal(a.tau_out, b.tau_out)
        assert np.array_equal(a.h_rad, b.h_rad)

    def test_different_seed_differs(self):
        a, _ = generate_synthetic(K=3, T=40, M=2, T_occ=6, noise_sigma=0.1, seed=7)
        c, _ = generate_synthetic(K=3, T=40, M=2, T_occ=6, noise_sigma=0.1, seed=8)
        assert not np.array_equal(a.tau_in, c.tau_in)

    def test_fitter_recovers_weights(self):
        ds, true = generate_synthetic(K=7, T=1440, M=2, T_occ=48, noise_sigma=0.0, seed=3)
        fit = bcd_fit(build_design(ds, 48), lam=0.0, tol=1e-10, max_iter=20)
        assert np.max(np.abs(fit.params.xi - true.xi)) < 1e-3

    def test_unstable_dynamics_rejected(self):
        bad = default_true_params(3, 2, 6, seed=0)
        bad = AtdmParameters(
            xi=bad.xi, alpha=[1.5, 0.6], beta=bad.beta, gamma=bad.gamma,
            theta=bad.theta, tau_occ_free=bad.tau_occ_free,
        )
        with pytest.raises(ValueError, match="unstable"):
            generate_synthetic(K=3, T=20, M=2, T_occ=6, noise_sigma=0, seed=0, true_params=bad)

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            generate_synthetic(K=2, T=20, M=1, T_occ=4, noise_sigma=-1.0, seed=0)

    def test_dimension_mismatch_rejected(self):
        p = default_true_params(3, 2, 6)
        with pytest.raises(ValueError):
            generate_synthetic(K=4, T=20, M=2, T_occ=6, noise_sigma=0, seed=0, true_params=p)


def generate_synthetic_oracle(K, T, M, T_occ, noise_sigma=0.0, seed=0, true_params=None,
                              dt_minutes=30.0, zone_noise_sigma=0.5):
    """Scalar transcription of the generator: one Python step per (period,
    zone) and per lag term, with the zone loads drawn zone by zone.  It makes
    the same draws and the same floating-point operations, in the same order,
    that the vectorised generator must reproduce bit for bit."""
    if true_params is None:
        true_params = default_true_params(K, M, T_occ, seed)
    xi = true_params.xi
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(902,)))
    rows = T + M
    per_day = max(2, int(round(24 * 60 / dt_minutes)))
    tau_out, h_rad = synthetic._weather(rng, rows, per_day)

    t_idx = np.arange(rows)
    base = rng.uniform(3.0, 8.0, size=K)
    amp = rng.uniform(0.5, 2.0, size=K)
    phase = rng.uniform(0.0, 2 * np.pi, size=K)
    h_load = np.empty((rows, K))
    for i in range(K):
        pattern = base[i] + amp[i] * np.sin(2 * np.pi * t_idx / per_day + phase[i])
        ar = np.zeros(rows)
        e = rng.standard_normal(rows) * 0.8
        for s in range(1, rows):
            ar[s] = 0.7 * ar[s - 1] + e[s]
        h_load[:, i] = np.clip(pattern + ar, 0.1, None)

    def _spread(target_vec):
        draws = target_vec[None, :] * (1.0 + 0.1 * rng.uniform(-1, 1, size=(K, len(target_vec))))
        correction = target_vec - xi @ draws
        return draws + correction[None, :]

    beta_z = true_params.beta[None, :] / xi[:, None]
    gamma_z = _spread(true_params.gamma)
    theta_z = _spread(true_params.theta)
    occ_z = _spread(true_params.tau_occ_free)
    eps = rng.standard_normal(T) * noise_sigma if noise_sigma > 0 else np.zeros(T)
    eta = np.zeros((T, K))
    if zone_noise_sigma > 0:
        eta = rng.standard_normal((T, K)) * zone_noise_sigma
        eta -= np.outer((eta @ xi) / (xi @ xi), xi)

    tau_in = np.empty((rows, K))
    tau_in[:M] = 20.0 + rng.uniform(-1.0, 1.0, size=K)[None, :]
    for t in range(T):
        r = M + t
        slot = t % T_occ
        for i in range(K):
            v = occ_z[i, slot] + eps[t] + eta[t, i]
            for m in range(1, M + 1):
                v += true_params.alpha[m - 1] * tau_in[r - m, i]
            for m in range(M + 1):
                v += beta_z[i, m] * h_load[r - m, i]
                v += gamma_z[i, m] * tau_out[r - m]
                v += theta_z[i, m] * h_rad[r - m]
            tau_in[r, i] = v
    return tau_in, h_load, tau_out, h_rad, true_params


@st.composite
def generator_cases(draw):
    """Sizes, noise levels, sampling intervals and, half the time, a supplied
    stable parameter set with strictly positive weights."""
    K = draw(st.integers(1, 10))
    T = draw(st.integers(1, 150))
    M = draw(st.integers(1, 3))
    T_occ = draw(st.integers(1, T + 5))
    noise = draw(st.sampled_from([0.0, 0.05, 0.3, 1.0]))
    zone_noise = draw(st.sampled_from([0.0, 0.1, 0.5, 2.0]))
    kwargs = dict(
        K=K, T=T, M=M, T_occ=T_occ, noise_sigma=noise, zone_noise_sigma=zone_noise,
        seed=draw(st.integers(0, 2**31 - 1)),
        dt_minutes=draw(st.sampled_from([10.0, 30.0, 60.0, 1440.0])),
    )
    if draw(st.booleans()):
        prng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        g = prng.uniform(0.2, 1.0, size=K)
        roots = prng.uniform(-0.9, 0.9, size=M)
        kwargs["true_params"] = AtdmParameters(
            xi=g / g.sum(),
            alpha=-np.poly(roots)[1:],
            beta=prng.normal(0.0, 0.05, size=M + 1),
            gamma=prng.normal(0.0, 0.05, size=M + 1),
            theta=prng.normal(0.0, 0.3, size=M + 1),
            tau_occ_free=prng.normal(0.0, 0.3, size=T_occ),
        )
    return kwargs


class TestBitIdentity:
    @settings(max_examples=60, deadline=None)
    @given(generator_cases())
    def test_matches_scalar_oracle(self, kwargs):
        ds, truth = generate_synthetic(**kwargs)
        tau_in, h_load, tau_out, h_rad, oracle_truth = generate_synthetic_oracle(**kwargs)
        assert np.array_equal(ds.tau_in, tau_in)
        assert np.array_equal(ds.h_load, h_load)
        assert np.array_equal(ds.tau_out, tau_out)
        assert np.array_equal(ds.h_rad, h_rad)
        for name in ("xi", "alpha", "beta", "gamma", "theta", "tau_occ_free"):
            assert np.array_equal(getattr(truth, name), getattr(oracle_truth, name))

    def test_digest_pinned(self):
        # sha256 of the scalar per-(period, zone) generator's output.
        h = hashlib.sha256()
        for K, T, M, T_occ, noise, seed in [
            (32, 1080, 2, 48, 0.2, 4),
            (7, 1440, 2, 48, 0.2, 9),
            (5, 60, 1, 8, 0.0, 0),
            (9, 200, 3, 24, 0.3, 2),
        ]:
            ds, _ = generate_synthetic(K=K, T=T, M=M, T_occ=T_occ, noise_sigma=noise, seed=seed)
            for arr in (ds.tau_in, ds.h_load, ds.tau_out, ds.h_rad):
                h.update(arr.tobytes())
        assert h.hexdigest() == (
            "01438e218f1d1d0067a0d6d4d4a7c026fefb74b788f4c836fffaf94e748a1fe8"
        )


class TestInputValidation:
    @pytest.fixture(autouse=True)
    def no_draws(self, monkeypatch):
        """Fail loudly if the generator draws anything before rejecting."""
        def drew(*args, **kwargs):
            raise AssertionError("generator drew before validating its inputs")

        monkeypatch.setattr(synthetic, "default_true_params", drew)
        monkeypatch.setattr(synthetic, "_weather", drew)

    @pytest.mark.parametrize(
        "bad, match",
        [
            ({"K": 0}, "need K >= 1, T >= 1, M >= 1, got K=0"),
            ({"M": 0}, "need K >= 1, T >= 1, M >= 1, got K=3, T=20, M=0"),
            ({"T_occ": 0}, r"^T_occ must be >= 1, got 0$"),
            ({"dt_minutes": 0}, "dt_minutes must be finite and > 0"),
            ({"dt_minutes": -30}, "dt_minutes must be finite and > 0"),
            ({"dt_minutes": float("nan")}, "dt_minutes must be finite and > 0"),
            ({"zone_noise_sigma": -0.1}, "zone_noise_sigma must be >= 0"),
            ({"zone_noise_sigma": float("nan")}, "zone_noise_sigma must be >= 0"),
            ({"noise_sigma": float("nan")}, "^noise_sigma must be >= 0"),
        ],
        ids=["k_zero", "m_zero", "t_occ_zero", "dt_zero", "dt_negative", "dt_nan", "zone_noise_negative",
             "zone_noise_nan", "noise_nan"],
    )
    def test_rejected_before_drawing(self, bad, match):
        kwargs = dict(K=3, T=20, M=2, T_occ=6, seed=0) | bad
        with pytest.raises(ValueError, match=match):
            generate_synthetic(**kwargs)

    def test_non_integer_t_occ_rejected_before_drawing(self):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            generate_synthetic(K=3, T=20, M=2, T_occ=6.0, seed=0)
