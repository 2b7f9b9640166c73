import numpy as np
import pytest

from aggtherm.estimator import EstimationError, solve_sp2_plain
from aggtherm.model import lag_filter
from aggtherm.protocol.sap import decode_fixed, encode_fixed
from aggtherm.protocol.te import (
    compute_te_uploads,
    gen_encryption_col,
    solve_sp2_masked,
    te_recover,
)

from _common import random_design, synthetic_instance


class TestGenEncryptionCol:
    def test_reproducible(self):
        a = gen_encryption_col(5, np.random.default_rng(42))
        b = gen_encryption_col(5, np.random.default_rng(42))
        assert np.array_equal(a, b)

    def test_length(self):
        assert len(gen_encryption_col(7, np.random.default_rng(0))) == 7

    def test_moments(self):
        draws = gen_encryption_col(100000, np.random.default_rng(1))
        assert abs(draws.mean() - 0.1) < 0.005
        assert abs(draws.std() - 0.1) < 0.005

    def test_entries_on_the_grid_and_products_encode_exactly(self):
        """Entries are multiples of 2^-22, so w w^T survives the 2^-44
        fixed-point encoding bit for bit."""
        w = gen_encryption_col(64, np.random.default_rng(3))
        assert np.array_equal(np.rint(w * 2.0**22), w * 2.0**22)
        A2 = np.outer(w, w)
        assert np.array_equal(decode_fixed(encode_fixed(A2, 64)), A2)


class TestComputeHatTauCol:
    """An agent's filtered column: ``lag_filter`` on its own 1-D series."""

    def test_zero_alpha_keeps_zero_lag(self):
        series = np.array([1.0, 2.0, 3.0, 4.0])
        out = lag_filter(series, 1, np.array([0.0]))
        assert out.tolist() == [2.0, 3.0, 4.0]

    def test_unit_alpha_constant_series(self):
        out = lag_filter(np.full(6, 20.0), 1, np.array([1.0]))
        assert np.allclose(out, 0.0)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_scalar_loop(self, seed):
        rng = np.random.default_rng(seed)
        M, T = 2, 6
        alpha = rng.standard_normal(M)
        series = 20 + rng.standard_normal(T + M)
        got = lag_filter(series, M, alpha)
        for t in range(T):
            want = series[M + t] - sum(alpha[m - 1] * series[M + t - m] for m in range(1, M + 1))
            assert np.isclose(got[t], want, rtol=1e-12)

    def test_short_series_rejected(self):
        with pytest.raises(ValueError):
            lag_filter(np.array([1.0, 2.0]), 2, np.array([0.5, 0.5]))


class TestComputeTeUploads:
    def test_basis_column(self):
        e1 = np.array([1.0, 0.0])
        A2 = compute_te_uploads(e1, e1)
        assert A2.tolist() == [[1.0, 0.0], [0.0, 0.0]]

    def test_outer_product(self):
        A1 = compute_te_uploads(np.array([1.0, 2.0]), np.array([3.0, 4.0]))
        assert A1.tolist() == [[3.0, 4.0], [6.0, 8.0]]

    def test_gram_sum_matches_full_matrix(self):
        rng = np.random.default_rng(2)
        K = 6
        W = rng.normal(0.1, 0.1, (K, K))  # column i belongs to agent i
        A2_sum = sum(compute_te_uploads(W[:, i], W[:, i]) for i in range(K))
        assert np.allclose(A2_sum, W @ W.T, rtol=1e-12)

    def test_rank_and_symmetry(self):
        rng = np.random.default_rng(3)
        w = rng.standard_normal(5)
        A2 = compute_te_uploads(w, w)
        assert np.allclose(A2, A2.T)
        assert np.linalg.matrix_rank(A2) <= 1
        assert np.all(np.linalg.eigvalsh(A2) >= -1e-12)


class TestTeRecover:
    def test_identity_matrix(self):
        W = np.eye(2)
        xi_bar = np.array([0.3, 0.7])
        rec = [te_recover(W[:, i], xi_bar) for i in range(2)]
        assert rec == [0.3, 0.7]

    def test_dot_product(self):
        assert te_recover(np.array([1.0, 1.0]), np.array([0.2, 0.3])) == pytest.approx(0.5)


def masked_inputs(design, alpha, W):
    """Coordinator-visible sums for a full-knowledge W (no SAP needed here)."""
    S = lag_filter(design.tau, design.M, alpha)
    A1_sum = S @ W.T
    A2_sum = W @ W.T
    w_sum = W @ np.ones(W.shape[0])
    return A1_sum, A2_sum, w_sum


class TestSolveSp2Masked:
    def test_identity_matches_plain_exactly(self):
        _, design, true = synthetic_instance(K=4, T=100, M=2, T_occ=8, noise=0.05, seed=0)
        K = design.K
        plain = solve_sp2_plain(true.alpha, design, 5.0)
        A1, A2, w = masked_inputs(design, true.alpha, np.eye(K))
        masked = solve_sp2_masked(A1, A2, w, design.c2, design.c3, design.c4, design.T_occ, 5.0)
        assert np.allclose(masked[0], plain[0], atol=1e-12)
        assert np.isclose(masked[5], plain[5], rtol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_invertible_w_matches_plain(self, seed):
        _, design, true = synthetic_instance(K=5, T=150, M=2, T_occ=8, noise=0.1, seed=seed)
        K = design.K
        rng = np.random.default_rng(1000 + seed)
        W = rng.normal(0.1, 0.1, (K, K))
        lam = 100.0
        xi_p, b_p, g_p, t_p, u_p, f2_p = solve_sp2_plain(true.alpha, design, lam)
        assert xi_p.min() > 1e-6  # bound inactive, else the premise fails
        A1, A2, w = masked_inputs(design, true.alpha, W)
        xi_bar, b_m, g_m, t_m, u_m, f2_m = solve_sp2_masked(
            A1, A2, w, design.c2, design.c3, design.c4, design.T_occ, lam
        )
        assert np.isclose(f2_m, f2_p, rtol=1e-6)
        xi_rec = W.T @ xi_bar
        assert np.max(np.abs(xi_rec - xi_p)) < 1e-5
        assert abs(xi_rec.sum() - 1.0) < 1e-8

    def test_asymmetric_gram_rejected(self):
        design = random_design(K=3, T=20, M=1, T_occ=2, seed=1)
        A2 = np.eye(3)
        A2[0, 1] = 1e-3
        with pytest.raises(ValueError, match="asymmetric"):
            solve_sp2_masked(
                np.zeros((20, 3)), A2, np.ones(3),
                design.c2, design.c3, design.c4, design.T_occ, 1.0,
            )

    def test_singular_gram_rejected(self):
        """Two equal encryption columns: W W^T has rank 2 < 3, and the
        transformed problem would not reparameterize the plain one."""
        design = random_design(K=3, T=20, M=1, T_occ=2, seed=3)
        W = np.array([[0.1, 0.1, 0.2], [0.3, 0.3, 0.1], [0.2, 0.2, 0.4]])
        with pytest.raises(EstimationError, match=r"^aggregated Gram matrix W W\^T has rank 2 < K=3: "):
            solve_sp2_masked(
                np.zeros((20, 3)), W @ W.T, W.sum(axis=1),
                design.c2, design.c3, design.c4, design.T_occ, 1.0,
            )

    def test_zero_w_sum_rejected(self):
        design = random_design(K=3, T=20, M=1, T_occ=2, seed=2)
        with pytest.raises(ValueError, match="zero"):
            solve_sp2_masked(
                np.zeros((20, 3)), np.eye(3), np.zeros(3),
                design.c2, design.c3, design.c4, design.T_occ, 1.0,
            )


class TestMaskingDecorrelation:
    def test_uploads_decorrelate_from_source_column(self):
        # idiosyncratic per-zone content, as in the inference experiments
        K, T = 32, 300
        rng_data = np.random.default_rng(606)
        hats = rng_data.normal(20.0, 1.0, size=(T, K))
        hats -= hats.mean(axis=0)
        corrs = []
        for seed in range(50):
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(16,)))
            W = rng.normal(0.1, 0.1, (K, K))
            masked_col = (hats @ W.T)[:, 0]
            corrs.append(abs(np.corrcoef(hats[:, 0], masked_col)[0, 1]))
        assert np.mean(corrs) < 0.2

    def test_weather_sharing_cluster_still_masked(self):
        # zones sharing weather keep a common mode, so the bar is looser:
        # far from the unmasked correlation of 1
        _, design, true = synthetic_instance(K=7, T=300, M=2, T_occ=24, noise=0.2, seed=77)
        S = lag_filter(design.tau, design.M, true.alpha)
        corrs = []
        for seed in range(50):
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(17,)))
            W = rng.normal(0.1, 0.1, (7, 7))
            corrs.append(abs(np.corrcoef(S[:, 0], (S @ W.T)[:, 0])[0, 1]))
        assert np.mean(corrs) < 0.5
