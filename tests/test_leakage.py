import numpy as np
import pytest

from aggtherm import generate_synthetic
from aggtherm.adversary import (
    GramNotRankOneError,
    estimate_share_mean,
    filtered_gram_from_view,
    recover_tau_from_hat,
    recover_W_from_gram,
)
from aggtherm.model import lag_filter
from aggtherm.protocol import ProtocolConfig, ProtocolRunner
from aggtherm.protocol.messages import Phase
from aggtherm.protocol.sap import PairwiseMaskSet, decode_fixed, sap_mask

from _common import synthetic_instance


def forward_hat(tau, alpha):
    """Construct the filtered matrix from known temperatures (the quantity a
    careless protocol would hand the coordinator)."""
    M = len(alpha)
    T = tau.shape[0] - M
    out = tau[M:].copy()
    for m in range(1, M + 1):
        out -= alpha[m - 1] * tau[M - m : T + M - m]
    return out


class TestRecoverTau:
    def test_two_iterations_distinct_dynamics(self):
        rng = np.random.default_rng(0)
        T, M, K = 12, 2, 4
        tau = rng.normal(20, 1, (T + M, K))
        alphas = [np.array([0.9, -0.2]), np.array([0.4, 0.1])]
        hats = [forward_hat(tau, a) for a in alphas]
        rec = recover_tau_from_hat(hats, alphas)
        assert np.max(np.abs(rec - tau)) < 1e-8

    @pytest.mark.parametrize("L", [2, 3, 4])
    def test_recovery_for_any_L_at_least_two(self, L):
        rng = np.random.default_rng(L)
        tau = rng.normal(20, 1, (10 + 2, 3))
        alphas = [rng.normal(0, 0.5, 2) for _ in range(L)]
        rec = recover_tau_from_hat([forward_hat(tau, a) for a in alphas], alphas)
        assert np.max(np.abs(rec - tau)) < 1e-8

    def test_single_iteration_rejected(self):
        rng = np.random.default_rng(1)
        tau = rng.normal(20, 1, (8, 2))
        a = np.array([0.5, 0.1])
        with pytest.raises(ValueError, match="at least 2"):
            recover_tau_from_hat([forward_hat(tau, a)], [a])

    def test_identical_dynamics_rank_deficient(self):
        rng = np.random.default_rng(2)
        tau = rng.normal(20, 1, (8, 2))
        a = np.array([0.5, 0.1])
        hats = [forward_hat(tau, a), forward_hat(tau, a)]
        with pytest.raises(ValueError, match="rank"):
            recover_tau_from_hat(hats, [a, a.copy()])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            recover_tau_from_hat(
                [np.zeros((5, 2)), np.zeros((6, 2))],
                [np.array([0.1]), np.array([0.2])],
            )


class TestRecoverW:
    def test_identity_recovered_exactly(self):
        K = 3
        W = np.eye(K)
        xi = np.full(K, 1.0 / K)
        xi_bar = xi.copy()  # with W = I the encrypted weights equal the weights
        A2_set = [np.outer(W[:, i], W[:, i]) for i in range(K)]
        assert np.array_equal(recover_W_from_gram(A2_set, xi, xi_bar), W)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_positive_W_recovered(self, seed):
        rng = np.random.default_rng(seed)
        K = 5
        W = np.abs(rng.normal(0.1, 0.1, (K, K))) + 0.01
        xi_bar = rng.uniform(0.1, 1.0, K)
        xi = W.T @ xi_bar
        A2_set = [np.outer(W[:, i], W[:, i]) for i in range(K)]
        rec = recover_W_from_gram(A2_set, xi, xi_bar)
        assert np.max(np.abs(rec - W)) < 1e-8

    @pytest.mark.parametrize("seed", range(3))
    def test_mixed_sign_W_recovered(self, seed):
        rng = np.random.default_rng(100 + seed)
        K = 4
        W = rng.normal(0.1, 0.1, (K, K))
        W[np.abs(W) < 1e-3] = 0.05  # keep entries away from zero
        xi_bar = rng.uniform(0.2, 1.0, K)
        xi = W.T @ xi_bar
        A2_set = [np.outer(W[:, i], W[:, i]) for i in range(K)]
        rec = recover_W_from_gram(A2_set, xi, xi_bar)
        assert np.max(np.abs(rec - W)) < 1e-8

    def test_masked_uploads_defeat_recovery(self):
        rng = np.random.default_rng(3)
        K = 4
        ids = list(range(1, K + 1))
        W = rng.normal(0.1, 0.1, (K, K))
        xi_bar = rng.uniform(0.2, 1.0, K)
        xi = W.T @ xi_bar
        masks = PairwiseMaskSet(7, ids)
        masked = [
            decode_fixed(sap_mask(np.outer(W[:, i - 1], W[:, i - 1]), i, masks, Phase.TE_A2))
            for i in ids
        ]
        with pytest.raises(GramNotRankOneError):
            recover_W_from_gram(masked, xi, xi_bar)

    def test_rank_two_rejected(self):
        K = 3
        a, b = np.array([1.0, 2.0, 3.0]), np.array([1.0, 0.0, -1.0])
        A2 = np.outer(a, a) + np.outer(b, b)
        sets = [A2, np.outer(a, a), np.outer(a, a)]
        with pytest.raises(GramNotRankOneError, match="rank-1"):
            recover_W_from_gram(sets, np.ones(K), np.ones(K))

    def test_zero_column_unrecoverable(self):
        K = 3
        sets = [np.zeros((K, K)) for _ in range(K)]
        with pytest.raises(ValueError, match="sign unrecoverable"):
            recover_W_from_gram(sets, np.zeros(K), np.ones(K))


class TestShareMean:
    """Averaging L masked copies of one zone's load share."""

    K, T, L = 3, 1440, 3

    def _loads(self):
        dataset, _ = generate_synthetic(K=self.K, T=self.T, M=2, T_occ=48, noise_sigma=0.2, seed=4)
        return dataset.h_load, list(range(1, self.K + 1))

    def test_gaussian_masks_leak_the_mean(self):
        loads, ids = self._loads()
        rng = np.random.default_rng(0)
        copies = {i: [] for i in ids}
        for _ in range(self.L):
            pair = {(i, j): rng.normal(0.0, 10.0, len(loads)) for i in ids for j in ids if i < j}
            for i in ids:
                share = loads[:, i - 1].copy()
                for j in ids:
                    if i < j:
                        share += pair[(i, j)]
                    elif j < i:
                        share -= pair[(j, i)]
                copies[i].append(share)
        for i in ids:
            assert abs(estimate_share_mean(copies[i]) - loads[:, i - 1].mean()) < 1.0

    def test_ring_masks_hide_the_mean(self):
        loads, ids = self._loads()
        true = loads.mean(axis=0)
        spread = true.max() - true.min()
        copies = {i: [] for i in ids}
        for l in range(self.L):
            masks = PairwiseMaskSet(l, ids)  # a fresh key per copy
            for i in ids:
                copies[i].append(decode_fixed(sap_mask(loads[:, i - 1], i, masks, Phase.SAP_LOAD)))
        for i in ids:
            assert abs(estimate_share_mean(copies[i]) - true[i - 1]) > 100 * spread

    def test_no_copies_rejected(self):
        with pytest.raises(ValueError):
            estimate_share_mean([])


class TestFilteredGram:
    """Finding: the coordinator's legitimate aggregates of one round give the
    Gram of the filtered per-zone temperatures in closed form, at any K, and
    the privacy scan (exact copies only) stays clean while they do."""

    @pytest.mark.parametrize("K,T,T_occ", [(4, 120, 12), (32, 1080, 48)])
    def test_every_round_recovers_the_gram(self, K, T, T_occ):
        dataset, _, _ = synthetic_instance(K=K, T=T, M=2, T_occ=T_occ, noise=0.2, seed=1)
        runner = ProtocolRunner(dataset, ProtocolConfig(lam=100.0, tol=1e-6, T_occ=T_occ, seed=1))
        runner.run()
        view = runner.transcript.bla_view
        assert len(view) >= 2 and runner.transcript.scan_findings == []
        for entry in view:
            hat = lag_filter(dataset.tau_in, dataset.M, entry.alpha)
            truth = hat @ hat.T
            got = filtered_gram_from_view(entry)
            assert np.linalg.norm(got - truth) <= 1e-8 * np.linalg.norm(truth)
