"""Findings of the closed-form attack's stages 1 and 2 (``transcript_attack``):
on views with a fresh encryption matrix every round, and on the transcripts
of the protocol, which draws one encryption matrix per run."""

from dataclasses import replace

import numpy as np
import pytest

from aggtherm import generate_synthetic
from aggtherm.adversary import filtered_gram_from_view, make_attack_instance, recover_tau_from_hat
from aggtherm.adversary.linear import transcript_attack
from aggtherm.model import lag_filter
from aggtherm.protocol import ProtocolConfig, ProtocolRunner


def rel(got, want):
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


class TestPerRoundEncryption:
    """Criterion 7's own instances (K=6, L=3, M=2), whose perturbed-start
    L-BFGS inference fails everywhere, give ττᵀ and τ1 in closed form."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("T", [1, 2, 3, 4, 5, 6, 7, 8, 12, 24, 48])
    def test_null_space_dimension(self, T, seed):
        """Stage 1's null space has dimension LK − ((L−1)T − M) until that
        falls to K, at T ≥ 7, and exactly K from there on."""
        inst = make_attack_instance(K=6, L=3, T=T, M=2, seed=seed)
        res = transcript_attack(inst.views)
        assert res.null_dim == max(6, 18 - (2 * T - 2))
        if T < 7:
            assert res.reason == f"the stage-1 null space has dimension {res.null_dim}, wider than K=6"
            assert res.tau_sum is None and res.spread is None
            assert np.array_equal(res.gram, filtered_gram_from_view(inst.views[0]))
        else:
            assert res.reason is None and res.null_gap > 1e10

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("T", [12, 24, 48])
    def test_gram_and_column_sums_recovered(self, T, seed):
        inst = make_attack_instance(K=6, L=3, T=T, M=2, seed=seed)
        tau = inst.true_values.tau
        res = transcript_attack(inst.views)
        assert res.r == 5  # 1, the start and three returned weight vectors
        assert res.spread < 1e-10
        assert rel(res.gram, tau @ tau.T) < 1e-8
        assert rel(res.tau_sum, tau.sum(axis=1)) < 1e-8

    @pytest.mark.parametrize("L", [2, 3])
    def test_repeated_dynamics_reported_rank_deficient(self, L):
        """Finding: when every round repeats round 0's dynamics, the rounds'
        filters do not pin τ, and stage 1 says so.  It used to treat a
        failed Cholesky factorization of FᵀF as rank-deficient, and that
        factorization succeeds here: with α = (0.5, 0.1) twice at T=48 its
        smallest pivot is 0.14, while ``matrix_rank(FᵀF)`` is 48 of 50.  The
        shared null sequences decay like the AR roots, so no pivot
        collapses; any rounds whose AR polynomials share a root fail alike.
        On these views the attack reported success, with ττᵀ off by 7.1
        (L=3) and 931 (L=2) relative, and τ1 by 0.64 and 3.0."""
        inst = make_attack_instance(K=6, L=L, T=48, M=2, seed=0)
        tau, W = inst.true_values.tau, inst.true_values.W
        alpha = inst.views[0].alpha
        views = [replace(v, alpha=alpha, A1_sum=lag_filter(tau, 2, alpha) @ W[l].T) for l, v in enumerate(inst.views)]
        res = transcript_attack(views)
        assert res.reason == "the rounds' stacked filters are rank-deficient, so τ is not eliminated"
        assert res.tau_sum is None and res.null_dim is None
        assert np.array_equal(res.gram, filtered_gram_from_view(views[0]))
        with pytest.raises(ValueError, match="rank"):
            recover_tau_from_hat([lag_filter(tau, 2, alpha)] * L, [alpha] * L)

    def test_one_round_gives_the_filtered_gram_only(self):
        inst = make_attack_instance(K=6, L=1, T=48, M=2, seed=0)
        res = transcript_attack(inst.views)
        assert res.reason.startswith("one round: ")
        assert res.null_dim is None and res.tau_sum is None
        assert np.array_equal(res.gram, filtered_gram_from_view(inst.views[0]))

    def test_no_view_rejected(self):
        with pytest.raises(ValueError, match="at least one round"):
            transcript_attack([])

    def test_inconsistent_views_rejected(self):
        """A malformed round is an error, not a rank-deficient filter."""
        views = make_attack_instance(K=6, L=3, T=12, M=2, seed=0).views
        with pytest.raises(ValueError, match="inconsistent shapes"):
            transcript_attack([views[0], replace(views[1], alpha=np.zeros(3)), views[2]])


def protocol_run(K, T, seed, max_iter):
    dataset, _ = generate_synthetic(K=K, T=T, M=2, T_occ=12, noise_sigma=0.2, seed=seed)
    runner = ProtocolRunner(
        dataset, ProtocolConfig(lam=100.0, T_occ=12, seed=seed, scan=False, max_iter=max_iter)
    )
    fit, transcript = runner.run()
    return dataset.tau_in, fit, transcript


@pytest.mark.parametrize("K, T, seed, max_iter", [
    (2, 60, 1, 20), (3, 60, 1, 20), (3, 60, 1, 1), (7, 1440, 11, 20), (32, 1080, 5, 20), (32, 1080, 5, 1),
])
def test_one_encryption_per_run_gives_the_gram_from_round_0(K, T, seed, max_iter):
    """Finding: with one encryption matrix per run, round 0's sums give
    ττᵀ = Z G⁻¹ Zᵀ at every L, one round included, where a run of one
    round with a fresh matrix per round gives only ĤĤᵀ.  From two rounds
    on, stages 1 and 2 give ττᵀ and τ1 as well, as they did with a fresh
    matrix per round."""
    tau, fit, transcript = protocol_run(K, T, seed, max_iter)
    Z, G = transcript.Z, transcript.bla_view[0].A2_sum
    assert (fit.iterations == 1) == (max_iter == 1)
    assert rel(Z @ np.linalg.solve(G, Z.T), tau @ tau.T) < 1e-8
    res = transcript_attack(transcript.bla_view)
    assert res.r == min(K, fit.iterations + 1)
    if fit.iterations == 1:
        assert res.reason.startswith("one round: ") and res.gram.shape == (T, T)
    else:
        assert res.null_dim == K and res.spread < 1e-10
        assert rel(res.gram, tau @ tau.T) < 1e-8
        assert rel(res.tau_sum, tau.sum(axis=1)) < 1e-8
