"""Acceptance suite: one test per release criterion, each printing a
pass/fail line.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import os
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.stats import spearmanr

from aggtherm import bcd_fit, build_design, evaluate_metrics, generate_synthetic
from aggtherm.adversary import (
    GramNotRankOneError,
    SweepConfig,
    attack_sweep,
    counting_report,
    make_attack_instance,
    recover_tau_from_hat,
    recover_W_from_gram,
    solve_mqs,
)
from aggtherm.dataio import parse_dataset
from aggtherm.estimator import solve_sp2_plain
from aggtherm.model import aggregate_state, predict_aggregate, split_dataset
from aggtherm.protocol import ProtocolConfig, run_protocol
from aggtherm.protocol.messages import Phase
from aggtherm.protocol.sap import PairwiseMaskSet, decode_fixed, sap_aggregate, sap_mask
from aggtherm.protocol.te import solve_sp2_masked

from test_counting import enumerate_scalar_equations
from test_leakage import forward_hat


@contextmanager
def criterion(n, desc):
    try:
        yield
    except BaseException:
        print(f"\n[criterion {n}] FAIL - {desc}")
        raise
    print(f"\n[criterion {n}] PASS - {desc}")


def test_criterion_1_masked_plain_equivalence():
    with criterion(1, "masked/plain parameter equivalence on 7 zones, 1440 periods"):
        t0 = time.perf_counter()
        dataset, _ = generate_synthetic(
            K=7, T=1440, M=2, T_occ=48, noise_sigma=0.2, seed=11
        )
        design = build_design(dataset, 48)
        plain = bcd_fit(design, lam=100.0, tol=1e-6)
        private, transcript = run_protocol(
            dataset, ProtocolConfig(lam=100.0, tol=1e-6, T_occ=48, seed=11)
        )
        elapsed = time.perf_counter() - t0
        for name in ("xi", "alpha", "beta", "gamma", "theta"):
            a = getattr(plain.params, name)
            b = getattr(private.params, name)
            rel = np.abs(a - b) / np.abs(a)
            assert rel.max() < 1e-3, f"{name}: max relative diff {rel.max()}"
        assert private.converged and plain.converged
        assert private.iterations <= 3
        assert transcript.scan_findings == []
        assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30s target"


def test_criterion_2_convergence_across_cluster_sizes():
    with criterion(2, "gap < 1e-6 within 5 iterations for 10 cluster sizes, descent holds"):
        sizes = [10, 16, 19, 27, 32, 37, 47, 52, 56, 64]
        for n, K in enumerate(sizes):
            dataset, _ = generate_synthetic(
                K=K, T=1080, M=2, T_occ=48, noise_sigma=0.15, seed=100 + n
            )
            fit = bcd_fit(build_design(dataset, 48), lam=100.0, tol=1e-6)
            assert fit.converged, f"K={K} did not converge"
            assert fit.iterations <= 5, f"K={K} took {fit.iterations} iterations"
            assert fit.gap_trace[-1].gap < 1e-6
            f2_prev = np.inf
            for rec in fit.gap_trace:
                assert rec.f2 <= rec.f1 + 1e-9, f"K={K}: f2 exceeded f1"
                assert rec.f1 <= f2_prev + 1e-9, f"K={K}: f1 exceeded previous f2"
                f2_prev = rec.f2


def test_criterion_3_sap_sum_invariance_and_clean_transcripts():
    with criterion(3, "secure aggregation exactness on 100 tensors; scanners find nothing"):
        rng = np.random.default_rng(303)
        T, K = 60, 5
        ids = list(range(1, K + 1))
        shapes = [(T,), (T, K), (K, K), (K,)]
        uploads = [Phase.SAP_S, Phase.SAP_LOAD, Phase.TE_A1, Phase.TE_A2, Phase.TE_W]
        for case in range(100):
            shape = shapes[case % len(shapes)]
            masks = PairwiseMaskSet(case, ids, iteration=case % 4)
            phase = uploads[case % len(uploads)]
            xs = [rng.standard_normal(shape) * 20 for _ in ids]
            masked = [sap_mask(x, i, masks, phase) for i, x in zip(ids, xs)]
            total = sum(xs)
            agg = sap_aggregate(masked)
            scale = np.maximum(np.abs(total), 1.0)
            assert np.max(np.abs(agg - total) / scale) < 1e-9, f"case {case}"

        checked_total = 0
        for seed in range(100):
            dataset, _ = generate_synthetic(
                K=3, T=40, M=2, T_occ=8, noise_sigma=0.3, seed=5000 + seed
            )
            _, transcript = run_protocol(
                dataset,
                ProtocolConfig(lam=1.0, tol=1e-6, max_iter=2, T_occ=8, seed=seed),
            )
            assert transcript.scan_findings == [], f"seed {seed} leaked"
            checked_total += transcript.scan_checked
        assert checked_total > 0


def test_criterion_4_te_reparameterization_exactness():
    with criterion(4, "masked weights subproblem matches plain on 50 seeded instances"):
        for seed in range(50):
            rng = np.random.default_rng(7000 + seed)
            K = int(rng.integers(3, 9))
            dataset, true = generate_synthetic(
                K=K, T=120, M=2, T_occ=12, noise_sigma=0.1, seed=7000 + seed
            )
            design = build_design(dataset, 12)
            lam = 100.0
            xi_p, *_rest, f2_p = solve_sp2_plain(true.alpha, design, lam)
            assert xi_p.min() > 1e-8, f"seed {seed}: nonnegativity active, premise void"
            W = rng.normal(0.1, 0.1, (K, K))
            assert np.linalg.matrix_rank(W) == K
            S = design.c0.copy()
            for m in range(1, 3):
                S -= true.alpha[m - 1] * design.c1_block(m)
            xi_bar, *_rest2, f2_m = solve_sp2_masked(
                S @ W.T, W @ W.T, W @ np.ones(K),
                design.c2, design.c3, design.c4, design.T_occ, lam,
            )
            assert abs(f2_m - f2_p) / f2_p < 1e-6, f"seed {seed}: objective mismatch"
            xi_rec = W.T @ xi_bar
            assert abs(xi_rec.sum() - 1.0) < 1e-8, f"seed {seed}: sum {xi_rec.sum()}"
            assert xi_rec.min() >= -1e-6, f"seed {seed}: min {xi_rec.min()}"


def test_criterion_5_counting_propositions():
    with criterion(5, "counting verdicts match brute-force enumeration; K=5/6 boundary flips"):
        for K in (1, 2, 3):
            for L in (1, 2):
                for T in (1, 2, 3):
                    for M in (1, 2):
                        r = counting_report(K, L, T, M)
                        e = enumerate_scalar_equations(K, L, T, M)
                        assert r.type1_equations == e["type1_equations"]
                        assert r.type1_unknowns == e["type1_unknowns"]
                        assert r.type2_equations == e["type2_equations"]
                        assert r.type2_unknowns == e["type2_unknowns"]
                        assert r.type3_equation_total == e["type3_equations"]
                        assert r.type3_unknown_total == e["type3_unknowns"]
                        assert r.type1_under_determined == (
                            e["type1_unknowns"] > e["type1_equations"]
                        )
                        assert r.type2_under_determined == (
                            e["type2_unknowns"] > e["type2_equations"]
                        )
                        assert r.type3_over_determined == (
                            e["type3_equations"] > e["type3_unknowns"]
                        )
        assert not counting_report(K=5, L=1, T=1, M=1).type2_under_determined
        assert counting_report(K=6, L=1, T=1, M=1).type2_under_determined


def test_criterion_6_appendix_leakage_demos():
    with criterion(6, "filtered-matrix inversion works for L >= 2; Gram attack dies on masking"):
        rng = np.random.default_rng(606)
        for L in (2, 3, 4):
            for trial in range(5):
                T, M, K = 15, 2, 4
                tau = rng.normal(20, 1, (T + M, K))
                alphas = [rng.normal(0, 0.5, M) for _ in range(L)]
                rec = recover_tau_from_hat([forward_hat(tau, a) for a in alphas], alphas)
                assert np.max(np.abs(rec - tau)) < 1e-8, f"L={L} trial={trial}"

        for trial in range(10):
            K = int(rng.integers(3, 8))
            W = rng.normal(0.1, 0.1, (K, K))
            W[np.abs(W) < 5e-3] = 0.05
            xi_bar = rng.uniform(0.2, 1.0, K)
            xi = W.T @ xi_bar
            raw = [np.outer(W[:, i], W[:, i]) for i in range(K)]
            rec = recover_W_from_gram(raw, xi, xi_bar)
            assert np.max(np.abs(rec - W)) < 1e-8, f"trial {trial}: raw recovery failed"

            ids = list(range(1, K + 1))
            masks = PairwiseMaskSet(trial, ids, iteration=0)
            masked = [decode_fixed(sap_mask(raw[i - 1], i, masks, Phase.TE_A2)) for i in ids]
            with pytest.raises(GramNotRankOneError):
                recover_W_from_gram(masked, xi, xi_bar)


def test_criterion_7_attack_experiment():
    with criterion(7, "perturbed-start inference fails everywhere; control exact; time monotone"):
        t0 = time.perf_counter()
        cfg = SweepConfig()  # K=6, L=3, T in {1..48}, 20 scenarios
        rows, summary = attack_sweep(cfg)
        elapsed = time.perf_counter() - t0
        assert elapsed < 600.0, f"sweep took {elapsed:.0f}s, target < 600s"
        assert len(rows) == 8 * 20

        medians, med_times = [], []
        for T in cfg.T_list:
            s = summary[T]
            assert s["median_error"] > 0.01, f"T={T}: median {s['median_error']}"
            medians.append(s["median_error"])
            med_times.append(s["median_time"])

        # control: exact-truth start stays put in every case
        control_errors = []
        for T in cfg.T_list:
            inst = make_attack_instance(K=6, L=3, T=T, M=2, seed=42)
            x = inst.pack(inst.true_values.tau, inst.true_values.W)
            res = solve_mqs(inst, x)
            assert res.relative_error < 1e-6, f"control T={T}: {res.relative_error}"
            control_errors.append(res.relative_error)
        worst_case = [r["relative_error"] for r in rows if r["case_T"] == 48]
        assert min(worst_case) > max(control_errors)

        rho, _ = spearmanr(cfg.T_list, med_times)
        assert rho > 0.9, f"time trend Spearman rho {rho}"
        print(f"\n    sweep: {elapsed:.0f}s, median errors {[f'{m:.3f}' for m in medians]}, "
              f"median times {[f'{t:.2f}' for t in med_times]}, rho={rho:.3f}")


REFIT_ENV = "AGGTHERM_REFIT_CSV"


def test_criterion_8_refit_dataset_conditional():
    path = os.environ.get(REFIT_ENV, "data/refit_cluster.csv")
    if not os.path.exists(path):
        print(f"\n[criterion 8] SKIP - REFIT dataset not supplied "
              f"(set {REFIT_ENV} or place data/refit_cluster.csv)")
        pytest.skip("REFIT dataset not supplied; criterion reported as skipped")
    with criterion(8, "REFIT test metrics within 15% of the reference values"):
        dataset = parse_dataset(path, M=2)
        train, test = split_dataset(dataset, 0.75)
        fit, _ = run_protocol(train, ProtocolConfig(lam=100.0, tol=1e-6, T_occ=48, seed=0))
        test_design = build_design(test, 48)
        real = aggregate_state(fit.params.xi, test_design.c0)
        init = test.tau_in[:2] @ fit.params.xi
        pred = predict_aggregate(fit.params, test_design, init)
        m = evaluate_metrics(pred, real)
        assert abs(m.rmse - 0.2944) / 0.2944 < 0.15
        assert abs(m.mape - 1.3103) / 1.3103 < 0.15
        assert abs(m.r2 - 0.8613) / 0.8613 < 0.15
