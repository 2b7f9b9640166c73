import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aggtherm.estimator as est
from aggtherm.estimator import (
    EstimationError,
    bcd_fit,
    gap,
    objective,
    solve_sp1,
    solve_sp2_plain,
)
from aggtherm.model import AtdmParameters, lag_columns, lag_filter

from _common import random_design, random_params, synthetic_instance, zero_design


def objective_oracle(params, design, lam):
    """Naive scalar-loop evaluation of the regularized sum of squares."""
    T, K, M = design.T, design.K, design.M
    total = 0.0
    for t in range(T):
        r = sum(design.c0[t, i] * params.xi[i] for i in range(K))
        for m in range(1, M + 1):
            block = design.c1_block(m)
            r -= params.alpha[m - 1] * sum(block[t, i] * params.xi[i] for i in range(K))
        for m in range(M + 1):
            r -= params.beta[m] * design.c2[t, m]
            r -= params.gamma[m] * design.c3[t, m]
            r -= params.theta[m] * design.c4[t, m]
        r -= params.tau_occ_free[t % design.T_occ]
        total += r * r
    return total + lam * sum(x * x for x in params.xi)


def params_from_blocks(xi, alpha, beta, gamma, theta, tau_occ):
    return AtdmParameters(xi=xi, alpha=alpha, beta=beta, gamma=gamma, theta=theta,
                          tau_occ_free=tau_occ)


class TestObjective:
    def test_zero_data_zero_params(self):
        d = zero_design(K=2, T=4, M=1, T_occ=2)
        e1 = np.array([1.0, 0.0])
        p = params_from_blocks(e1, [0.0], [0, 0], [0, 0], [0, 0], [0, 0])
        assert objective(p, d, 0.0) == 0.0

    def test_penalty_only(self):
        d = zero_design(K=2, T=4, M=1, T_occ=2)
        p = params_from_blocks([1.0, 0.0], [0.0], [0, 0], [0, 0], [0, 0], [0, 0])
        assert objective(p, d, 100.0) == 100.0

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_scalar_loop_oracle(self, seed):
        d = random_design(K=3, T=8, M=2, T_occ=3, seed=seed)
        p = random_params(K=3, M=2, T_occ=3, seed=seed, simplex=False)
        lam = 3.7
        got = objective(p, d, lam)
        want = objective_oracle(p, d, lam)
        assert np.isclose(got, want, rtol=1e-12)

    def test_dimension_mismatch(self):
        d = zero_design(K=2, T=4, M=1, T_occ=2)
        p = random_params(K=3, M=1, T_occ=2)
        with pytest.raises(ValueError):
            objective(p, d, 0.0)

    def test_negative_penalty(self):
        d = zero_design(K=2, T=4, M=1, T_occ=2)
        p = random_params(K=2, M=1, T_occ=2)
        with pytest.raises(ValueError):
            objective(p, d, -1.0)

    @pytest.mark.parametrize("lam", [np.nan, np.inf])
    def test_non_finite_penalty(self, lam):
        d = zero_design(K=2, T=4, M=1, T_occ=2)
        p = random_params(K=2, M=1, T_occ=2)
        with pytest.raises(ValueError, match=rf"^penalty lambda must be finite and >= 0, got {lam!r}$"):
            objective(p, d, lam)


class TestSolveSp1:
    def test_noise_free_truth_gives_zero_residual(self):
        _, design, true = synthetic_instance(K=4, T=80, M=2, T_occ=8, noise=0.0, seed=1)
        *_, f1 = solve_sp1(true.xi, design, 0.0)
        assert f1 < 1e-10

    def test_zero_target_minimum_norm(self):
        d = zero_design(K=2, T=6, M=1, T_occ=2)
        alpha, beta, gamma, theta, tau_occ, f1 = solve_sp1(np.array([0.5, 0.5]), d, 0.0)
        for block in (alpha, beta, gamma, theta, tau_occ):
            assert np.allclose(block, 0.0)
        assert f1 == 0.0

    @pytest.mark.parametrize("seed", range(3))
    def test_dominates_random_candidates(self, seed):
        d = random_design(K=3, T=30, M=2, T_occ=4, seed=seed)
        rng = np.random.default_rng(100 + seed)
        xi = rng.uniform(0.1, 1.0, 3)
        xi /= xi.sum()
        lam = 2.0
        alpha, beta, gamma, theta, tau_occ, f1 = solve_sp1(xi, d, lam)
        assert np.isclose(
            f1,
            objective(params_from_blocks(xi, alpha, beta, gamma, theta, tau_occ), d, lam),
            rtol=1e-9,
        )
        for _ in range(100):
            cand = params_from_blocks(
                xi,
                alpha + rng.standard_normal(2) * 0.1,
                beta + rng.standard_normal(3) * 0.1,
                gamma + rng.standard_normal(3) * 0.1,
                theta + rng.standard_normal(3) * 0.1,
                tau_occ + rng.standard_normal(4) * 0.1,
            )
            assert objective(cand, d, lam) >= f1 - 1e-9

    @pytest.mark.parametrize("seed", range(3))
    def test_stationarity_by_central_differences(self, seed):
        d = random_design(K=3, T=25, M=2, T_occ=4, seed=10 + seed)
        rng = np.random.default_rng(seed)
        xi = rng.uniform(0.1, 1.0, 3)
        xi /= xi.sum()
        alpha, beta, gamma, theta, tau_occ, _ = solve_sp1(xi, d, 1.0)
        blocks = [np.asarray(b, dtype=float) for b in (alpha, beta, gamma, theta, tau_occ)]

        def f_at(bl):
            return objective(params_from_blocks(xi, *bl), d, 1.0)

        h = 1e-5
        worst = 0.0
        for bi, block in enumerate(blocks):
            for j in range(len(block)):
                up = [b.copy() for b in blocks]
                dn = [b.copy() for b in blocks]
                up[bi][j] += h
                dn[bi][j] -= h
                worst = max(worst, abs(f_at(up) - f_at(dn)) / (2 * h))
        assert worst < 1e-6

    def test_non_finite_rejected(self):
        d = zero_design(K=2, T=4, M=1, T_occ=2)
        with pytest.raises(ValueError):
            solve_sp1(np.array([np.nan, 1.0]), d, 0.0)


class TestSolveSp2Plain:
    def test_single_zone_weight_pinned(self):
        d = random_design(K=1, T=20, M=1, T_occ=3, seed=0)
        xi, *_rest, f2 = solve_sp2_plain(np.array([0.4]), d, 1.0)
        assert np.allclose(xi, [1.0], atol=1e-10)

    def test_recovers_generating_weights(self):
        _, design, true = synthetic_instance(K=5, T=200, M=2, T_occ=8, noise=0.0, seed=2)
        xi, *_rest, f2 = solve_sp2_plain(true.alpha, design, 0.0)
        assert np.max(np.abs(xi - true.xi)) < 1e-6

    @pytest.mark.parametrize("seed", range(3))
    def test_dominates_random_simplex_candidates(self, seed):
        d = random_design(K=4, T=40, M=2, T_occ=4, seed=20 + seed)
        rng = np.random.default_rng(200 + seed)
        alpha = rng.standard_normal(2) * 0.3
        lam = 1.5
        xi, beta, gamma, theta, tau_occ, _, f2 = solve_sp2_plain(alpha, d, lam)
        assert np.isclose(
            f2,
            objective(params_from_blocks(xi, alpha, beta, gamma, theta, tau_occ), d, lam),
            rtol=1e-9,
        )
        for _ in range(100):
            w = rng.dirichlet(np.ones(4))
            cand = params_from_blocks(
                w,
                alpha,
                beta + rng.standard_normal(3) * 0.05,
                gamma + rng.standard_normal(3) * 0.05,
                theta + rng.standard_normal(3) * 0.05,
                tau_occ + rng.standard_normal(4) * 0.05,
            )
            assert objective(cand, d, lam) >= f2 - 1e-9

    @pytest.mark.parametrize("seed", range(4))
    def test_kkt_residual_and_simplex(self, seed):
        d = random_design(K=4, T=50, M=2, T_occ=4, seed=30 + seed)
        alpha = np.random.default_rng(seed).standard_normal(2) * 0.2
        lam = 0.5
        xi, beta, gamma, theta, tau_occ, *_ = solve_sp2_plain(alpha, d, lam)
        assert abs(xi.sum() - 1.0) <= 1e-8
        assert xi.min() >= -1e-8
        # stationarity on the constraint manifold at inactive coordinates
        S = lag_filter(d.tau, d.M, alpha)
        A = np.hstack([S, -d.c2, -d.c3, -d.c4, -occupancy_indicator(d.T, d.T_occ)])
        x = np.concatenate([xi, beta, gamma, theta, tau_occ])
        g = 2 * (A.T @ (A @ x))
        g[:4] += 2 * lam * xi
        e = np.zeros(len(x))
        e[:4] = 1.0
        nu = -(g @ e) / (e @ e)
        resid = g + nu * e
        free = np.ones(len(x), bool)
        free[:4] = xi > 1e-9
        assert np.max(np.abs(resid[free])) < 1e-8 * max(1.0, np.max(np.abs(g)))

    def test_active_set_engages_on_negative_weights(self):
        # push one zone's filtered column to anticorrelate so its weight
        # would go negative without the bound
        rng = np.random.default_rng(99)
        d = random_design(K=3, T=60, M=1, T_occ=2, seed=99)
        d.c0[:, 2] = -3.0 * d.c0[:, 0] + rng.standard_normal(60) * 0.01
        xi, *_rest, f2 = solve_sp2_plain(np.array([0.0]), d, 0.0)
        assert xi.min() >= -1e-9
        assert abs(xi.sum() - 1.0) < 1e-8

    def test_held_weight_leaves_the_kkt_system(self, monkeypatch):
        """A weight held at its bound is dropped from the KKT system, not
        pinned by a unit constraint row: every solve has the one weight-sum
        row and n - |held| unknowns, and the held weight comes back as 0."""
        rng = np.random.default_rng(99)
        d = random_design(K=3, T=60, M=1, T_occ=2, seed=99)
        d.c0[:, 2] = -3.0 * d.c0[:, 0] + rng.standard_normal(60) * 0.01
        n = d.K + 3 * (d.M + 1)
        real, shapes = est.solve_constrained_quadratic, []

        def recording(H, c):
            shapes.append((H.shape, c.shape))
            return real(H, c)

        monkeypatch.setattr(est, "solve_constrained_quadratic", recording)
        xi, *_rest = solve_sp2_plain(np.array([0.0]), d, 0.0)
        held = int(np.sum(xi == 0.0))
        assert held >= 1 and len(shapes) == held + 1
        assert shapes == [((m, m), (m,)) for m in range(n, n - held - 1, -1)]


class TestSolveConstrainedQuadratic:
    """One least-squares solve of the KKT system of min x'Hx subject to
    c'x = 1, returning its rcond and never warning: a singular system gets
    the minimum-norm solution, an inconsistent one EstimationError."""

    def test_well_conditioned_system_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x, nu, rcond = est.solve_constrained_quadratic(np.eye(2), np.ones(2))
        assert np.allclose(x, [0.5, 0.5]) and np.isclose(nu, -1.0)
        assert rcond >= est.RCOND_MIN

    def test_singular_system_returns_its_rcond(self):
        # H = 0 makes the two weight rows of the KKT matrix equal
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x, nu, rcond = est.solve_constrained_quadratic(np.zeros((2, 2)), np.ones(2))
        assert np.allclose(x, [0.5, 0.5]) and np.isclose(nu, 0.0)
        assert rcond < est.RCOND_MIN

    def test_inconsistent_system_rejected(self):
        # c = 0 leaves c'x = 1 unsatisfiable
        with pytest.raises(EstimationError, match="singular KKT system"):
            est.solve_constrained_quadratic(np.eye(2), np.zeros(2))


class TestGap:
    def test_equal(self):
        assert gap(5.0, 5.0) == 0.0

    def test_min_of_abs_and_rel(self):
        assert gap(2.0, 1.0) == 1.0
        assert gap(3.0, 2.0) == 0.5

    def test_zero_denominator_absolute_fallback(self):
        assert gap(3.0, 0.0) == 3.0


class TestBcdFit:
    def test_noise_free_objective_vanishes(self):
        _, design, _ = synthetic_instance(K=4, T=150, M=2, T_occ=8, noise=0.0, seed=4)
        fit = bcd_fit(design, lam=0.0, tol=1e-10)
        assert fit.objective < 1e-8

    def test_trace_descends(self):
        _, design, _ = synthetic_instance(K=5, T=200, M=2, T_occ=8, noise=0.1, seed=5)
        fit = bcd_fit(design, lam=100.0, tol=1e-6)
        assert fit.converged
        prev_f2 = np.inf
        for rec in fit.gap_trace:
            assert rec.f2 <= rec.f1 + 1e-9
            assert rec.f1 <= prev_f2 + 1e-9
            prev_f2 = rec.f2

    def test_two_starts_agree(self):
        _, design, _ = synthetic_instance(K=4, T=200, M=2, T_occ=8, noise=0.05, seed=6)
        fit_uniform = bcd_fit(design, lam=10.0, tol=1e-8)
        rng = np.random.default_rng(0)
        xi0 = rng.dirichlet(np.ones(4))
        fit_random = bcd_fit(design, lam=10.0, tol=1e-8, xi0=xi0)
        assert np.isclose(fit_uniform.objective, fit_random.objective, rtol=1e-6)

    def test_divergence_aborts(self, monkeypatch):
        _, design, _ = synthetic_instance(K=3, T=60, M=2, T_occ=4, noise=0.1, seed=7)

        real_sp1 = est.solve_sp1
        calls = {"n": 0}

        def inflated_sp1(xi, d, lam):
            calls["n"] += 1
            out = list(real_sp1(xi, d, lam))
            if calls["n"] > 1:
                out[-1] = out[-1] + 1.0  # pretend the objective went up
            return tuple(out)

        monkeypatch.setattr(est, "solve_sp1", inflated_sp1)
        with pytest.raises(EstimationError, match="divergence"):
            est.bcd_fit(design, lam=1.0, tol=1e-14, max_iter=10)

    def test_ill_conditioned_weights_solve_reported(self):
        """A weights step that reports an rcond below RCOND_MIN is named in
        the fit's warnings for that round and raises one
        IllConditionedWarning; other warnings pass through untouched."""
        xi0 = np.array([0.5, 0.5])
        coefs = (np.zeros(3), np.zeros(3), np.zeros(3), np.zeros(1))

        def sp2(l, alpha):
            if l == 1:
                warnings.warn("unrelated", UserWarning)
            return (xi0, *coefs, 1e-17 if l == 1 else 1e-3, 0.95 - 0.1 * l)

        with pytest.warns(Warning) as caught:
            fit = est.alternate(lambda l, xi: (np.zeros(2), 1.0 - 0.1 * l), sp2, xi0, 1e-12, 3)
        text = "ill-conditioned KKT system: rcond 1.000e-17 < 2.220e-16"
        assert fit.warnings == [f"iteration 1: ill-conditioned weights solve ({text})"]
        assert [(w.category, str(w.message)) for w in caught] == [
            (UserWarning, "unrelated"),
            (est.IllConditionedWarning, text),
        ]

    @pytest.mark.parametrize("step", ["f1", "f2"])
    @pytest.mark.parametrize("factor, raises", [(0.5, False), (2.0, True)])
    def test_descent_slack_is_relative(self, monkeypatch, step, factor, raises):
        """A step may rise above the value it must not exceed by less than
        DESCENT_RTOL of that value's scale, and no more."""
        _, design, _ = synthetic_instance(K=3, T=60, M=2, T_occ=4, noise=0.1, seed=7)
        real_sp1, real_sp2 = est.solve_sp1, est.solve_sp2_plain
        seen = []  # objective values in the order the fit produced them

        def risen(f_old):
            assert abs(f_old) > 10.0  # the relative part of the slack decides
            return f_old + factor * est.DESCENT_RTOL * abs(f_old)

        def sp1(xi, d, lam):
            out = list(real_sp1(xi, d, lam))
            if step == "f1" and seen:
                out[-1] = risen(seen[-1])
            seen.append(out[-1])
            return tuple(out)

        def sp2(alpha, d, lam):
            out = list(real_sp2(alpha, d, lam))
            if step == "f2":
                out[-1] = risen(seen[-1])
            seen.append(out[-1])
            return tuple(out)

        monkeypatch.setattr(est, "solve_sp1", sp1)
        monkeypatch.setattr(est, "solve_sp2_plain", sp2)
        if raises:
            with pytest.raises(EstimationError, match=f"divergence at iteration .*: {step}="):
                est.bcd_fit(design, lam=100.0, tol=1e-14, max_iter=3)
        else:
            fit = est.bcd_fit(design, lam=100.0, tol=1e-14, max_iter=3)
            if step == "f2":  # the tolerated rise shows in the trace, not as a warning
                assert fit.gap_trace[0].negative and fit.warnings == []

    def test_bad_start_rejected(self):
        _, design, _ = synthetic_instance(K=3, T=60, M=2, T_occ=4, noise=0.1, seed=8)
        with pytest.raises(ValueError):
            bcd_fit(design, lam=1.0, tol=1e-6, xi0=np.array([0.9, 0.9, -0.8]))
        with pytest.raises(ValueError):
            bcd_fit(design, lam=1.0, tol=0.0)

    def test_result_serializes(self):
        from aggtherm.dataio import dumps_json
        import json

        _, design, _ = synthetic_instance(K=3, T=60, M=2, T_occ=4, noise=0.1, seed=9)
        fit = bcd_fit(design, lam=1.0, tol=1e-6)
        doc = json.loads(dumps_json(fit))
        assert doc["converged"] is True
        assert len(doc["gap_trace"]) == fit.iterations


def occupancy_indicator(T, T_occ):
    """The dense T x T_occ slot indicator: row t has its one 1 in column
    t mod T_occ."""
    P = np.zeros((T, T_occ))
    P[np.arange(T), np.arange(T) % T_occ] = 1.0
    return P


def dense_sp1(s, c2, c3, c4, T_occ, lam, xi_norm_sq):
    """The dynamics step as one minimum-norm least squares over every
    column, the occupancy indicators included: (Z, y, coefficients, f1)."""
    M = c2.shape[1] - 1
    s_lags = lag_columns(s, M)
    P_occ = occupancy_indicator(len(c2), T_occ)
    Z, y = np.hstack([s_lags[:, 1:], c2, c3, c4, P_occ]), s_lags[:, 0]
    coef, *_ = np.linalg.lstsq(Z, y, rcond=None)
    resid = y - Z @ coef
    return Z, y, coef, float(resid @ resid + lam * xi_norm_sq)


def dense_weights_qp(S, c2, c3, c4, T_occ, reg, cvec, nonneg):
    """The weights step with the occupancy levels as KKT unknowns, each KKT
    system solved by minimum-norm least squares and bounds by the same
    active-set rule: (A, x = [v, beta, gamma, theta, u], fixed weights, f2)."""
    K = S.shape[1]
    A = np.hstack([S, -c2, -c3, -c4, -occupancy_indicator(len(S), T_occ)])
    n = A.shape[1]
    H = A.T @ A
    H[:K, :K] += reg
    fixed = []
    for _ in range(2 * K + 1):
        C = np.vstack([np.concatenate([cvec, np.zeros(n - K)])] + [np.eye(n)[i] for i in fixed])
        kkt = np.block([[2.0 * H, C.T], [C, np.zeros((len(C), len(C)))]])
        rhs = np.concatenate([np.zeros(n), [1.0], np.zeros(len(fixed))])
        sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
        x, w = sol[:n], sol[n:]
        if not nonneg:
            break
        violated = [i for i in range(K) if i not in fixed and x[i] < -1e-9]
        if violated:
            fixed.append(min(violated, key=lambda i: x[i]))
            continue
        if fixed and (-w[1:]).min() < -1e-9:
            fixed.pop(int(np.argmin(-w[1:])))
            continue
        break
    x[fixed] = 0.0
    resid = A @ x
    return A, x, sorted(fixed), float(resid @ resid + x[:K] @ reg @ x[:K])


@st.composite
def occupancy_problems(draw):
    """Random dynamics- and weights-step inputs whose horizon T is below,
    equal to or not a multiple of T_occ, a third with a constant exogenous
    column (collinear with the occupancy indicators)."""
    K, M, T_occ = draw(st.integers(1, 4)), draw(st.integers(1, 2)), draw(st.integers(2, 6))
    kind = draw(st.sampled_from(["below", "equal", "ragged", "ragged", "ragged", "ragged"]))
    if kind == "below":
        T = draw(st.integers(1, T_occ - 1))
    elif kind == "equal":
        T = T_occ
    else:
        T = T_occ * draw(st.integers(1, 10)) + draw(st.integers(1, T_occ - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c2, c3, c4 = (rng.standard_normal((T, M + 1)) for _ in range(3))
    if draw(st.integers(0, 2)) == 0:
        c3[:, draw(st.integers(0, M))] = draw(st.sampled_from([-3.0, 0.5, 20.0]))
    nonneg = draw(st.booleans())
    return {
        "s": 20.0 + rng.standard_normal(T + M),
        # columns near one common series push weights below zero
        "S": np.outer(rng.standard_normal(T), rng.uniform(0.2, 2.0, K))
        + draw(st.sampled_from([0.1, 1.0])) * rng.standard_normal((T, K)),
        "c2": c2, "c3": c3, "c4": c4,
        "T_occ": T_occ,
        "lam": draw(st.sampled_from([0.0, 0.1, 10.0])),
        "cvec": np.ones(K) if nonneg else rng.uniform(0.5, 1.5, K),
        "nonneg": nonneg,
    }


def _rel(a, b, scale):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)), initial=0.0)) / scale


class TestOccupancyProjectionOracle:
    """Projecting the occupancy slots out gives the dense solves' objective
    and fitted values (the weights step's residual) always, and their
    coefficients and active set when the dense columns have full rank.  On
    rank-deficient draws only the non-occupancy coefficients have minimum
    norm, so the coefficients may differ from the dense minimum-norm ones."""

    @settings(max_examples=300, deadline=None)
    @given(p=occupancy_problems())
    def test_dynamics_step_matches_dense_lstsq(self, p):
        args = (p["s"], p["c2"], p["c3"], p["c4"], p["T_occ"], p["lam"], 0.3)
        *blocks, f1 = est.solve_sp1_from_parts(*args)
        Z, y, coef, f1_ref = dense_sp1(*args)
        x = np.concatenate(blocks)
        assert abs(f1 - f1_ref) <= 1e-9 * (float(y @ y) + p["lam"] * 0.3)
        # relative to the terms that cancel in the fitted values
        assert _rel(Z @ x, Z @ coef, max(np.max(np.abs(y)), np.max(np.abs(Z) @ np.abs(coef)))) <= 1e-9
        tau_occ, P = blocks[-1], occupancy_indicator(len(y), p["T_occ"])
        assert np.all(tau_occ[P.sum(axis=0) == 0] == 0.0)
        if np.linalg.matrix_rank(Z) == Z.shape[1]:
            assert _rel(x, coef, np.max(np.abs(coef))) <= 1e-6

    @settings(max_examples=300, deadline=None)
    @given(p=occupancy_problems())
    def test_weights_step_matches_dense_kkt(self, p):
        S, c2, c3, c4, T_occ = p["S"], p["c2"], p["c3"], p["c4"], p["T_occ"]
        P = occupancy_indicator(len(S), T_occ)
        K = S.shape[1]
        reg = p["lam"] * np.eye(K)
        v, beta, gamma, theta, tau_occ, _, f2 = est.solve_weights_qp(
            S, c2, c3, c4, T_occ, reg, p["cvec"], p["nonneg"]
        )
        A, x_ref, fixed_ref, f2_ref = dense_weights_qp(S, c2, c3, c4, T_occ, reg, p["cvec"], p["nonneg"])
        x = np.concatenate([v, beta, gamma, theta, tau_occ])
        scale = float(np.sum(S * S)) + float(np.trace(reg))
        assert abs(f2 - f2_ref) <= 1e-9 * scale
        assert abs(p["cvec"] @ v - 1.0) <= 1e-9
        assert np.all(tau_occ[P.sum(axis=0) == 0] == 0.0)
        # the residual A x is the same at every minimizer (f is strictly
        # convex in it), even where the weights themselves are not unique;
        # relative to the terms that cancel in it
        assert _rel(A @ x, A @ x_ref, np.max(np.abs(A) @ np.abs(x_ref))) <= 1e-9
        if p["nonneg"]:
            assert v.min() >= -1e-9
        if np.linalg.matrix_rank(A) == A.shape[1]:
            assert list(np.flatnonzero(v == 0.0)) == fixed_ref
            assert _rel(x, x_ref, np.max(np.abs(x_ref))) <= 1e-6
