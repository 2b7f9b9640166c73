import csv
import dataclasses

import numpy as np
import pytest

import aggtherm.adversary.mqs as mqs
from aggtherm.adversary import (
    MqsInstance,
    SweepConfig,
    attack_sweep,
    counting_report,
    make_attack_instance,
    solve_mqs,
    write_sweep_csv,
)
from aggtherm.model import lag_filter
from aggtherm.protocol import ProtocolConfig, ProtocolRunner

from _common import run_truth, synthetic_instance


def loop_jacobian(inst, x):
    """The row-by-row Jacobian assembly that ``MqsInstance.jacobian``
    replaced, kept as the reference it must match bit for bit."""
    K, L, T, M = inst.K, inst.L, inst.T, inst.M
    tau, W = inst.unpack(x)
    J = np.zeros((inst.n_equations, inst.n_unknowns))
    iu, ju = inst._triu
    n_pairs = len(iu)
    row = 0
    for l in range(L):
        Wl = W[l]
        w_off = inst.n_tau + l * K * K
        for p in range(T + M):
            J[row + p, p * K : (p + 1) * K] = inst.xi_in[l]
        row += T + M
        for n in range(n_pairs):
            j, k = iu[n], ju[n]
            J[row + n, w_off + j * K : w_off + (j + 1) * K] += Wl[k]
            J[row + n, w_off + k * K : w_off + (k + 1) * K] += Wl[j]
        row += n_pairs
        for j in range(K):
            J[row + j, w_off + j * K : w_off + (j + 1) * K] = 1.0
        row += K
        for j in range(K):
            J[row : row + K, w_off + j * K : w_off + (j + 1) * K] += (
                np.eye(K) * inst.xi_bar[l, j]
            )
        row += K
        alpha = inst.alpha[l]
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


def assert_jacobian_matches_loop(inst, seed=0):
    """At the truth, a perturbed start, a random point and a point with
    signed zeros, J equals the loop's, entry for entry and sign bit for
    sign bit."""
    rng = np.random.default_rng(seed)
    truth = inst.pack(inst.true_values.tau, inst.true_values.W)
    u = rng.random(truth.shape)
    zeros = np.where(u < 0.25, -0.0, np.where(u < 0.5, 0.0, truth))
    for x in (truth, inst.perturbed_start(rng), rng.normal(0.0, 5.0, truth.shape), zeros):
        J, ref = inst.jacobian(x), loop_jacobian(inst, x)
        assert np.array_equal(J, ref)
        assert np.array_equal(np.signbit(J), np.signbit(ref))


class TestInstance:
    def test_residual_zero_at_truth(self):
        inst = make_attack_instance(K=4, L=2, T=8, M=2, seed=0)
        x = inst.pack(inst.true_values.tau, inst.true_values.W)
        assert np.linalg.norm(inst.residual(x)) < 1e-10

    def test_unknown_count_paper_case(self):
        inst = make_attack_instance(K=6, L=3, T=48, M=2, seed=0)
        assert inst.n_unknowns == 300 + 108

    def test_equation_count_matches_counting_report(self):
        for K, L, T, M in [(6, 3, 48, 2), (4, 2, 8, 2), (3, 2, 5, 1)]:
            inst = make_attack_instance(K=K, L=L, T=T, M=M, seed=1)
            rep = counting_report(K, L, T, M)
            assert inst.n_equations == rep.type3_equation_total
            assert inst.n_unknowns == rep.type3_unknown_total
            assert len(inst.residual(inst.perturbed_start(np.random.default_rng(0)))) \
                == rep.type3_equation_total

    @pytest.mark.parametrize(
        "field, rows",
        [("xi_in", 2), ("xi_in", 0.5), ("xi_recovered", 2), ("xi_recovered", 0.5),
         ("A2_sum", 2), ("w_sum", 0.5)],
    )
    def test_known_vector_shapes_checked(self, field, rows):
        """Each field of each round's view has its shape for K zones: twice
        the entries in every round (a view of 2K zones) or half of them in
        the last round alone is rejected, naming the field and the round."""
        inst = make_attack_instance(K=4, L=2, T=8, M=2, seed=0)
        hit = range(inst.L) if rows == 2 else [inst.L - 1]

        def resized(a):
            return np.concatenate([a, a]) if rows == 2 else a[: len(a) // 2]

        views = [
            dataclasses.replace(v, **{field: resized(getattr(v, field))}) if l in hit else v
            for l, v in enumerate(inst.views)
        ]
        with pytest.raises(ValueError, match=f"round {hit[0]}: {field} has shape"):
            MqsInstance(views, inst.true_values)

    def test_true_value_shapes_checked(self):
        inst = make_attack_instance(K=3, L=2, T=4, M=2, seed=0)
        truth = dataclasses.replace(inst.true_values, W=inst.true_values.W[:1])
        with pytest.raises(ValueError, match=r"true W has shape \(1, 3, 3\), expected \(2, 3, 3\)"):
            MqsInstance(inst.views, truth)

    @pytest.mark.parametrize("seed", range(20))
    def test_residual_positive_away_from_truth(self, seed):
        inst = make_attack_instance(K=3, L=2, T=4, M=2, seed=seed)
        x = inst.pack(inst.true_values.tau, inst.true_values.W)
        rng = np.random.default_rng(1000 + seed)
        delta = rng.uniform(-1, 1, x.shape)
        delta *= 1e-3 / np.max(np.abs(delta))
        assert np.linalg.norm(inst.residual(x + delta)) > 1e-8

    @pytest.mark.parametrize("seed", range(3))
    def test_jacobian_matches_finite_differences(self, seed):
        inst = make_attack_instance(K=3, L=2, T=4, M=2, seed=seed)
        rng = np.random.default_rng(seed)
        x = inst.pack(inst.true_values.tau, inst.true_values.W)
        x = x + rng.uniform(-0.5, 0.5, x.shape)
        J = inst.jacobian(x)
        eps = 1e-7
        for i in rng.choice(len(x), size=12, replace=False):
            xp, xm = x.copy(), x.copy()
            xp[i] += eps
            xm[i] -= eps
            col = (inst.residual(xp) - inst.residual(xm)) / (2 * eps)
            assert np.max(np.abs(J[:, i] - col)) < 1e-6

    @pytest.mark.parametrize("K, L, T, M", [(6, 3, 48, 2), (6, 3, 1, 2), (2, 1, 5, 1), (4, 2, 3, 3)])
    def test_jacobian_matches_loop(self, K, L, T, M):
        assert_jacobian_matches_loop(make_attack_instance(K=K, L=L, T=T, M=M, seed=7))

    def test_jacobian_matches_loop_with_signed_zero_knowns(self):
        """A -0.0 weight in the views keeps its sign in J, as the loop's
        assignment keeps it."""
        inst = make_attack_instance(K=3, L=2, T=4, M=2, seed=8)
        tau = inst.true_values.tau
        views = []
        for v in inst.views:
            xi = v.xi_in.copy()
            xi[0] = -0.0
            views.append(dataclasses.replace(v, xi_in=xi, s_sum=tau @ xi))
        assert_jacobian_matches_loop(MqsInstance(views, inst.true_values))

    def test_w_like_tau_switch(self):
        a = make_attack_instance(K=3, L=2, T=4, M=2, seed=5, w_like_tau=False)
        b = make_attack_instance(K=3, L=2, T=4, M=2, seed=5, w_like_tau=True)
        assert np.abs(a.true_values.W).max() < 2.0
        assert b.true_values.W.mean() > 10.0
        xb = b.pack(b.true_values.tau, b.true_values.W)
        assert np.linalg.norm(b.residual(xb)) < 1e-8

    def test_inconsistent_knowns_rejected(self):
        inst = make_attack_instance(K=3, L=2, T=4, M=2, seed=6)
        s_sum = inst.views[0].s_sum.copy()
        s_sum[0] += 1.0  # the aggregate no longer matches the true series
        views = [dataclasses.replace(inst.views[0], s_sum=s_sum), *inst.views[1:]]
        with pytest.raises(ValueError, match="inconsistent"):
            MqsInstance(views, inst.true_values)


class TestSolve:
    def test_truth_start_stays_at_truth(self):
        inst = make_attack_instance(K=4, L=2, T=6, M=2, seed=1)
        x = inst.pack(inst.true_values.tau, inst.true_values.W)
        for method in ("lbfgs", "trf"):
            res = solve_mqs(inst, x, method=method)
            assert res.relative_error < 1e-9
            assert res.converged

    def test_perturbed_start_fails_to_infer(self):
        errs = []
        for s in range(5):
            inst = make_attack_instance(K=6, L=3, T=4, M=2, seed=50 + s)
            rng = np.random.default_rng(60 + s)
            res = solve_mqs(inst, inst.perturbed_start(rng))
            errs.append(res.relative_error)
        assert np.median(errs) > 0.01

    def test_trf_recovers_tau_from_sweep_starts(self):
        """Finding: from the sweep's own perturbed starts, the trust-region
        solver recovers the temperatures once T is large (here T=24), where
        L-BFGS stalls; the sweep's failure is L-BFGS's, not the system's.
        At T <= 6 the trust-region solver mostly stalls near 1e-2 as well."""
        rows, _ = attack_sweep(SweepConfig(T_list=(24,), scenarios=3, seed=0, method="trf"))
        assert [r["scenario"] for r in rows] == [0, 1, 2]
        for r in rows:
            assert r["relative_error"] < 1e-9 and r["converged"], r

    def test_trf_method_runs(self):
        inst = make_attack_instance(K=4, L=2, T=6, M=2, seed=2)
        rng = np.random.default_rng(3)
        res = solve_mqs(inst, inst.perturbed_start(rng), method="trf", max_iter=50)
        assert np.isfinite(res.final_residual)
        assert res.solver_time_seconds > 0

    def test_bad_init_shape_rejected(self):
        inst = make_attack_instance(K=3, L=2, T=4, M=2, seed=3)
        with pytest.raises(ValueError):
            solve_mqs(inst, np.zeros(5))
        with pytest.raises(ValueError):
            solve_mqs(inst, np.zeros(inst.n_unknowns), method="newton")


class TestSweep:
    def test_deterministic_and_csv_contract(self, tmp_path):
        cfg = SweepConfig(K=3, L=2, M=2, T_list=(1, 2), scenarios=2, seed=9, max_iter=60)
        rows_a, summary_a = attack_sweep(cfg)
        rows_b, _ = attack_sweep(cfg)

        def strip_time(rows):
            return [{k: v for k, v in r.items() if k != "time_seconds"} for r in rows]

        assert strip_time(rows_a) == strip_time(rows_b)
        assert len(rows_a) == 4
        assert set(summary_a) == {1, 2}

        path = tmp_path / "sweep.csv"
        write_sweep_csv(rows_a, path)
        with open(path) as fh:
            reader = csv.DictReader(fh)
            assert reader.fieldnames == [
                "case_T", "scenario", "relative_error", "residual",
                "time_seconds", "converged",
            ]
            parsed = list(reader)
        assert len(parsed) == 4
        assert float(parsed[0]["relative_error"]) == rows_a[0]["relative_error"]

    def test_solves_scenario_by_scenario_and_reports_t_major(self, monkeypatch):
        """Every T of scenario 0 is solved before scenario 1, while the rows
        stay T-major; each row matches a direct solve from the same seeds
        in every field but the time."""
        cfg = SweepConfig(K=3, L=2, T_list=(1, 2, 3), scenarios=2, max_iter=20)
        direct, by_start = {}, {}
        for T in cfg.T_list:
            for s in range(cfg.scenarios):
                seed = np.random.SeedSequence(cfg.seed, spawn_key=(3100, T, s))
                inst = make_attack_instance(
                    K=cfg.K, L=cfg.L, T=T, M=cfg.M, seed=int(seed.generate_state(1)[0])
                )
                rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(4000, T, s)))
                init = inst.perturbed_start(rng)
                by_start[init.tobytes()] = (T, s)
                direct[T, s] = solve_mqs(inst, init, max_iter=cfg.max_iter)
        visits = []
        solve = mqs.solve_mqs

        def recording_solve(inst, init, **kw):
            visits.append(by_start[init.tobytes()])
            return solve(inst, init, **kw)

        monkeypatch.setattr(mqs, "solve_mqs", recording_solve)
        rows, summary = attack_sweep(cfg)
        assert visits == [(1, 0), (2, 0), (3, 0), (1, 1), (2, 1), (3, 1)]
        assert [(r["case_T"], r["scenario"]) for r in rows] == \
            [(1, 0), (1, 1), (2, 0), (2, 1), (3, 0), (3, 1)]
        assert list(summary) == [1, 2, 3]
        for r in rows:
            want = direct[r["case_T"], r["scenario"]]
            assert r == {
                "case_T": r["case_T"], "scenario": r["scenario"],
                "relative_error": want.relative_error, "residual": want.final_residual,
                "time_seconds": r["time_seconds"], "converged": want.converged,
            }
        for T in cfg.T_list:
            errors = [direct[T, s].relative_error for s in range(cfg.scenarios)]
            assert summary[T]["median_error"] == float(np.median(errors))


class TestSizes:
    @pytest.mark.parametrize("size", ["K", "L", "T", "M"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_instance_size_below_one_rejected(self, size, value):
        sizes = {"K": 3, "L": 2, "T": 4, "M": 2, size: value}
        with pytest.raises(ValueError, match=rf"^{size} must be >= 1, got {value}$"):
            make_attack_instance(**sizes, seed=0)

    @pytest.mark.parametrize(
        "change, match",
        [({"scenarios": 0}, "scenarios must be >= 1, got 0"),
         ({"T_list": (1, 0)}, "T must be >= 1, got 0"),
         ({"K": 0}, "K must be >= 1, got 0"),
         ({"L": 0}, "L must be >= 1, got 0"),
         ({"M": -1}, "M must be >= 1, got -1"),
         ({"max_iter": 0}, "max_iter must be >= 1, got 0")],
    )
    def test_sweep_size_below_one_rejected_before_any_draw(self, monkeypatch, change, match):
        drawn = []
        monkeypatch.setattr(mqs, "make_attack_instance", lambda **kw: drawn.append(kw))
        cfg = dataclasses.replace(SweepConfig(K=3, L=2, T_list=(1, 2), scenarios=2), **change)
        with pytest.raises(ValueError, match=f"^{match}$"):
            attack_sweep(cfg)
        assert drawn == []

    @pytest.mark.parametrize("method", ["lbfgs", "trf"])
    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_solve_budget_below_one_rejected_before_any_solve(self, method, max_iter):
        """An empty budget is refused, not reported as the start's error
        (L-BFGS) or as a failed scenario (TRF)."""
        inst = make_attack_instance(K=3, L=2, T=4, M=2, seed=0)
        evaluated = []
        inst.residual = lambda x: evaluated.append(x)
        with pytest.raises(ValueError, match=rf"^max_iter must be >= 1, got {max_iter}$"):
            solve_mqs(inst, np.zeros(inst.n_unknowns), max_iter=max_iter, method=method)
        assert evaluated == []


class TestReplayFromProtocol:
    def test_transcript_replay_instance(self):
        dataset, _, _ = synthetic_instance(K=4, T=30, M=2, T_occ=6, noise=0.3, seed=13)
        cfg = ProtocolConfig(lam=1.0, tol=1e-12, max_iter=2, T_occ=6, seed=13)
        runner = ProtocolRunner(dataset, cfg)
        fit, transcript = runner.run()
        assert fit.iterations == 2
        inst = MqsInstance(transcript.bla_view, run_truth(runner))
        assert inst.L == 2 and inst.T == 30 and inst.K == 4
        x = inst.pack(inst.true_values.tau, inst.true_values.W)
        assert np.linalg.norm(inst.residual(x)) < 1e-8
        rep = counting_report(4, 2, 30, 2)
        assert inst.n_equations == rep.type3_equation_total
        assert_jacobian_matches_loop(inst)

    def test_replay_requires_iterations(self):
        dataset, _, _ = synthetic_instance(K=3, T=20, M=2, T_occ=4, noise=0.1, seed=14)
        runner = ProtocolRunner(dataset, ProtocolConfig(T_occ=4, seed=14))
        with pytest.raises(ValueError, match="at least one round"):
            MqsInstance(runner.transcript.bla_view, run_truth(runner))
