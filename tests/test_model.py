import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from aggtherm.model import (
    AtdmParameters,
    ClusterDataset,
    aggregate_state,
    build_design,
    evaluate_metrics,
    lag_filter,
    lag_view,
    occupancy_slots,
    predict_aggregate,
    split_dataset,
)

from _common import random_dataset, random_design, random_params
from test_leakage import forward_hat


def tiny_dataset(tau_rows, K=1, T=2, M=1):
    rows = T + M
    tau = np.asarray(tau_rows, dtype=float).reshape(rows, K)
    return ClusterDataset(
        K=K, T=T, M=M, dt_minutes=30.0,
        tau_in=tau,
        h_load=np.ones((rows, K)),
        tau_out=np.zeros(rows),
        h_rad=np.zeros(rows),
    )


class TestLaggedViews:
    def test_zero_lag_is_last_T_rows(self):
        ds = tiny_dataset([[10], [20], [30]])
        assert lag_view(ds.tau_in, ds.M, 0).tolist() == [[20], [30]]

    def test_lag_one_shifts_back(self):
        ds = tiny_dataset([[10], [20], [30]])
        assert lag_view(ds.tau_in, ds.M, 1).tolist() == [[10], [20]]

    def test_lag_out_of_range(self):
        ds = tiny_dataset([[10], [20], [30]])
        for m in (2, -1):
            with pytest.raises(ValueError, match=f"lag must be in 0..1, got {m}"):
                lag_view(ds.tau_in, ds.M, m)

    def test_row_alignment_every_lag(self):
        ds = random_dataset(K=2, T=5, M=3, seed=1)
        for m in range(ds.M + 1):
            tau, load, out, rad = (
                lag_view(s, ds.M, m) for s in (ds.tau_in, ds.h_load, ds.tau_out, ds.h_rad)
            )
            for t in range(ds.T):
                row = ds.M + t - m  # stored row of period (t+1) - m
                assert np.array_equal(tau[t], ds.tau_in[row])
                assert np.array_equal(load[t], ds.h_load[row])
                assert out[t] == ds.tau_out[row]
                assert rad[t] == ds.h_rad[row]


class TestBuildDesign:
    def test_shapes(self):
        ds = random_dataset(K=2, T=2, M=1, seed=2)
        d = build_design(ds, T_occ=2)
        assert d.tau.shape == (3, 2)
        assert d.c0.shape == (2, 2)
        assert d.c1_block(1).shape == (2, 2)
        assert d.c2.shape == (2, 2)
        assert d.c3.shape == (2, 2)
        assert d.c4.shape == (2, 2)

    def test_c2_is_row_sum_of_loads(self):
        ds = tiny_dataset([[10, 10], [20, 20], [30, 30]], K=2, T=2, M=1)
        ds.h_load[:] = [[0, 0], [1, 2], [3, 4]]
        d = build_design(ds, T_occ=2)
        assert d.c2[:, 0].tolist() == [3.0, 7.0]

    def test_occupancy_slots(self):
        assert occupancy_slots(4, 2).tolist() == [0, 1, 0, 1]
        assert occupancy_slots(5, 3).tolist() == [0, 1, 2, 0, 1]
        assert occupancy_slots(2, 48).tolist() == [0, 1]
        assert occupancy_slots(3, np.int64(1)).tolist() == [0, 0, 0]
        assert occupancy_slots(4, 2).dtype.kind == "i"

    @pytest.mark.parametrize("t_occ", [0, -3])
    def test_occupancy_period_below_one_rejected(self, t_occ):
        with pytest.raises(ValueError, match=rf"^T_occ must be >= 1, got {t_occ}$"):
            occupancy_slots(4, t_occ)
        with pytest.raises(ValueError, match=rf"^T_occ must be >= 1, got {t_occ}$"):
            build_design(random_dataset(K=2, T=4, M=1), T_occ=t_occ)

    @pytest.mark.parametrize("t_occ", [2.0, 2.5, "2", None])
    def test_non_integer_occupancy_period_rejected(self, t_occ):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            occupancy_slots(4, t_occ)
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            build_design(random_dataset(K=2, T=4, M=1), T_occ=t_occ)

    def test_invariants_on_random_data(self):
        ds = random_dataset(K=3, T=7, M=2, seed=3)
        d = build_design(ds, T_occ=3)
        assert np.array_equal(d.c0, lag_view(ds.tau_in, 2, 0))
        for m in range(1, 3):
            assert np.array_equal(d.c1_block(m), lag_view(ds.tau_in, 2, m))
            assert np.allclose(d.c2[:, m], lag_view(ds.h_load, 2, m) @ np.ones(3))
            assert np.array_equal(d.c3[:, m], lag_view(ds.tau_out, 2, m))
            assert np.array_equal(d.c4[:, m], lag_view(ds.h_rad, 2, m))
        slots = occupancy_slots(d.T, d.T_occ)
        assert slots.shape == (7,) and slots.min() == 0 and slots.max() == 2


class TestLagFilter:
    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        M=st.integers(1, 3),
        T=st.integers(1, 10),
        cols=st.sampled_from([None, 1, 2, 4]),
    )
    def test_matches_definition_and_filter_map(self, data, M, T, cols):
        """The filter is the scalar-loop definition bit for bit, and equals
        its own filter map (the filter of the identity) applied to the series."""
        shape = (T + M,) if cols is None else (T + M, cols)
        finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
        series = data.draw(hnp.arrays(np.float64, shape, elements=finite))
        alpha = data.draw(hnp.arrays(np.float64, (M,), elements=st.floats(-2.0, 2.0)))
        got = lag_filter(series, M, alpha)
        assert got.shape == (T,) + shape[1:]
        assert np.array_equal(got, forward_hat(series, alpha))
        F = lag_filter(np.eye(T + M), M, alpha)
        assert F.shape == (T, T + M)
        scale = 1.0 + float(np.max(np.abs(series))) * (1.0 + float(np.sum(np.abs(alpha))))
        assert np.max(np.abs(F @ series - got), initial=0.0) <= 1e-12 * scale
        wrong = data.draw(st.sampled_from([M - 1, M + 1]))
        with pytest.raises(ValueError, match="alpha must have"):
            lag_filter(series, M, np.ones(wrong))

    def test_input_shapes_rejected(self):
        with pytest.raises(ValueError, match="more than M=2 rows"):
            lag_filter(np.ones(2), 2, [0.5, 0.5])
        with pytest.raises(ValueError, match="1-D or 2-D"):
            lag_filter(np.ones((5, 2, 2)), 2, [0.5, 0.5])


class TestAggregateState:
    def test_identity(self):
        assert aggregate_state([1.0], [[21.5]]).tolist() == [21.5]

    def test_midpoint(self):
        assert aggregate_state([0.5, 0.5], [[20.0, 22.0]]).tolist() == [21.0]

    def test_equal_masses_mean(self):
        # equal air masses over 7 zones: weights 1/7 each
        xi = np.full(7, 1.0 / 7.0)
        row = np.arange(7, dtype=float) + 18.0
        out = aggregate_state(xi, row[None, :])
        assert np.allclose(out, row.mean())

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(4)
        xi = rng.uniform(0, 1, 5)
        xi /= xi.sum()
        tau = rng.standard_normal((9, 5)) + 20
        expected = [sum(xi[i] * tau[t, i] for i in range(5)) for t in range(9)]
        assert np.allclose(aggregate_state(xi, tau), expected, rtol=1e-12)

    def test_linear_and_permutation_equivariant(self):
        rng = np.random.default_rng(5)
        tau = rng.standard_normal((6, 4))
        xi1, xi2 = rng.uniform(0, 1, 4), rng.uniform(0, 1, 4)
        a, b = 0.3, 0.7
        assert np.allclose(
            aggregate_state(a * xi1 + b * xi2, tau),
            a * aggregate_state(xi1, tau) + b * aggregate_state(xi2, tau),
        )
        perm = rng.permutation(4)
        assert np.allclose(
            aggregate_state(xi1[perm], tau[:, perm]), aggregate_state(xi1, tau)
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            aggregate_state([0.5, 0.5], np.zeros((3, 3)))


def predict_oracle(params, design, init_history):
    """Direct transcription of the cluster recursion, term group by term group."""
    M, T = params.M, design.T
    hist = list(init_history)
    out = []
    for t in range(T):
        v = 0.0
        for m in range(1, M + 1):
            past = out[t - m] if t - m >= 0 else hist[M + (t - m)]
            v += params.alpha[m - 1] * past
        for m in range(M + 1):
            v += params.beta[m] * design.c2[t, m]
        for m in range(M + 1):
            v += params.gamma[m] * design.c3[t, m]
        for m in range(M + 1):
            v += params.theta[m] * design.c4[t, m]
        v += params.tau_occ_free[t % design.T_occ]
        out.append(v)
    return np.array(out)


class TestPredictAggregate:
    def test_pure_persistence(self):
        from _common import zero_design

        d = zero_design(K=1, T=5, M=1, T_occ=2)
        p = AtdmParameters(
            xi=[1.0], alpha=[1.0], beta=[0, 0], gamma=[0, 0], theta=[0, 0],
            tau_occ_free=[0.0, 0.0],
        )
        assert np.allclose(predict_aggregate(p, d, [20.0]), 20.0)

    def test_direct_feedthrough(self):
        from _common import zero_design

        d = zero_design(K=1, T=2, M=1, T_occ=2)
        d.c2[:, 0] = [5.0, 6.0]
        p = AtdmParameters(
            xi=[1.0], alpha=[0.0], beta=[1.0, 0.0], gamma=[0, 0], theta=[0, 0],
            tau_occ_free=[0.0, 0.0],
        )
        assert predict_aggregate(p, d, [0.0]).tolist() == [5.0, 6.0]

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("T", [10, 50])
    def test_matches_recursion_oracle_exactly(self, seed, T):
        d = random_design(K=3, T=T, M=2, T_occ=4, seed=seed)
        p = random_params(K=3, M=2, T_occ=4, seed=seed)
        init = np.random.default_rng(seed).uniform(18, 22, 2)
        assert np.array_equal(predict_aggregate(p, d, init), predict_oracle(p, d, init))

    @pytest.mark.parametrize("K, M, T_occ", [(3, 1, 4), (2, 2, 4), (3, 2, 6), (3, 2, 3)])
    def test_mismatched_parameters_rejected(self, K, M, T_occ):
        """Parameters of another size, order or occupancy period than the
        design are refused, by the forward simulation as by ``objective``."""
        from aggtherm.estimator import objective

        d = random_design(K=3, T=10, M=2, T_occ=4, seed=1)
        p = random_params(K=K, M=M, T_occ=T_occ, seed=1)
        match = rf"^parameter dims \(K, M, T_occ\) = \({K}, {M}, {T_occ}\) do not match design \(3, 2, 4\)$"
        with pytest.raises(ValueError, match=match):
            predict_aggregate(p, d, np.full(M, 20.0))
        with pytest.raises(ValueError, match=match):
            objective(p, d, 1.0)

    def test_unstable_reports_period(self):
        from _common import zero_design

        d = zero_design(K=1, T=400, M=1, T_occ=2)
        d.c2[:, 0] = 1.0
        p = AtdmParameters(
            xi=[1.0], alpha=[3.0], beta=[1.0, 0.0], gamma=[0, 0], theta=[0, 0],
            tau_occ_free=[0.0, 0.0],
        )
        with pytest.raises(FloatingPointError, match="period"):
            predict_aggregate(p, d, [1e300])


class TestSplitDataset:
    def test_paper_proportion(self):
        ds = random_dataset(K=2, T=1440, M=2, seed=6)
        train, test = split_dataset(ds, 0.75)
        assert train.T == 1080 and test.T == 360

    def test_half_split(self):
        ds = random_dataset(K=2, T=10, M=2, seed=7)
        train, test = split_dataset(ds, 0.5)
        assert train.T == 5 and test.T == 5

    def test_too_short(self):
        ds = random_dataset(K=2, T=3, M=2, seed=8)
        with pytest.raises(ValueError):
            split_dataset(ds, 0.99)

    def test_test_history_overlaps_train_tail(self):
        ds = random_dataset(K=2, T=10, M=2, seed=9)
        train, test = split_dataset(ds, 0.5)
        assert np.array_equal(test.tau_in[:2], ds.tau_in[5:7])
        assert np.array_equal(train.tau_in, ds.tau_in[:7])
        assert np.array_equal(
            np.vstack([train.tau_in, test.tau_in[2:]]), ds.tau_in
        )


class TestMetrics:
    def test_perfect_prediction(self):
        m = evaluate_metrics([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert m.rmse == 0 and m.mape == 0 and m.r2 == 1

    def test_constant_real_r2_guard(self):
        with pytest.raises(ValueError, match="R\\^2"):
            evaluate_metrics([2.0, 2.0], [1.0, 1.0])

    def test_near_zero_real_mape_guard(self):
        with pytest.raises(ValueError, match="MAPE"):
            evaluate_metrics([1.0, 2.0], [0.0, 2.0])

    def test_formulas_against_scalar_loops(self):
        rng = np.random.default_rng(10)
        real = 20 + rng.standard_normal(50)
        pred = real + 0.3 * rng.standard_normal(50)
        m = evaluate_metrics(pred, real)
        T = 50
        rmse = (sum((pred[t] - real[t]) ** 2 for t in range(T)) / T) ** 0.5
        mape = 100.0 / T * sum(abs((pred[t] - real[t]) / real[t]) for t in range(T))
        mean = sum(real) / T
        r2 = 1 - sum((pred[t] - real[t]) ** 2 for t in range(T)) / sum(
            (real[t] - mean) ** 2 for t in range(T)
        )
        assert np.isclose(m.rmse, rmse, rtol=1e-12)
        assert np.isclose(m.mape, mape, rtol=1e-12)
        assert np.isclose(m.r2, r2, rtol=1e-12)

    def test_rmse_symmetry_and_mean_predictor(self):
        rng = np.random.default_rng(11)
        a = 15 + rng.standard_normal(30)
        b = 15 + rng.standard_normal(30)
        assert np.isclose(evaluate_metrics(a, b).rmse, evaluate_metrics(b, a).rmse)
        const = np.full(30, a.mean())
        assert abs(evaluate_metrics(const, a).r2) < 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            evaluate_metrics([1.0], [1.0, 2.0])


class TestDatasetValidation:
    def test_rejects_nan(self):
        rows = np.ones((4, 1)) * 20
        rows[2, 0] = np.nan
        with pytest.raises(ValueError, match="tau_in"):
            ClusterDataset(K=1, T=3, M=1, dt_minutes=30, tau_in=rows,
                           h_load=np.ones((4, 1)), tau_out=np.zeros(4), h_rad=np.zeros(4))

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError, match="tau_out"):
            ClusterDataset(K=1, T=3, M=1, dt_minutes=30, tau_in=np.ones((4, 1)),
                           h_load=np.ones((4, 1)), tau_out=np.zeros(3), h_rad=np.zeros(4))

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            ClusterDataset(K=0, T=3, M=1, dt_minutes=30, tau_in=np.ones((4, 0)),
                           h_load=np.ones((4, 0)), tau_out=np.zeros(4), h_rad=np.zeros(4))
