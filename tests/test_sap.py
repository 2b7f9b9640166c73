import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from aggtherm.model import ClusterDataset, build_design
from aggtherm.protocol.sap import (
    FRAC_BITS,
    KIND_SAP_LOAD,
    KIND_SAP_S,
    KIND_TE_A1,
    KIND_TE_W,
    PairwiseMaskSet,
    assemble_sp1_inputs,
    decode_fixed,
    encode_fixed,
    fixed_point_bound,
    sap_aggregate,
    sap_mask,
)


class FixedMasks:
    """Stub mask source with a constant uint64 pair mask, for hand-checked examples."""

    def __init__(self, agent_ids, value):
        self.agent_ids = sorted(agent_ids)
        self.value = value

    def mask(self, i, j, kind, sub, shape):
        return np.full(shape, self.value, dtype=np.uint64)


ONE = 1 << FRAC_BITS  # fixed-point encoding of 1.0


class TestSapMask:
    def test_two_agent_telescoping(self):
        # a mask near 2^64 makes agent 1's share wrap and agent 2's go below 0
        masks = FixedMasks([1, 2], 2**64 - 5)
        x1 = sap_mask(np.array([1.0]), 1, masks, KIND_SAP_S)
        x2 = sap_mask(np.array([2.0]), 2, masks, KIND_SAP_S)
        assert x1.dtype == x2.dtype == np.uint64
        assert x1.tolist() == [ONE - 5]
        assert x2.tolist() == [2 * ONE + 5]
        assert sap_aggregate([x1, x2]).tolist() == [3.0]

    def test_zero_masks_identity(self):
        masks = FixedMasks([1, 2, 3], 0)
        x = np.arange(4.0) - 1.5
        share = sap_mask(x, 2, masks, KIND_SAP_S)
        assert np.array_equal(share, encode_fixed(x, 3))
        assert np.array_equal(decode_fixed(share), x)

    @pytest.mark.parametrize("shape", [(7,), (5, 3), (4, 4)])
    def test_sum_invariance_random_tensors(self, shape):
        rng = np.random.default_rng(0)
        ids = [1, 2, 3, 4, 5]
        masks = PairwiseMaskSet(123, ids, iteration=0)
        xs = [rng.standard_normal(shape) * 20 for _ in ids]
        masked = [sap_mask(x, i, masks, KIND_SAP_S, sub=1) for i, x in zip(ids, xs)]
        total = sum(xs)
        assert np.allclose(sap_aggregate(masked), total, rtol=1e-10, atol=1e-10)
        # masks actually moved the individual shares
        for x, xm in zip(xs, masked):
            assert not np.allclose(x, decode_fixed(xm))

    def test_mask_streams_are_pair_and_kind_specific(self):
        masks = PairwiseMaskSet(5, [1, 2, 3], iteration=0)
        a = masks.mask(1, 2, KIND_SAP_S, 0, (6,))
        assert np.array_equal(a, masks.mask(1, 2, KIND_SAP_S, 0, (6,)))
        assert not np.array_equal(a, masks.mask(1, 3, KIND_SAP_S, 0, (6,)))
        assert not np.array_equal(a, masks.mask(1, 2, KIND_TE_A1, 0, (6,)))
        assert not np.array_equal(a, masks.mask(1, 2, KIND_SAP_S, 1, (6,)))

    def test_masks_fresh_every_iteration(self):
        m0 = PairwiseMaskSet(5, [1, 2], iteration=0).mask(1, 2, KIND_SAP_S, 0, (8,))
        m1 = PairwiseMaskSet(5, [1, 2], iteration=1).mask(1, 2, KIND_SAP_S, 0, (8,))
        assert not np.array_equal(m0, m1)

    def test_unordered_pair_rejected(self):
        masks = PairwiseMaskSet(5, [1, 2], iteration=0)
        with pytest.raises(ValueError):
            masks.mask(2, 1, KIND_SAP_S, 0, (3,))

    def test_out_of_range_input_rejected(self):
        K = 4
        masks = PairwiseMaskSet(5, range(1, K + 1), iteration=0)
        bound = fixed_point_bound(K)
        assert bound == 2.0 ** (62 - FRAC_BITS) / K
        # just inside the bound encodes; the bound itself, beyond it and
        # non-finite entries are refused with the bound named
        sap_mask(np.array([np.nextafter(bound, 0.0), -np.nextafter(bound, 0.0)]), 1, masks, KIND_SAP_S)
        for bad in (bound, -bound, 1e300, np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError, match=f"< {bound!r}"):
                sap_mask(np.array([1.0, bad]), 1, masks, KIND_SAP_S)

    def test_sum_at_the_bound_does_not_wrap(self):
        K = 8
        masks = PairwiseMaskSet(9, range(1, K + 1), iteration=0)
        top = np.nextafter(fixed_point_bound(K), 0.0)
        for sign in (1.0, -1.0):
            shares = [sap_mask(np.array([sign * top]), i, masks, KIND_TE_W) for i in range(1, K + 1)]
            assert sap_aggregate(shares)[0] == K * decode_fixed(encode_fixed([sign * top], K))[0]

    def test_float_shares_rejected(self):
        with pytest.raises(ValueError, match="uint64"):
            sap_aggregate([np.zeros(3), np.zeros(3)])
        with pytest.raises(ValueError, match="dtype"):
            sap_aggregate([np.zeros(3, dtype=np.uint64), np.zeros(3)])

    def test_shape_mismatch_in_aggregate(self):
        with pytest.raises(ValueError):
            sap_aggregate([np.zeros(3), np.zeros(4)])
        with pytest.raises(ValueError):
            sap_aggregate([])


def check_sliced_lags_match_design(K, T, M, seed):
    """Each agent masks one weighted temperature series and one load series
    of T + M rows; the coordinator aggregates them and slices the lags.  The
    sliced regressors equal the centrally built design's to 1e-9 relative."""
    rng = np.random.default_rng(seed)
    n = T + M
    dataset = ClusterDataset(
        K=K, T=T, M=M, dt_minutes=30.0,
        tau_in=20.0 + rng.standard_normal((n, K)),
        h_load=np.abs(rng.standard_normal((n, K))),
        tau_out=rng.standard_normal(n), h_rad=rng.standard_normal(n),
    )
    design = build_design(dataset, T_occ=1)
    xi = rng.dirichlet(np.ones(K))
    ids = list(range(1, K + 1))
    masks = PairwiseMaskSet(seed, ids, iteration=0)
    s_sum = sap_aggregate(
        [sap_mask(xi[i - 1] * dataset.tau_in[:, i - 1], i, masks, KIND_SAP_S) for i in ids]
    )
    load_sum = sap_aggregate(
        [sap_mask(dataset.h_load[:, i - 1], i, masks, KIND_SAP_LOAD) for i in ids]
    )
    c0_xi, c1_xi_cols, c2 = assemble_sp1_inputs(s_sum, load_sum, M)

    def close(got, want):
        return np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))

    assert c0_xi.shape == (T,) and c1_xi_cols.shape == (T, M) and c2.shape == (T, M + 1)
    assert close(c0_xi, design.c0 @ xi)
    for m in range(1, M + 1):
        assert close(c1_xi_cols[:, m - 1], design.c1_block(m) @ xi)
    assert close(c2, design.c2)


class TestAssembleSp1Inputs:
    def test_single_zone_degenerate(self):
        series = np.array([19.0, 20.0, 21.0, 22.0])
        xi1 = 0.37  # not 1, to make the scaling visible
        c0_xi, c1_cols, c2 = assemble_sp1_inputs(xi1 * series, series, 1)
        assert np.allclose(c0_xi, xi1 * series[1:])
        assert np.allclose(c1_cols[:, 0], xi1 * series[:-1])
        assert np.array_equal(c2, np.column_stack([series[1:], series[:-1]]))

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_central_computation(self, seed):
        check_sliced_lags_match_design(K=6, T=30, M=2, seed=seed)

    def test_incomplete_aggregation_rejected(self):
        with pytest.raises(ValueError):
            assemble_sp1_inputs(np.zeros(5), np.zeros(4), 2)
        with pytest.raises(ValueError):
            assemble_sp1_inputs(np.zeros(2), np.zeros(2), 2)
        with pytest.raises(ValueError):
            assemble_sp1_inputs(np.zeros((5, 1)), np.zeros((5, 1)), 2)


@settings(max_examples=100, deadline=None)
@given(
    K=st.integers(2, 6),
    M=st.sampled_from([1, 2, 3]),
    T=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_sliced_lags_match_design(K, M, T, seed):
    check_sliced_lags_match_design(K, T, M, seed)


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    K=st.integers(2, 8),
    shape=hnp.array_shapes(min_dims=1, max_dims=2, min_side=1, max_side=6),
    seed=st.integers(0, 2**32 - 1),
    iteration=st.integers(0, 5),
    kind=st.sampled_from([KIND_SAP_S, KIND_SAP_LOAD, KIND_TE_A1]),
)
def test_ring_aggregate_is_exact_in_any_order(data, K, shape, seed, iteration, kind):
    """The decoded aggregate is the sum of the quantized inputs bit for bit,
    whatever the share order, and no share equals its encoded input."""
    bound = fixed_point_bound(K)
    entries = st.floats(-bound, bound, exclude_min=True, exclude_max=True)
    xs = [data.draw(hnp.arrays(np.float64, shape, elements=entries)) for _ in range(K)]
    ids = list(range(1, K + 1))
    masks = PairwiseMaskSet(seed, ids, iteration=iteration)
    shares = [sap_mask(x, i, masks, kind) for i, x in zip(ids, xs)]
    # reference: the integer sum of the fixed-point encodings, exact in
    # int64 because the bound keeps it below 2^62
    quantized = [np.rint(x * 2.0**FRAC_BITS).astype(np.int64) for x in xs]
    want = np.sum(quantized, axis=0) / 2.0**FRAC_BITS
    order = data.draw(st.permutations(range(K)))
    got = sap_aggregate([shares[k] for k in order])
    assert got.dtype == np.float64 and got.shape == shape
    assert got.tobytes() == want.tobytes()
    assert np.array_equal(sap_aggregate(shares), got)
    for x, share in zip(xs, shares):
        assert share.dtype == np.uint64
        assert not np.array_equal(share, encode_fixed(x, K))
