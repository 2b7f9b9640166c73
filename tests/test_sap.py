import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from aggtherm.estimator import solve_sp1, solve_sp1_from_parts
from aggtherm.model import ClusterDataset, build_design, lag_columns
from aggtherm.protocol import BuildingAgent, ProtocolConfig, run_protocol
from aggtherm.protocol.messages import Phase
from aggtherm.protocol.sap import (
    FRAC_BITS,
    SEGMENT,
    PairwiseMaskSet,
    check_fixed_range,
    decode_fixed,
    encode_fixed,
    fixed_point_bound,
    sap_aggregate,
    sap_mask,
)

from _common import synthetic_instance


class FixedMasks(PairwiseMaskSet):
    """Mask set whose every pair mask is one constant uint64, for
    hand-checked examples; it inherits ``net_mask``."""

    def __init__(self, agent_ids, value):
        super().__init__(0, agent_ids)
        self.value = value

    def mask(self, i, j, phase, shape):
        return np.full(shape, self.value, dtype=np.uint64)


ONE = 1 << FRAC_BITS  # fixed-point encoding of 1.0
# the masked uploads, in segment order: each phase's stream is segment int(phase)
UPLOADS = [Phase.SAP_S, Phase.SAP_LOAD, Phase.TE_A1, Phase.TE_A2, Phase.TE_W]


def harary_neighbours(ids, agent_id):
    """The agents ``agent_id`` masks with, worked out from positions alone:
    with the ids sorted, the agent at position a masks with those at
    positions a +- 1, ..., a +- h (mod K), h = ceil(log2 K)."""
    ids = sorted(ids)
    K, a = len(ids), ids.index(agent_id)
    h = math.ceil(math.log2(K))
    return {ids[(a + s * d) % K] for d in range(1, h + 1) for s in (1, -1)} - {agent_id}


class TestSapMask:
    def test_two_agent_telescoping(self):
        # a mask near 2^64 makes agent 1's share wrap and agent 2's go below 0
        masks = FixedMasks([1, 2], 2**64 - 5)
        x1 = sap_mask(np.array([1.0]), 1, masks, Phase.SAP_S)
        x2 = sap_mask(np.array([2.0]), 2, masks, Phase.SAP_S)
        assert x1.dtype == x2.dtype == np.uint64
        assert x1.tolist() == [ONE - 5]
        assert x2.tolist() == [2 * ONE + 5]
        assert sap_aggregate([x1, x2]).tolist() == [3.0]

    def test_zero_masks_identity(self):
        masks = FixedMasks([1, 2, 3], 0)
        x = np.arange(4.0) - 1.5
        share = sap_mask(x, 2, masks, Phase.SAP_S)
        assert np.array_equal(share, encode_fixed(x, 3))
        assert np.array_equal(decode_fixed(share), x)

    @pytest.mark.parametrize("shape", [(7,), (5, 3), (4, 4)])
    def test_sum_invariance_random_tensors(self, shape):
        rng = np.random.default_rng(0)
        ids = [1, 2, 3, 4, 5]
        masks = PairwiseMaskSet(123, ids)
        xs = [rng.standard_normal(shape) * 20 for _ in ids]
        masked = [sap_mask(x, i, masks, Phase.SAP_LOAD) for i, x in zip(ids, xs)]
        total = sum(xs)
        assert np.allclose(sap_aggregate(masked), total, rtol=1e-10, atol=1e-10)
        # masks actually moved the individual shares
        for x, xm in zip(xs, masked):
            assert not np.allclose(x, decode_fixed(xm))

    def test_mask_streams_are_pair_and_kind_specific(self):
        """A stream's kind is its upload phase."""
        masks = PairwiseMaskSet(5, [1, 2, 3])
        a = masks.mask(1, 2, Phase.SAP_S, (6,))
        assert np.array_equal(a, masks.mask(1, 2, Phase.SAP_S, (6,)))
        assert not np.array_equal(a, masks.mask(1, 3, Phase.SAP_S, (6,)))
        assert not np.array_equal(a, masks.mask(1, 2, Phase.TE_A1, (6,)))

    def test_unordered_pair_rejected(self):
        masks = PairwiseMaskSet(5, [1, 2])
        with pytest.raises(ValueError):
            masks.mask(2, 1, Phase.SAP_S, (3,))

    def test_duplicate_agent_ids_rejected(self):
        with pytest.raises(ValueError, match=r"duplicate agent id\(s\) \[2\]"):
            PairwiseMaskSet(1, [1, 2, 2])

    @pytest.mark.parametrize("ids", [[4], []])
    def test_lone_agent_rejected(self, ids):
        """A lone agent has no partner to mask with: its share would be its
        encoded input in the clear."""
        with pytest.raises(ValueError, match=f"at least 2 agents, got {re.escape(str(ids))}"):
            PairwiseMaskSet(1, ids)

    @pytest.mark.parametrize(
        "phase, shape, match",
        [
            (99, (3,), "^mask stream 99 is not a Phase$"),
            (-1, (3,), "^mask stream -1 is not a Phase$"),
            (3, (3,), "^mask stream 3 is not a Phase$"),  # TE_A1's code, but not a Phase
            (Phase.TE_A1, (2**24, 2**24 + 1), f"{SEGMENT + 2**24} words is longer than its segment"),
        ],
        ids=["99", "-1", "bare-code", "too-long"],
    )
    def test_stream_outside_the_layout_rejected(self, phase, shape, match):
        masks = PairwiseMaskSet(1, [1, 2])
        with pytest.raises(ValueError, match=match):
            masks.mask(1, 2, phase, shape)

    def test_net_mask_and_sap_mask_reject_a_stream_that_is_not_a_phase(self):
        masks = PairwiseMaskSet(1, [1, 2])
        with pytest.raises(ValueError, match="^mask stream 99 is not a Phase$"):
            masks.net_mask(1, 99, (3,))
        with pytest.raises(ValueError, match="^mask stream 99 is not a Phase$"):
            sap_mask(np.zeros(3), 1, masks, 99)

    def test_net_mask_and_sap_mask_reject_an_over_long_stream_before_allocating(self):
        """The request is checked before the K net sums are allocated, so an
        over-long stream gets the named error, not numpy's MemoryError."""
        masks = PairwiseMaskSet(1, [1, 2, 3])
        shape = (2**24, 2**24 + 1)
        match = f"^mask stream of {SEGMENT + 2**24} words is longer than its segment of {SEGMENT}$"
        with pytest.raises(ValueError, match=match):
            masks.net_mask(1, Phase.SAP_S, shape)
        with pytest.raises(ValueError, match=match):
            sap_mask(np.broadcast_to(0.0, shape), 1, masks, Phase.SAP_S)  # a view; nothing allocated
        assert masks._pending == {}

    def test_unknown_pair_rejected(self):
        masks = PairwiseMaskSet(5, [1, 2, 4])
        with pytest.raises(ValueError, match=r"pair \(1, 3\) is not in this mask set"):
            masks.mask(1, 3, Phase.SAP_S, (3,))

    def test_out_of_range_input_rejected(self):
        K = 4
        masks = PairwiseMaskSet(5, range(1, K + 1))
        bound = fixed_point_bound(K)
        assert bound == 2.0 ** (62 - FRAC_BITS) / K
        # just inside the bound encodes; the bound itself, beyond it and
        # non-finite entries are refused with the bound named
        sap_mask(np.array([np.nextafter(bound, 0.0), -np.nextafter(bound, 0.0)]), 1, masks, Phase.SAP_S)
        for bad in (bound, -bound, 1e300, np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError, match=f"< {bound!r}"):
                sap_mask(np.array([1.0, bad]), 1, masks, Phase.SAP_S)

    def test_range_error_names_largest_entry(self):
        """The one range check names what it checked, the entry of largest
        magnitude (a NaN before any other) and the bound."""
        tail = ", which is non-finite or outside the fixed-point range |x| < 65536.0 (2^18/K for K=4)"
        for x, peak in (([1.0, -9e5, 7e5], "-900000.0"), ([1e6, np.nan, np.inf], "nan")):
            with pytest.raises(ValueError, match="^" + re.escape(f"loads has entry {peak}{tail}") + "$"):
                check_fixed_range(np.array(x), 4, "loads")
        check_fixed_range(np.array([65535.0, -65535.0]), 4, "loads")

    def test_sum_at_the_bound_does_not_wrap(self):
        K = 8
        masks = PairwiseMaskSet(9, range(1, K + 1))
        top = np.nextafter(fixed_point_bound(K), 0.0)
        for sign in (1.0, -1.0):
            shares = [sap_mask(np.array([sign * top]), i, masks, Phase.TE_W) for i in range(1, K + 1)]
            assert sap_aggregate(shares)[0] == K * decode_fixed(encode_fixed([sign * top], K))[0]

    def test_unknown_agent_rejected(self):
        masks = PairwiseMaskSet(5, [1, 2, 4])
        with pytest.raises(ValueError, match="agent 3 is not in this mask set"):
            sap_mask(np.zeros(2), 3, masks, Phase.SAP_S)

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


def ctr_keystream(key: bytes, segment: int, n_words: int) -> np.ndarray:
    """The first ``n_words`` words of AES-128-CTR under ``key`` from the
    segment's first counter block, read as little-endian 64-bit words."""
    from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

    first = (segment * SEGMENT // 2).to_bytes(16, "big")
    enc = Cipher(algorithms.AES(key), modes.CTR(first)).encryptor()
    n_blocks = -(-n_words // 2)
    return np.frombuffer(enc.update(bytes(16 * n_blocks)), dtype="<u8")[:n_words]


class TestAesCounterLayout:
    """Known answers: each mask is a segment of the pair's AES-128-CTR
    keystream, under a key cut from the set's one ``SeedSequence``, in the
    order of the sorted pairs whatever the agent ids."""

    IDS = [2, 5, 9]
    PAIRS = [(2, 5), (2, 9), (5, 9)]

    def pair_keys(self, seed, shift=0):
        """Each pair's key, with ``shift`` added to every agent id."""
        state = np.random.SeedSequence(seed, spawn_key=(1000,)).generate_state(4 * len(self.PAIRS))
        raw = state.astype("<u4").tobytes()
        return {(i + shift, j + shift): raw[16 * n : 16 * (n + 1)] for n, (i, j) in enumerate(self.PAIRS)}

    @pytest.mark.parametrize("seed, shift", [(17, 0), (17, 3), (2**40 + 5, 1)])
    @pytest.mark.parametrize("n_words", [1, 2, 7, 10])
    def test_mask_is_the_pair_keys_ctr_keystream(self, seed, shift, n_words):
        keys = self.pair_keys(seed, shift)
        masks = PairwiseMaskSet(seed, [i + shift for i in self.IDS])
        for pair, key in keys.items():
            for phase in UPLOADS:
                want = ctr_keystream(key, int(phase), n_words)
                got = masks.mask(*pair, phase, (n_words,))
                assert got.dtype == np.uint64 and got.shape == (n_words,)
                assert got.tobytes() == want.tobytes(), (pair, phase)

    def test_shaped_mask_is_the_keystream_in_row_major_order(self):
        keys = self.pair_keys(6)
        masks = PairwiseMaskSet(6, self.IDS)
        got = masks.mask(5, 9, Phase.TE_A2, (3, 5))
        want = ctr_keystream(keys[5, 9], 6, 15).reshape(3, 5)
        assert got.shape == (3, 5) and np.array_equal(got, want)


class TestMaskShapes:
    """``mask`` and ``net_mask`` read a shape the same way: an int is a 1-D
    shape, and a negative or non-integer dimension is refused."""

    def test_int_and_tuple_shapes_agree(self):
        masks = PairwiseMaskSet(3, [1, 2, 3])
        assert np.array_equal(masks.mask(1, 2, Phase.SAP_S, 5), masks.mask(1, 2, Phase.SAP_S, (5,)))
        assert np.array_equal(
            masks.mask(1, 3, Phase.TE_A1, (np.int64(2), 3)), masks.mask(1, 3, Phase.TE_A1, [2, 3])
        )
        by_int = PairwiseMaskSet(3, [1, 2, 3])
        by_tuple = PairwiseMaskSet(3, [1, 2, 3])
        for i in (2, 1, 3):
            got = by_int.net_mask(i, Phase.SAP_S, 5)
            assert got.shape == (5,) and np.array_equal(got, by_tuple.net_mask(i, Phase.SAP_S, (5,)))

    def test_empty_shapes(self):
        masks = PairwiseMaskSet(3, [1, 2])
        assert masks.mask(1, 2, Phase.SAP_S, (0, 3)).shape == (0, 3)
        assert masks.net_mask(2, Phase.SAP_S, 0).shape == (0,)

    @pytest.mark.parametrize("shape", [(-1,), (3, -2), -4, (2.5,), 2.0, (3, None), "ab", [1.0]])
    def test_bad_shape_rejected_by_both(self, shape):
        masks = PairwiseMaskSet(3, [1, 2])
        match = re.escape(f"mask shape {shape!r} must have non-negative integer dimensions")
        with pytest.raises(ValueError, match=match):
            masks.mask(1, 2, Phase.SAP_S, shape)
        with pytest.raises(ValueError, match=match):
            masks.net_mask(1, Phase.SAP_S, shape)

    def test_float_dimensions_rejected_after_their_int_twin(self):
        """A cached stream of (5,) does not let (5.0,) through."""
        masks = PairwiseMaskSet(3, [1, 2])
        masks.mask(1, 2, Phase.SAP_S, (5,))
        with pytest.raises(ValueError, match="mask shape"):
            masks.mask(1, 2, Phase.SAP_S, (5.0,))


def aggregated_series(K, T, M, seed):
    """Each agent masks one weighted temperature series and one load series
    of T + M rows, and the coordinator aggregates them.  Returns (design,
    xi, s_sum, load_sum) for the same data built centrally."""
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
    masks = PairwiseMaskSet(seed, ids)
    s_sum = sap_aggregate(
        [sap_mask(xi[i - 1] * dataset.tau_in[:, i - 1], i, masks, Phase.SAP_S) for i in ids]
    )
    load_sum = sap_aggregate(
        [sap_mask(dataset.h_load[:, i - 1], i, masks, Phase.SAP_LOAD) for i in ids]
    )
    return design, xi, s_sum, load_sum


def close(got, want):
    return np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


def check_sliced_lags_match_design(K, T, M, seed):
    """The lag columns the coordinator slices from the two sums (the
    dynamics-step inputs) equal the centrally built design's to 1e-9
    relative."""
    design, xi, s_sum, load_sum = aggregated_series(K, T, M, seed)
    s_lags, c2 = lag_columns(s_sum, M), lag_columns(load_sum, M)
    assert s_lags.shape == (T, M + 1) and c2.shape == (T, M + 1)
    assert close(s_lags[:, 0], design.c0 @ xi)
    for m in range(1, M + 1):
        assert close(s_lags[:, m], design.c1_block(m) @ xi)
    assert close(c2, design.c2)


def sp1_from_sums(s_sum, load_sum, M):
    """The coordinator's dynamics step on zero exogenous regressors."""
    c2 = lag_columns(load_sum, M)
    T = c2.shape[0]
    zeros = np.zeros((T, M + 1))
    return solve_sp1_from_parts(s_sum, c2, zeros, zeros, 1, 1.0, 0.0)


class TestAssembleSp1Inputs:
    """The coordinator's dynamics-step inputs: ``lag_columns`` of the two
    aggregated series, fed to ``solve_sp1_from_parts``."""

    def test_single_zone_degenerate(self):
        series = np.array([19.0, 20.0, 21.0, 22.0])
        xi1 = 0.37  # not 1, to make the scaling visible
        s_lags, c2 = lag_columns(xi1 * series, 1), lag_columns(series, 1)
        assert np.allclose(s_lags[:, 0], xi1 * series[1:])
        assert np.allclose(s_lags[:, 1], xi1 * series[:-1])
        assert np.array_equal(c2, np.column_stack([series[1:], series[:-1]]))

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_central_computation(self, seed):
        check_sliced_lags_match_design(K=6, T=30, M=2, seed=seed)
        # the dynamics step from the sums matches the plain one from the design
        design, xi, s_sum, load_sum = aggregated_series(K=6, T=30, M=2, seed=seed)
        got = solve_sp1_from_parts(
            s_sum, lag_columns(load_sum, 2), design.c3, design.c4, design.T_occ, 1.0, xi @ xi
        )
        want = solve_sp1(xi, design, 1.0)
        for g, w in zip(got, want):
            assert close(np.atleast_1d(g), np.atleast_1d(w))

    def test_incomplete_aggregation_rejected(self):
        with pytest.raises(ValueError, match="weighted series"):
            sp1_from_sums(np.zeros(5), np.zeros(4), 2)
        with pytest.raises(ValueError, match="weighted series"):
            sp1_from_sums(np.zeros(2), np.zeros(2), 2)
        with pytest.raises(ValueError, match="weighted series"):
            sp1_from_sums(np.zeros((5, 1)), np.zeros((5, 1)), 2)


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
    phase=st.sampled_from(UPLOADS),
)
def test_ring_aggregate_is_exact_in_any_order(data, K, shape, seed, phase):
    """The decoded aggregate is the sum of the quantized inputs bit for bit,
    whatever the share order, and no share equals its encoded input."""
    bound = fixed_point_bound(K)
    entries = st.floats(-bound, bound, exclude_min=True, exclude_max=True)
    xs = [data.draw(hnp.arrays(np.float64, shape, elements=entries)) for _ in range(K)]
    ids = list(range(1, K + 1))
    masks = PairwiseMaskSet(seed, ids)
    shares = [sap_mask(x, i, masks, phase) for i, x in zip(ids, xs)]
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


def reference_share(x, agent_id, masks, phase):
    """Per-pair masking: add each pair mask toward a higher-position Harary
    neighbour and subtract each toward a lower-position one, one partner at
    a time."""
    out = encode_fixed(x, len(masks.agent_ids))
    for j in sorted(harary_neighbours(masks.agent_ids, agent_id)):
        if j > agent_id:
            out += masks.mask(agent_id, j, phase, out.shape)
        elif j < agent_id:
            out -= masks.mask(j, agent_id, phase, out.shape)
    return out


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    ids=st.lists(st.integers(1, 100), min_size=2, max_size=8, unique=True).map(sorted),
    shape=hnp.array_shapes(min_dims=1, max_dims=2, min_side=1, max_side=5),
    seed=st.integers(0, 2**32 - 1),
    phase=st.sampled_from(UPLOADS),
)
def test_net_mask_matches_per_pair_reference(data, ids, shape, seed, phase):
    """Every agent's share equals the per-pair loop's bit for bit, whatever
    order the agents ask in, and a repeated request gets the same share."""
    assume(ids[-1] - ids[0] >= len(ids))  # ids with a gap, not 1..K
    rng = np.random.default_rng(seed)
    xs = {i: rng.standard_normal(shape) * 20 for i in ids}
    masks = PairwiseMaskSet(seed, ids)
    oracle = PairwiseMaskSet(seed, ids)
    order = data.draw(st.permutations(ids))
    repeat = data.draw(st.sampled_from(ids))
    order.insert(data.draw(st.integers(order.index(repeat) + 1, len(order))), repeat)
    for i in order:
        got = sap_mask(xs[i], i, masks, phase)
        want = reference_share(xs[i], i, oracle, phase)
        assert got.dtype == np.uint64 and got.shape == shape
        assert got.tobytes() == want.tobytes()


class TestMaskWork:
    """Each pair's key is derived once per set, and each of its streams is
    generated once per set, not once by each member of the pair."""

    @staticmethod
    def counting(monkeypatch):
        calls = []
        real = PairwiseMaskSet.mask

        def counted(self, i, j, phase, shape):
            calls.append((phase, i, j))
            return real(self, i, j, phase, shape)

        monkeypatch.setattr(PairwiseMaskSet, "mask", counted)
        return calls

    @pytest.mark.parametrize("K", [2, 3, 7, 8, 32])
    def test_one_call_per_pair_for_a_full_set_of_uploads(self, monkeypatch, K):
        """K * min(2h, K - 1) / 2 calls: every pair up to K = 7, then
        min(2h, K - 1) neighbours per agent."""
        calls = self.counting(monkeypatch)
        ids = list(range(1, K + 1))
        masks = PairwiseMaskSet(3, ids)
        for i in ids:
            sap_mask(np.ones((4, K)), i, masks, Phase.TE_A1)
        n_pairs = {2: 1, 3: 3, 7: 21, 8: 24, 32: 160}[K]
        assert len(calls) == n_pairs == K * min(2 * math.ceil(math.log2(K)), K - 1) // 2
        assert sorted(c[1:] for c in calls) == [
            (i, j) for i in ids for j in sorted(harary_neighbours(ids, i)) if i < j
        ]

    @pytest.mark.parametrize("K", [7, 32, 64])
    def test_sorted_requests_hold_at_most_2h_pending_sums(self, K):
        """Asked in sorted-id order, the set holds at most min(2h, K - 1)
        partial sums, not K: a pair's stream is kept for its second member
        only until that member asks.  The count only grows within a request,
        after the agent's own sum is taken, so reading it after each request
        reads its peak.  Every net mask is still the per-pair reference's."""
        ids = [3 * n + 2 for n in range(K)]  # ids with gaps, not 1..K
        masks = PairwiseMaskSet(9, ids)
        oracle = PairwiseMaskSet(9, ids)
        key = (Phase.TE_A1, (3, 2))
        held = []
        for i in ids:
            got = masks.net_mask(i, Phase.TE_A1, (3, 2))
            want = reference_share(np.zeros((3, 2)), i, oracle, Phase.TE_A1)
            assert got.tobytes() == want.tobytes()
            held.append(len(masks._pending.get(key, {})))
        assert max(held) == min(2 * math.ceil(math.log2(K)), K - 1)
        assert held[-1] == 0 and masks._pending == {}

    def test_same_request_same_words_in_any_order(self):
        """Each stream is random access into its pair's round stream: a
        request gets the same words whatever was asked before it, and again
        when repeated."""
        ids = [1, 3, 4, 7]
        requests = [((i, j), phase) for a, i in enumerate(ids) for j in ids[a + 1 :] for phase in UPLOADS]
        want = {r: PairwiseMaskSet(11, ids).mask(*r[0], r[1], (3, 2)) for r in requests}
        order = np.random.default_rng(0).permutation(len(requests)).tolist()
        masks = PairwiseMaskSet(11, ids)
        for k in order + order[:5]:
            r = requests[k]
            assert masks.mask(*r[0], r[1], (3, 2)).tobytes() == want[r].tobytes()

    def test_shapes_share_the_head_of_a_segment(self):
        masks = PairwiseMaskSet(11, [1, 2])
        long = masks.mask(1, 2, Phase.TE_A2, (4, 5))
        assert np.array_equal(masks.mask(1, 2, Phase.TE_A2, (7,)), long.ravel()[:7])

    def test_neighbouring_segments_and_rounds_differ(self):
        masks = PairwiseMaskSet(11, [1, 2])
        words = [masks.mask(1, 2, phase, (8,)) for phase in UPLOADS]
        for a, b in zip(words, words[1:]):  # segments 0, 1, 3, 6, 7 in turn
            assert not np.array_equal(a, b)
        assert len({w.tobytes() for w in words}) == len(words)

    def test_private_fit_derives_round_keys_once_per_round(self, monkeypatch):
        """One ``SeedSequence`` keyed by (seed, 1000), in round 0, the one
        round with masked uploads, and no other mask key derivation in any
        round."""
        rounds = []
        real = np.random.SeedSequence

        def counted(*args, **kwargs):
            key = kwargs.get("spawn_key", ())
            if key and 1000 <= key[0] < 2000:
                assert len(key) == 1
                rounds.append(key[0] - 1000)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.random, "SeedSequence", counted)
        dataset, _, _ = synthetic_instance(K=4, T=60, M=2, T_occ=6, noise=0.1, seed=8)
        fit, _ = run_protocol(dataset, ProtocolConfig(lam=10.0, T_occ=6, seed=8, scan=False))
        assert fit.iterations > 1
        assert rounds == [0]

    def test_private_fit_makes_one_stream_per_pair_per_upload(self, monkeypatch):
        """Five uploads in round 0 (the weighted series, the load, the three
        TE uploads) and none after it, as every upload is made once."""
        calls = self.counting(monkeypatch)
        K = 4
        dataset, _, _ = synthetic_instance(K=K, T=60, M=2, T_occ=6, noise=0.1, seed=8)
        fit, _ = run_protocol(dataset, ProtocolConfig(lam=10.0, T_occ=6, seed=8, scan=False))
        assert fit.iterations > 1
        assert len(calls) == 5 * K * (K - 1) // 2  # one mask set per run (test above)
        assert len(set(calls)) == len(calls)  # no stream generated twice


def connected(nodes, pairs):
    """Whether ``pairs`` restricted to ``nodes`` connect every node."""
    nodes = set(nodes)
    seen, todo = set(), [min(nodes)]
    while todo:
        i = todo.pop()
        if i not in seen:
            seen.add(i)
            todo.extend(j for p in pairs if i in p and nodes.issuperset(p) for j in p)
    return seen == nodes


class TestMaskGraph:
    """The masking pairs are the Harary graph H(2h, K), h = ceil(log2 K), on
    the agents in sorted-id order: min(2h, K - 1) neighbours each, and no set
    of fewer than 2h agents disconnects the rest."""

    @pytest.mark.parametrize("K", [2, 3, 4, 7, 8, 9, 10, 16, 17, 32, 33])
    def test_every_agent_has_min_2h_k_minus_1_neighbours(self, K):
        ids = [5 * k + 3 for k in range(K)]  # gaps: positions, not ids, decide
        masks = PairwiseMaskSet(0, ids[::-1])
        h = math.ceil(math.log2(K))
        assert all(i < j for i, j in masks.pairs) and masks.pairs == sorted(set(masks.pairs))
        for i in ids:
            assert sum(i in p for p in masks.pairs) == min(2 * h, K - 1)
            assert {j for p in masks.pairs if i in p for j in p} - {i} == harary_neighbours(ids, i)

    @pytest.mark.parametrize("K", [8, 9, 16])
    def test_removing_any_2h_minus_1_agents_leaves_the_rest_connected(self, K):
        ids = list(range(1, K + 1))
        masks = PairwiseMaskSet(0, ids)
        h = math.ceil(math.log2(K))
        for gone in itertools.combinations(ids, 2 * h - 1):
            assert connected(set(ids) - set(gone), masks.pairs), gone

    @pytest.mark.parametrize("K", [8, 10])
    def test_only_the_full_set_of_net_masks_cancels(self, K):
        """Any proper non-empty subset of the K net masks sums to a nonzero
        ring element; the full set sums to zero."""
        ids = list(range(1, K + 1))
        masks = PairwiseMaskSet(13, ids)
        nets = np.array([masks.net_mask(i, Phase.SAP_S, (2,)) for i in ids])
        for r in range(1, K):
            for subset in itertools.combinations(range(K), r):
                assert nets[list(subset)].sum(axis=0).any(), subset
        assert not nets.sum(axis=0).any()

    @pytest.mark.parametrize("target", [1, 17])
    def test_all_2h_neighbours_unmask_an_agent_and_2h_minus_1_do_not(self, target):
        """Finding: at K=32 a coordinator that also holds the pair keys of
        all 2h = 10 neighbours of one agent decodes that agent's SAP_S share
        to its exact fixed-point input; with any 9 of them the share stays
        masked in every entry.  Masks on every pair withstood any K - 2 = 30."""
        K, T, M, seed = 32, 96, 2, 5
        dataset, _, _ = synthetic_instance(K=K, T=T, M=M, T_occ=12, noise=0.1, seed=seed)
        ids = list(range(1, K + 1))
        cfg = ProtocolConfig(seed=seed)
        masks = PairwiseMaskSet(cfg.seed, ids)
        shares = {}
        for i in ids:
            agent = BuildingAgent(i, dataset.tau_in[:, i - 1], dataset.h_load[:, i - 1], cfg)
            agent.xi_i = 1.0 / K
            sap_s = agent.upload(Phase.SAP_S, masks)
            assert sap_s.phase == Phase.SAP_S
            shares[i] = sap_s.payload.ravel()
        assert np.allclose(sap_aggregate(list(shares.values())), dataset.tau_in.sum(axis=1) / K)

        x = dataset.tau_in[:, target - 1] / K
        want = encode_fixed(x, K)
        colluders = sorted(harary_neighbours(ids, target))
        assert len(colluders) == 10
        keys = PairwiseMaskSet(cfg.seed, ids)  # the colluders' copies of their pair keys

        def unmask(known):
            out = shares[target].copy()
            for j in known:
                if j > target:
                    out -= keys.mask(target, j, Phase.SAP_S, out.shape)
                else:
                    out += keys.mask(j, target, Phase.SAP_S, out.shape)
            return out

        got = unmask(colluders)
        assert got.tobytes() == want.tobytes()
        assert np.max(np.abs(decode_fixed(got) - x)) <= 2.0 ** -(FRAC_BITS + 1)
        for known in itertools.combinations(colluders, 9):
            assert np.all(unmask(known) != want), known
