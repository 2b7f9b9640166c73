import dataclasses
import hashlib
import json
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import aggtherm.protocol.runner as runner_mod
from aggtherm import bcd_fit, build_design
from aggtherm.dataio import dumps_json
from aggtherm.estimator import EstimationError, IllConditionedWarning, alternate
from aggtherm.model import ClusterDataset
from aggtherm.protocol import (
    BuildingAgent,
    Coordinator,
    InProcessBus,
    Message,
    Phase,
    ProtocolConfig,
    ProtocolError,
    ProtocolRunner,
    ProtocolTranscript,
    RoundView,
    encode_message,
    run_protocol,
    scan_payloads,
)
from aggtherm.protocol.sap import PairwiseMaskSet, sap_aggregate
from aggtherm.protocol.te import W_MEAN, W_SD, gen_encryption_col

from _common import random_dataset, run_truth, synthetic_instance, zero_mask


@pytest.fixture(scope="module")
def small_run():
    dataset, design, true = synthetic_instance(K=4, T=120, M=2, T_occ=12, noise=0.1, seed=21)
    cfg = ProtocolConfig(lam=10.0, tol=1e-6, T_occ=12, seed=21)
    fit, transcript = run_protocol(dataset, cfg)
    return dataset, design, cfg, fit, transcript


class TestEquivalence:
    def test_matches_centralized_fit(self, small_run):
        dataset, design, cfg, fit, _ = small_run
        plain = bcd_fit(design, lam=cfg.lam, tol=cfg.tol)
        assert fit.iterations == plain.iterations
        for name in ("xi", "alpha", "beta", "gamma", "theta", "tau_occ_free"):
            a = getattr(plain.params, name)
            b = getattr(fit.params, name)
            assert np.max(np.abs(a - b) / np.maximum(np.abs(a), 1e-12)) < 1e-3

    def test_recovered_weights_on_simplex(self, small_run):
        *_, fit, _ = small_run
        assert abs(fit.params.xi.sum() - 1.0) < 1e-8
        assert fit.params.xi.min() >= -1e-6

    def test_fit_matches_dense_occupancy_solve(self, small_run):
        """The fit's values as the dense solves over the occupancy columns
        gave them (before the slot projection), to 1e-10 relative per block."""
        *_, fit, _ = small_run
        want = {
            "xi": ["0x1.4266575f8ba95p-2", "0x1.3818977e3e694p-2", "0x1.ac1e612f154c1p-3",
                   "0x1.5ee3c115550d1p-3"],
            "alpha": ["0x1.24df594d1ac30p+0", "-0x1.2f31e33d90aadp-2"],
            "beta": ["0x1.f38c34b91d4bbp-5", "0x1.a7afde12643d9p-6", "0x1.699d07ba84888p-7"],
            "gamma": ["0x1.df729a92323a0p-6", "0x1.949a3b45eb560p-4", "-0x1.e5ff4e3e35b0ap-6"],
            "theta": ["0x1.ca8a6ddc0914cp-3", "0x1.6ab8abde768fcp-2", "-0x1.6f8506d1168e0p-2"],
            "tau_occ_free": [
                "0x1.e14e02adae7f1p-3", "0x1.8d0631f7f1768p-2", "0x1.0a0c873406003p-1",
                "0x1.5548af073da98p-2", "0x1.90e4d18113858p-2", "0x1.61577e67b90b0p-2",
                "0x1.06fef565ea390p-2", "0x1.19fccc71106b0p-3", "0x1.0bb8610eeb000p-6",
                "0x1.8b549b5077e00p-4", "0x1.43393398fd220p-3", "0x1.3c21aa3bef500p-3",
            ],
        }
        for name, hexes in want.items():
            ref = np.array([float.fromhex(h) for h in hexes])
            got = getattr(fit.params, name)
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref)), name
        ref_obj = float.fromhex("0x1.cc6794c4c7b53p+1")
        assert abs(fit.objective - ref_obj) <= 1e-10 * ref_obj

    def test_fit_and_view_pinned(self, small_run):
        """The masks cancel exactly, so the fit and the coordinator's
        aggregates stay the same when the mask keying changes: one sha256
        over their float64 bytes, the run's Z = τWᵀ last."""
        *_, fit, transcript = small_run
        h = hashlib.sha256()
        for name in ("xi", "alpha", "beta", "gamma", "theta", "tau_occ_free"):
            h.update(np.asarray(getattr(fit.params, name), dtype=float).tobytes())
        trace = [v for g in fit.gap_trace for v in (g.f1, g.f2, g.gap)]
        h.update(np.array([fit.objective, *trace]).tobytes())
        # each round's view, then its objectives, in the order the rounds
        # once recorded them (c2 is recorded once, for every round)
        for view, g in zip(transcript.bla_view, fit.gap_trace, strict=True):
            for value in (view.s_sum, transcript.c2, view.A1_sum, view.A2_sum, view.w_sum,
                          view.xi_bar, view.xi_recovered, g.f1, g.f2):
                h.update(np.asarray(value, dtype=float).tobytes())
        h.update(transcript.Z.tobytes())
        assert fit.objective.hex() == "0x1.cc6794c4cbe52p+1"
        assert h.hexdigest() == "3d4ce844ce5b90edb41c6e08568cffb8580cae9b445b6e5d6dddf3c192cf4ba7"

    def test_deterministic_rerun(self, small_run):
        dataset, _, cfg, fit, transcript = small_run
        fit2, transcript2 = run_protocol(dataset, cfg)
        assert np.array_equal(fit.params.xi, fit2.params.xi)
        assert [m.digest for m in transcript.messages] == [
            m.digest for m in transcript2.messages
        ]

    @pytest.mark.parametrize("K, T, seed", [(4, 120, 3), (7, 200, 5), (32, 96, 11)])
    def test_gram_sums_are_exact(self, K, T, seed):
        """Encryption columns lie on the 2^-22 grid, so every entry of w w^T
        is a multiple of 2^-44 and encodes without rounding: the run's
        decoded Gram and column sums, in every round's view, are W W^T and
        W 1 bit for bit."""
        dataset, _, _ = synthetic_instance(K=K, T=T, M=2, T_occ=6, noise=0.1, seed=seed)
        runner = ProtocolRunner(dataset, ProtocolConfig(lam=10.0, T_occ=6, seed=seed, scan=False))
        fit, transcript = runner.run()
        assert fit.iterations > 1
        for view, W in zip(transcript.bla_view, run_truth(runner).W, strict=True):
            assert np.array_equal(view.A2_sum, W @ W.T)
            assert np.array_equal(view.w_sum, W.sum(axis=1))


class TestTranscript:
    def test_message_flow_structure(self, small_run):
        dataset, _, _, fit, transcript = small_run
        K, T, M = dataset.K, dataset.T, dataset.M
        assert fit.iterations > 1
        to_bla = {m.phase for m in transcript.messages if m.receiver == 0}
        assert to_bla == {"sap_s", "sap_load", "te_a1", "te_a2", "te_w", "xi_return"}
        # one message per sender and receiver per phase per round
        per_phase = Counter((m.iteration, m.phase, m.sender, m.receiver) for m in transcript.messages)
        assert set(per_phase.values()) == {1}
        from_bla = {m.phase for m in transcript.messages if m.sender == 0}
        assert from_bla == {"xi_bar_broadcast"}
        assert all(len(m.digest) == 64 for m in transcript.messages)
        shapes = {m.phase: m.shape for m in transcript.messages if m.sender == 1}
        assert shapes == {"sap_s": (T + M, 1), "sap_load": (T + M, 1), "te_a1": (T + M, K),
                          "te_a2": (K, K), "te_w": (K, 1), "xi_return": (1, 1)}

    def test_bla_view_aggregates(self, small_run):
        dataset, design, cfg, fit, transcript = small_run
        assert len(transcript.bla_view) == fit.iterations > 1
        assert all(isinstance(v, RoundView) for v in transcript.bla_view)
        view = transcript.bla_view[0]
        # aggregates the coordinator sees match their central counterparts
        xi0 = np.full(dataset.K, 1.0 / dataset.K)
        assert np.array_equal(view.xi_in, xi0)
        assert np.allclose(view.s_sum, dataset.tau_in @ xi0, rtol=1e-9, atol=1e-8)
        assert np.allclose(transcript.c2, design.c2, rtol=1e-9, atol=1e-8)
        # each round starts from the weights the agents returned in the last
        for prev, nxt in zip(transcript.bla_view, transcript.bla_view[1:]):
            assert np.array_equal(nxt.xi_in, prev.xi_recovered)
        assert np.array_equal(transcript.bla_view[-1].xi_recovered, fit.params.xi)

    def test_digests_match_single_encode(self):
        sent = []

        class RecordingBus(InProcessBus):
            def send(self, msg):
                sent.append(msg)
                super().send(msg)

        dataset, _, _ = synthetic_instance(K=3, T=40, M=2, T_occ=6, noise=0.1, seed=4)
        bus = RecordingBus(ProtocolTranscript())
        _, transcript = run_protocol(dataset, ProtocolConfig(lam=1.0, T_occ=6, seed=4), bus=bus)
        assert len(sent) == len(transcript.messages) > 0
        assert [rec.digest for rec in transcript.messages] == [
            hashlib.sha256(encode_message(msg)).hexdigest() for msg in sent
        ]

    def test_supplied_bus_keeps_its_transcript(self):
        """A run on a supplied bus logs to the transcript that bus was made
        with, and returns that transcript."""
        dataset, _, _ = synthetic_instance(K=3, T=40, M=2, T_occ=6, noise=0.1, seed=4)
        mine = ProtocolTranscript()
        fit, transcript = run_protocol(dataset, ProtocolConfig(lam=1.0, T_occ=6, seed=4), bus=InProcessBus(mine))
        assert transcript is mine
        assert len(mine.messages) == 7 * 3 + 2 * 3 * (fit.iterations - 1) > 0

    def test_stream_keying_and_share_bytes_pinned(self, small_run):
        """One sha256 over the sorted envelope digests of the K=4 run: a change
        to how mask streams are keyed, or to any share's bytes, shows here,
        and the order the messages are sent in does not."""
        *_, transcript = small_run
        joined = "".join(sorted(m.digest for m in transcript.messages))
        assert (
            hashlib.sha256(joined.encode()).hexdigest()
            == "2038c807778cac619298362d1a3b7a2a39d6b63a95519cf3bfb9c7be9a2078ed"
        )

    def test_jsonl_serialization(self, small_run, tmp_path):
        *_, transcript = small_run
        path = tmp_path / "transcript.jsonl"
        transcript.write_jsonl(path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == len(transcript.messages)
        rec = json.loads(lines[0])
        assert set(rec) == {"seq", "iteration", "phase", "sender", "receiver", "shape", "digest"}
        assert lines[0].startswith('{"seq": 0, "iteration": 0, ')

    def test_scan_ran_clean(self, small_run):
        *_, transcript = small_run
        assert transcript.scan_checked > 0
        assert transcript.scan_findings == []


class TestWorkCounts:
    """Exact message and mask-word counts: one masked upload pass in round
    0, then 2K plain messages a round."""

    @pytest.mark.parametrize("K, max_iter", [(2, 1), (3, 2), (4, 20), (7, 1), (7, 3)])
    def test_messages_per_fit(self, K, max_iter):
        """A fit of L rounds sends 7K + 2K(L - 1) messages, and no message
        of a masked phase after round 0."""
        dataset, _, _ = synthetic_instance(K=K, T=60, M=2, T_occ=6, noise=0.1, seed=K)
        fit, transcript = run_protocol(
            dataset, ProtocolConfig(lam=10.0, tol=1e-12, max_iter=max_iter, T_occ=6, seed=K)
        )
        L = fit.iterations
        assert L <= max_iter and (L > 1) == (max_iter > 1)
        assert len(transcript.messages) == 7 * K + 2 * K * (L - 1)
        later = Counter(m.phase for m in transcript.messages if m.iteration > 0)
        assert later == ({"xi_bar_broadcast": K * (L - 1), "xi_return": K * (L - 1)} if L > 1 else {})
        assert {m.phase for m in transcript.messages if m.iteration == 0} == {
            "sap_s", "sap_load", "te_a1", "te_a2", "te_w", "xi_bar_broadcast", "xi_return"}

    @pytest.mark.parametrize("K, T, words", [(32, 1080, 37844), (7, 1440, 13034)])
    @pytest.mark.parametrize("max_iter", [1, 20])
    def test_mask_words_per_pair(self, monkeypatch, K, T, words, max_iter):
        """Each masking pair masks (T+M)(K+2) + K^2 + K words per fit,
        whatever the number of rounds: two series, the (T+M) x K product,
        the K x K Gram and the column."""
        counted = Counter()
        real = PairwiseMaskSet.mask

        def counting(self, i, j, phase, shape):
            counted[i, j] += int(np.prod(shape))
            return real(self, i, j, phase, shape=shape)

        monkeypatch.setattr(PairwiseMaskSet, "mask", counting)
        dataset, _, _ = synthetic_instance(K=K, T=T, M=2, T_occ=48, noise=0.2, seed=1)
        fit, _ = run_protocol(
            dataset, ProtocolConfig(lam=100.0, max_iter=max_iter, T_occ=48, seed=1, scan=False)
        )
        assert (fit.iterations > 1) == (max_iter > 1)
        assert words == (T + 2) * (K + 2) + K * K + K
        assert set(counted.values()) == {words}
        assert len(counted) == len(PairwiseMaskSet(0, range(1, K + 1)).pairs)


class TestRoundZeroMemory:
    def test_private_fit_peak_is_bounded_by_the_mask_window(self):
        """Round 0 reads each share as it arrives and keeps a pair's stream
        only between its two members' requests, so a K=64 private fit with
        the scan off peaks at the 2h = 12 pending partial sums plus a fixed
        number of buffers the size of one TE_A1 share ((T+M) x K words):
        the agents' copies of their series, the running sums, and the one
        share in flight through encode, mask, envelope and decode.  Holding
        every agent's share or net mask at once would take K = 64."""
        K, T, M = 64, 240, 2
        window = 2 * (K - 1).bit_length()  # 2h = 12
        warm, _, _ = synthetic_instance(K=2, T=20, M=M, T_occ=4, seed=3)
        run_protocol(warm, ProtocolConfig(T_occ=4, seed=3, scan=False))  # first imports happen untraced
        dataset, _, _ = synthetic_instance(K=K, T=T, M=M, T_occ=12, noise=0.1, seed=3)
        cfg = ProtocolConfig(lam=10.0, T_occ=12, seed=3, scan=False)
        tracemalloc.start()
        try:
            run_protocol(dataset, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        share = (T + M) * K * 8
        assert peak <= (window + 16) * share, f"peak {peak / share:.1f} shares"


def receive_error(phase, receiver, problem, ids):
    """Exact pattern of the one receive-rule ``ProtocolError`` in round 0."""
    return "^" + re.escape(f"{phase.name} to receiver {receiver} at iteration 0: {problem} {ids}") + "$"


BROADCASTS = (Phase.XI_BAR_BROADCAST,)


class FaultBus(InProcessBus):
    """Delivers round 0's one ``phase`` message on the link between agent 2
    and the coordinator wrongly: not at all (``missing``), twice
    (``second``), or together with a copy from id 4, which is no
    participant at K=3 (``unknown``)."""

    def __init__(self, transcript, phase, fault):
        super().__init__(transcript)
        self.phase, self.fault = phase, fault

    def send(self, msg):
        agent = msg.receiver if msg.phase in BROADCASTS else msg.sender
        if (msg.phase, msg.iteration, agent) != (self.phase, 0, 2):
            return super().send(msg)
        if self.fault == "unknown":
            super().send(Message(msg.iteration, msg.phase, 4, msg.receiver, msg.payload))
        if self.fault != "missing":
            super().send(msg)
        if self.fault == "second":
            super().send(msg)


class DropBus(InProcessBus):
    """Loses every message whose (phase, sender) is in ``drop``; each is
    still logged, as a sent message is."""

    def __init__(self, transcript, drop):
        super().__init__(transcript)
        self.drop = set(drop)

    def send(self, msg):
        if (msg.phase, msg.sender) in self.drop:
            self.transcript.log(msg, encode_message(msg))
        else:
            super().send(msg)


class TestFailureModes:
    def test_dropout_aborts_with_agent_name(self):
        dataset, _, _ = synthetic_instance(K=3, T=60, M=2, T_occ=6, noise=0.1, seed=5)
        transcript = ProtocolTranscript()
        bus = DropBus(transcript, {(Phase.SAP_S, 2)})
        cfg = ProtocolConfig(lam=1.0, tol=1e-6, T_occ=6, seed=5)
        message = "SAP_S to receiver 0 at iteration 0: no message from sender(s) [2]"
        with pytest.raises(ProtocolError, match="^" + re.escape(message) + "$"):
            run_protocol(dataset, cfg, bus=bus)

    def test_te_dropout_aborts(self):
        dataset, _, _ = synthetic_instance(K=3, T=60, M=2, T_occ=6, noise=0.1, seed=5)
        bus = DropBus(ProtocolTranscript(), {(Phase.TE_A2, 1)})
        match = receive_error(Phase.TE_A2, 0, "no message from sender(s)", [1])
        with pytest.raises(ProtocolError, match=match):
            run_protocol(dataset, ProtocolConfig(lam=1.0, tol=1e-6, T_occ=6, seed=5), bus=bus)

    @pytest.mark.parametrize("phase", list(Phase), ids=lambda p: p.name)
    def test_phase_dropout_aborts(self, phase):
        """Every message of one phase from one sender is lost: the round that
        needs it stops and names the phase and who missed it."""
        if phase in BROADCASTS:  # the coordinator's are lost; agent 1 reads first
            sender, receiver = 0, 1
        else:
            sender, receiver = 2, 0
        dataset, _, _ = synthetic_instance(K=3, T=60, M=2, T_occ=6, noise=0.1, seed=5)
        bus = DropBus(ProtocolTranscript(), {(phase, sender)})
        match = receive_error(phase, receiver, "no message from sender(s)", [sender])
        with pytest.raises(ProtocolError, match=match):
            run_protocol(dataset, ProtocolConfig(lam=1.0, tol=1e-6, T_occ=6, seed=5), bus=bus)

    @pytest.mark.parametrize("fault, problem", [
        ("missing", "no message from sender(s)"),
        ("second", "second message from sender(s)"),
        ("unknown", "message from unknown sender(s)"),
    ])
    @pytest.mark.parametrize("phase", list(Phase), ids=lambda p: p.name)
    def test_receive_rule_on_every_phase(self, phase, fault, problem):
        """Every phase, upload or broadcast, is read by the one receive rule:
        a lost, repeated or stranger's message on agent 2's link stops round
        0 with the one error text, naming the receiver and the sender."""
        receiver, sender = (2, 0) if phase in BROADCASTS else (0, 2)
        dataset, _, _ = synthetic_instance(K=3, T=60, M=2, T_occ=6, noise=0.1, seed=5)
        bus = FaultBus(ProtocolTranscript(), phase, fault)
        ids = [4] if fault == "unknown" else [sender]
        with pytest.raises(ProtocolError, match=receive_error(phase, receiver, problem, ids)):
            run_protocol(dataset, ProtocolConfig(lam=1.0, tol=1e-6, T_occ=6, seed=5), bus=bus)

    def test_forged_broadcast_rejected(self):
        """A weights broadcast that did not come from the coordinator, here
        from agent 3 ahead of the real one, stops the round by name."""

        class ForgingBus(InProcessBus):
            def send(self, msg):
                if msg.phase == Phase.XI_BAR_BROADCAST and msg.receiver == 1:
                    super().send(Message(msg.iteration, msg.phase, 3, 1, 2.0 * msg.payload))
                super().send(msg)

        dataset, _, _ = synthetic_instance(K=3, T=60, M=2, T_occ=6, noise=0.1, seed=5)
        bus = ForgingBus(ProtocolTranscript())
        with pytest.raises(
            ProtocolError,
            match=receive_error(Phase.XI_BAR_BROADCAST, 1, "message from unknown sender(s)", [3]),
        ):
            run_protocol(dataset, ProtocolConfig(lam=1.0, tol=1e-6, T_occ=6, seed=5), bus=bus)

    def test_repeated_broadcast_rejected(self):
        """A second weights broadcast to an agent is an error, not one to drop."""

        class TwiceBus(InProcessBus):
            def send(self, msg):
                super().send(msg)
                if msg.phase == Phase.XI_BAR_BROADCAST:
                    super().send(msg)

        dataset, _, _ = synthetic_instance(K=3, T=60, M=2, T_occ=6, noise=0.1, seed=5)
        bus = TwiceBus(ProtocolTranscript())
        with pytest.raises(
            ProtocolError,
            match=receive_error(Phase.XI_BAR_BROADCAST, 1, "second message from sender(s)", [0]),
        ):
            run_protocol(dataset, ProtocolConfig(lam=1.0, tol=1e-6, T_occ=6, seed=5), bus=bus)

    def test_duplicate_share_rejected(self):
        """A second share from one agent is an error, not a share to drop.
        The coordinator reads each share as it arrives, so the round stops
        at the first agent whose share came twice."""

        class TwiceBus(InProcessBus):
            def send(self, msg):
                super().send(msg)
                if msg.phase == Phase.SAP_S:
                    super().send(msg)

        dataset, _, _ = synthetic_instance(K=3, T=60, M=2, T_occ=6, noise=0.1, seed=5)
        bus = TwiceBus(ProtocolTranscript())
        with pytest.raises(
            ProtocolError, match=receive_error(Phase.SAP_S, 0, "second message from sender(s)", [1])
        ):
            run_protocol(dataset, ProtocolConfig(lam=1.0, tol=1e-6, T_occ=6, seed=5), bus=bus)

    def test_unknown_sender_rejected(self):
        """A share from an id that is no agent (here K+1) is an error."""

        class StrangerBus(InProcessBus):
            def send(self, msg):
                super().send(msg)
                if msg.phase == Phase.SAP_S and msg.sender == 1:
                    super().send(Message(msg.iteration, msg.phase, 4, msg.receiver, msg.payload))

        dataset, _, _ = synthetic_instance(K=3, T=60, M=2, T_occ=6, noise=0.1, seed=5)
        bus = StrangerBus(ProtocolTranscript())
        with pytest.raises(
            ProtocolError, match=receive_error(Phase.SAP_S, 0, "message from unknown sender(s)", [4])
        ):
            run_protocol(dataset, ProtocolConfig(lam=1.0, tol=1e-6, T_occ=6, seed=5), bus=bus)

    def test_unmasked_uploads_detected_and_aborted(self, monkeypatch):
        monkeypatch.setattr(PairwiseMaskSet, "mask", zero_mask)
        dataset, _, _ = synthetic_instance(K=3, T=60, M=2, T_occ=6, noise=0.1, seed=6)
        cfg = ProtocolConfig(lam=1.0, tol=1e-6, T_occ=6, seed=6)
        with pytest.raises(ProtocolError, match="privacy violation"):
            run_protocol(dataset, cfg)

    def test_divergence_aborts(self, monkeypatch):
        """A dynamics step that raises the objective stops the private fit,
        as it stops the plain one."""
        dataset, _, _ = synthetic_instance(K=3, T=60, M=2, T_occ=4, noise=0.1, seed=7)
        real = runner_mod.solve_sp1_from_parts
        calls = {"n": 0}

        def inflated(*args):
            calls["n"] += 1
            out = list(real(*args))
            if calls["n"] > 1:
                out[-1] = out[-1] + 1.0  # pretend the objective went up
            return tuple(out)

        monkeypatch.setattr(runner_mod, "solve_sp1_from_parts", inflated)
        cfg = ProtocolConfig(lam=1.0, tol=1e-14, max_iter=10, T_occ=4, seed=7, scan=False)
        with pytest.raises(EstimationError, match="divergence at iteration 1: f1="):
            run_protocol(dataset, cfg)


class TestSharedChecks:
    def test_active_weight_bound_flagged_in_both_modes(self):
        """The plain fit pins one weight at its bound, the private weights
        solve (no bound) takes it below zero; both fits say so."""
        dataset, design, _ = synthetic_instance(
            K=32, T=1080, M=2, T_occ=48, noise=0.2, seed=2305899951
        )
        plain = bcd_fit(design, lam=100.0)
        private, _ = run_protocol(
            dataset, ProtocolConfig(lam=100.0, T_occ=48, seed=2305899951, scan=False)
        )
        assert plain.params.xi.min() == 0.0 and private.params.xi.min() < 0.0
        for fit in (plain, private):
            assert fit.converged
            assert len(fit.warnings) == fit.iterations
            for l, w in enumerate(fit.warnings):
                assert w.startswith(f"iteration {l}: active weight bound (min xi ")
                assert "np.float64" not in w

    def test_ill_conditioned_weights_solve_reported(self, monkeypatch):
        """Agents 1 and 2 draw encryption columns that differ by a few steps
        of the 2^-22 grid, so the run's W is nearly singular and every
        round's masked weights solve raises an IllConditionedWarning.  The
        private fit names it in its warnings, once per round, and the
        warning still reaches the caller; the plain fit has no such solve."""
        real = runner_mod.gen_encryption_col
        drawn = []

        def nearly_parallel(K, rng):
            w = real(K, rng)
            if len(drawn) == 1:  # agents draw in order, once per run
                w = drawn[-1] + 2.0**-22 * np.rint((w - W_MEAN) / W_SD)  # on the grid
            drawn.append(w)
            return w

        monkeypatch.setattr(runner_mod, "gen_encryption_col", nearly_parallel)
        dataset, design, _ = synthetic_instance(K=4, T=120, M=2, T_occ=12, noise=0.1, seed=21)
        plain = bcd_fit(design, lam=10.0)
        runner = ProtocolRunner(dataset, ProtocolConfig(lam=10.0, T_occ=12, seed=21, scan=False))
        with pytest.warns(IllConditionedWarning):
            private, _ = runner.run()
        assert len(drawn) == 4 and np.linalg.cond(np.column_stack(drawn)) > 1e5
        assert plain.warnings == []
        assert len(private.warnings) == private.iterations > 1
        for l, w in enumerate(private.warnings):
            assert re.fullmatch(rf"iteration {l}: ill-conditioned weights solve \(.*ill-conditioned.*\)", w)

    @settings(max_examples=100, deadline=None)
    @given(
        K=st.integers(2, 6),
        T=st.integers(30, 120),
        lam=st.sampled_from([0.1, 1.0, 10.0, 100.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_private_fit_matches_plain_fit(self, K, T, lam, seed):
        dataset, design, _ = synthetic_instance(K=K, T=T, M=2, T_occ=6, noise=0.1, seed=seed)
        plain = bcd_fit(design, lam=lam)
        assume(plain.params.xi.min() > 0.0)
        private, _ = run_protocol(dataset, ProtocolConfig(lam=lam, T_occ=6, seed=seed, scan=False))
        assert private.iterations == plain.iterations
        assert private.warnings == plain.warnings
        rel = max(
            float(np.max(np.abs(getattr(plain.params, n) - getattr(private.params, n))
                         / np.abs(getattr(plain.params, n))))
            for n in ("xi", "alpha", "beta", "gamma", "theta", "tau_occ_free")
        )
        assert rel < 1e-4

    def test_ill_conditioned_encryption_matrix(self):
        """The run draws a W with condition number near 1.9e4.  Off the 2^-22
        grid, the rounded Gram sum of such a W made the masked weights step
        overstate f2 by 2.5e-5 of f and the descent check aborted; on the
        grid the Gram sum is exact and the fit matches the plain one."""
        dataset, design, _ = synthetic_instance(K=3, T=115, M=2, T_occ=6, noise=0.1, seed=2793542323)
        plain = bcd_fit(design, lam=100.0)
        runner = ProtocolRunner(dataset, ProtocolConfig(lam=100.0, T_occ=6, seed=2793542323, scan=False))
        private, _ = runner.run()
        assert np.linalg.cond(run_truth(runner).W[0]) > 1e4
        assert private.iterations == plain.iterations
        assert np.max(np.abs(private.params.xi - plain.params.xi) / plain.params.xi) < 1e-3


class TestConfigPaths:
    def test_custom_initial_weights_match_plain(self):
        dataset, design, _ = synthetic_instance(K=3, T=80, M=2, T_occ=8, noise=0.1, seed=17)
        xi0 = np.array([0.5, 0.3, 0.2])
        fit, _ = run_protocol(
            dataset, ProtocolConfig(lam=2.0, tol=1e-8, T_occ=8, seed=17, xi0=xi0)
        )
        plain = bcd_fit(design, lam=2.0, tol=1e-8, xi0=xi0)
        assert np.allclose(fit.params.xi, plain.params.xi, rtol=1e-6)

    def test_infeasible_initial_weights_rejected(self):
        dataset, _, _ = synthetic_instance(K=3, T=60, M=2, T_occ=6, noise=0.1, seed=18)
        cfg = ProtocolConfig(T_occ=6, seed=18, xi0=np.array([0.9, 0.9, -0.8]))
        with pytest.raises(ValueError, match="probability"):
            run_protocol(dataset, cfg)

    def test_single_zone_rejected(self):
        # one zone has no mask partner: its shares would reach the coordinator unmasked
        with pytest.raises(ValueError, match="at least 2 zones"):
            ProtocolRunner(random_dataset(K=1, T=20), ProtocolConfig(T_occ=4))

    @pytest.mark.parametrize("t_occ, error, match", [
        (0, ValueError, r"^T_occ must be >= 1, got 0$"),
        (6.0, TypeError, "cannot be interpreted as an integer"),
    ])
    def test_bad_occupancy_period_rejected_before_any_upload(self, t_occ, error, match):
        dataset, _, _ = synthetic_instance(K=3, T=60, M=2, T_occ=6, noise=0.1, seed=18)
        bus = InProcessBus(ProtocolTranscript())
        with pytest.raises(error, match=match):
            ProtocolRunner(dataset, ProtocolConfig(T_occ=t_occ, seed=18), bus=bus).run()
        assert bus.transcript.messages == [] and bus.mailboxes == {}

    def test_load_out_of_fixed_point_range_rejected_before_any_upload(self):
        """Loads 1e5 times larger leave the fixed-point range 2^18/K.  Each
        agent checks its load series, which it uploads as is, before any
        message is sent, and the error names the agent, the series and its
        largest entry."""
        dataset, _, _ = synthetic_instance(K=4, T=60, M=2, T_occ=6, noise=0.1, seed=3)
        scaled = dataclasses.replace(dataset, h_load=dataset.h_load * 1e5)
        col = scaled.h_load[:, 0]
        peak = float(col[np.argmax(np.abs(col))])
        bus = InProcessBus(ProtocolTranscript())
        message = (
            f"agent 1's load series has entry {peak!r}, which is non-finite or outside "
            "the fixed-point range |x| < 65536.0 (2^18/K for K=4)"
        )
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            run_protocol(scaled, ProtocolConfig(lam=1.0, T_occ=6, seed=3), bus=bus)
        assert bus.transcript.messages == [] and bus.mailboxes == {}

    def test_upload_out_of_fixed_point_range_names_agent_and_phase(self):
        """Temperatures 1e5 times larger push the weighted series xi_i tau_i
        out of range; the encode failure names the agent, the phase and the
        round, with the entry as a plain float."""
        dataset, _, _ = synthetic_instance(K=4, T=60, M=2, T_occ=6, noise=0.1, seed=3)
        scaled = dataclasses.replace(dataset, tau_in=dataset.tau_in * 1e5)
        share = 0.25 * scaled.tau_in[:, 0]  # agent 1's SAP_S input at the uniform start
        peak = float(share[np.argmax(np.abs(share))])
        bus = InProcessBus(ProtocolTranscript())
        message = (
            f"agent 1's SAP_S upload at iteration 0: input has entry {peak!r}, which is "
            "non-finite or outside the fixed-point range |x| < 65536.0 (2^18/K for K=4)"
        )
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            run_protocol(scaled, ProtocolConfig(lam=1.0, T_occ=6, seed=3), bus=bus)
        assert bus.transcript.messages == []

    def test_encryption_spread_below_the_grid_aborts(self, monkeypatch):
        """When every encryption column is the same grid point (no spread at
        all), W has rank 1.  The coordinator's exact Gram sum shows it, and
        the fit aborts instead of ending far off the plain fit without a
        warning."""
        monkeypatch.setattr(runner_mod, "gen_encryption_col", lambda K, rng: np.full(K, W_MEAN))
        dataset, _, _ = synthetic_instance(K=3, T=60, M=2, T_occ=6, noise=0.1, seed=5)
        cfg = ProtocolConfig(lam=10.0, T_occ=6, seed=5, scan=False)
        with pytest.raises(EstimationError, match=r"^aggregated Gram matrix W W\^T has rank 1 < K=3: "):
            run_protocol(dataset, cfg)

    @pytest.mark.parametrize("xi0", [[np.nan] * 3, [0.5, np.nan, 0.5], [np.inf, -np.inf, 1.0]])
    def test_non_finite_start_rejected_in_both_modes(self, xi0):
        dataset, design, _ = synthetic_instance(K=3, T=60, M=2, T_occ=6, noise=0.1, seed=18)
        with pytest.raises(ValueError, match=r"^xi0 must be finite"):
            bcd_fit(design, lam=1.0, xi0=np.array(xi0))
        with pytest.raises(ValueError, match=r"^xi0 must be finite"):
            run_protocol(dataset, ProtocolConfig(lam=1.0, T_occ=6, seed=18, xi0=np.array(xi0)))

    @pytest.mark.parametrize("xi0, message", [
        ([0.5, 0.5], "xi0 must have 3 entries, got 2"),
        ([0.5, 0.25, 0.5], "xi0 must lie on the probability simplex, got sum 1.25 and minimum entry 0.25"),
        ([1.5, -0.25, -0.25], "xi0 must lie on the probability simplex, got sum 1.0 and minimum entry -0.25"),
    ])
    def test_bad_start_named_in_both_modes(self, xi0, message):
        dataset, design, _ = synthetic_instance(K=3, T=60, M=2, T_occ=6, noise=0.1, seed=18)
        match = "^" + re.escape(message) + "$"
        with pytest.raises(ValueError, match=match):
            bcd_fit(design, lam=1.0, xi0=np.array(xi0))
        with pytest.raises(ValueError, match=match):
            run_protocol(dataset, ProtocolConfig(lam=1.0, T_occ=6, seed=18, xi0=np.array(xi0)))

    def test_zero_iterations_rejected(self):
        dataset, design, _ = synthetic_instance(K=3, T=60, M=2, T_occ=6, noise=0.1, seed=18)
        with pytest.raises(ValueError, match=r"^max_iter must be >= 1, got 0$"):
            run_protocol(dataset, ProtocolConfig(T_occ=6, max_iter=0))
        with pytest.raises(ValueError, match=r"^max_iter must be >= 1, got 0$"):
            bcd_fit(design, lam=1.0, max_iter=0)

    @pytest.mark.parametrize("tol", [0.0, -1.0, np.nan])
    def test_nonpositive_tol_rejected(self, tol):
        dataset, design, _ = synthetic_instance(K=3, T=60, M=2, T_occ=6, noise=0.1, seed=18)
        with pytest.raises(ValueError, match=rf"^tol must be > 0, got {tol!r}$"):
            bcd_fit(design, lam=1.0, tol=tol)
        with pytest.raises(ValueError, match=rf"^tol must be > 0, got {tol!r}$"):
            run_protocol(dataset, ProtocolConfig(T_occ=6, tol=tol))

    @pytest.mark.parametrize("lam", [-1.0, np.nan, np.inf])
    def test_bad_penalty_rejected_in_both_modes_before_any_upload(self, lam):
        """A negative penalty fitted without complaint and a NaN one failed
        inside LAPACK with a message that does not name it."""
        dataset, design, _ = synthetic_instance(K=3, T=60, M=2, T_occ=6, noise=0.1, seed=18)
        match = rf"^penalty lambda must be finite and >= 0, got {lam!r}$"
        with pytest.raises(ValueError, match=match):
            bcd_fit(design, lam=lam)
        bus = InProcessBus(ProtocolTranscript())
        with pytest.raises(ValueError, match=match):
            run_protocol(dataset, ProtocolConfig(lam=lam, T_occ=6, seed=18), bus=bus)
        assert bus.transcript.messages == [] and bus.mailboxes == {}


class ShufflingBus(InProcessBus):
    """Hands each phase's messages to the receiver in a seeded random order."""

    def __init__(self, transcript, seed):
        super().__init__(transcript)
        self.rng = np.random.default_rng(seed)

    def collect(self, receiver, phase, iteration):
        take = super().collect(receiver, phase, iteration)
        return [take[i] for i in self.rng.permutation(len(take))]


class TestOrderInvariance:
    def test_shuffled_arrival_same_results(self):
        dataset, _, _ = synthetic_instance(K=4, T=80, M=2, T_occ=8, noise=0.1, seed=9)
        cfg = ProtocolConfig(lam=5.0, tol=1e-6, T_occ=8, seed=9)
        fit_a, tr_a = run_protocol(dataset, cfg)
        fit_b, tr_b = run_protocol(dataset, cfg, bus=ShufflingBus(ProtocolTranscript(), seed=1234))
        assert np.array_equal(fit_a.params.xi, fit_b.params.xi)
        for va, vb in zip(tr_a.bla_view, tr_b.bla_view):
            assert np.array_equal(va.A1_sum, vb.A1_sum)
            assert np.array_equal(va.s_sum, vb.s_sum)

    def test_transport_without_marker_reversed(self, small_run):
        """A bus that only logs, encodes and decodes (no per-message marker)
        and delivers every phase in reverse order gives the same fit and
        transcript: the coordinator tells the uploads apart by phase and
        sender alone."""

        class ReversingBus(InProcessBus):
            def collect(self, receiver, phase, iteration):
                return super().collect(receiver, phase, iteration)[::-1]

        dataset, _, cfg, fit, transcript = small_run
        fit_r, tr_r = run_protocol(dataset, cfg, bus=ReversingBus(ProtocolTranscript()))
        assert dumps_json(fit_r) == dumps_json(fit)
        assert [m.digest for m in tr_r.messages] == [m.digest for m in transcript.messages]
        assert np.array_equal(tr_r.c2, transcript.c2)
        assert len(tr_r.bla_view) == len(transcript.bla_view)
        for va, vb in zip(transcript.bla_view, tr_r.bla_view):
            for f in dataclasses.fields(RoundView):
                assert np.array_equal(getattr(va, f.name), getattr(vb, f.name)), f.name


class TestScanner:
    def test_flags_exact_leak(self):
        rng = np.random.default_rng(0)
        secret = 20 + rng.standard_normal(50)
        payloads = [("upload1", rng.standard_normal((50, 2))), ("leak", secret.copy())]
        refs = [("agent1/secret", secret)]
        checked, findings = scan_payloads(payloads, refs)
        assert checked == 3
        assert findings == [("leak", 0, "agent1/secret")]

    def test_clean_on_masked_data(self):
        rng = np.random.default_rng(1)
        secret = 20 + rng.standard_normal(50)
        payloads = [("upload", secret + rng.normal(0, 10, 50))]
        _, findings = scan_payloads(payloads, [("s", secret)])
        assert findings == []

    def test_length_mismatch_ignored(self):
        _, findings = scan_payloads(
            [("p", np.ones(7))], [("s", np.ones(9))]
        )
        assert findings == []


class TestMaskedUpload:
    def test_phase_fields_and_sum_invariance(self):
        """Each agent's one upload pass is one envelope per phase, and each
        phase's shares sum to its unmasked quantity."""
        from aggtherm.protocol.runner import BuildingAgent

        dataset, _, _ = synthetic_instance(K=3, T=50, M=2, T_occ=6, noise=0.1, seed=30)
        cfg = ProtocolConfig(T_occ=6, seed=30)
        agents = [
            BuildingAgent(i, dataset.tau_in[:, i - 1], dataset.h_load[:, i - 1], cfg)
            for i in (1, 2, 3)
        ]
        xi = np.array([0.2, 0.3, 0.5])
        for ag, x in zip(agents, xi):
            ag.xi_i = float(x)
        masks = PairwiseMaskSet(30, [1, 2, 3])
        phases = [Phase.SAP_S, Phase.SAP_LOAD, Phase.TE_A1, Phase.TE_A2, Phase.TE_W]
        ups = [[ag.upload(phase, masks) for phase in phases] for ag in agents]
        for ag, msgs in zip(agents, ups):
            assert [m.phase for m in msgs] == phases
            assert all((m.iteration, m.sender, m.receiver) == (0, ag.id, 0) for m in msgs)
            # one full (T + M)-row series of each kind, not one per lag
            assert [m.payload.shape for m in msgs] == [(52, 1), (52, 1), (52, 3), (3, 3), (3, 1)]
            assert all(m.payload.dtype == np.uint64 for m in msgs)
        got_s, got_l, got_z, got_gram, got_w = (
            sap_aggregate([msgs[k].payload for msgs in ups]) for k in range(len(phases))
        )
        W = np.column_stack([ag.w for ag in agents])
        assert np.allclose(got_s.ravel(), dataset.tau_in @ xi, rtol=1e-10, atol=1e-9)
        assert np.allclose(got_l.ravel(), dataset.h_load.sum(axis=1), rtol=1e-10, atol=1e-9)
        assert np.allclose(got_z, dataset.tau_in @ W.T, rtol=1e-10, atol=1e-9)
        assert np.array_equal(got_w.ravel(), W @ np.ones(3))
        assert np.array_equal(got_gram, W @ W.T)

    @pytest.mark.parametrize("alpha", [[0.9], [0.9, -0.2, 0.1]])
    def test_wrong_length_dynamics_rejected(self, alpha):
        """The coordinator filters Z = τWᵀ at the model order M, so a
        dynamics vector of another length is an error, not a filter of that
        order."""
        _, design, _ = synthetic_instance(K=2, T=30, M=2, T_occ=6, noise=0.1, seed=31)
        with pytest.raises(ValueError, match="alpha must have M=2 entries"):
            identity_coordinator(design, lam=100.0).weights(np.array(alpha))


class TestWeightsFreshness:
    def test_encryption_column_drawn_once_per_run(self):
        """Each agent draws its column once, from (seed, 2000, id) with no
        round index, and every round is solved with that one W."""
        dataset, _, _ = synthetic_instance(K=3, T=60, M=2, T_occ=6, noise=0.3, seed=10)
        cfg = ProtocolConfig(lam=1.0, tol=1e-12, max_iter=3, T_occ=6, seed=10)
        runner = ProtocolRunner(dataset, cfg)
        fit, transcript = runner.run()
        assert fit.iterations == 3
        for i, agent in runner.agents.items():
            rng = np.random.default_rng(np.random.SeedSequence(10, spawn_key=(2000, i)))
            assert np.array_equal(agent.w, runner_mod.gen_encryption_col(3, rng))
        W = run_truth(runner).W[0]
        assert len({agent.w.tobytes() for agent in runner.agents.values()}) == 3
        for view in transcript.bla_view:
            assert np.array_equal(view.A2_sum, W @ W.T)
            assert np.array_equal(view.xi_recovered, W.T @ view.xi_bar)


def identity_coordinator(design, lam):
    """A coordinator fed the sums of an encryption W = I: Z = τ, G = I and
    W1 = 1, so its encrypted weights are the weights themselves."""
    K = design.K
    return Coordinator(design.c2, design.c3, design.c4, design.tau, np.eye(K), np.ones(K), design.T_occ, lam)


class TestCoordinator:
    HELD = {"c2", "c3", "c4", "Z", "G", "w1", "T_occ", "lam", "xi_in", "s_sum", "xi_bar"}

    @pytest.mark.parametrize("K", [2, 3, 7])
    def test_holds_only_what_it_received(self, K):
        """After a run, the coordinator holds only numbers, None and numeric
        arrays: no agent, dataset, mask set, config, bus, transcript or
        seed, and none of its arrays has a column equal to an agent's
        private series or upload intermediate."""
        dataset, _, _ = synthetic_instance(K=K, T=60, M=2, T_occ=6, noise=0.1, seed=100 + K)
        cfg = ProtocolConfig(lam=10.0, max_iter=3, T_occ=6, seed=100 + K)
        runner = ProtocolRunner(dataset, cfg)
        fit, _ = runner.run()
        assert fit.iterations > 1
        held = vars(runner.coordinator)
        assert set(held) == self.HELD
        harness = (BuildingAgent, ClusterDataset, PairwiseMaskSet, ProtocolConfig, InProcessBus,
                   ProtocolTranscript, ProtocolRunner, runner_mod.Auditor)
        for name, value in held.items():
            assert value is None or isinstance(value, (int, float, np.ndarray)), name
            assert not isinstance(value, harness), name
            if isinstance(value, np.ndarray):
                assert value.dtype.kind == "f", name
            else:
                assert value != cfg.seed, name
        arrays = [(name, value) for name, value in held.items() if isinstance(value, np.ndarray)]
        checked, findings = scan_payloads(arrays, runner._private_refs())
        assert checked > 0
        assert findings == []

    def test_identity_encryption_is_the_plain_fit(self):
        """With W = I the coordinator's two steps are the plain fit's, so
        driven through ``alternate`` they reproduce ``bcd_fit`` bit for bit,
        gap trace included, wherever the plain fit holds no weight at its
        bound (the masked weights solve has no bound), as in none of these
        30 instances."""
        lam = 10.0
        for K in range(2, 8):
            for seed in range(5):
                _, design, _ = synthetic_instance(K=K, T=80, M=2, T_occ=12, noise=0.3, seed=seed)
                plain = bcd_fit(design, lam=lam)
                assert not any("active weight bound" in note for note in plain.warnings), (K, seed)
                coord = identity_coordinator(design, lam)
                fit = alternate(
                    lambda l, xi: coord.dynamics(xi, design.tau @ xi if l == 0 else None),
                    lambda l, alpha: coord.weights(alpha)[1],
                    np.full(K, 1.0 / K), 1e-6, 20,
                )
                assert fit.iterations == plain.iterations, (K, seed)
                assert fit.objective == plain.objective, (K, seed)
                assert fit.gap_trace == plain.gap_trace, (K, seed)
                for name in ("xi", "alpha", "beta", "gamma", "theta", "tau_occ_free"):
                    assert np.array_equal(getattr(fit.params, name), getattr(plain.params, name)), (K, seed, name)


class TestSeedLeak:
    @pytest.mark.parametrize("K", [2, 3, 7, 32])
    def test_seed_rebuilds_w_and_tau(self, K):
        """A finding, not a guarantee: ``ProtocolConfig.seed`` keys every
        agent's encryption column, so whoever knows it regenerates W and
        reads τ = ZW⁻ᵀ from round 0's sums alone (ROADMAP item 8).  This
        test records that hole; it is to flip when each agent holds its own
        secret."""
        dataset, _, _ = synthetic_instance(K=K, T=96, M=2, T_occ=6, noise=0.1, seed=K)
        cfg = ProtocolConfig(lam=10.0, max_iter=1, T_occ=6, seed=K, scan=False)
        runner = ProtocolRunner(dataset, cfg)
        _, transcript = runner.run()
        W = np.column_stack([
            gen_encryption_col(K, np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(2000, i))))
            for i in range(1, K + 1)
        ])
        assert np.array_equal(W @ W.T, transcript.bla_view[0].A2_sum)
        tau = np.linalg.solve(W, runner.coordinator.Z.T).T  # Z = τWᵀ
        assert np.linalg.norm(tau - dataset.tau_in) <= 1e-12 * np.linalg.norm(dataset.tau_in)
