import hashlib
import json

import numpy as np
import pytest

from aggtherm import bcd_fit, build_design
from aggtherm.protocol import (
    InProcessBus,
    Phase,
    ProtocolConfig,
    ProtocolError,
    ProtocolRunner,
    ProtocolTranscript,
    encode_message,
    run_protocol,
    scan_payloads,
)
from aggtherm.protocol.sap import PairwiseMaskSet, sap_aggregate

from _common import random_dataset, synthetic_instance, zero_mask


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

    def test_deterministic_rerun(self, small_run):
        dataset, _, cfg, fit, transcript = small_run
        fit2, transcript2 = run_protocol(dataset, cfg)
        assert np.array_equal(fit.params.xi, fit2.params.xi)
        assert [m.digest for m in transcript.messages] == [
            m.digest for m in transcript2.messages
        ]


class TestTranscript:
    def test_message_flow_structure(self, small_run):
        dataset, _, _, fit, transcript = small_run
        K, M = dataset.K, dataset.M
        per_iter = 2 * K + K + 3 * K + K + K  # sap_s+load, alpha, te, xibar, xiret
        assert len(transcript.messages) == per_iter * fit.iterations
        to_bla = {m.phase for m in transcript.messages if m.receiver == 0}
        assert to_bla == {"sap_s", "sap_load", "te_upload", "xi_return"}
        from_bla = {m.phase for m in transcript.messages if m.sender == 0}
        assert from_bla == {"alpha_broadcast", "xi_bar_broadcast"}
        assert all(len(m.digest) == 64 for m in transcript.messages)

    def test_bla_view_aggregates(self, small_run):
        dataset, design, cfg, fit, transcript = small_run
        assert len(transcript.bla_view) == fit.iterations
        view = transcript.bla_view[0]
        # aggregates the coordinator sees match their central counterparts
        xi0 = np.full(dataset.K, 1.0 / dataset.K)
        assert np.allclose(view["s_sum"], dataset.tau_in @ xi0, rtol=1e-9, atol=1e-8)
        assert np.allclose(view["c2"], design.c2, rtol=1e-9, atol=1e-8)
        assert set(view) >= {
            "xi_in", "s_sum", "c2", "alpha", "A1_sum", "A2_sum",
            "w_sum", "xi_bar", "xi_recovered", "f1", "f2",
        }

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

    def test_jsonl_serialization(self, small_run, tmp_path):
        *_, transcript = small_run
        path = tmp_path / "transcript.jsonl"
        transcript.write_jsonl(path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == len(transcript.messages)
        rec = json.loads(lines[0])
        assert set(rec) == {"seq", "iteration", "phase", "sender", "receiver", "shape", "digest"}

    def test_scan_ran_clean(self, small_run):
        *_, transcript = small_run
        assert transcript.scan_checked > 0
        assert transcript.scan_findings == []


class TestFailureModes:
    def test_dropout_aborts_with_agent_name(self):
        dataset, _, _ = synthetic_instance(K=3, T=60, M=2, T_occ=6, noise=0.1, seed=5)
        transcript = ProtocolTranscript()
        bus = InProcessBus(transcript, drop={(Phase.SAP_S, 2)})
        cfg = ProtocolConfig(lam=1.0, tol=1e-6, T_occ=6, seed=5)
        with pytest.raises(ProtocolError, match=r"agent\(s\) \[2\]"):
            run_protocol(dataset, cfg, bus=bus)

    def test_te_dropout_aborts(self):
        dataset, _, _ = synthetic_instance(K=3, T=60, M=2, T_occ=6, noise=0.1, seed=5)
        bus = InProcessBus(ProtocolTranscript(), drop={(Phase.TE_UPLOAD, 1)})
        with pytest.raises(ProtocolError, match="TE_UPLOAD"):
            run_protocol(dataset, ProtocolConfig(lam=1.0, tol=1e-6, T_occ=6, seed=5), bus=bus)

    def test_unmasked_uploads_detected_and_aborted(self, monkeypatch):
        monkeypatch.setattr(PairwiseMaskSet, "mask", zero_mask)
        dataset, _, _ = synthetic_instance(K=3, T=60, M=2, T_occ=6, noise=0.1, seed=6)
        cfg = ProtocolConfig(lam=1.0, tol=1e-6, T_occ=6, seed=6)
        with pytest.raises(ProtocolError, match="privacy violation"):
            run_protocol(dataset, cfg)


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

    def test_zero_iterations_rejected(self):
        dataset, _, _ = synthetic_instance(K=3, T=60, M=2, T_occ=6, noise=0.1, seed=18)
        with pytest.raises(ValueError, match="max_iter"):
            run_protocol(dataset, ProtocolConfig(T_occ=6, max_iter=0))

    @pytest.mark.parametrize("tol", [0.0, -1.0])
    def test_nonpositive_tol_rejected(self, tol):
        dataset, _, _ = synthetic_instance(K=3, T=60, M=2, T_occ=6, noise=0.1, seed=18)
        with pytest.raises(ValueError, match="tol must be > 0"):
            run_protocol(dataset, ProtocolConfig(T_occ=6, tol=tol))


class TestOrderInvariance:
    def test_shuffled_arrival_same_results(self):
        dataset, _, _ = synthetic_instance(K=4, T=80, M=2, T_occ=8, noise=0.1, seed=9)
        cfg = ProtocolConfig(lam=5.0, tol=1e-6, T_occ=8, seed=9)
        fit_a, tr_a = run_protocol(dataset, cfg)
        bus = InProcessBus(ProtocolTranscript(), permute_seed=1234)
        fit_b, tr_b = run_protocol(dataset, cfg, bus=bus)
        assert np.array_equal(fit_a.params.xi, fit_b.params.xi)
        for va, vb in zip(tr_a.bla_view, tr_b.bla_view):
            assert np.array_equal(va["A1_sum"], vb["A1_sum"])
            assert np.array_equal(va["s_sum"], vb["s_sum"])


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
        from aggtherm.protocol import Message
        from aggtherm.protocol.runner import BuildingAgent

        dataset, _, _ = synthetic_instance(K=3, T=50, M=2, T_occ=6, noise=0.1, seed=30)
        cfg = ProtocolConfig(T_occ=6, seed=30)
        agents = [
            BuildingAgent(i, dataset.tau_in[:, i - 1], dataset.h_load[:, i - 1], 2, cfg)
            for i in (1, 2, 3)
        ]
        xi = np.array([0.2, 0.3, 0.5])
        for ag, x in zip(agents, xi):
            ag.xi_i = float(x)
        masks = PairwiseMaskSet(30, [1, 2, 3], iteration=0)

        sap_ups = [ag.sap_upload(0, masks) for ag in agents]
        for up in sap_ups:
            assert up.A1_tilde is None and up.A2_tilde is None and up.W_tilde is None
            # one full (T + M)-row series of each kind, not one per lag
            assert up.s_tilde.shape == up.load_tilde.shape == (52,)
        got_s = sap_aggregate([up.s_tilde for up in sap_ups])
        assert np.allclose(got_s, dataset.tau_in @ xi, rtol=1e-10, atol=1e-9)
        got_l = sap_aggregate([up.load_tilde for up in sap_ups])
        assert np.allclose(got_l, dataset.h_load.sum(axis=1), rtol=1e-10, atol=1e-9)

        alpha_msg = Message(0, Phase.ALPHA_BROADCAST, 0, 1, np.array([0.9, -0.2]))
        te_ups = [ag.te_upload(alpha_msg, 3, 0, masks) for ag in agents]
        for up in te_ups:
            assert up.s_tilde is None and up.load_tilde is None
        W = np.column_stack([ag.w_history[0] for ag in agents])
        got_w = sap_aggregate([up.W_tilde for up in te_ups])
        assert np.allclose(got_w, W @ np.ones(3), rtol=1e-10, atol=1e-9)
        got_gram = sap_aggregate([up.A2_tilde for up in te_ups])
        assert np.allclose(got_gram, W @ W.T, rtol=1e-9, atol=1e-9)


class TestWeightsFreshness:
    def test_encryption_columns_change_every_iteration(self):
        dataset, _, _ = synthetic_instance(K=3, T=60, M=2, T_occ=6, noise=0.3, seed=10)
        cfg = ProtocolConfig(lam=1.0, tol=1e-12, max_iter=3, T_occ=6, seed=10)
        runner = ProtocolRunner(dataset, cfg)
        fit, _ = runner.run()
        assert fit.iterations == 3
        for agent in runner.agents.values():
            w = agent.w_history
            assert len(w) == 3
            assert not np.array_equal(w[0], w[1])
            assert not np.array_equal(w[1], w[2])
