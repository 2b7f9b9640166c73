"""The privacy scan: the prefiltered scanner against a brute-force pairwise
``np.allclose`` scan, and the full findings of an unmasked protocol run."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aggtherm.protocol.runner as runner_mod
from aggtherm.protocol import (
    PairwiseMaskSet,
    ProtocolConfig,
    ProtocolError,
    ProtocolRunner,
    scan_payloads,
)
from aggtherm.protocol.messages import Phase
from aggtherm.protocol.sap import decode_fixed, encode_fixed

from _common import synthetic_instance, zero_mask


def pairwise_scan_payloads(payloads, private_vectors, rtol=1e-6, atol=1e-8):
    """Brute-force scanner: every payload column against every private vector
    of its length with ``np.allclose``, which is what a finding means."""
    refs = [(label, np.asarray(vec, dtype=float).ravel()) for label, vec in private_vectors]
    findings = []
    checked = 0
    for label, arr in payloads:
        arr = np.asarray(arr, dtype=float)
        if arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        same = [(r, v) for r, v in refs if len(v) == arr.shape[0]]
        if not same:
            continue
        for c in range(arr.shape[1]):
            checked += 1
            for r, v in same:
                if np.allclose(arr[:, c], v, rtol=rtol, atol=atol):
                    findings.append((label, c, r))
    return checked, findings


# lengths 0 and 1 are edge cases; 20 has rows between the scanner's probe
# rows, so a column can pass every probe row and still fail np.allclose
REF_LENGTHS = [0, 1, 3, 5, 8, 20]
RTOL, ATOL = 1e-6, 1e-8


@st.composite
def scan_cases(draw):
    """Private vectors of a few lengths (with duplicates, zero, constant,
    non-finite and huge vectors), and payloads of those lengths and one
    unmatched length whose columns are noise, exact copies, copies perturbed
    across the tolerance, copies with one row just past it, or copies within
    it at every row."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    refs = []
    for r in range(draw(st.integers(1, 10))):
        n = draw(st.sampled_from(REF_LENGTHS))
        same = [v for _, v in refs if len(v) == n]
        kind = draw(
            st.sampled_from(
                ["normal", "centred", "small", "zeros", "const", "duplicate", "inf", "nan", "huge"]
            )
        )
        if kind == "duplicate" and same:
            v = same[draw(st.integers(0, len(same) - 1))].copy()
        elif kind == "centred":
            v = rng.standard_normal(n) * 20.0
            v -= v.mean() if n else 0.0  # mean 0, large entries
        elif kind == "small":
            v = rng.standard_normal(n) * 0.5  # small entries: atol weighs against rtol
        elif kind == "zeros":
            v = np.zeros(n)
        elif kind == "const":
            v = np.full(n, 20.0)
        elif kind in ("inf", "nan"):
            v = 20.0 + rng.standard_normal(n)
            bad = rng.random(n) < 0.3
            v[bad] = rng.choice([np.inf, -np.inf], bad.sum()) if kind == "inf" else np.nan
        elif kind == "huge":
            v = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(200.0, 300.0, n)
        else:
            v = 20.0 + rng.standard_normal(n) * draw(st.sampled_from([0.01, 1.0, 5.0]))
        refs.append((f"ref{r}", v))

    def column(n):
        same = [v for _, v in refs if len(v) == n]
        kind = draw(
            st.sampled_from(
                ["noise", "leak", "scaled", "shifted", "stretched", "jittered", "moved", "within"]
            )
        )
        if kind == "noise" or not same:
            return 20.0 + rng.standard_normal(n) * 10.0
        v = same[draw(st.integers(0, len(same) - 1))]
        col = v.copy()
        finite = np.isfinite(v)
        tol = ATOL + RTOL * np.abs(v[finite])  # np.isclose's tolerance per finite row
        if kind == "leak":
            return col
        if kind == "moved":
            # one row (a probe row or not) just past the tolerance: no finding
            rows = np.flatnonzero(finite)
            if len(rows):
                i = rng.choice(rows)
                col[i] += rng.choice([-1.0, 1.0]) * (ATOL + RTOL * abs(v[i])) * 1.001
            return col
        if kind == "within":
            # every finite row moved by up to 0.99 of its tolerance: a finding
            col[finite] += rng.uniform(-0.99, 0.99, len(tol)) * tol
            return col
        # log-uniform across the tolerances; for eps <= 1e-6 the last two
        # kinds stay within np.allclose however large the entries
        eps = 10.0 ** rng.uniform(-8.5, -5.5)
        if kind == "scaled":
            return v * (1.0 + eps)
        if kind == "shifted":
            return v + eps
        with np.errstate(invalid="ignore"):  # -inf + inf is a NaN entry
            if kind == "stretched":
                return v + eps * np.abs(v)
            return v + eps * np.abs(v) * rng.uniform(-1.0, 1.0, n)

    payloads = []
    for p in range(draw(st.integers(0, 6))):
        n = draw(st.sampled_from(REF_LENGTHS + [4]))
        cols = [column(n) for _ in range(draw(st.integers(1, 4)))]
        if len(cols) == 1 and draw(st.booleans()):
            payloads.append((f"p{p}", cols[0]))
        else:
            payloads.append((f"p{p}", np.column_stack(cols)))
    return payloads, refs


@settings(max_examples=300, deadline=None)
@given(scan_cases())
def test_scan_matches_pairwise_allclose(case):
    payloads, refs = case
    assert scan_payloads(payloads, refs) == pairwise_scan_payloads(payloads, refs)


def test_decode_reads_probe_rows_and_passing_columns_only():
    """Shares are decoded at the probe rows, and in full only in the
    columns that pass them; findings are those of the decoded shares."""
    rng = np.random.default_rng(3)
    secret = 20.0 + rng.standard_normal(200)
    floats = np.column_stack([rng.standard_normal(200), secret, secret + 1.0])
    refs = [("s", secret), ("t", rng.standard_normal(200))]
    decoded_rows = []

    def counting_decode(u):
        decoded_rows.append(u.shape[0])
        return decode_fixed(u)

    shares = [("share", encode_fixed(floats, 3))]
    got = scan_payloads(shares, refs, decode=counting_decode)
    assert got == scan_payloads([("share", decode_fixed(shares[0][1]))], refs)
    assert got == (3, [("share", 1, "s")])
    assert decoded_rows == [8, 200]


def test_round_0_leak_found_with_the_auditors_references(monkeypatch):
    """Masks vanish for the three TE uploads only, so round 0 leaks the
    outer products and the encryption columns while the series shares stay
    masked; the runner's scan, on the auditor's references, finds what the
    pairwise scan finds on the decoded shares.  Only round 0 carries
    shares, so the scan runs once."""
    real_mask = PairwiseMaskSet.mask

    def mask_series_only(self, i, j, phase, shape):
        if phase in (Phase.TE_A1, Phase.TE_A2, Phase.TE_W):
            return zero_mask(self, i, j, phase, shape)
        return real_mask(self, i, j, phase, shape)

    scanned = []  # the decoded shares and the agents' references, per scan
    real_scan = runner_mod.scan_payloads

    def recording_scan(payloads, refs, **kw):
        decoded = [(label, decode_fixed(share)) for label, share in payloads]
        scanned.append((decoded, runner._private_refs()))
        return real_scan(payloads, refs, **kw)

    monkeypatch.setattr(PairwiseMaskSet, "mask", mask_series_only)
    monkeypatch.setattr(runner_mod, "scan_payloads", recording_scan)
    dataset, _, _ = synthetic_instance(K=3, T=30, M=2, T_occ=6, noise=0.1, seed=6)
    runner = ProtocolRunner(dataset, ProtocolConfig(lam=1.0, tol=1e-12, T_occ=6, seed=6))
    with pytest.raises(ProtocolError, match="privacy violation at iteration 0: "):
        runner.run()
    ((decoded, refs),) = scanned
    checked, want = pairwise_scan_payloads(decoded, refs)
    assert len(want) > 0 and all(label.split("/")[1].startswith("te_") for label, _, _ in want)
    assert runner.transcript.scan_findings == want
    assert runner.transcript.scan_checked == checked


@pytest.mark.parametrize(
    "ref",
    [
        np.array([20.0, np.inf, 21.0, -np.inf]),
        np.array([1e200, -3e250, 1e300, 2e154]),
        np.array([np.nan, 20.0, 21.0, 22.0]),
        np.array([]),
        np.array([20.5]),
    ],
    ids=["inf", "huge", "nan", "empty", "single"],
)
def test_exact_copy_matches_pairwise_without_warnings(ref):
    """An exact copy is a finding wherever np.allclose says so: with infinite
    entries, with entries whose squares overflow, and at lengths 0 and 1; a
    NaN entry is never close.  No warning is raised on the way."""
    payloads = [("p", np.column_stack([ref, ref])), ("q", ref)]
    refs = [("r", ref)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = scan_payloads(payloads, refs)
    assert got == pairwise_scan_payloads(payloads, refs)
    assert got[1] == ([] if np.isnan(ref).any() else [("p", 0, "r"), ("p", 1, "r"), ("q", 0, "r")])


def test_scalar_payload_is_one_column():
    assert scan_payloads([("s", np.float64(20.0))], [("r", [20.0])]) == (1, [("s", 0, "r")])


@pytest.mark.parametrize("value", [20.0, 5.0], ids=["candidate", "no_candidate"])
def test_three_dimensional_payload_rejected(value):
    with pytest.raises(ValueError, match="'cube' has 3 dimensions"):
        scan_payloads([("cube", np.full((2, 1, 1), value))], [("r", [20.0, 20.0])])


# Findings of the unmasked run below, whose zero masks leave each share
# the plain fixed-point encoding of its input; it decodes to within 2^-45
# of the reference.  Each agent uploads, in round 0 only, one weighted
# temperature series and one load series.  With xi0 = (1, 0, 0), agent 1's
# weighted share equals its temperature series, and the zero shares of
# agents 2 and 3 match each other's.  Each whole TE share is scanned column
# by column, so column c of an outer-product share matches that column of
# the agent's product.
UNMASKED_FINDINGS = [
    ("iter0/sap_s/agent1", 0, "agent1/tau_full"),
    ("iter0/sap_s/agent1", 0, "agent1/weighted_share"),
    ("iter0/sap_s/agent2", 0, "agent2/weighted_share"),
    ("iter0/sap_s/agent2", 0, "agent3/weighted_share"),
    ("iter0/sap_s/agent3", 0, "agent2/weighted_share"),
    ("iter0/sap_s/agent3", 0, "agent3/weighted_share"),
    ("iter0/sap_load/agent1", 0, "agent1/load_full"),
    ("iter0/sap_load/agent2", 0, "agent2/load_full"),
    ("iter0/sap_load/agent3", 0, "agent3/load_full"),
    *[
        (f"iter0/te_a{n}/agent{i}", c, f"agent{i}/A{n}_col{c}")
        for n in (1, 2)
        for i in (1, 2, 3)
        for c in range(3)
    ],
    ("iter0/te_w/agent1", 0, "agent1/w_col"),
    ("iter0/te_w/agent2", 0, "agent2/w_col"),
    ("iter0/te_w/agent3", 0, "agent3/w_col"),
]


def test_unmasked_run_full_findings(monkeypatch):
    monkeypatch.setattr(PairwiseMaskSet, "mask", zero_mask)
    dataset, _, _ = synthetic_instance(K=3, T=30, M=2, T_occ=6, noise=0.1, seed=6)
    cfg = ProtocolConfig(lam=1.0, tol=1e-6, T_occ=6, seed=6, xi0=np.array([1.0, 0.0, 0.0]))
    runner = ProtocolRunner(dataset, cfg)
    with pytest.raises(ProtocolError, match="privacy violation at iteration 0: 30 "):
        runner.run()
    assert runner.transcript.scan_checked == 27
    assert runner.transcript.scan_findings == UNMASKED_FINDINGS


def _upload_recorder(monkeypatch):
    """Record, per agent, what it actually uploaded: its weighted share,
    encryption column and the columns of both outer products, labelled as
    the scan labels them."""
    real_mask = runner_mod.sap_mask
    sent = {}

    def sap_mask(x, agent_id, masks, phase):
        got = sent.setdefault(agent_id, {})
        x = np.asarray(x)
        if phase == Phase.SAP_S:
            got["weighted_share"] = x
        elif phase in (Phase.TE_A1, Phase.TE_A2):
            n = 1 if phase == Phase.TE_A1 else 2
            got.update((f"A{n}_col{c}", x[:, c]) for c in range(x.shape[1]))
        elif phase == Phase.TE_W:
            got["w_col"] = x
        return real_mask(x, agent_id, masks, phase)

    monkeypatch.setattr(runner_mod, "sap_mask", sap_mask)
    return sent


@pytest.mark.parametrize("K", [3, 4])
def test_auditor_references_are_the_uploads(monkeypatch, K):
    """After a run of three rounds the auditor's references, rebuilt from
    round 0's input weights and the agents' encryption columns, are label
    for label and bit for bit what each agent uploaded, after its two
    series."""
    sent = _upload_recorder(monkeypatch)
    dataset, _, _ = synthetic_instance(K=K, T=40, M=2, T_occ=8, noise=0.3, seed=K)
    runner = ProtocolRunner(dataset, ProtocolConfig(lam=1.0, tol=1e-12, max_iter=3, T_occ=8, seed=K))
    fit, _ = runner.run()
    assert fit.iterations == 3
    upload_labels = ["weighted_share", "w_col", *[f"A{n}_col{c}" for n in (1, 2) for c in range(K)]]
    want = []
    for i in runner.agent_ids:
        tau, load = dataset.tau_in[:, i - 1], dataset.h_load[:, i - 1]
        want += [(f"agent{i}/tau_full", tau), (f"agent{i}/load_full", load)]
        want += [(f"agent{i}/{label}", sent[i][label]) for label in upload_labels]
    got = runner._private_refs()
    assert [label for label, _ in got] == [label for label, _ in want]
    for (label, g), (_, w) in zip(got, want):
        assert g.dtype == w.dtype and g.tobytes() == np.ascontiguousarray(w).tobytes(), label


def test_every_auditor_reference_meets_a_share_column(monkeypatch):
    """Share columns have T + M rows (the series uploads and τwᵀ) or K
    rows (wwᵀ and w), and the scan compares a reference only with columns
    of its own length; with K != T every reference the auditor hands the
    scan has the length of some share column, so none goes unchecked."""
    seen = []
    real_scan = runner_mod.scan_payloads

    def recording_scan(payloads, refs, **kw):
        seen.append(({share.shape[0] for _, share in payloads}, [(label, len(r)) for label, r in refs]))
        return real_scan(payloads, refs, **kw)

    monkeypatch.setattr(runner_mod, "scan_payloads", recording_scan)
    dataset, _, _ = synthetic_instance(K=3, T=40, M=2, T_occ=8, noise=0.3, seed=5)
    ProtocolRunner(dataset, ProtocolConfig(lam=1.0, tol=1e-12, max_iter=2, T_occ=8, seed=5)).run()
    ((rows, refs),) = seen
    assert rows == {42, 3}
    assert [label for label, n in refs if n not in rows] == []


@pytest.mark.parametrize("scan", [True, False])
def test_auditor_only_in_audited_runs(monkeypatch, scan):
    """A scan-off run builds no auditor and scans nothing; an audited run
    scans once, round 0's shares, as no later round carries any.  The
    agents hold the same state either way."""
    calls = []
    real_scan = runner_mod.scan_payloads
    monkeypatch.setattr(runner_mod, "scan_payloads", lambda *a, **kw: calls.append(1) or real_scan(*a, **kw))
    dataset, _, _ = synthetic_instance(K=3, T=40, M=2, T_occ=8, noise=0.3, seed=5)
    cfg = ProtocolConfig(lam=1.0, tol=1e-12, max_iter=2, T_occ=8, seed=5, scan=scan)
    runner = ProtocolRunner(dataset, cfg)
    fit, transcript = runner.run()
    assert (runner.auditor is not None) == scan
    assert fit.iterations == 2
    assert len(calls) == (1 if scan else 0)
    assert transcript.scan_checked == (27 if scan else 0)
    assert {a: set(vars(agent)) for a, agent in runner.agents.items()} == {
        a: {"id", "tau_col", "load_col", "cfg", "xi_i", "w"} for a in runner.agent_ids
    }
