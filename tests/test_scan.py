"""The privacy scan: the prefiltered scanner against a brute-force pairwise
``np.allclose`` scan, and the full findings of an unmasked protocol run."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aggtherm.protocol import (
    PairwiseMaskSet,
    ProtocolConfig,
    ProtocolError,
    ProtocolRunner,
    scan_payloads,
)

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


REF_LENGTHS = [3, 5, 8]


@st.composite
def scan_cases(draw):
    """Private vectors of a few lengths (with duplicates, zero and constant
    vectors), and payloads of those lengths and one unmatched length whose
    columns are noise, exact copies, or copies perturbed across the
    tolerance."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    refs = []
    for r in range(draw(st.integers(1, 10))):
        n = draw(st.sampled_from(REF_LENGTHS))
        same = [v for _, v in refs if len(v) == n]
        kind = draw(st.sampled_from(["normal", "centred", "small", "zeros", "const", "duplicate"]))
        if kind == "duplicate" and same:
            v = same[draw(st.integers(0, len(same) - 1))].copy()
        elif kind == "centred":
            v = rng.standard_normal(n) * 20.0
            v -= v.mean()  # mean 0, large entries: np.allclose allows a large mean shift
        elif kind == "small":
            v = rng.standard_normal(n) * 0.5  # small entries: atol weighs against rtol
        elif kind == "zeros":
            v = np.zeros(n)
        elif kind == "const":
            v = np.full(n, 20.0)
        else:
            v = 20.0 + rng.standard_normal(n) * draw(st.sampled_from([0.01, 1.0, 5.0]))
        refs.append((f"ref{r}", v))

    def column(n):
        same = [v for _, v in refs if len(v) == n]
        kind = draw(st.sampled_from(["noise", "leak", "scaled", "shifted", "stretched", "jittered"]))
        if kind == "noise" or not same:
            return 20.0 + rng.standard_normal(n) * 10.0
        v = same[draw(st.integers(0, len(same) - 1))]
        if kind == "leak":
            return v.copy()
        # log-uniform across the tolerances (rtol 1e-6, atol 1e-8); the last
        # two kinds stay within np.allclose for eps <= 1e-6 while moving the
        # mean or std signature up to the prefilter's bound
        eps = 10.0 ** rng.uniform(-8.5, -5.5)
        if kind == "scaled":
            return v * (1.0 + eps)
        if kind == "shifted":
            return v + eps
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


# Findings of the unmasked run below, whose zero masks leave each share
# the plain fixed-point encoding of its input; it decodes to within 2^-45
# of the reference.  Each agent uploads one weighted
# temperature series and one load series.  With xi0 = (1, 0, 0), agent 1's
# weighted share equals its temperature series, and the zero shares of
# agents 2 and 3 match each other's.
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
    ("iter0/te/agent1/A1_col0", 0, "agent1/A1_col0"),
    ("iter0/te/agent1/A1_col1", 0, "agent1/A1_col1"),
    ("iter0/te/agent1/A1_col2", 0, "agent1/A1_col2"),
    ("iter0/te/agent1/A2_col0", 0, "agent1/A2_col0"),
    ("iter0/te/agent1/A2_col1", 0, "agent1/A2_col1"),
    ("iter0/te/agent1/A2_col2", 0, "agent1/A2_col2"),
    ("iter0/te/agent1/w", 0, "agent1/w_col"),
    ("iter0/te/agent2/A1_col0", 0, "agent2/A1_col0"),
    ("iter0/te/agent2/A1_col1", 0, "agent2/A1_col1"),
    ("iter0/te/agent2/A1_col2", 0, "agent2/A1_col2"),
    ("iter0/te/agent2/A2_col0", 0, "agent2/A2_col0"),
    ("iter0/te/agent2/A2_col1", 0, "agent2/A2_col1"),
    ("iter0/te/agent2/A2_col2", 0, "agent2/A2_col2"),
    ("iter0/te/agent2/w", 0, "agent2/w_col"),
    ("iter0/te/agent3/A1_col0", 0, "agent3/A1_col0"),
    ("iter0/te/agent3/A1_col1", 0, "agent3/A1_col1"),
    ("iter0/te/agent3/A1_col2", 0, "agent3/A1_col2"),
    ("iter0/te/agent3/A2_col0", 0, "agent3/A2_col0"),
    ("iter0/te/agent3/A2_col1", 0, "agent3/A2_col1"),
    ("iter0/te/agent3/A2_col2", 0, "agent3/A2_col2"),
    ("iter0/te/agent3/w", 0, "agent3/w_col"),
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
