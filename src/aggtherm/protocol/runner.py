"""Round-synchronous protocol between building agents and the coordinator.

Each iteration: agents secure-aggregate their weighted temperature and raw
load series, one masked upload of each per agent; the coordinator slices
the lags it needs from the two sums, solves the dynamics subproblem and
broadcasts the dynamics coefficients; agents upload transformation-masked
outer products; the coordinator solves the transformed weights subproblem
and broadcasts the encrypted weights; and agents return their recovered
weights.  Masked shares are uint64 ring elements, and the coordinator
decodes only their sums.  Every payload crosses an in-process bus through
the binary envelope codec; the transcript records digests, coordinator-visible
aggregates, and privacy-scan results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..estimator import FitResult, GapRecord, gap, solve_sp1_from_parts
from ..model import AtdmParameters, ClusterDataset, lag_columns, lag_view, occupancy_tiling
from .messages import Message, Phase, decode_message, encode_message
from .sap import (
    KIND_SAP_LOAD,
    KIND_SAP_S,
    KIND_TE_A1,
    KIND_TE_A2,
    KIND_TE_W,
    PairwiseMaskSet,
    assemble_sp1_inputs,
    decode_fixed,
    sap_aggregate,
    sap_mask,
)
from .te import compute_hat_tau_col, compute_te_uploads, gen_encryption_col, solve_sp2_masked, te_recover
from .transcript import ProtocolTranscript, scan_payloads

__all__ = [
    "ProtocolError",
    "ProtocolConfig",
    "MaskedUpload",
    "BuildingAgent",
    "InProcessBus",
    "ProtocolRunner",
    "run_protocol",
    "upload_messages",
]

BLA_ID = 0


class ProtocolError(RuntimeError):
    """Aborted round: missing share, or a private payload leaked in the clear."""


@dataclass
class ProtocolConfig:
    lam: float = 100.0
    tol: float = 1e-6
    max_iter: int = 20
    T_occ: int = 48
    seed: int = 0
    w_mean: float = 0.1
    w_sd: float = 0.1
    scan: bool = True
    xi0: np.ndarray | None = None


class InProcessBus:
    """Synchronous transport: every send is encoded, logged, and delivered
    through the envelope codec.  Tests can drop (phase, sender) pairs or
    permute arrival order; aggregation results do not depend on the order."""

    def __init__(self, transcript: ProtocolTranscript, permute_seed=None, drop=None):
        self.transcript = transcript
        self.mailboxes: dict[int, list] = {}
        self.drop = set(drop or ())
        self._perm_rng = (
            np.random.default_rng(permute_seed) if permute_seed is not None else None
        )

    def send(self, msg: Message):
        data = encode_message(msg)
        rec = self.transcript.log(msg, data)
        if (msg.phase, msg.sender) in self.drop:
            return
        delivered = decode_message(data)
        # per-sender FIFO marker; lets receivers restore upload order even
        # if global arrival order is permuted
        delivered.transport_seq = rec.seq
        self.mailboxes.setdefault(msg.receiver, []).append(delivered)

    def collect(self, receiver: int, phase: Phase, iteration: int) -> list:
        box = self.mailboxes.get(receiver, [])
        take = [m for m in box if m.phase == phase and m.iteration == iteration]
        rest = [m for m in box if not (m.phase == phase and m.iteration == iteration)]
        self.mailboxes[receiver] = rest
        if self._perm_rng is not None:
            order = self._perm_rng.permutation(len(take))
            take = [take[i] for i in order]
        return take


@dataclass
class MaskedUpload:
    """One agent's masked contribution for one phase of one iteration.

    The secure-aggregation fields (``s_tilde``, ``load_tilde``) are set only
    by the aggregation phase; the transformation fields (``A1_tilde``,
    ``A2_tilde``, ``W_tilde``) only by the encryption phase.  Every field is
    a uint64 ring share; ``sap_aggregate`` over all agents decodes it to the
    sum of the quantized unmasked counterparts.
    """

    agent: int
    iteration: int
    s_tilde: np.ndarray | None = None
    load_tilde: np.ndarray | None = None
    A1_tilde: np.ndarray | None = None
    A2_tilde: np.ndarray | None = None
    W_tilde: np.ndarray | None = None


class BuildingAgent:
    """One zone's protocol participant; holds only its own two columns."""

    def __init__(self, agent_id: int, tau_col: np.ndarray, load_col: np.ndarray, M: int, cfg: ProtocolConfig):
        self.id = agent_id
        self.tau_col = np.asarray(tau_col, dtype=float).copy()
        self.load_col = np.asarray(load_col, dtype=float).copy()
        self.M = M
        self.cfg = cfg
        self.xi_i: float | None = None  # assigned by the coordinator at setup
        self.w_history: dict[int, np.ndarray] = {}
        self._w: np.ndarray | None = None
        self._upload_refs: dict[int, list] = {}  # iteration -> labelled upload intermediates

    def _keep_refs(self, iteration: int, refs: list):
        """Hold this iteration's upload intermediates for ``private_refs``;
        only an audited run (``cfg.scan``) needs them."""
        if not self.cfg.scan:
            return
        if iteration not in self._upload_refs:
            self._upload_refs = {iteration: []}
        self._upload_refs[iteration].extend(refs)

    def sap_upload(self, iteration: int, masks: PairwiseMaskSet) -> MaskedUpload:
        share = self.xi_i * self.tau_col
        self._keep_refs(iteration, [(f"agent{self.id}/weighted_share", share)])
        return MaskedUpload(
            agent=self.id,
            iteration=iteration,
            s_tilde=sap_mask(share, self.id, masks, KIND_SAP_S),
            load_tilde=sap_mask(self.load_col, self.id, masks, KIND_SAP_LOAD),
        )

    def te_upload(self, alpha_msg: Message, K: int, iteration: int, masks: PairwiseMaskSet) -> MaskedUpload:
        alpha = alpha_msg.payload.ravel()
        hat_col = compute_hat_tau_col(alpha, self.tau_col)
        rng = np.random.default_rng(
            np.random.SeedSequence(self.cfg.seed, spawn_key=(2000 + iteration, self.id))
        )
        self._w = gen_encryption_col(K, rng, self.cfg.w_mean, self.cfg.w_sd)
        self.w_history[iteration] = self._w.copy()
        A1, A2 = compute_te_uploads(hat_col, self._w)
        p = f"agent{self.id}/"
        self._keep_refs(
            iteration,
            [(p + "hat_tau", hat_col), (p + "w_col", self.w_history[iteration])]
            + [(f"{p}A1_col{c}", A1[:, c]) for c in range(A1.shape[1])]
            + [(f"{p}A2_col{c}", A2[:, c]) for c in range(A2.shape[1])],
        )
        return MaskedUpload(
            agent=self.id,
            iteration=iteration,
            A1_tilde=sap_mask(A1, self.id, masks, KIND_TE_A1),
            A2_tilde=sap_mask(A2, self.id, masks, KIND_TE_A2),
            W_tilde=sap_mask(self._w, self.id, masks, KIND_TE_W),
        )

    def private_refs(self, iteration: int) -> list:
        """Labelled private vectors for the privacy scan of ``iteration``:
        the full series, their lag views, and what this agent computed for
        that iteration's uploads (weighted share, filtered series,
        encryption column, outer-product columns)."""
        p = f"agent{self.id}/"
        refs = [(p + "tau_full", self.tau_col), (p + "load_full", self.load_col)]
        for m in range(self.M + 1):
            refs.append((f"{p}tau_lag{m}", lag_view(self.tau_col, self.M, m)))
            refs.append((f"{p}load_lag{m}", lag_view(self.load_col, self.M, m)))
        return refs + self._upload_refs.get(iteration, [])

    def xi_return_message(self, xi_bar_msg: Message, iteration: int) -> Message:
        xi_bar = xi_bar_msg.payload.ravel()
        self.xi_i = te_recover(self._w, xi_bar)
        return Message(iteration, Phase.XI_RETURN, self.id, BLA_ID, np.array([self.xi_i]))


def upload_messages(upload: MaskedUpload) -> list:
    """Envelope messages for one upload, in the canonical per-phase order."""
    msgs = []
    if upload.s_tilde is not None:
        msgs.append(Message(upload.iteration, Phase.SAP_S, upload.agent, BLA_ID, upload.s_tilde))
        msgs.append(Message(upload.iteration, Phase.SAP_LOAD, upload.agent, BLA_ID, upload.load_tilde))
    if upload.A1_tilde is not None:
        msgs.append(Message(upload.iteration, Phase.TE_UPLOAD, upload.agent, BLA_ID, upload.A1_tilde))
        msgs.append(Message(upload.iteration, Phase.TE_UPLOAD, upload.agent, BLA_ID, upload.A2_tilde))
        msgs.append(Message(upload.iteration, Phase.TE_UPLOAD, upload.agent, BLA_ID, upload.W_tilde))
    return msgs


def _group_by_sender(msgs: list, expected_ids, expected_count: int, phase: Phase, iteration: int):
    groups: dict[int, list] = {}
    for m in msgs:
        groups.setdefault(m.sender, []).append(m)
    for g in groups.values():
        g.sort(key=lambda m: getattr(m, "transport_seq", 0))
    missing = [i for i in expected_ids if len(groups.get(i, [])) < expected_count]
    if missing:
        raise ProtocolError(
            f"missing {phase.name} share from agent(s) {missing} at iteration {iteration}"
        )
    return groups


class ProtocolRunner:
    """Coordinator-side orchestration of the full estimation protocol."""

    def __init__(self, dataset: ClusterDataset, cfg: ProtocolConfig, bus: InProcessBus | None = None):
        if dataset.K < 2:
            raise ValueError(
                f"private mode needs at least 2 zones, got K={dataset.K}: with one zone "
                "there are no pairwise masks and the coordinator would receive the raw series"
            )
        self.dataset = dataset
        self.cfg = cfg
        self.K, self.T, self.M = dataset.K, dataset.T, dataset.M
        self.agent_ids = list(range(1, self.K + 1))
        self.agents = {
            i: BuildingAgent(i, dataset.tau_in[:, i - 1], dataset.h_load[:, i - 1], self.M, cfg)
            for i in self.agent_ids
        }
        self.transcript = ProtocolTranscript()
        self.bus = bus if bus is not None else InProcessBus(self.transcript)
        self.bus.transcript = self.transcript
        # coordinator-held exogenous regressors
        self.c3 = lag_columns(dataset.tau_out, self.M)
        self.c4 = lag_columns(dataset.h_rad, self.M)
        self.P_occ = occupancy_tiling(self.T, cfg.T_occ)

    # -- scanning helpers -------------------------------------------------

    def _private_refs(self, iteration: int) -> list:
        return [ref for i in self.agent_ids for ref in self.agents[i].private_refs(iteration)]

    def _scan(self, iteration: int, bla_payloads: list):
        """Compare the fixed-point decoding of every share the coordinator
        received with the agents' references; decoded one payload at a time."""
        if not self.cfg.scan:
            return
        refs = self._private_refs(iteration)
        decoded = ((label, decode_fixed(share)) for label, share in bla_payloads)
        checked, findings = scan_payloads(decoded, refs)
        self.transcript.scan_checked += checked
        if findings:
            self.transcript.scan_findings.extend(findings)
            shown = "; ".join(f"{p}[col {c}] == {r}" for p, c, r in findings[:5])
            raise ProtocolError(
                f"privacy violation at iteration {iteration}: {len(findings)} "
                f"coordinator-visible payload(s) match private data ({shown})"
            )

    # -- main loop ---------------------------------------------------------

    def run(self) -> tuple[FitResult, ProtocolTranscript]:
        cfg = self.cfg
        if cfg.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if cfg.tol <= 0:
            raise ValueError("tol must be > 0")
        K, M = self.K, self.M
        xi = (
            np.full(K, 1.0 / K)
            if cfg.xi0 is None
            else np.asarray(cfg.xi0, dtype=float).ravel()
        )
        if len(xi) != K or abs(xi.sum() - 1.0) > 1e-8 or xi.min() < -1e-8:
            raise ValueError("xi0 must be a probability vector of length K")
        for idx, i in enumerate(self.agent_ids):
            self.agents[i].xi_i = float(xi[idx])

        trace: list[GapRecord] = []
        warnings: list[str] = []
        converged = False
        alpha = beta = gamma_ = theta = tau_occ = None
        f2 = np.inf
        iterations = 0

        for l in range(cfg.max_iter):
            masks = PairwiseMaskSet(cfg.seed, self.agent_ids, iteration=l)
            bla_payloads = []

            # SAP phase: one weighted temperature series and one load series per agent
            for i in self.agent_ids:
                for msg in upload_messages(self.agents[i].sap_upload(l, masks)):
                    self.bus.send(msg)

            sap_sums = []
            for phase in (Phase.SAP_S, Phase.SAP_LOAD):
                groups = _group_by_sender(
                    self.bus.collect(BLA_ID, phase, l), self.agent_ids, 1, phase, l
                )
                shares = [groups[i][0].payload.ravel() for i in self.agent_ids]
                for i, sh in zip(self.agent_ids, shares):
                    bla_payloads.append((f"iter{l}/{phase.name.lower()}/agent{i}", sh))
                sap_sums.append(sap_aggregate(shares))
            s_sum, load_sum = sap_sums

            c0_xi, c1_xi_cols, c2 = assemble_sp1_inputs(s_sum, load_sum, M)
            alpha, _b1, _g1, _t1, _u1, f1 = solve_sp1_from_parts(
                c0_xi, c1_xi_cols, c2, self.c3, self.c4, self.P_occ, cfg.lam, float(xi @ xi)
            )

            for i in self.agent_ids:
                self.bus.send(Message(l, Phase.ALPHA_BROADCAST, BLA_ID, i, alpha))

            # TE phase
            for i in self.agent_ids:
                inbox = self.bus.collect(i, Phase.ALPHA_BROADCAST, l)
                if not inbox:
                    raise ProtocolError(f"agent {i} missed the dynamics broadcast at iteration {l}")
                for msg in upload_messages(self.agents[i].te_upload(inbox[0], K, l, masks)):
                    self.bus.send(msg)

            te_groups = _group_by_sender(
                self.bus.collect(BLA_ID, Phase.TE_UPLOAD, l), self.agent_ids, 3, Phase.TE_UPLOAD, l
            )
            A1_shares = [te_groups[i][0].payload for i in self.agent_ids]
            A2_shares = [te_groups[i][1].payload for i in self.agent_ids]
            W_shares = [te_groups[i][2].payload.ravel() for i in self.agent_ids]
            for i, a1, a2, wt in zip(self.agent_ids, A1_shares, A2_shares, W_shares):
                for c in range(a1.shape[1]):
                    bla_payloads.append((f"iter{l}/te/agent{i}/A1_col{c}", a1[:, c]))
                for c in range(a2.shape[1]):
                    bla_payloads.append((f"iter{l}/te/agent{i}/A2_col{c}", a2[:, c]))
                bla_payloads.append((f"iter{l}/te/agent{i}/w", wt))
            A1_sum = sap_aggregate(A1_shares)
            A2_sum = sap_aggregate(A2_shares)
            w_sum = sap_aggregate(W_shares)

            xi_bar, beta, gamma_, theta, tau_occ, f2 = solve_sp2_masked(
                A1_sum, A2_sum, w_sum, c2, self.c3, self.c4, self.P_occ, cfg.lam
            )

            for i in self.agent_ids:
                self.bus.send(Message(l, Phase.XI_BAR_BROADCAST, BLA_ID, i, xi_bar))
            for i in self.agent_ids:
                inbox = self.bus.collect(i, Phase.XI_BAR_BROADCAST, l)
                if not inbox:
                    raise ProtocolError(f"agent {i} missed the weights broadcast at iteration {l}")
                self.bus.send(self.agents[i].xi_return_message(inbox[0], l))

            xi_groups = _group_by_sender(
                self.bus.collect(BLA_ID, Phase.XI_RETURN, l), self.agent_ids, 1, Phase.XI_RETURN, l
            )
            xi_new = np.array([float(xi_groups[i][0].payload.ravel()[0]) for i in self.agent_ids])

            if xi_new.min() < -1e-6:
                warnings.append(
                    f"iteration {l}: recovered weight below zero (min {xi_new.min()!r})"
                )
            if abs(xi_new.sum() - 1.0) > 1e-8:
                warnings.append(
                    f"iteration {l}: recovered weights sum to {xi_new.sum()!r}"
                )

            self._scan(l, bla_payloads)

            g = gap(f1, f2)
            rec = GapRecord(f1=f1, f2=f2, gap=g, negative=f1 - f2 < 0, absolute_only=f2 == 0.0)
            trace.append(rec)
            if rec.negative:
                warnings.append(f"iteration {l}: negative gap {g!r}")
            self.transcript.bla_view.append(
                {
                    "iteration": l,
                    "xi_in": xi.copy(),
                    "s_sum": s_sum,
                    "c2": c2,
                    "alpha": np.asarray(alpha, dtype=float).copy(),
                    "A1_sum": A1_sum,
                    "A2_sum": A2_sum,
                    "w_sum": w_sum,
                    "xi_bar": np.asarray(xi_bar, dtype=float).copy(),
                    "xi_recovered": xi_new.copy(),
                    "f1": f1,
                    "f2": f2,
                }
            )

            xi = xi_new
            iterations += 1
            if g < cfg.tol:
                converged = True
                break

        params = AtdmParameters(
            xi=xi, alpha=alpha, beta=beta, gamma=gamma_, theta=theta, tau_occ_free=tau_occ
        )
        fit = FitResult(
            params=params,
            objective=float(f2),
            iterations=iterations,
            gap_trace=trace,
            converged=converged,
            warnings=warnings,
        )
        self.transcript.fit = fit.as_dict()
        return fit, self.transcript


def run_protocol(dataset: ClusterDataset, cfg: ProtocolConfig, bus: InProcessBus | None = None):
    """Run the privacy-preserving estimation end to end.

    Returns (FitResult, ProtocolTranscript).  Raises ProtocolError when a
    share is missing for a round or the transcript scanner detects an
    unmasked private payload.
    """
    runner = ProtocolRunner(dataset, cfg, bus=bus)
    return runner.run()
