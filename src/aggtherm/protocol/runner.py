"""Round-synchronous protocol between building agents and the coordinator.

Each round: agents secure-aggregate their weighted temperature series
(``SAP_S``) and raw load series (``SAP_LOAD``); the coordinator slices the
lags it needs from the two sums, solves the dynamics subproblem and
broadcasts the dynamics coefficients (``ALPHA_BROADCAST``); agents upload
their transformation-masked outer products (``TE_A1``, ``TE_A2``) and
encryption column (``TE_W``); the coordinator solves the transformed
weights subproblem and broadcasts the encrypted weights
(``XI_BAR_BROADCAST``); and agents return their recovered weights
(``XI_RETURN``).

Every agent sends one envelope per upload phase, and the coordinator reads
every upload phase through ``ProtocolRunner._collect``: one payload per agent, in
agent order, whatever the arrival order, so nothing it does depends on the
transport; each agent reads its broadcasts through
``ProtocolRunner._broadcast``, which accepts exactly one, from the
coordinator.  Masked shares are uint64 ring elements, and the coordinator
decodes only their sums.  Every payload crosses an in-process bus through
the binary envelope codec; the transcript records digests, the
coordinator-visible aggregates, and privacy-scan results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..estimator import FitResult, alternate, check_start, solve_sp1_from_parts
from ..model import ClusterDataset, lag_columns, lag_filter, lag_view, occupancy_tiling
from .messages import Message, Phase, decode_message, encode_message
from .sap import (
    KIND_SAP_LOAD,
    KIND_SAP_S,
    KIND_TE_A1,
    KIND_TE_A2,
    KIND_TE_W,
    PairwiseMaskSet,
    decode_fixed,
    sap_aggregate,
    sap_mask,
)
from .te import compute_te_uploads, gen_encryption_col, solve_sp2_masked, te_recover
from .transcript import ProtocolTranscript, ScanReferences, scan_payloads

__all__ = [
    "ProtocolError",
    "ProtocolConfig",
    "BuildingAgent",
    "InProcessBus",
    "ProtocolRunner",
    "run_protocol",
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
    permute arrival order; the coordinator reads each phase by sender, so
    results do not depend on the order."""

    def __init__(self, transcript: ProtocolTranscript, permute_seed=None, drop=None):
        self.transcript = transcript
        self.mailboxes: dict[int, list] = {}
        self.drop = set(drop or ())
        self._perm_rng = (
            np.random.default_rng(permute_seed) if permute_seed is not None else None
        )

    def send(self, msg: Message):
        data = encode_message(msg)
        self.transcript.log(msg, data)
        if (msg.phase, msg.sender) in self.drop:
            return
        self.mailboxes.setdefault(msg.receiver, []).append(decode_message(data))

    def collect(self, receiver: int, phase: Phase, iteration: int) -> list:
        box = self.mailboxes.get(receiver, [])
        take = [m for m in box if m.phase == phase and m.iteration == iteration]
        rest = [m for m in box if not (m.phase == phase and m.iteration == iteration)]
        self.mailboxes[receiver] = rest
        if self._perm_rng is not None:
            order = self._perm_rng.permutation(len(take))
            take = [take[i] for i in order]
        return take


class BuildingAgent:
    """One zone's protocol participant; holds only its own two columns."""

    def __init__(self, agent_id: int, tau_col: np.ndarray, load_col: np.ndarray, M: int, cfg: ProtocolConfig):
        self.id = agent_id
        self.tau_col = np.asarray(tau_col, dtype=float).copy()
        self.load_col = np.asarray(load_col, dtype=float).copy()
        self.M = M
        self.cfg = cfg
        self.xi_i: float | None = None  # assigned by the coordinator at setup
        p = f"agent{agent_id}/"
        self._series_refs = [(p + "tau_full", self.tau_col), (p + "load_full", self.load_col)]
        for m in range(M + 1):
            self._series_refs.append((f"{p}tau_lag{m}", lag_view(self.tau_col, M, m)))
            self._series_refs.append((f"{p}load_lag{m}", lag_view(self.load_col, M, m)))
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

    def _masked(self, iteration: int, phase: Phase, x, masks: PairwiseMaskSet, kind: int) -> Message:
        return Message(iteration, phase, self.id, BLA_ID, sap_mask(x, self.id, masks, kind))

    def sap_upload(self, iteration: int, masks: PairwiseMaskSet) -> list:
        """This round's ``SAP_S`` and ``SAP_LOAD`` messages: the masked
        weighted temperature series and the masked load series."""
        share = self.xi_i * self.tau_col
        self._keep_refs(iteration, [(f"agent{self.id}/weighted_share", share)])
        return [
            self._masked(iteration, Phase.SAP_S, share, masks, KIND_SAP_S),
            self._masked(iteration, Phase.SAP_LOAD, self.load_col, masks, KIND_SAP_LOAD),
        ]

    def te_upload(self, alpha_msg: Message, K: int, iteration: int, masks: PairwiseMaskSet) -> list:
        """This round's ``TE_A1``, ``TE_A2`` and ``TE_W`` messages: the masked
        outer products of the filtered series and of a fresh encryption
        column with that column, and the masked column."""
        hat_col = lag_filter(self.tau_col, self.M, alpha_msg.payload)
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
        return [
            self._masked(iteration, Phase.TE_A1, A1, masks, KIND_TE_A1),
            self._masked(iteration, Phase.TE_A2, A2, masks, KIND_TE_A2),
            self._masked(iteration, Phase.TE_W, self._w, masks, KIND_TE_W),
        ]

    def private_refs(self, iteration: int) -> list:
        """Labelled private vectors for the privacy scan of ``iteration``:
        the full series and their lag views, then ``upload_refs``."""
        return self._series_refs + self.upload_refs(iteration)

    def upload_refs(self, iteration: int) -> list:
        """What this agent computed for ``iteration``'s uploads (weighted
        share, filtered series, encryption column, outer-product columns),
        labelled the same in every round."""
        return self._upload_refs.get(iteration, [])

    def xi_return_message(self, xi_bar_msg: Message, iteration: int) -> Message:
        xi_bar = xi_bar_msg.payload.ravel()
        self.xi_i = te_recover(self._w, xi_bar)
        return Message(iteration, Phase.XI_RETURN, self.id, BLA_ID, np.array([self.xi_i]))


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
        self._round = None  # what the dynamics step hands the weights step
        self._scan_refs: ScanReferences | None = None  # built by the first scan

    # -- scanning helpers -------------------------------------------------

    def _private_refs(self, iteration: int) -> list:
        return [ref for i in self.agent_ids for ref in self.agents[i].private_refs(iteration)]

    def _scan(self, iteration: int, bla_payloads: list):
        """Compare the fixed-point decoding of every share the coordinator
        received with the agents' references.  The references are built in
        the first scanned round; later rounds refresh only the upload
        intermediates, as the series do not change.  Shares are decoded at
        the probe rows and in the columns that pass them only."""
        if not self.cfg.scan:
            return
        if self._scan_refs is None:
            self._scan_refs = ScanReferences(self._private_refs(iteration))
        else:
            self._scan_refs.update(
                [ref for i in self.agent_ids for ref in self.agents[i].upload_refs(iteration)]
            )
        checked, findings = scan_payloads(bla_payloads, self._scan_refs, decode=decode_fixed)
        self.transcript.scan_checked += checked
        if findings:
            self.transcript.scan_findings.extend(findings)
            shown = "; ".join(f"{p}[col {c}] == {r}" for p, c, r in findings[:5])
            raise ProtocolError(
                f"privacy violation at iteration {iteration}: {len(findings)} "
                f"coordinator-visible payload(s) match private data ({shown})"
            )

    # -- reading one phase -----------------------------------------------------

    def _collect(self, phase: Phase, l: int) -> list:
        """Every agent's one ``phase`` payload of round l, in agent order.

        Raises ProtocolError naming the senders when a share comes from an id
        that is not an agent, when an agent sent a second share, or when an
        agent's share is missing."""
        got: dict[int, np.ndarray] = {}
        strangers, repeats = set(), set()
        for m in self.bus.collect(BLA_ID, phase, l):
            if m.sender not in self.agents:
                strangers.add(m.sender)
            elif m.sender in got:
                repeats.add(m.sender)
            else:
                got[m.sender] = m.payload
        missing = {i for i in self.agent_ids if i not in got}
        for problem, ids in (
            (f"{phase.name} share from unknown sender(s)", strangers),
            (f"duplicate {phase.name} share from agent(s)", repeats),
            (f"missing {phase.name} share from agent(s)", missing),
        ):
            if ids:
                raise ProtocolError(f"{problem} {sorted(ids)} at iteration {l}")
        return [got[i] for i in self.agent_ids]

    def _broadcast(self, i: int, phase: Phase, l: int, what: str) -> Message:
        """Agent i's one ``phase`` broadcast of round l (the ``what``
        broadcast) from the coordinator.

        Raises ProtocolError naming the phase and the senders when a message
        comes from another id, when there is more than one, or when there is
        none."""
        inbox = self.bus.collect(i, phase, l)
        forged = sorted(m.sender for m in inbox if m.sender != BLA_ID)
        if forged:
            raise ProtocolError(
                f"{phase.name} to agent {i} from non-coordinator sender(s) {forged} at iteration {l}"
            )
        if len(inbox) > 1:
            raise ProtocolError(
                f"{len(inbox)} {phase.name} messages to agent {i} from sender(s) "
                f"{[m.sender for m in inbox]} at iteration {l}"
            )
        if not inbox:
            raise ProtocolError(
                f"agent {i} missed the {what} broadcast at iteration {l} (no {phase.name} message)"
            )
        return inbox[0]

    def _aggregate(self, phase: Phase, l: int, payloads: list) -> np.ndarray:
        """Decoded sum of round l's ``phase`` shares; each whole share is
        appended to ``payloads`` for the privacy scan."""
        shares = self._collect(phase, l)
        for i, share in zip(self.agent_ids, shares):
            payloads.append((f"iter{l}/{phase.name.lower()}/agent{i}", share))
        return sap_aggregate(shares)

    # -- the two steps of one round ------------------------------------------

    def _sap_step(self, l: int, xi: np.ndarray):
        """Dynamics step of round l: secure-aggregate the agents' weighted
        temperature and load series and solve for the dynamics.  Returns
        (alpha, f1); ``xi`` is the round's input weights, for the penalty.
        The round's one mask set goes on to the weights step."""
        masks = PairwiseMaskSet(self.cfg.seed, self.agent_ids, iteration=l)
        for i in self.agent_ids:
            for msg in self.agents[i].sap_upload(l, masks):
                self.bus.send(msg)

        payloads = []
        s_sum = self._aggregate(Phase.SAP_S, l, payloads).ravel()
        load_sum = self._aggregate(Phase.SAP_LOAD, l, payloads).ravel()
        c2 = lag_columns(load_sum, self.M)
        alpha, *_unused, f1 = solve_sp1_from_parts(
            s_sum, c2, self.c3, self.c4, self.P_occ, self.cfg.lam, float(xi @ xi)
        )
        self._round = {
            "masks": masks, "payloads": payloads, "xi_in": xi.copy(),
            "s_sum": s_sum, "c2": c2, "f1": f1,
        }
        return alpha, f1

    def _te_step(self, l: int, alpha: np.ndarray):
        """Weights step of round l: broadcast the dynamics, solve the
        transformation-masked weights subproblem, let the agents recover their
        weights, then scan the round and record the coordinator's view.
        Returns (xi, beta, gamma, theta, tau_occ_free, f2)."""
        rnd = self._round
        masks = rnd["masks"]
        for i in self.agent_ids:
            self.bus.send(Message(l, Phase.ALPHA_BROADCAST, BLA_ID, i, alpha))
        for i in self.agent_ids:
            alpha_msg = self._broadcast(i, Phase.ALPHA_BROADCAST, l, "dynamics")
            for msg in self.agents[i].te_upload(alpha_msg, self.K, l, masks):
                self.bus.send(msg)

        payloads = rnd["payloads"]
        A1_sum = self._aggregate(Phase.TE_A1, l, payloads)
        A2_sum = self._aggregate(Phase.TE_A2, l, payloads)
        w_sum = self._aggregate(Phase.TE_W, l, payloads).ravel()

        xi_bar, *coefs, f2 = solve_sp2_masked(
            A1_sum, A2_sum, w_sum, rnd["c2"], self.c3, self.c4, self.P_occ, self.cfg.lam
        )

        for i in self.agent_ids:
            self.bus.send(Message(l, Phase.XI_BAR_BROADCAST, BLA_ID, i, xi_bar))
        for i in self.agent_ids:
            xi_bar_msg = self._broadcast(i, Phase.XI_BAR_BROADCAST, l, "weights")
            self.bus.send(self.agents[i].xi_return_message(xi_bar_msg, l))

        xi_new = np.array([float(p[0, 0]) for p in self._collect(Phase.XI_RETURN, l)])

        self._scan(l, payloads)
        self.transcript.bla_view.append(
            {
                "iteration": l,
                "xi_in": rnd["xi_in"],
                "s_sum": rnd["s_sum"],
                "c2": rnd["c2"],
                "alpha": np.asarray(alpha, dtype=float).copy(),
                "A1_sum": A1_sum,
                "A2_sum": A2_sum,
                "w_sum": w_sum,
                "xi_bar": np.asarray(xi_bar, dtype=float).copy(),
                "xi_recovered": xi_new.copy(),
                "f1": rnd["f1"],
                "f2": f2,
            }
        )
        self._round = None
        return (xi_new, *coefs, f2)

    def run(self) -> tuple[FitResult, ProtocolTranscript]:
        xi = check_start(self.cfg.xi0, self.K)
        for idx, i in enumerate(self.agent_ids):
            self.agents[i].xi_i = float(xi[idx])
        fit = alternate(self._sap_step, self._te_step, xi, self.cfg.tol, self.cfg.max_iter)
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
