"""Round-synchronous protocol between building agents and the coordinator.

Each agent draws its private encryption column w_i once per run.  In round
0 every agent makes one masked upload pass: its weighted temperature series
(``SAP_S``), its load series (``SAP_LOAD``), the outer product of its whole
temperature series with its column (``TE_A1``), the column's outer product
with itself (``TE_A2``) and the column (``TE_W``).  The pass runs one phase
at a time: agent by agent, each makes and sends its share, and the
coordinator reads it at once and adds it to the phase's ring sum, so round
0 holds one share per phase in flight, not K.  The coordinator keeps the
sums for the whole run: the load regressors ``c2``, Z = τWᵀ, G = WWᵀ
and W1.  Every round it then solves the dynamics subproblem from the
weighted series (round 0's ``SAP_S`` sum, and Zξ̄ of the last round's
encrypted weights after it), filters Z by the dynamics to the transformed
weights problem (A1 = F_α Z = ĤWᵀ), solves it and broadcasts the encrypted
weights (``XI_BAR_BROADCAST``); agents return their recovered weights
(``XI_RETURN``).  So only round 0 builds a mask set, and a later round
sends 2K plain messages.  One W per run departs from the paper's fresh
encryption every round (README, threat model).

Every message is read through one receive rule, ``ProtocolRunner._collect``:
exactly one message of the phase and round from each expected sender (the
agents for an upload, the coordinator for a broadcast), returned in sender
order whatever the arrival order, so nothing depends on the transport; a
message from anyone else, a second message or a missing one aborts the
round with one ``ProtocolError`` template.  Masked shares are uint64 ring
elements, and the coordinator decodes only their sums.  Every payload
crosses an in-process bus through the binary envelope codec; the transcript
records digests, the coordinator-visible aggregates, and privacy-scan
results.  The scan is run by an ``Auditor``, the trusted party that holds
every agent's secrets, not by the coordinator or the agents.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..estimator import FitResult, alternate, check_penalty, check_start, solve_sp1_from_parts
from ..model import ClusterDataset, lag_columns, lag_filter, lag_view, occupancy_slots
from .messages import Message, Phase, decode_message, encode_message
from .sap import PairwiseMaskSet, check_fixed_range, decode_fixed, sap_aggregate, sap_mask
from .te import compute_te_uploads, gen_encryption_col, solve_sp2_masked, te_recover
from .transcript import ProtocolTranscript, RoundView, scan_payloads

__all__ = [
    "ProtocolError",
    "ProtocolConfig",
    "BuildingAgent",
    "Auditor",
    "InProcessBus",
    "ProtocolRunner",
    "run_protocol",
]

BLA_ID = 0
UPLOADS = (Phase.SAP_S, Phase.SAP_LOAD, Phase.TE_A1, Phase.TE_A2, Phase.TE_W)  # round 0's, in order


class ProtocolError(RuntimeError):
    """Aborted round: a message that breaks the receive rule, or a private
    payload leaked in the clear."""


@dataclass
class ProtocolConfig:
    lam: float = 100.0
    tol: float = 1e-6
    max_iter: int = 20
    T_occ: int = 48
    seed: int = 0
    scan: bool = True
    xi0: np.ndarray | None = None


class InProcessBus:
    """Synchronous transport: every send is encoded, logged, and delivered
    through the envelope codec.  The coordinator reads each phase by
    sender, so results do not depend on the arrival order."""

    def __init__(self, transcript: ProtocolTranscript):
        self.transcript = transcript
        self.mailboxes: dict[int, list] = {}

    def send(self, msg: Message):
        data = encode_message(msg)
        self.transcript.log(msg, data)
        self.mailboxes.setdefault(msg.receiver, []).append(decode_message(data))

    def collect(self, receiver: int, phase: Phase, iteration: int) -> list:
        box = self.mailboxes.get(receiver, [])
        take = [m for m in box if m.phase == phase and m.iteration == iteration]
        rest = [m for m in box if not (m.phase == phase and m.iteration == iteration)]
        self.mailboxes[receiver] = rest
        return take


class BuildingAgent:
    """One zone's protocol participant; holds only its own two columns and
    its encryption column."""

    def __init__(self, agent_id: int, tau_col: np.ndarray, load_col: np.ndarray, M: int, cfg: ProtocolConfig):
        self.id = agent_id
        self.tau_col = np.asarray(tau_col, dtype=float).copy()
        self.load_col = np.asarray(load_col, dtype=float).copy()
        self.M = M
        self.cfg = cfg
        self.xi_i: float | None = None  # assigned by the coordinator at setup
        self.w: np.ndarray | None = None  # drawn at the upload, once per run

    def check_load_range(self, K: int):
        """Raise ValueError, naming this agent, when its load series leaves
        the fixed-point range of a K-share sum; the series is uploaded as is,
        so this check before any upload is exact."""
        check_fixed_range(self.load_col, K, f"agent {self.id}'s load series")

    def _masked(self, phase: Phase, x, masks: PairwiseMaskSet) -> Message:
        try:
            share = sap_mask(x, self.id, masks, phase)
        except ValueError as exc:
            raise ValueError(f"agent {self.id}'s {phase.name} upload at iteration 0: {exc}") from None
        return Message(0, phase, self.id, BLA_ID, share)

    def upload(self, phase: Phase, masks: PairwiseMaskSet) -> Message:
        """The agent's share of one phase of its masked upload pass, in
        round 0: its weighted temperature series (``SAP_S``) and load series
        (``SAP_LOAD``), then, for an encryption column w_i drawn once per
        run, at the agent's first upload, τ_i w_iᵀ (``TE_A1``), w_i w_iᵀ
        (``TE_A2``) and w_i (``TE_W``)."""
        if phase not in UPLOADS:
            raise ValueError(f"{phase!r} is not an upload phase")
        if self.w is None:
            rng = np.random.default_rng(np.random.SeedSequence(self.cfg.seed, spawn_key=(2000, self.id)))
            self.w = gen_encryption_col(len(masks.agent_ids), rng)
        if phase == Phase.SAP_S:
            x = self.xi_i * self.tau_col
        elif phase == Phase.SAP_LOAD:
            x = self.load_col
        elif phase == Phase.TE_A1:
            x = compute_te_uploads(self.tau_col, self.w)
        elif phase == Phase.TE_A2:
            x = compute_te_uploads(self.w, self.w)
        else:
            x = self.w
        return self._masked(phase, x, masks)

    def xi_return_message(self, xi_bar: np.ndarray, iteration: int) -> Message:
        self.xi_i = te_recover(self.w, xi_bar.ravel())
        return Message(iteration, Phase.XI_RETURN, self.id, BLA_ID, np.array([self.xi_i]))


class Auditor:
    """The trusted party that holds every agent's secrets and checks that
    none reached the coordinator in the clear.

    Only round 0 carries masked shares, so it is the one round audited.
    Agent by agent, its references are the temperature and load series and
    their lag views, then the upload intermediates, rebuilt from round 0's
    input weights and the agent's encryption column."""

    def __init__(self, agents: list[BuildingAgent]):
        self.agents = agents
        self._xi_in: np.ndarray | None = None  # round 0's input weights, once audited

    def private_refs(self) -> list:
        """Every agent's references for the audited round, agent by agent."""
        refs = []
        for k, a in enumerate(self.agents):
            w, p = a.w, f"agent{a.id}/"
            refs += [(p + "tau_full", a.tau_col), (p + "load_full", a.load_col)]
            for m in range(a.M + 1):
                refs += [(f"{p}tau_lag{m}", lag_view(a.tau_col, a.M, m)),
                         (f"{p}load_lag{m}", lag_view(a.load_col, a.M, m))]
            refs += [(p + "weighted_share", self._xi_in[k] * a.tau_col), (p + "w_col", w)]
            refs += [(f"{p}A1_col{c}", a.tau_col * wc) for c, wc in enumerate(w)]
            refs += [(f"{p}A2_col{c}", w * wc) for c, wc in enumerate(w)]
        return refs

    def audit(self, xi_in: np.ndarray, payloads: list, transcript: ProtocolTranscript):
        """Scan the fixed-point decoding of every share the coordinator
        received, in round 0 with input weights ``xi_in``, decoded at the
        probe rows and in the columns that pass them only, and record the
        result in ``transcript``.  Raises ProtocolError on a finding."""
        self._xi_in = xi_in
        checked, findings = scan_payloads(payloads, self.private_refs(), decode=decode_fixed)
        transcript.scan_checked += checked
        if findings:
            transcript.scan_findings.extend(findings)
            shown = "; ".join(f"{p}[col {c}] == {r}" for p, c, r in findings[:5])
            raise ProtocolError(
                f"privacy violation at iteration 0: {len(findings)} "
                f"coordinator-visible payload(s) match private data ({shown})"
            )


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
        self.bus = bus if bus is not None else InProcessBus(ProtocolTranscript())
        self.transcript = self.bus.transcript  # a supplied bus keeps the transcript it logs to
        occupancy_slots(self.T, cfg.T_occ)  # a bad T_occ, lambda or load stops the run before any upload
        check_penalty(cfg.lam)
        for agent in self.agents.values():
            agent.check_load_range(self.K)
        # coordinator-held regressors and run products, c2, Z, G and w1 summed from round 0's uploads
        self.c2 = self.Z = self.G = self.w1 = None
        self.c3 = lag_columns(dataset.tau_out, self.M)
        self.c4 = lag_columns(dataset.h_rad, self.M)
        self._xi_bar = None  # the last round's encrypted weights
        self._round = None  # what the dynamics step hands the weights step
        self.auditor = Auditor([self.agents[i] for i in self.agent_ids]) if cfg.scan else None

    def _private_refs(self) -> list:
        return self.auditor.private_refs()

    # -- the one receive rule ------------------------------------------------

    def _collect(self, receiver: int, phase: Phase, l: int, senders: list) -> list:
        """The payload of each sender's one ``phase`` message of round l to
        ``receiver``, in ``senders`` order.

        Raises ProtocolError naming the phase, the receiver, the round and
        the sorted ids when a message comes from an id not in ``senders``,
        when a sender sent a second message, or when one sent none."""
        known, got = set(senders), {}
        strangers, repeats = set(), set()
        for m in self.bus.collect(receiver, phase, l):
            if m.sender not in known:
                strangers.add(m.sender)
            elif m.sender in got:
                repeats.add(m.sender)
            else:
                got[m.sender] = m.payload
        if strangers or repeats or len(got) < len(known):
            for problem, ids in (
                ("message from unknown sender(s)", strangers),
                ("second message from sender(s)", repeats),
                ("no message from sender(s)", known - got.keys()),
            ):
                if ids:
                    raise ProtocolError(
                        f"{phase.name} to receiver {receiver} at iteration {l}: {problem} {sorted(ids)}"
                    )
        return [got[i] for i in senders]

    def _broadcast(self, phase: Phase, l: int, payload: np.ndarray):
        """Send ``payload`` to every agent as its ``phase`` message of round
        l, then yield each agent, in agent order, with the payload it read."""
        for i in self.agent_ids:
            self.bus.send(Message(l, phase, BLA_ID, i, payload))
        for i in self.agent_ids:
            (read,) = self._collect(i, phase, l, [BLA_ID])
            yield self.agents[i], read

    def _shares(self, phase: Phase, masks: PairwiseMaskSet, payloads: list | None):
        """Yield round 0's ``phase`` shares in agent order: each agent makes
        and sends its share, and the coordinator reads it at once.  Each
        whole share is appended to ``payloads`` for the privacy scan, unless
        that is None."""
        for i in self.agent_ids:
            self.bus.send(self.agents[i].upload(phase, masks))
            (share,) = self._collect(BLA_ID, phase, 0, [i])
            if payloads is not None:
                payloads.append((f"iter0/{phase.name.lower()}/agent{i}", share))
            yield share

    # -- round 0's upload and the two steps of every round ---------------------

    def _upload_round(self, xi: np.ndarray) -> np.ndarray:
        """Round 0's one masked upload pass, one phase at a time, each
        share added to its phase's sum as it arrives.  Keeps ``c2``, Z, G
        and W1 for the run, has the auditor scan the shares, and returns the
        weighted series summed from the ``SAP_S`` shares; ``xi`` is the
        agents' input weights."""
        masks = PairwiseMaskSet(self.cfg.seed, self.agent_ids)
        payloads = [] if self.auditor is not None else None  # only the scan needs the shares kept
        s_sum, load_sum, self.Z, self.G, w1 = (
            sap_aggregate(self._shares(phase, masks, payloads)) for phase in UPLOADS
        )
        s_sum, self.w1 = s_sum.ravel(), w1.ravel()
        self.c2 = lag_columns(load_sum.ravel(), self.M)
        self.transcript.c2, self.transcript.Z = self.c2, self.Z
        if self.auditor is not None:
            self.auditor.audit(xi, payloads, self.transcript)
        return s_sum

    def _dynamics_step(self, l: int, xi: np.ndarray):
        """Dynamics step of round l: the weighted series is round 0's
        ``SAP_S`` sum, and after it Zξ̄ = τWᵀξ̄ for the last round's
        encrypted weights ξ̄.  Returns (alpha, f1); ``xi`` is the round's
        input weights, for the penalty."""
        s_sum = self._upload_round(xi) if l == 0 else self.Z @ self._xi_bar
        alpha, *_unused, f1 = solve_sp1_from_parts(
            s_sum, self.c2, self.c3, self.c4, self.cfg.T_occ, self.cfg.lam, float(xi @ xi)
        )
        self._round = {"xi_in": xi.copy(), "s_sum": s_sum}
        return alpha, f1

    def _weights_step(self, l: int, alpha: np.ndarray):
        """Weights step of round l: solve the transformed weights subproblem
        on A1 = F_α Z = ĤWᵀ, G and W1, broadcast the encrypted weights, let
        the agents recover and return theirs, and record the coordinator's
        view.  Returns (xi, beta, gamma, theta, tau_occ_free, f2)."""
        rnd = self._round
        A1_sum = lag_filter(self.Z, self.M, alpha)
        xi_bar, *coefs, f2 = solve_sp2_masked(
            A1_sum, self.G, self.w1, self.c2, self.c3, self.c4, self.cfg.T_occ, self.cfg.lam
        )

        for agent, xi_bar_read in self._broadcast(Phase.XI_BAR_BROADCAST, l, xi_bar):
            self.bus.send(agent.xi_return_message(xi_bar_read, l))

        returns = self._collect(BLA_ID, Phase.XI_RETURN, l, self.agent_ids)
        xi_new = np.array([float(p[0, 0]) for p in returns])

        self.transcript.bla_view.append(RoundView(
            xi_in=rnd["xi_in"],
            s_sum=rnd["s_sum"],
            alpha=np.asarray(alpha, dtype=float).copy(),
            A1_sum=A1_sum,
            A2_sum=self.G,
            w_sum=self.w1,
            xi_bar=xi_bar,
            xi_recovered=xi_new.copy(),
        ))
        self._xi_bar, self._round = xi_bar, None
        return (xi_new, *coefs, f2)

    def run(self) -> tuple[FitResult, ProtocolTranscript]:
        xi = check_start(self.cfg.xi0, self.K)
        for idx, i in enumerate(self.agent_ids):
            self.agents[i].xi_i = float(xi[idx])
        fit = alternate(self._dynamics_step, self._weights_step, xi, self.cfg.tol, self.cfg.max_iter)
        return fit, self.transcript


def run_protocol(dataset: ClusterDataset, cfg: ProtocolConfig, bus: InProcessBus | None = None):
    """Run the privacy-preserving estimation end to end.

    Returns (FitResult, ProtocolTranscript).  Raises ProtocolError when a
    message is missing, repeated or from an unexpected sender, or the
    transcript scanner detects an unmasked private payload.
    """
    runner = ProtocolRunner(dataset, cfg, bus=bus)
    return runner.run()
