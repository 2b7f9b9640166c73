"""Round-synchronous protocol between building agents and the coordinator.

Three parts.  The ``Coordinator`` is the load aggregator; its fields are
everything the coordinator holds.  Each ``BuildingAgent`` holds one zone's
series and its encryption column w_i.  The ``ProtocolRunner`` is the
harness: it owns the dataset, the agents, the bus, the mask set, the
``Auditor`` and ``ProtocolConfig.seed``, draws each agent's w_i once per run
and hands it to that agent, moves every message, and hands the coordinator
only what the bus delivered to receiver 0.

Round 0 is the run's one masked upload pass, one phase at a time: agent by
agent, each sends its share (``BuildingAgent.upload``), and the harness
reads it at once and adds it to the phase's ring sum, so one share per
phase is in flight, not K.  The coordinator is built from the sums: the
load regressors ``c2``, Z = τWᵀ, G = WWᵀ and W1.  Every round it solves the
dynamics subproblem from the weighted series (round 0's ``SAP_S`` sum, then
Zξ̄ of the last round's encrypted weights) and the transformed weights
problem on A1 = F_α Z = ĤWᵀ; the harness broadcasts ξ̄ and the agents
return their weights, so a later round sends 2K plain messages.  One W per
run departs from the paper's fresh encryption every round (README).

Every message is read through one receive rule, ``ProtocolRunner._collect``:
one message of the phase and round from each expected sender, in sender
order whatever the arrival order; anything else aborts the round with one
``ProtocolError`` template.  Masked shares are uint64 ring elements, and
only their sums are decoded.  Every payload crosses an in-process bus
through the binary envelope codec; the transcript records digests, the
coordinator-visible aggregates and the scan results.  The scan is run by
the ``Auditor``, the trusted party that holds every agent's secrets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..estimator import FitResult, alternate, check_penalty, check_start, solve_sp1_from_parts
from ..model import ClusterDataset, lag_columns, lag_filter, occupancy_slots
from .messages import Message, Phase, decode_message, encode_message
from .sap import PairwiseMaskSet, check_fixed_range, decode_fixed, sap_aggregate, sap_mask
from .te import compute_te_uploads, gen_encryption_col, solve_sp2_masked, te_recover
from .transcript import ProtocolTranscript, RoundView, scan_payloads

__all__ = [
    "ProtocolError",
    "ProtocolConfig",
    "BuildingAgent",
    "Auditor",
    "Coordinator",
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

    def __init__(self, agent_id: int, tau_col: np.ndarray, load_col: np.ndarray, w: np.ndarray):
        self.id = agent_id
        self.tau_col = np.asarray(tau_col, dtype=float).copy()
        self.load_col = np.asarray(load_col, dtype=float).copy()
        self.w = np.asarray(w, dtype=float).copy()  # the encryption column, one per run
        self.xi_i: float | None = None  # the start weight, assigned at setup

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
        (``SAP_LOAD``), then, for its encryption column w_i, τ_i w_iᵀ
        (``TE_A1``), w_i w_iᵀ (``TE_A2``) and w_i (``TE_W``)."""
        if phase not in UPLOADS:
            raise ValueError(f"{phase!r} is not an upload phase")
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
    Agent by agent, its references are the temperature and load series,
    then the upload intermediates, rebuilt from round 0's input weights and
    the agent's encryption column: each as long as some share column."""

    def __init__(self, agents: list[BuildingAgent]):
        self.agents = agents
        self._xi_in: np.ndarray | None = None  # round 0's input weights, once audited

    def private_refs(self) -> list:
        """Every agent's references for the audited round, agent by agent."""
        refs = []
        for k, a in enumerate(self.agents):
            w, p = a.w, f"agent{a.id}/"
            refs += [(p + "tau_full", a.tau_col), (p + "load_full", a.load_col)]
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


class Coordinator:
    """The load aggregator's half of the fit; its fields are everything the
    coordinator holds.  ``c3`` and ``c4`` are the public outdoor-temperature
    and radiation regressors; ``c2``, Z = τWᵀ, G = WWᵀ and ``w1`` = W1 are
    round 0's decoded sums; ``xi_in`` and ``s_sum`` are the round's input
    weights and weighted series, and ``xi_bar`` the last encrypted weights."""

    def __init__(self, c2, c3, c4, Z, G, w1, T_occ: int, lam: float):
        self.c2, self.c3, self.c4 = c2, c3, c4
        self.Z, self.G, self.w1 = Z, G, w1
        self.T_occ, self.lam = T_occ, lam
        self.xi_in = self.s_sum = self.xi_bar = None

    def dynamics(self, xi: np.ndarray, s_sum: np.ndarray | None = None):
        """Dynamics step for the input weights ``xi``, from the weighted series
        ``s_sum`` (round 0's ``SAP_S`` sum) or, when None, from Zξ̄ = τWᵀξ̄ for
        the last round's encrypted weights ξ̄.  Returns (alpha, f1)."""
        self.xi_in = xi.copy()
        self.s_sum = self.Z @ self.xi_bar if s_sum is None else s_sum
        alpha, *_unused, f1 = solve_sp1_from_parts(
            self.s_sum, self.c2, self.c3, self.c4, self.T_occ, self.lam, float(xi @ xi)
        )
        return alpha, f1

    def weights(self, alpha: np.ndarray):
        """Weights step: solve the transformed weights subproblem on
        A1 = F_α Z = ĤWᵀ, G and W1, and keep its encrypted weights ξ̄.
        Returns (A1, (xi_bar, beta, gamma, theta, tau_occ_free, rcond, f2))."""
        A1_sum = lag_filter(self.Z, self.c2.shape[1] - 1, alpha)
        solved = solve_sp2_masked(A1_sum, self.G, self.w1, self.c2, self.c3, self.c4, self.T_occ, self.lam)
        self.xi_bar = solved[0]
        return A1_sum, solved


class ProtocolRunner:
    """The harness around the ``Coordinator`` (see the module docstring)."""

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
        self.agents = {}
        for i in self.agent_ids:
            rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(2000, i)))
            w = gen_encryption_col(self.K, rng)  # agent i's encryption column, drawn once per run
            self.agents[i] = BuildingAgent(i, dataset.tau_in[:, i - 1], dataset.h_load[:, i - 1], w)
        self.bus = bus if bus is not None else InProcessBus(ProtocolTranscript())
        self.transcript = self.bus.transcript  # a supplied bus keeps the transcript it logs to
        occupancy_slots(self.T, cfg.T_occ)  # a bad T_occ, lambda or load stops the run before any upload
        check_penalty(cfg.lam)
        for agent in self.agents.values():
            agent.check_load_range(self.K)
        self.coordinator: Coordinator | None = None  # built from round 0's sums
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

    def _shares(self, phase: Phase, masks: PairwiseMaskSet, payloads: list | None):
        """Yield round 0's ``phase`` shares in agent order: each agent makes
        and sends its share, and receiver 0's copy is read at once.  Each
        whole share is appended to ``payloads`` for the privacy scan, unless
        that is None."""
        for i in self.agent_ids:
            self.bus.send(self.agents[i].upload(phase, masks))
            (share,) = self._collect(BLA_ID, phase, 0, [i])
            if payloads is not None:
                payloads.append((f"iter0/{phase.name.lower()}/agent{i}", share))
            yield share

    # -- the two steps of every round ------------------------------------------

    def _dynamics_step(self, l: int, xi: np.ndarray):
        """Dynamics step of round l for the input weights ``xi``; returns
        (alpha, f1).  Round 0 first runs the masked upload pass, builds the
        coordinator from its sums and the public series, has the auditor
        scan the shares, and hands the coordinator the ``SAP_S`` sum."""
        if l > 0:
            return self.coordinator.dynamics(xi)
        masks = PairwiseMaskSet(self.cfg.seed, self.agent_ids)
        payloads = [] if self.auditor is not None else None  # only the scan needs the shares kept
        s_sum, load_sum, Z, G, w1 = (
            sap_aggregate(self._shares(phase, masks, payloads)) for phase in UPLOADS
        )
        ds, M = self.dataset, self.M
        self.coordinator = Coordinator(
            lag_columns(load_sum.ravel(), M), lag_columns(ds.tau_out, M), lag_columns(ds.h_rad, M),
            Z, G, w1.ravel(), self.cfg.T_occ, self.cfg.lam,
        )
        self.transcript.c2, self.transcript.Z = self.coordinator.c2, Z
        if self.auditor is not None:
            self.auditor.audit(xi, payloads, self.transcript)
        return self.coordinator.dynamics(xi, s_sum.ravel())

    def _weights_step(self, l: int, alpha: np.ndarray):
        """Weights step of round l: the coordinator's encrypted weights are
        broadcast, the agents return theirs, and the coordinator's view is
        recorded.  Returns (xi, beta, gamma, theta, tau_occ_free, rcond, f2)."""
        coord = self.coordinator
        A1_sum, (xi_bar, *coefs, f2) = coord.weights(alpha)
        for i in self.agent_ids:
            self.bus.send(Message(l, Phase.XI_BAR_BROADCAST, BLA_ID, i, xi_bar))
        for i in self.agent_ids:
            (read,) = self._collect(i, Phase.XI_BAR_BROADCAST, l, [BLA_ID])
            self.bus.send(self.agents[i].xi_return_message(read, l))
        returns = self._collect(BLA_ID, Phase.XI_RETURN, l, self.agent_ids)
        xi_new = np.array([float(p[0, 0]) for p in returns])
        self.transcript.bla_view.append(RoundView(
            xi_in=coord.xi_in, s_sum=coord.s_sum, alpha=np.asarray(alpha, dtype=float).copy(),
            A1_sum=A1_sum, A2_sum=coord.G, w_sum=coord.w1, xi_bar=xi_bar, xi_recovered=xi_new.copy(),
        ))
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
