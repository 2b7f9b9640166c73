"""Round-synchronous protocol between building agents and the coordinator.

Each round: agents secure-aggregate their weighted temperature series
(``SAP_S``), and in round 0 only their raw load series (``SAP_LOAD``); the
coordinator slices the lags it needs from the sums, solves the dynamics
subproblem and broadcasts the dynamics coefficients (``ALPHA_BROADCAST``);
agents upload their transformation-masked outer products (``TE_A1``,
``TE_A2``) and encryption column (``TE_W``); the coordinator solves the
transformed weights subproblem and broadcasts the encrypted weights
(``XI_BAR_BROADCAST``); and agents return their recovered weights
(``XI_RETURN``).

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
    """One zone's protocol participant; holds only its own two columns."""

    def __init__(self, agent_id: int, tau_col: np.ndarray, load_col: np.ndarray, M: int, cfg: ProtocolConfig):
        self.id = agent_id
        self.tau_col = np.asarray(tau_col, dtype=float).copy()
        self.load_col = np.asarray(load_col, dtype=float).copy()
        self.M = M
        self.cfg = cfg
        self.xi_i: float | None = None  # assigned by the coordinator at setup
        self.w_history: dict[int, np.ndarray] = {}

    def check_load_range(self, K: int):
        """Raise ValueError, naming this agent, when its load series leaves
        the fixed-point range of a K-share sum; the series is uploaded as is,
        so this check before any upload is exact."""
        check_fixed_range(self.load_col, K, f"agent {self.id}'s load series")

    def _masked(self, iteration: int, phase: Phase, x, masks: PairwiseMaskSet) -> Message:
        try:
            share = sap_mask(x, self.id, masks, phase)
        except ValueError as exc:
            where = f"agent {self.id}'s {phase.name} upload at iteration {iteration}"
            raise ValueError(f"{where}: {exc}") from None
        return Message(iteration, phase, self.id, BLA_ID, share)

    def sap_upload(self, iteration: int, masks: PairwiseMaskSet) -> list:
        """This round's ``SAP_S`` message, the masked weighted temperature
        series, and in round 0 the ``SAP_LOAD`` message, the masked load
        series, which does not change between rounds."""
        msgs = [self._masked(iteration, Phase.SAP_S, self.xi_i * self.tau_col, masks)]
        if iteration == 0:
            msgs.append(self._masked(iteration, Phase.SAP_LOAD, self.load_col, masks))
        return msgs

    def te_upload(self, alpha: np.ndarray, K: int, iteration: int, masks: PairwiseMaskSet) -> list:
        """This round's ``TE_A1``, ``TE_A2`` and ``TE_W`` messages: the masked
        outer products of the series filtered by the broadcast dynamics
        ``alpha`` and of a fresh encryption column with that column, and the
        masked column."""
        hat_col = lag_filter(self.tau_col, self.M, alpha)
        rng = np.random.default_rng(
            np.random.SeedSequence(self.cfg.seed, spawn_key=(2000 + iteration, self.id))
        )
        w = self.w_history[iteration] = gen_encryption_col(K, rng)
        A1, A2 = compute_te_uploads(hat_col, w)
        return [
            self._masked(iteration, Phase.TE_A1, A1, masks),
            self._masked(iteration, Phase.TE_A2, A2, masks),
            self._masked(iteration, Phase.TE_W, w, masks),
        ]

    def xi_return_message(self, xi_bar: np.ndarray, iteration: int) -> Message:
        self.xi_i = te_recover(self.w_history[iteration], xi_bar.ravel())
        return Message(iteration, Phase.XI_RETURN, self.id, BLA_ID, np.array([self.xi_i]))


class Auditor:
    """The trusted party that holds every agent's secrets and checks each
    round that none reached the coordinator in the clear.

    Agent by agent, its references for round l are the temperature and load
    series and their lag views, then the round's upload intermediates,
    rebuilt from the round's ``RoundView`` and the agent's encryption
    column."""

    def __init__(self, agents: list[BuildingAgent]):
        self.agents = agents
        self._views: dict[int, RoundView] = {}  # every audited round's view

    def private_refs(self, l: int) -> list:
        """Every agent's references for audited round l, agent by agent."""
        view, refs = self._views[l], []
        for k, a in enumerate(self.agents):
            w, hat, p = a.w_history[l], lag_filter(a.tau_col, a.M, view.alpha), f"agent{a.id}/"
            refs += [(p + "tau_full", a.tau_col), (p + "load_full", a.load_col)]
            for m in range(a.M + 1):
                refs += [(f"{p}tau_lag{m}", lag_view(a.tau_col, a.M, m)),
                         (f"{p}load_lag{m}", lag_view(a.load_col, a.M, m))]
            refs += [(p + "weighted_share", view.xi_in[k] * a.tau_col), (p + "hat_tau", hat), (p + "w_col", w)]
            refs += [(f"{p}A1_col{c}", hat * wc) for c, wc in enumerate(w)]
            refs += [(f"{p}A2_col{c}", w * wc) for c, wc in enumerate(w)]
        return refs

    def audit(self, l: int, view: RoundView, payloads: list, transcript: ProtocolTranscript):
        """Scan the fixed-point decoding of every share the coordinator
        received in round l, decoded at the probe rows and in the columns
        that pass them only, and record the result in ``transcript``.
        Raises ProtocolError on a finding."""
        self._views[l] = view
        checked, findings = scan_payloads(payloads, self.private_refs(l), decode=decode_fixed)
        transcript.scan_checked += checked
        if findings:
            transcript.scan_findings.extend(findings)
            shown = "; ".join(f"{p}[col {c}] == {r}" for p, c, r in findings[:5])
            raise ProtocolError(
                f"privacy violation at iteration {l}: {len(findings)} "
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
        self.transcript = ProtocolTranscript()
        self.bus = bus if bus is not None else InProcessBus(self.transcript)
        self.bus.transcript = self.transcript
        occupancy_slots(self.T, cfg.T_occ)  # a bad T_occ, lambda or load stops the run before any upload
        check_penalty(cfg.lam)
        for agent in self.agents.values():
            agent.check_load_range(self.K)
        # coordinator-held exogenous regressors; c2 is summed from round 0's loads
        self.c2 = None
        self.c3 = lag_columns(dataset.tau_out, self.M)
        self.c4 = lag_columns(dataset.h_rad, self.M)
        self._round = None  # what the dynamics step hands the weights step
        self.auditor = Auditor([self.agents[i] for i in self.agent_ids]) if cfg.scan else None

    def _private_refs(self, iteration: int) -> list:
        return self.auditor.private_refs(iteration)

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

    def _aggregate(self, phase: Phase, l: int, payloads: list) -> np.ndarray:
        """Decoded sum of round l's ``phase`` shares; each whole share is
        appended to ``payloads`` for the privacy scan."""
        shares = self._collect(BLA_ID, phase, l, self.agent_ids)
        for i, share in zip(self.agent_ids, shares):
            payloads.append((f"iter{l}/{phase.name.lower()}/agent{i}", share))
        return sap_aggregate(shares)

    # -- the two steps of one round ------------------------------------------

    def _sap_step(self, l: int, xi: np.ndarray):
        """Dynamics step of round l: secure-aggregate the agents' weighted
        temperature series (and in round 0 their loads, for ``c2``) and solve
        for the dynamics.  Returns (alpha, f1); ``xi`` is the round's input
        weights, for the penalty.  The round's one mask set goes on to the
        weights step."""
        masks = PairwiseMaskSet(self.cfg.seed, self.agent_ids, iteration=l)
        for i in self.agent_ids:
            for msg in self.agents[i].sap_upload(l, masks):
                self.bus.send(msg)

        payloads = []
        s_sum = self._aggregate(Phase.SAP_S, l, payloads).ravel()
        if l == 0:
            self.c2 = lag_columns(self._aggregate(Phase.SAP_LOAD, l, payloads).ravel(), self.M)
            self.transcript.c2 = self.c2
        alpha, *_unused, f1 = solve_sp1_from_parts(
            s_sum, self.c2, self.c3, self.c4, self.cfg.T_occ, self.cfg.lam, float(xi @ xi)
        )
        self._round = {"masks": masks, "payloads": payloads, "xi_in": xi.copy(), "s_sum": s_sum}
        return alpha, f1

    def _te_step(self, l: int, alpha: np.ndarray):
        """Weights step of round l: broadcast the dynamics, solve the
        transformation-masked weights subproblem, let the agents recover their
        weights, then have the auditor scan the round and record the
        coordinator's view.
        Returns (xi, beta, gamma, theta, tau_occ_free, f2)."""
        rnd = self._round
        masks = rnd["masks"]
        for agent, alpha_read in self._broadcast(Phase.ALPHA_BROADCAST, l, alpha):
            for msg in agent.te_upload(alpha_read, self.K, l, masks):
                self.bus.send(msg)

        payloads = rnd["payloads"]
        A1_sum = self._aggregate(Phase.TE_A1, l, payloads)
        A2_sum = self._aggregate(Phase.TE_A2, l, payloads)
        w_sum = self._aggregate(Phase.TE_W, l, payloads).ravel()

        xi_bar, *coefs, f2 = solve_sp2_masked(
            A1_sum, A2_sum, w_sum, self.c2, self.c3, self.c4, self.cfg.T_occ, self.cfg.lam
        )

        for agent, xi_bar_read in self._broadcast(Phase.XI_BAR_BROADCAST, l, xi_bar):
            self.bus.send(agent.xi_return_message(xi_bar_read, l))

        returns = self._collect(BLA_ID, Phase.XI_RETURN, l, self.agent_ids)
        xi_new = np.array([float(p[0, 0]) for p in returns])

        view = RoundView(
            xi_in=rnd["xi_in"],
            s_sum=rnd["s_sum"],
            alpha=np.asarray(alpha, dtype=float).copy(),
            A1_sum=A1_sum,
            A2_sum=A2_sum,
            w_sum=w_sum,
            xi_bar=np.asarray(xi_bar, dtype=float).copy(),
            xi_recovered=xi_new.copy(),
        )
        if self.auditor is not None:
            self.auditor.audit(l, view, payloads, self.transcript)
        self.transcript.bla_view.append(view)
        self._round = None
        return (xi_new, *coefs, f2)

    def run(self) -> tuple[FitResult, ProtocolTranscript]:
        xi = check_start(self.cfg.xi0, self.K)
        for idx, i in enumerate(self.agent_ids):
            self.agents[i].xi_i = float(xi[idx])
        fit = alternate(self._sap_step, self._te_step, xi, self.cfg.tol, self.cfg.max_iter)
        return fit, self.transcript


def run_protocol(dataset: ClusterDataset, cfg: ProtocolConfig, bus: InProcessBus | None = None):
    """Run the privacy-preserving estimation end to end.

    Returns (FitResult, ProtocolTranscript).  Raises ProtocolError when a
    message is missing, repeated or from an unexpected sender, or the
    transcript scanner detects an unmasked private payload.
    """
    runner = ProtocolRunner(dataset, cfg, bus=bus)
    return runner.run()
