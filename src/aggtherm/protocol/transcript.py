"""Protocol transcript: ordered message log, coordinator-visible aggregates,
and a scanner that checks no private payload reached the coordinator in the
clear.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from ..dataio import dumps_json
from .messages import Message, Phase
from .messages import encode_message  # noqa: F401  unused here; perfbench/tracer.py patches it by this name

__all__ = ["MessageRecord", "ProtocolTranscript", "scan_payloads"]


@dataclass
class MessageRecord:
    seq: int
    iteration: int
    phase: str
    sender: int
    receiver: int
    shape: tuple
    digest: str

    def as_dict(self) -> dict:
        return {
            "seq": self.seq,
            "iteration": self.iteration,
            "phase": self.phase,
            "sender": self.sender,
            "receiver": self.receiver,
            "shape": list(self.shape),
            "digest": self.digest,
        }


@dataclass
class ProtocolTranscript:
    """Everything observable about one protocol run.

    ``messages`` logs every envelope (digests only); ``bla_view`` holds the
    aggregates the coordinator legitimately derives each iteration;
    ``scan_checked``/``scan_findings`` summarize the privacy scan.
    """

    messages: list = field(default_factory=list)
    bla_view: list = field(default_factory=list)
    fit: dict | None = None
    scan_checked: int = 0
    scan_findings: list = field(default_factory=list)

    def log(self, msg: Message, data: bytes) -> MessageRecord:
        """Record ``msg``; ``data`` is its ``encode_message`` encoding, which
        the sender already made, so the digest costs no second encode."""
        rec = MessageRecord(
            seq=len(self.messages),
            iteration=msg.iteration,
            phase=Phase(msg.phase).name.lower(),
            sender=msg.sender,
            receiver=msg.receiver,
            shape=msg.payload.shape,
            digest=hashlib.sha256(data).hexdigest(),
        )
        self.messages.append(rec)
        return rec

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.messages:
                fh.write(dumps_json(rec.as_dict()).replace("\n", "") + "\n")


def _signatures(columns: np.ndarray):
    """Per-column (mean, std) prefilter signatures; columns is (n, count)."""
    return columns.mean(axis=0), columns.std(axis=0)


# relative slack on the prefilter bounds, for rounding in the signatures
_SIGNATURE_SLACK = 1e-9


def _reference_sets(private_vectors, rtol: float, atol: float) -> dict:
    """Group the private vectors by length; per length, the reference matrix
    with its labels, signatures and the prefilter tolerance of each signature.

    A column ``a`` with ``np.allclose(a, ref)`` has |a_i - ref_i| <= atol +
    rtol |ref_i| for every i, so its mean lies within atol + rtol mean|ref|
    of the reference's, and its std within atol + rtol rms(ref).  The
    tolerances are those bounds, so the prefilter drops no such column."""
    by_len: dict[int, list] = {}
    for label, vec in private_vectors:
        v = np.asarray(vec, dtype=float).ravel()
        by_len.setdefault(len(v), []).append((label, v))
    sets = {}
    for n, refs in by_len.items():
        ref_mat = np.column_stack([v for _, v in refs])
        rm, rs = _signatures(ref_mat)
        rtol_slack = rtol + _SIGNATURE_SLACK
        sets[n] = (
            [label for label, _ in refs],
            ref_mat,
            rm,
            rs,
            atol + rtol_slack * np.abs(ref_mat).mean(axis=0),
            atol + rtol_slack * np.sqrt((ref_mat**2).mean(axis=0)),
        )
    return sets


def scan_payloads(payloads, private_vectors, rtol: float = 1e-6, atol: float = 1e-8):
    """Find coordinator-visible vectors that equal a private vector.

    ``payloads`` is a list of (label, array); every column of each array is
    compared against every private vector of matching length.  A cheap
    (mean, std) prefilter, built once per length and applied to all of a
    payload's columns at once, keeps the exact pairwise comparison sparse.
    Returns (checked, findings): the number of payload columns that had
    references of their length, and a list of (payload_label, column_index,
    private_label) findings in payload, column, reference order.
    """
    sets = _reference_sets(private_vectors, rtol, atol)
    findings = []
    checked = 0
    for label, arr in payloads:
        arr = np.asarray(arr, dtype=float)
        if arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        ref_set = sets.get(arr.shape[0])
        if ref_set is None:
            continue
        labels, ref_mat, rm, rs, mean_tol, std_tol = ref_set
        pm, ps = _signatures(arr)
        checked += arr.shape[1]
        candidates = np.abs(pm[:, None] - rm) <= mean_tol
        candidates &= np.abs(ps[:, None] - rs) <= std_tol
        for c, r in zip(*np.nonzero(candidates)):
            if np.allclose(arr[:, c], ref_mat[:, r], rtol=rtol, atol=atol):
                findings.append((label, int(c), labels[r]))
    return checked, findings
