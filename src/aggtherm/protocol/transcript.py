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


# most rows of a reference length compared before the full np.allclose
_PROBES = 8


def _reference_sets(private_vectors, rtol: float, atol: float) -> dict:
    """Group the private vectors by length; per length, their labels, the
    vectors, the probe rows (up to ``_PROBES``, spread over the length with
    the first and last included), the vectors' values there (probes x 1 x
    refs) and ``np.isclose``'s tolerance atol + rtol |b| at each such value
    b, -inf where b is not finite (there only equality is close)."""
    by_len: dict[int, list] = {}
    for label, vec in private_vectors:
        v = np.asarray(vec, dtype=float).ravel()
        by_len.setdefault(len(v), []).append((label, v))
    sets = {}
    for n, refs in by_len.items():
        rows = np.linspace(0, n - 1, min(n, _PROBES)).round().astype(np.intp)
        vecs = [v for _, v in refs]
        probe = np.array([v[rows] for v in vecs]).T[:, None, :]
        tol = np.where(np.isfinite(probe), atol + rtol * np.abs(probe), -np.inf)
        sets[n] = ([label for label, _ in refs], vecs, rows, probe, tol)
    return sets


def scan_payloads(payloads, private_vectors, rtol: float = 1e-6, atol: float = 1e-8):
    """Find coordinator-visible vectors that equal a private vector.

    ``payloads`` is a list of (label, array) with arrays of at most two
    dimensions (a scalar is one 1 x 1 column); every column of each array is
    compared against every private vector of matching length.  A column and
    a reference are a finding when ``np.allclose`` holds for them.  Each
    payload's columns are first compared with all references at a few probe
    rows under ``np.isclose``'s rule, in one step; only the pairs close at
    every probe row get the full ``np.allclose``.  Since ``np.allclose`` is
    ``np.isclose`` at every row, the probe step drops no finding.
    Returns (checked, findings): the number of payload columns that had
    references of their length, and a list of (payload_label, column_index,
    private_label) findings in payload, column, reference order.
    """
    sets = _reference_sets(private_vectors, rtol, atol)
    findings = []
    checked = 0
    for label, arr in payloads:
        arr = np.asarray(arr, dtype=float)
        if arr.ndim > 2:
            raise ValueError(f"scan payload {label!r} has {arr.ndim} dimensions, expected at most 2")
        if arr.ndim < 2:
            arr = arr.reshape(-1, 1)
        ref_set = sets.get(arr.shape[0])
        if ref_set is None:
            continue
        labels, vecs, rows, probe, tol = ref_set
        checked += arr.shape[1]
        a = arr[rows][:, :, None]  # probes x columns x 1
        with np.errstate(over="ignore", invalid="ignore"):  # huge or infinite entries
            close = (np.abs(a - probe) <= tol) | (a == probe)
        for c, r in zip(*np.nonzero(close.all(axis=0))):
            if np.allclose(arr[:, c], vecs[r], rtol=rtol, atol=atol):
                findings.append((label, int(c), labels[r]))
    return checked, findings
