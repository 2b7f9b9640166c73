"""Protocol transcript: ordered message log, coordinator-visible aggregates,
and a scanner that checks no private payload reached the coordinator in the
clear.
"""

from __future__ import annotations

import bisect
import hashlib
from dataclasses import dataclass, field

import numpy as np

from ..dataio import dumps_json
from .messages import Message, Phase
from .messages import encode_message  # noqa: F401  unused here; perfbench/tracer.py patches it by this name

__all__ = ["MessageRecord", "ProtocolTranscript", "ScanReferences", "scan_payloads"]


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


def _flat(vec) -> np.ndarray:
    """``vec`` as a 1-D float array; a 1-D column of a matrix stays a view."""
    v = np.asarray(vec, dtype=float)
    return v if v.ndim == 1 else v.ravel()


class ScanReferences:
    """The private vectors ``scan_payloads`` compares payloads with.

    Grouped by length; per length, their labels, the vectors, the probe
    rows (up to ``_PROBES``, spread over the length with the first and last
    included), the vectors' values there (probes x refs) and
    ``np.isclose``'s tolerance atol + rtol |b| at each such value b, -inf
    where b is not finite (there only equality is close).  ``update``
    replaces the vectors of labels already held, in place, so references
    that change between scans are refreshed without rebuilding the rest.
    """

    def __init__(self, private_vectors, rtol: float = 1e-6, atol: float = 1e-8):
        self.rtol, self.atol = rtol, atol
        by_len: dict[int, list] = {}
        for label, vec in private_vectors:
            v = _flat(vec)
            by_len.setdefault(len(v), []).append((label, v))
        self.sets = {}
        self._slots: dict = {}  # label -> (length, index), None if held twice
        for n, refs in by_len.items():
            rows = np.linspace(0, n - 1, min(n, _PROBES)).round().astype(np.intp)
            vecs = [v for _, v in refs]
            probe, tol = self._probes(vecs, rows)
            labels = [label for label, _ in refs]
            self.sets[n] = (labels, vecs, rows, probe, tol)
            for j, label in enumerate(labels):
                self._slots[label] = None if label in self._slots else (n, j)

    def _probes(self, vecs, rows):
        probe = np.array([v[rows] for v in vecs]).T
        return probe, np.where(np.isfinite(probe), self.atol + self.rtol * np.abs(probe), -np.inf)

    def update(self, private_vectors):
        """Replace the vector of each given label; each label must be held
        exactly once, by a vector of the same length."""
        by_len: dict[int, tuple] = {}
        for label, vec in private_vectors:
            slot = self._slots.get(label)
            if slot is None:
                raise ValueError(f"no single scan reference labelled {label!r}")
            n, j = slot
            v = _flat(vec)
            if len(v) != n:
                raise ValueError(f"scan reference {label!r} has {len(v)} rows, held with {n}")
            idx, vecs = by_len.setdefault(n, ([], []))
            idx.append(j)
            vecs.append(v)
        for n, (idx, new) in by_len.items():
            _, vecs, rows, probe, tol = self.sets[n]
            for j, v in zip(idx, new):
                vecs[j] = v
            probe[:, idx], tol[:, idx] = self._probes(new, rows)


def scan_payloads(payloads, private_vectors, rtol: float = 1e-6, atol: float = 1e-8, decode=None):
    """Find coordinator-visible vectors that equal a private vector.

    ``payloads`` is a list of (label, array) with arrays of at most two
    dimensions (a scalar is one 1 x 1 column); every column of each array is
    compared against every private vector of matching length.
    ``private_vectors`` is a list of (label, vector), or a
    ``ScanReferences``, whose own rtol and atol then apply.  A column and
    a reference are a finding when ``np.allclose`` holds for them.  The
    columns of all payloads of one length are first paired with all
    references of that length and compared at a few probe rows under
    ``np.isclose``'s rule, one probe row at a time over the pairs still
    close; only the pairs close at every probe row get the full
    ``np.allclose``.  Since ``np.allclose`` is ``np.isclose`` at every row,
    the probe step drops no finding.
    ``decode``, when given, turns rows or columns of a payload into floats
    (``decode(payload)[rows] == decode(payload[rows])``); only the probe
    rows and the columns that pass them are decoded.
    Returns (checked, findings): the number of payload columns that had
    references of their length, and a list of (payload_label, column_index,
    private_label) findings in payload, column, reference order.
    """
    if not isinstance(private_vectors, ScanReferences):
        private_vectors = ScanReferences(private_vectors, rtol, atol)
    sets, rtol, atol = private_vectors.sets, private_vectors.rtol, private_vectors.atol
    read = decode if decode is not None else (lambda x: x)
    by_len: dict[int, list] = {}  # length -> (payload index, label, array) with references
    for p, (label, arr) in enumerate(payloads):
        arr = np.asarray(arr, dtype=None if decode is not None else float)
        if arr.ndim > 2:
            raise ValueError(f"scan payload {label!r} has {arr.ndim} dimensions, expected at most 2")
        if arr.ndim < 2:
            arr = arr.reshape(-1, 1)
        if arr.shape[0] in sets:
            by_len.setdefault(arr.shape[0], []).append((p, label, arr))
    found = []
    checked = 0
    for n, group in by_len.items():
        labels, vecs, rows, probe, tol = sets[n]
        # the probe rows of every column of this length, side by side
        a = read(np.concatenate([arr[rows] for *_, arr in group], axis=1))
        ends = np.cumsum([arr.shape[1] for *_, arr in group])
        checked += int(ends[-1])
        # (column, reference) pairs, narrowed to those close at each probe row
        cols, refs = np.indices((a.shape[1], len(labels))).reshape(2, -1)
        with np.errstate(over="ignore", invalid="ignore"):  # huge or infinite entries
            for x, b, t in zip(a, probe, tol):
                x, b = x[cols], b[refs]
                close = (np.abs(x - b) <= t[refs]) | (x == b)
                cols, refs = cols[close], refs[close]
        for g, r in zip(cols, refs):
            i = bisect.bisect_right(ends, g)
            p, label, arr = group[i]
            c = int(g - (ends[i - 1] if i else 0))
            if np.allclose(read(arr[:, c]), vecs[r], rtol=rtol, atol=atol):
                found.append((p, c, int(r), label, labels[r]))
    found.sort(key=lambda f: f[:3])
    return checked, [(label, c, ref) for _, c, _, label, ref in found]
