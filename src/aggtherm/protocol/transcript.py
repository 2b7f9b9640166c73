"""Protocol transcript: ordered message log, coordinator-visible aggregates,
and a scanner that checks no private payload reached the coordinator in the
clear.
"""

from __future__ import annotations

import bisect
import hashlib
from dataclasses import dataclass, field

import numpy as np

from ..dataio import dumps_json_line
from .messages import Message, Phase
from .messages import encode_message  # noqa: F401  unused here; perfbench/tracer.py patches it by this name

__all__ = ["MessageRecord", "RoundView", "ProtocolTranscript", "scan_payloads"]


@dataclass
class MessageRecord:
    seq: int
    iteration: int
    phase: str
    sender: int
    receiver: int
    shape: tuple
    digest: str


@dataclass(frozen=True)
class RoundView:
    """What the coordinator sees in one BCD round, for K zones, T periods and
    model order M.  Here τ is the (T+M) x K indoor series, Ĥ = F_α τ its
    filtered rows and W the run's K x K encryption matrix, agent i's
    column in column i.  Only round 0 carries shares: after it the
    coordinator forms s_sum and A1_sum from Z = τWᵀ, and A2_sum and w_sum
    are round 0's sums."""

    xi_in: np.ndarray  # (K,) weights the round's aggregates are formed with
    s_sum: np.ndarray  # (T+M,) aggregate weighted series τ ξ_in (Z ξ̄ of the last round after round 0)
    alpha: np.ndarray  # (M,) dynamics broadcast
    A1_sum: np.ndarray  # (T, K) filtered-series products Ĥ Wᵀ = F_α Z
    A2_sum: np.ndarray  # (K, K) encryption Gram W Wᵀ
    w_sum: np.ndarray  # (K,) encryption-column sums W 1
    xi_bar: np.ndarray  # (K,) encrypted weights broadcast
    xi_recovered: np.ndarray  # (K,) weights the agents return, Wᵀ ξ̄


@dataclass
class ProtocolTranscript:
    """Everything observable about one protocol run.

    ``messages`` logs every envelope (digests only); ``bla_view`` holds one
    ``RoundView`` per round; ``c2`` is the cluster-load regressor block the
    coordinator sums from round 0's loads and fits every round with; ``Z``
    is the (T+M) x K product τWᵀ it sums from round 0's ``TE_A1`` shares
    and filters every round; ``scan_checked``/``scan_findings`` summarize
    the privacy scan.
    """

    messages: list = field(default_factory=list)
    bla_view: list[RoundView] = field(default_factory=list)
    c2: np.ndarray | None = None
    Z: np.ndarray | None = None
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
                fh.write(dumps_json_line(rec))


# most rows of a reference length compared before the full np.allclose
_PROBES = 8
# np.allclose's tolerances for a finding
RTOL, ATOL = 1e-6, 1e-8


def _flat(vec) -> np.ndarray:
    """``vec`` as a 1-D float array; a 1-D column of a matrix stays a view."""
    v = np.asarray(vec, dtype=float)
    return v if v.ndim == 1 else v.ravel()


def _probes(n: int, vecs):
    """The probe rows of length-n references (up to ``_PROBES``, spread over
    the length with the first and last included), the references' values
    there (probes x refs) and ``np.isclose``'s tolerance ATOL + RTOL |b| at
    each such value b, -inf where b is not finite (there only equality is
    close)."""
    rows = np.linspace(0, n - 1, min(n, _PROBES)).round().astype(np.intp)
    probe = np.array([v[rows] for v in vecs]).T
    return rows, probe, np.where(np.isfinite(probe), ATOL + RTOL * np.abs(probe), -np.inf)


def scan_payloads(payloads, private_vectors, decode=None):
    """Find coordinator-visible vectors that equal a private vector.

    ``payloads`` is a list of (label, array) with arrays of at most two
    dimensions (a scalar is one 1 x 1 column); every column of each array is
    compared against every private vector of matching length.
    ``private_vectors`` is a list of (label, vector).  A column and a
    reference are a finding when ``np.allclose`` holds for them at RTOL and
    ATOL.  The columns of all payloads of one length are first paired with
    all references of that length and compared at a few probe rows under
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
    refs_by_len: dict[int, list] = {}
    for label, vec in private_vectors:
        v = _flat(vec)
        refs_by_len.setdefault(len(v), []).append((label, v))
    read = decode if decode is not None else (lambda x: x)
    by_len: dict[int, list] = {}  # length -> (payload index, label, array) with references
    for p, (label, arr) in enumerate(payloads):
        arr = np.asarray(arr, dtype=None if decode is not None else float)
        if arr.ndim > 2:
            raise ValueError(f"scan payload {label!r} has {arr.ndim} dimensions, expected at most 2")
        if arr.ndim < 2:
            arr = arr.reshape(-1, 1)
        if arr.shape[0] in refs_by_len:
            by_len.setdefault(arr.shape[0], []).append((p, label, arr))
    found = []
    checked = 0
    for n, group in by_len.items():
        labels, vecs = zip(*refs_by_len[n])
        rows, probe, tol = _probes(n, vecs)
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
            if np.allclose(read(arr[:, c]), vecs[r], rtol=RTOL, atol=ATOL):
                found.append((p, c, int(r), label, labels[r]))
    found.sort(key=lambda f: f[:3])
    return checked, [(label, c, ref) for _, c, _, label, ref in found]
