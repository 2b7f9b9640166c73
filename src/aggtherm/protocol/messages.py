"""Binary message envelope for the protocol transport.

Layout (all little-endian):

==============  =====  ========================================
field           bytes  meaning
==============  =====  ========================================
version         u16    protocol version (currently 4)
iteration       u32    round index
phase           u8     Phase enum value
sender          u32    agent id (0 = coordinator)
receiver        u32    agent id (0 = coordinator)
count           u32    number of payload entries (rows*cols)
rows, cols      u32x2  payload dimensions (vectors are (n, 1))
dtype           u8     payload dtype code: ``f`` = f64, ``u`` = u64
payload         8*n    row-major payload data
==============  =====  ========================================

Phases, in protocol order.  In round 0 every agent sends one message per
upload phase; every round the coordinator sends each agent one
``XI_BAR_BROADCAST`` and each agent returns one ``XI_RETURN``.  So a
receiver tells the messages of a round apart by phase and sender alone:

================  ====  ======================  ================================
phase             code  sender -> receiver      payload
================  ====  ======================  ================================
SAP_S             0     agent -> coordinator    masked xi_i tau_i, (T+M, 1) u64
SAP_LOAD          1     agent -> coordinator    masked load_i, (T+M, 1) u64
TE_A1             3     agent -> coordinator    masked tau_i w_i^T, (T+M, K) u64
TE_A2             6     agent -> coordinator    masked w_i w_i^T, (K, K) u64
TE_W              7     agent -> coordinator    masked w_i, (K, 1) u64
XI_BAR_BROADCAST  4     coordinator -> agent    xi_bar, (K, 1) f64
XI_RETURN         5     agent -> coordinator    xi_i, (1, 1) f64
================  ====  ======================  ================================

Code 2 was the dynamics broadcast of version 3, when agents filtered their
own series every round; it is no longer a phase.

Masked secure-aggregation shares travel as u64 ring elements; every other
payload is f64.  An upload's code is also its mask segment: the pairwise
mask stream of phase p is segment ``int(p)`` of each pair's round keystream
(``sap.PairwiseMaskSet``), so renumbering a phase moves its mask stream.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

__all__ = ["PROTOCOL_VERSION", "Phase", "Message", "encode_message", "decode_message"]

PROTOCOL_VERSION = 4

_HEADER = struct.Struct("<HIBII")
_PAYLOAD_HEADER = struct.Struct("<IIIc")
# payload dtype code -> wire dtype
_WIRE_DTYPES = {b"f": np.dtype("<f8"), b"u": np.dtype("<u8")}


class Phase(IntEnum):
    """Message phases in protocol order; the codes are the wire values."""

    SAP_S = 0
    SAP_LOAD = 1
    TE_A1 = 3
    TE_A2 = 6
    TE_W = 7
    XI_BAR_BROADCAST = 4
    XI_RETURN = 5


def _is_ring(p: np.ndarray) -> bool:
    """uint64 payloads are ring elements and keep their dtype."""
    return p.dtype.kind == "u" and p.dtype.itemsize == 8


@dataclass
class Message:
    iteration: int
    phase: Phase
    sender: int
    receiver: int
    payload: np.ndarray
    version: int = PROTOCOL_VERSION

    def __post_init__(self):
        p = np.asarray(self.payload)
        p = p.astype(np.uint64 if _is_ring(p) else float, copy=False)
        if p.ndim == 0:
            p = p.reshape(1, 1)
        elif p.ndim == 1:
            p = p.reshape(-1, 1)
        elif p.ndim != 2:
            raise ValueError("payload must be at most 2-dimensional")
        self.payload = p


def encode_message(msg: Message) -> bytes:
    rows, cols = msg.payload.shape
    code = b"u" if _is_ring(msg.payload) else b"f"
    head = _HEADER.pack(msg.version, msg.iteration, int(msg.phase), msg.sender, msg.receiver)
    phead = _PAYLOAD_HEADER.pack(rows * cols, rows, cols, code)
    body = np.ascontiguousarray(msg.payload, dtype=_WIRE_DTYPES[code]).tobytes()
    return head + phead + body


def decode_message(data: bytes) -> Message:
    if len(data) < _HEADER.size + _PAYLOAD_HEADER.size:
        raise ValueError(f"message truncated: {len(data)} bytes")
    version, iteration, phase, sender, receiver = _HEADER.unpack_from(data, 0)
    if version != PROTOCOL_VERSION:
        raise ValueError(f"unsupported protocol version {version}")
    count, rows, cols, code = _PAYLOAD_HEADER.unpack_from(data, _HEADER.size)
    if count != rows * cols:
        raise ValueError(f"payload length {count} does not match dims {rows}x{cols}")
    dtype = _WIRE_DTYPES.get(code)
    if dtype is None:
        raise ValueError(f"unknown payload dtype code {code!r}")
    offset = _HEADER.size + _PAYLOAD_HEADER.size
    expected = offset + dtype.itemsize * count
    if len(data) != expected:
        raise ValueError(f"message has {len(data)} bytes, expected {expected}")
    payload = np.frombuffer(data, dtype=dtype, count=count, offset=offset).reshape(rows, cols)
    return Message(
        iteration=iteration,
        phase=Phase(phase),
        sender=sender,
        receiver=receiver,
        payload=payload.astype(dtype.newbyteorder("=")),
        version=version,
    )
