"""Secure aggregation: pairwise antisymmetric masks that cancel in the sum.

Shares are elements of the ring Z_2^64.  Each agent encodes its private
tensor as signed fixed-point with ``FRAC_BITS`` fractional bits, views it
as uint64, and adds its net mask with wrap-around arithmetic: for each
unordered agent pair (i, j), i < j, agent i adds and agent j subtracts a
mask of uniform 64-bit words drawn from the pair's key.  The mask set
generates each pair's stream once per round and hands every agent its own
net sum.  The coordinator sums the shares mod 2^64, which cancels every
mask, and decodes the sum once: it is the exact sum of the quantized
inputs, in any share order.  Each share on its own is uniform over the
ring.  Every pair has one fresh key per round, and each (kind, sub) stream
is a fixed, disjoint segment of that pair's round stream.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

__all__ = [
    "FRAC_BITS",
    "PairwiseMaskSet",
    "fixed_point_bound",
    "encode_fixed",
    "decode_fixed",
    "sap_mask",
    "sap_aggregate",
]

# mask kinds: (code, sub) identifies an independent stream per pair
KIND_SAP_S = 0  # weighted temperature series (T + M rows)
KIND_SAP_LOAD = 1  # load series (T + M rows)
KIND_TE_A1 = 2
KIND_TE_A2 = 3
KIND_TE_W = 4
N_KINDS = KIND_TE_W + 1
SUBS = 4  # subs per kind: stream (kind, sub) is segment kind * SUBS + sub
SEGMENT = 2**48  # words per segment of a pair's round stream

FRAC_BITS = 44  # quantization step 2^-44; rounding error at most 2^-45 per entry
_SCALE = float(2**FRAC_BITS)


class PairwiseMaskSet:
    """Deterministic pairwise mask source for one protocol round.

    Both members of a pair would reconstruct identical masks from the key
    they agreed on; the set stands in for that out-of-band agreement.  On
    the first request, one ``SeedSequence`` keyed by (master seed,
    1000 + iteration) gives every pair i < j a 128-bit PCG64 state and an
    odd increment: the pair's key for this round.  Stream (kind, sub) is
    segment ``kind * SUBS + sub`` of ``SEGMENT`` words of the pair's
    stream, so ``mask`` resets one generator to the pair's key and advances
    it to the segment: requests may come in any order and repeat.  Entries
    are raw uniform 64-bit PCG64 output.  This is a simulation PRG, not a
    cryptographic one.

    ``net_mask`` generates each pair's stream once per (kind, sub, shape)
    and keeps every agent's net sum until that agent takes it, so at most
    one pending sum per agent is held for each stream.
    """

    def __init__(self, master_seed: int, agent_ids, iteration: int):
        ids = sorted(agent_ids)
        dup = sorted(i for i, n in Counter(ids).items() if n > 1)
        if dup:
            raise ValueError(f"duplicate agent id(s) {dup} in mask set")
        self.master_seed = master_seed
        self.agent_ids = ids
        self.iteration = iteration
        self._keys = None  # (i, j) -> the pair's PCG64 state this round, on first request
        self._gen = None  # one generator, reset to a pair's key per request
        self._pending: dict = {}  # (kind, sub, shape) -> {agent id: net mask}

    def _derive_keys(self) -> None:
        """This round's key of every pair, from one ``SeedSequence``."""
        seq = np.random.SeedSequence(self.master_seed, spawn_key=(1000 + self.iteration,))
        ids = self.agent_ids
        pairs = [(i, j) for a, i in enumerate(ids) for j in ids[a + 1 :]]
        words = seq.generate_state(4 * len(pairs), np.uint64).reshape(-1, 4).tolist()
        self._keys = {
            p: {
                "bit_generator": "PCG64",
                # a 128-bit state and increment; PCG64 needs an odd increment
                "state": {"state": w[0] << 64 | w[1], "inc": w[2] << 64 | w[3] | 1},
                "has_uint32": 0,
                "uinteger": 0,
            }
            for p, w in zip(pairs, words)
        }
        self._gen = np.random.PCG64(seq)

    def mask(self, i: int, j: int, kind: int, sub: int, shape) -> np.ndarray:
        """Mask shared by pair (i, j), i < j, for one stream and shape (uint64)."""
        if not i < j:
            raise ValueError(f"pair must be ordered i < j, got ({i}, {j})")
        if not 0 <= kind < N_KINDS:
            raise ValueError(f"mask kind {kind!r} is outside 0..{N_KINDS - 1}")
        if not 0 <= sub < SUBS:
            raise ValueError(f"mask sub {sub!r} is outside 0..{SUBS - 1}")
        size = math.prod(shape) if np.iterable(shape) else shape
        if size > SEGMENT:
            raise ValueError(f"mask stream of {size} words is longer than its segment of {SEGMENT}")
        if self._keys is None:
            self._derive_keys()
        key = self._keys.get((i, j))
        if key is None:
            raise ValueError(f"pair ({i}, {j}) is not in this mask set {self.agent_ids}")
        gen = self._gen
        gen.state = key
        gen.advance((kind * SUBS + sub) * SEGMENT)
        return gen.random_raw(shape)

    def net_mask(self, agent_id: int, kind: int, sub: int, shape) -> np.ndarray:
        """Agent ``agent_id``'s net mask for one stream and shape (uint64):
        the sum mod 2^64 of its pair masks toward higher ids minus those
        toward lower ids.  The K net masks of a stream sum to zero.

        The first request for a (kind, sub, shape) walks the pairs i < j
        once and holds every agent's sum; each sum is handed out once, and a
        repeated request for an agent generates the stream again."""
        if agent_id not in self.agent_ids:
            raise ValueError(f"agent {agent_id} is not in this mask set {self.agent_ids}")
        key = (kind, sub, tuple(shape))
        pending = self._pending.get(key)
        if pending is None or agent_id not in pending:
            pending = {i: np.zeros(shape, dtype=np.uint64) for i in self.agent_ids}
            for a, i in enumerate(self.agent_ids):
                for j in self.agent_ids[a + 1 :]:
                    m = self.mask(i, j, kind, sub, shape)
                    pending[i] += m
                    pending[j] -= m
            self._pending[key] = pending
        net = pending.pop(agent_id)
        if not pending:
            del self._pending[key]
        return net


def fixed_point_bound(K: int) -> float:
    """Largest magnitude an entry may have so that a sum of K shares cannot
    wrap: K entries below 2^(62-F)/K encode to a sum below 2^62 < 2^63."""
    return 2.0 ** (62 - FRAC_BITS) / K


def encode_fixed(x, K: int) -> np.ndarray:
    """Encode a real tensor as signed fixed-point ring elements (uint64).

    Raises ValueError when an entry is non-finite or not below
    ``fixed_point_bound(K)``, instead of letting it wrap."""
    x = np.asarray(x, dtype=float)
    bound = fixed_point_bound(K)
    inside = np.abs(x) < bound
    if not inside.all():
        bad = x[~inside].ravel()[0]
        raise ValueError(
            f"entry {bad!r} is non-finite or outside the fixed-point range "
            f"|x| < {bound!r} (2^{62 - FRAC_BITS}/K for K={K})"
        )
    return np.rint(x * _SCALE).astype(np.int64).view(np.uint64)


def decode_fixed(u) -> np.ndarray:
    """Read ring elements (uint64) as signed fixed-point reals."""
    u = np.asarray(u)
    if u.dtype != np.uint64:
        raise ValueError(f"ring elements must be uint64, got {u.dtype}")
    return u.view(np.int64) / _SCALE


def sap_mask(x, agent_id: int, masks: PairwiseMaskSet, kind: int, sub: int = 0) -> np.ndarray:
    """Encode and mask a private tensor: add the agent's net mask (its pair
    masks toward higher ids minus those toward lower ids) mod 2^64.
    Summing all K masked tensors cancels every mask."""
    out = encode_fixed(x, len(masks.agent_ids))
    out += masks.net_mask(agent_id, kind, sub, out.shape)
    return out


def sap_aggregate(shares: list) -> np.ndarray:
    """Sum a complete set of ring shares mod 2^64 and decode the sum."""
    if not shares:
        raise ValueError("no shares to aggregate")
    first = np.asarray(shares[0])
    out = first.copy()
    for s in shares[1:]:
        s = np.asarray(s)
        if s.shape != first.shape:
            raise ValueError(f"share shape {s.shape} does not match {first.shape}")
        if s.dtype != first.dtype:
            raise ValueError(f"share dtype {s.dtype} does not match {first.dtype}")
        out += s
    return decode_fixed(out)
