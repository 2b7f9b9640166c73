"""Secure aggregation: pairwise antisymmetric masks that cancel in the sum.

Shares are elements of the ring Z_2^64.  Each agent encodes its private
tensor as signed fixed-point with ``FRAC_BITS`` fractional bits, views it
as uint64, and adds its net mask with wrap-around arithmetic: for each
masking pair (i, j), i < j, agent i adds and agent j subtracts a mask of
pseudorandom 64-bit words drawn from the pair's key.  The masking pairs
are the edges of the Harary graph H(2h, K), h = ceil(log2 K): with the
agents in sorted-id order, the agent at position a masks with those at
positions a +- 1, ..., a +- h (mod K), as in Bell et al., "Secure
Single-Server Aggregation with (Poly)Logarithmic Overhead" (CCS 2020).
When 2h >= K - 1 that is every pair.  The mask set generates each pair's
stream once per upload phase and hands every agent its own net sum.  The
coordinator sums the shares mod 2^64, which cancels every mask, and
decodes the sum once: it is the exact sum of the quantized inputs, in any
share order.  Without the pair keys, each share on its own is
indistinguishable from uniform over the ring; the graph has vertex
connectivity 2h, so any proper subset of the shares sums to uniform noise,
and unmasking one agent takes the keys of all 2h of its neighbours.  Every
masking pair has one AES-128 key per mask set, and the protocol builds one
set per run, for round 0's upload pass; each upload phase's stream is a
fixed, disjoint segment of that pair's AES counter-mode keystream, the PRG
of Bonawitz et al., "Practical Secure Aggregation for Privacy-Preserving
Machine Learning" (CCS 2017).
"""

from __future__ import annotations

import math
import operator
from collections import Counter

import numpy as np

from .messages import Phase

__all__ = [
    "FRAC_BITS",
    "PairwiseMaskSet",
    "fixed_point_bound",
    "check_fixed_range",
    "encode_fixed",
    "decode_fixed",
    "sap_mask",
    "sap_aggregate",
]

SEGMENT = 2**48  # words per segment of a pair's stream (2^47 AES blocks)
_WORD = np.dtype("<u8")  # a mask word: one little-endian half of an AES block

FRAC_BITS = 44  # quantization step 2^-44; rounding error at most 2^-45 per entry
_SCALE = float(2**FRAC_BITS)


def _mask_shape(shape) -> tuple:
    """A mask shape as a tuple of non-negative ints; an int is a 1-D shape.

    Raises ValueError, naming the shape, for a negative or non-integer
    dimension."""
    try:
        dims = tuple(map(operator.index, shape)) if np.iterable(shape) else (operator.index(shape),)
    except TypeError:
        dims = None
    if dims is None or (dims and min(dims) < 0):
        raise ValueError(f"mask shape {shape!r} must have non-negative integer dimensions")
    return dims


def _counter_blocks(segment: int, n_words: int) -> bytes:
    """The AES-CTR counter blocks of the first ``n_words`` words of a
    segment: big-endian 128-bit counters from ``segment * SEGMENT / 2``,
    one block per two words."""
    n = -(-n_words // 2)
    blocks = np.zeros((n, 2), dtype=">u8")  # high and low 64 bits; the high half stays 0
    blocks[:, 1] = np.arange(segment * (SEGMENT // 2), segment * (SEGMENT // 2) + n, dtype=np.uint64)
    return blocks.tobytes()


class PairwiseMaskSet:
    """Deterministic pairwise mask source for one run's masked upload pass.

    Both members of a pair would reconstruct identical masks from the key
    they agreed on; the set stands in for that out-of-band agreement.
    ``pairs`` lists the masking pairs (i, j), i < j, in sorted order: the
    edges of the Harary graph H(2h, K) on the agents in sorted-id order,
    h = ceil(log2 K) (module docstring), every pair for K <= 7 and K = 9.
    At least two agents are needed: a lone agent would have no mask.  On
    the first request, one ``SeedSequence`` keyed by (master seed, 1000)
    gives every listed pair, in that order, 16 bytes of its
    ``generate_state`` output (little-endian): the pair's AES-128 key.

    A pair's stream is AES-128 in counter mode (NIST SP 800-38A):
    word w of upload phase p's stream is the little-endian 64-bit half
    ``w mod 2`` of the encrypted big-endian 128-bit counter
    ``int(p) * SEGMENT / 2 + w // 2``: the phase's wire code is its
    segment.  Each stream is thus a fixed segment of ``SEGMENT`` words, and
    requests may come in any order and repeat.  ``mask`` encrypts the request's counter blocks, built once
    per set, with the pair's ECB encryptor; the first request makes every
    pair's encryptor.  Through OpenSSL's AES-NI code a word
    costs about 1.1-1.4 ns on a 2-core x86 host, against 3.6-4.9 ns for
    numpy's PCG64.  ``cryptography`` is imported when the first key is
    derived, so a process that never masks does not load it.

    ``net_mask`` generates each pair's stream once per (phase, shape),
    when the first of the two members asks, and keeps the other member's
    partial sum only until that member asks.  Asked in sorted-id order, it
    holds at most 2h pending sums per stream, not K.
    """

    def __init__(self, master_seed: int, agent_ids):
        ids = sorted(agent_ids)
        dup = sorted(i for i, n in Counter(ids).items() if n > 1)
        if dup:
            raise ValueError(f"duplicate agent id(s) {dup} in mask set")
        if len(ids) < 2:
            raise ValueError(f"a mask set needs at least 2 agents, got {ids}: a lone share is its input")
        K = len(ids)
        h = (K - 1).bit_length()  # ceil(log2 K)
        ring = [(ids[a], ids[(a + d) % K]) for a in range(K) for d in range(1, h + 1)]
        self.pairs = sorted({(min(p), max(p)) for p in ring})
        self.master_seed = master_seed
        self.agent_ids = ids
        # agent id -> [(neighbour, listed pair, whether the agent adds the pair's mask)]
        self._links: dict = {i: [] for i in ids}
        for i, j in self.pairs:
            self._links[i].append((j, (i, j), True))
            self._links[j].append((i, (i, j), False))
        self._encryptors: dict = {}  # (i, j) -> the pair's AES-128 ECB encryptor, on first request
        self._streams: dict = {}  # (phase, shape) -> the stream's counter blocks
        self._served: dict = {}  # (phase, shape) -> ids of the agents handed their net mask
        self._pending: dict = {}  # (phase, shape) -> {unserved agent id: partial net mask}

    def _derive_keys(self) -> None:
        """The key of every listed pair, from one ``SeedSequence``, and the
        pair's ECB encryptor under it."""
        from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

        seq = np.random.SeedSequence(self.master_seed, spawn_key=(1000,))
        keys = seq.generate_state(4 * len(self.pairs), np.uint32).astype("<u4").tobytes()
        ecb = modes.ECB()
        self._encryptors = {
            p: Cipher(algorithms.AES128(keys[16 * n : 16 * n + 16]), ecb).encryptor()
            for n, p in enumerate(self.pairs)
        }

    def _encryptor(self, i: int, j: int):
        """Pair (i, j)'s encryptor; derives the set's keys on first use."""
        if not i < j:
            raise ValueError(f"pair must be ordered i < j, got ({i}, {j})")
        if not self._encryptors:
            self._derive_keys()
        enc = self._encryptors.get((i, j))
        if enc is None:
            raise ValueError(f"pair ({i}, {j}) is not in this mask set {self.agent_ids}")
        return enc

    def _stream(self, phase: Phase, dims: tuple) -> bytes:
        """Check a stream request and build its counter blocks, once per set."""
        if not isinstance(phase, Phase):
            raise ValueError(f"mask stream {phase!r} is not a Phase")
        size = math.prod(dims)
        if size > SEGMENT:
            raise ValueError(f"mask stream of {size} words is longer than its segment of {SEGMENT}")
        blocks = self._streams[phase, dims] = _counter_blocks(int(phase), size)
        return blocks

    def mask(self, i: int, j: int, phase: Phase, shape) -> np.ndarray:
        """Mask shared by listed pair (i, j), i < j, for one phase's stream and shape (uint64)."""
        dims = _mask_shape(shape)
        blocks = self._streams.get((phase, dims))
        if blocks is None:
            blocks = self._stream(phase, dims)
        enc = self._encryptors.get((i, j)) or self._encryptor(i, j)
        out = np.empty(len(blocks) + 16, dtype=np.uint8)  # update_into wants 15 bytes of slack
        enc.update_into(blocks, out)
        return np.ndarray(dims, _WORD, out)

    def net_mask(self, agent_id: int, phase: Phase, shape) -> np.ndarray:
        """Agent ``agent_id``'s net mask for one phase's stream and shape (uint64):
        the sum mod 2^64 of its pair masks toward higher-id neighbours minus
        those toward lower-id neighbours.  The K net masks of a stream sum to
        zero.

        The first request of an agent generates the streams of its pairs
        with agents that have not asked yet, and adds each to that
        neighbour's pending partial sum too; its own sum is what its
        earlier neighbours left pending plus those streams.  So each pair's
        stream is made once, and a pending sum lives only from the first to
        the second request of the pair's members: requests in sorted-id
        order hold at most 2h.  A repeated request for an agent generates
        all its pair streams again and leaves every pending sum as it is."""
        links = self._links.get(agent_id)
        if links is None:
            raise ValueError(f"agent {agent_id} is not in this mask set {self.agent_ids}")
        dims = _mask_shape(shape)
        key = (phase, dims)
        if key not in self._streams:
            self._stream(phase, dims)  # refuse a bad request before any sum is allocated
        served = self._served.setdefault(key, set())
        first = agent_id not in served
        pending = self._pending.setdefault(key, {})
        net = pending.pop(agent_id, None) if first else None
        for j, pair, adds in links:  # every agent has a neighbour, so net is set
            if first and j in served:
                continue  # j generated this stream and left it in our pending sum
            m = self.mask(*pair, phase, shape=dims)
            if first:
                other = pending.get(j)
                if other is None:
                    pending[j] = np.negative(m) if adds else m.copy()
                elif adds:
                    other -= m
                else:
                    other += m
            if net is None:
                net = m if adds else np.negative(m, out=m)  # m is ours: mask returns a new array
            elif adds:
                net += m
            else:
                net -= m
        served.add(agent_id)
        if not pending:
            del self._pending[key]
        return net


def fixed_point_bound(K: int) -> float:
    """Largest magnitude an entry may have so that a sum of K shares cannot
    wrap: K entries below 2^(62-F)/K encode to a sum below 2^62 < 2^63."""
    return 2.0 ** (62 - FRAC_BITS) / K


def check_fixed_range(x: np.ndarray, K: int, what: str = "input") -> None:
    """Raise ValueError, naming ``what``, its entry of largest magnitude and
    the bound, when an entry of the float array x is non-finite or not below
    ``fixed_point_bound(K)`` in magnitude."""
    bound = fixed_point_bound(K)
    if x.size and not (x.max() < bound and x.min() > -bound):  # NaN fails both
        peak = float(x.flat[np.argmax(np.abs(x))])  # a NaN if there is one
        raise ValueError(
            f"{what} has entry {peak!r}, which is non-finite or outside the "
            f"fixed-point range |x| < {bound!r} (2^{62 - FRAC_BITS}/K for K={K})"
        )


def encode_fixed(x, K: int) -> np.ndarray:
    """Encode a real tensor as signed fixed-point ring elements (uint64).

    Raises ValueError (``check_fixed_range``) when an entry is non-finite or
    not below ``fixed_point_bound(K)``, instead of letting it wrap."""
    x = np.asarray(x, dtype=float)
    check_fixed_range(x, K)
    scaled = x * _SCALE  # exact: a power-of-two scale
    return np.rint(scaled, out=scaled).astype(np.int64).view(np.uint64)


def decode_fixed(u) -> np.ndarray:
    """Read ring elements (uint64) as signed fixed-point reals."""
    u = np.asarray(u)
    if u.dtype != np.uint64:
        raise ValueError(f"ring elements must be uint64, got {u.dtype}")
    return u.view(np.int64) / _SCALE


def sap_mask(x, agent_id: int, masks: PairwiseMaskSet, phase: Phase) -> np.ndarray:
    """Encode and mask a private tensor as its upload ``phase``: add the
    agent's net mask of that phase's stream (its pair masks toward higher-id
    neighbours minus those toward lower-id neighbours) mod 2^64.
    Summing all K masked tensors cancels every mask.  The mask is asked for
    first, so a stream the set cannot make is refused before x is read."""
    net = masks.net_mask(agent_id, phase, np.shape(x))
    out = encode_fixed(x, len(masks.agent_ids))
    out += net
    return out


def sap_aggregate(shares) -> np.ndarray:
    """Sum a complete set of ring shares mod 2^64 and decode the sum.

    ``shares`` may be any iterable, a generator among them: each share is
    added as it is read, so only the running sum and one share are held."""
    shares = iter(shares)
    first = next(shares, None)
    if first is None:
        raise ValueError("no shares to aggregate")
    first = np.asarray(first)
    out = first.copy()
    for s in shares:
        s = np.asarray(s)
        if s.shape != first.shape:
            raise ValueError(f"share shape {s.shape} does not match {first.shape}")
        if s.dtype != first.dtype:
            raise ValueError(f"share dtype {s.dtype} does not match {first.dtype}")
        out += s
    return decode_fixed(out)
