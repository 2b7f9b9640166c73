"""Outside-in tracer: times calls into aggtherm's layers without editing them.

Each traced function is replaced, at the place it is looked up, by a wrapper
that records one span (name, start, end, parent, operation id).  Spans stay
in memory until the run ends.  ``restore`` puts every original back.

Functions that another module imported into its own namespace are patched
there too (for example ``runner.sap_mask``), because that is the name the
caller resolves at call time.  Methods are patched on their class.

A patch point with no span name is muted: it records no span, and traced
functions it calls record none either, so all of its time is self time of
the enclosing span.  ``ProtocolRunner._private_refs`` is muted: it is
coordinator bookkeeping for the privacy scan, and its calls to
``compute_te_uploads`` would otherwise count as agent upload work.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

# Span record layout: (name, start, end, parent index or -1, operation id).

STAGE_PREFIX = "stage."


def _mask_floats(args, kwargs, result):
    shape = kwargs["shape"] if "shape" in kwargs else args[5]
    yield "protocol.sap.mask.floats", int(np.prod(shape))


def _encoded_bytes(args, kwargs, result):
    yield "protocol.messages.bytes_encoded", len(result)


def patch_points():
    """(owner, attribute, span name or None to mute, count hook) for every
    traced call site.

    Imported lazily so that the caller controls when numpy and aggtherm are
    first imported.
    """
    from aggtherm import estimator, model, synthetic
    from aggtherm.adversary import mqs
    from aggtherm.protocol import runner, sap, te, transcript

    return [
        (synthetic, "generate_synthetic", "synthetic.generate_synthetic", None),
        (model, "build_design", "model.build_design", None),
        (estimator, "bcd_fit", "estimator.bcd_fit", None),
        (estimator, "solve_sp1", "estimator.solve_sp1", None),
        (estimator, "solve_sp2_plain", "estimator.solve_sp2_plain", None),
        (estimator, "solve_weights_qp", "estimator.solve_weights_qp", None),
        (te, "solve_weights_qp", "estimator.solve_weights_qp", None),
        (estimator, "solve_constrained_quadratic", "estimator.solve_constrained_quadratic", None),
        (runner, "solve_sp1_from_parts", "estimator.solve_sp1_from_parts", None),
        (runner.ProtocolRunner, "run", "protocol.runner.run", None),
        (runner.ProtocolRunner, "_private_refs", None, None),
        (runner.InProcessBus, "send", "protocol.runner.send", None),
        (runner, "compute_te_uploads", "protocol.te.compute_te_uploads", None),
        (runner, "solve_sp2_masked", "protocol.te.solve_sp2_masked", None),
        (runner, "sap_mask", "protocol.sap.sap_mask", None),
        (runner, "sap_aggregate", "protocol.sap.sap_aggregate", None),
        (sap.PairwiseMaskSet, "mask", "protocol.sap.mask", _mask_floats),
        (runner, "encode_message", "protocol.messages.encode_message", _encoded_bytes),
        (transcript, "encode_message", "protocol.messages.encode_message", _encoded_bytes),
        (runner, "decode_message", "protocol.messages.decode_message", None),
        (transcript.ProtocolTranscript, "log", "protocol.transcript.log", None),
        (runner, "scan_payloads", "protocol.transcript.scan_payloads", None),
        (mqs, "solve_mqs", "adversary.mqs.solve_mqs", None),
        (mqs.MqsInstance, "residual", "adversary.mqs.residual", None),
        (mqs.MqsInstance, "jacobian", "adversary.mqs.jacobian", None),
    ]


class Tracer:
    """Span recorder.  Use as a context manager: patches on entry, restores on exit."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(Counter)  # operation id -> Counter
        self.op = None
        self._stack: list = []
        self._saved: list = []
        self._muted = 0  # depth of muted calls in progress

    def __enter__(self):
        for owner, attr, name, count in patch_points():
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            wrap = self._wrap(name, original, count) if name else self._mute(original)
            setattr(owner, attr, wrap)
        return self

    def __exit__(self, *exc):
        self.restore()

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _open(self, name):
        """Reserve the span's slot; it is filled with a tuple on close, since
        tuples of scalars drop out of the garbage collector's scans."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        return idx, name, parent, self.op, time.perf_counter()

    def _close(self, opened):
        end = time.perf_counter()
        idx, name, parent, op, start = opened
        self.spans[idx] = (name, start, end, parent, op)
        self._stack.pop()

    def _wrap(self, name, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._muted:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if count is not None:
                self.counts[self.op].update(dict(count(args, kwargs, result)))
            return result

        return traced

    def _mute(self, fn):
        @functools.wraps(fn)
        def muted(*args, **kwargs):
            self._muted += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._muted -= 1

        return muted

    @contextmanager
    def stage(self, name):
        """A span around one stage of an operation, run by the benchmark itself."""
        span = self._open(STAGE_PREFIX + name)
        try:
            yield
        finally:
            self._close(span)

    def op_summaries(self) -> dict:
        """Per operation: calls, busy and self seconds of each span name, both
        overall and split by the enclosing stage span, plus the hook counts.

        Self time is a span's duration minus the durations of its direct
        children; calls are synchronous, so children never overlap.
        """
        child_s = [0.0] * len(self.spans)
        stage = [None] * len(self.spans)
        for i, (name, start, end, parent, _op) in enumerate(self.spans):
            if parent >= 0:
                child_s[parent] += end - start
                stage[i] = stage[parent]
            if name.startswith(STAGE_PREFIX):
                stage[i] = name[len(STAGE_PREFIX):]
        out: dict = defaultdict(Counter)
        for i, (name, start, end, _parent, op) in enumerate(self.spans):
            busy = end - start
            row = out[op]
            for suffix in ("", f".{stage[i]}") if stage[i] else ("",):
                row[f"{name}.calls{suffix}"] += 1
                row[f"{name}.busy_s{suffix}"] += busy
                row[f"{name}.self_s{suffix}"] += busy - child_s[i]
        for op, counts in self.counts.items():
            out[op].update(counts)
        return dict(out)

    def dump(self) -> list:
        """Spans as JSON-ready dicts, in start order."""
        fields = ("name", "start", "end", "parent", "op")
        return [dict(zip(fields, s)) for s in self.spans]
