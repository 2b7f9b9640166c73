import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from aggtherm.protocol.messages import (
    PROTOCOL_VERSION,
    Message,
    Phase,
    decode_message,
    encode_message,
)


def roundtrip(msg):
    return decode_message(encode_message(msg))


class TestEnvelope:
    def test_matrix_roundtrip(self):
        payload = np.arange(12.0).reshape(3, 4)
        msg = Message(iteration=2, phase=Phase.TE_UPLOAD, sender=3, receiver=0, payload=payload)
        back = roundtrip(msg)
        assert back.version == PROTOCOL_VERSION
        assert back.iteration == 2
        assert back.phase == Phase.TE_UPLOAD
        assert (back.sender, back.receiver) == (3, 0)
        assert np.array_equal(back.payload, payload)

    def test_vector_becomes_column(self):
        msg = Message(iteration=0, phase=Phase.SAP_S, sender=1, receiver=0,
                      payload=np.array([1.0, 2.0, 3.0]))
        assert msg.payload.shape == (3, 1)
        assert np.array_equal(roundtrip(msg).payload, msg.payload)

    def test_scalar_becomes_1x1(self):
        msg = Message(iteration=1, phase=Phase.XI_RETURN, sender=4, receiver=0,
                      payload=np.float64(0.25))
        assert msg.payload.shape == (1, 1)
        assert roundtrip(msg).payload[0, 0] == 0.25

    def test_payload_is_little_endian_f64(self):
        msg = Message(iteration=0, phase=Phase.SAP_S, sender=1, receiver=0,
                      payload=np.array([1.0]))
        data = encode_message(msg)
        # header: u16 version, u32 iteration, u8 phase, u32 sender, u32 receiver;
        # payload header: u32 count, u32 rows, u32 cols, u8 dtype code
        assert data[:2] == (2).to_bytes(2, "little")
        assert len(data) == 15 + 13 + 8
        assert data[27:28] == b"f"
        assert data[-8:] == np.float64(1.0).tobytes()

    def test_ring_payload_is_little_endian_u64(self):
        msg = Message(iteration=0, phase=Phase.SAP_S, sender=1, receiver=0,
                      payload=np.array([2**64 - 1], dtype=np.uint64))
        assert msg.payload.dtype == np.uint64
        data = encode_message(msg)
        assert len(data) == 15 + 13 + 8
        assert data[27:28] == b"u"
        assert data[-8:] == b"\xff" * 8
        back = decode_message(data).payload
        assert back.dtype == np.uint64 and back[0, 0] == 2**64 - 1

    def test_unknown_dtype_code_rejected(self):
        data = bytearray(
            encode_message(
                Message(iteration=0, phase=Phase.SAP_S, sender=1, receiver=0,
                        payload=np.ones(2))
            )
        )
        data[27:28] = b"i"
        with pytest.raises(ValueError, match="dtype code"):
            decode_message(bytes(data))

    def test_non_ring_payloads_become_float(self):
        for payload in (np.arange(3), [1, 2], np.array([1.5], dtype=">f8"), np.uint32(7)):
            msg = Message(iteration=0, phase=Phase.XI_RETURN, sender=1, receiver=0,
                          payload=payload)
            assert msg.payload.dtype == np.float64
            assert roundtrip(msg).payload.dtype == np.float64

    def test_truncated_rejected(self):
        data = encode_message(
            Message(iteration=0, phase=Phase.SAP_S, sender=1, receiver=0,
                    payload=np.ones(4))
        )
        with pytest.raises(ValueError):
            decode_message(data[:-1])
        with pytest.raises(ValueError):
            decode_message(data[:10])

    def test_count_dim_mismatch_rejected(self):
        data = bytearray(
            encode_message(
                Message(iteration=0, phase=Phase.SAP_S, sender=1, receiver=0,
                        payload=np.ones(4))
            )
        )
        data[15:19] = (5).to_bytes(4, "little")  # corrupt the count field
        with pytest.raises(ValueError):
            decode_message(bytes(data))

    def test_unknown_version_rejected(self):
        data = bytearray(
            encode_message(
                Message(iteration=0, phase=Phase.SAP_S, sender=1, receiver=0,
                        payload=np.ones(2))
            )
        )
        data[0:2] = (9).to_bytes(2, "little")
        with pytest.raises(ValueError, match="version"):
            decode_message(bytes(data))

    def test_all_phases_roundtrip(self):
        for phase in Phase:
            back = roundtrip(
                Message(iteration=5, phase=phase, sender=2, receiver=7,
                        payload=np.array([[1.5]]))
            )
            assert back.phase == phase


_shapes = st.one_of(
    hnp.array_shapes(min_dims=1, max_dims=2, min_side=1, max_side=9),
    st.just(()),
)
_header = dict(
    iteration=st.integers(0, 2**32 - 1),
    phase=st.sampled_from(list(Phase)),
    sender=st.integers(0, 2**32 - 1),
    receiver=st.integers(0, 2**32 - 1),
)


def _check_roundtrip(msg, dtype):
    back = roundtrip(msg)
    assert (back.iteration, back.phase, back.sender, back.receiver) == (
        msg.iteration, msg.phase, msg.sender, msg.receiver
    )
    assert back.payload.dtype == dtype
    assert back.payload.shape == msg.payload.shape
    # bit-for-bit, so NaN payloads and signed zeros round-trip too
    assert back.payload.tobytes() == msg.payload.tobytes()
    assert encode_message(back) == encode_message(msg)


@settings(max_examples=200, deadline=None)
@given(payload=hnp.arrays(np.float64, _shapes), **_header)
def test_f64_roundtrip(payload, iteration, phase, sender, receiver):
    msg = Message(iteration, phase, sender, receiver, payload)
    _check_roundtrip(msg, np.float64)


@settings(max_examples=200, deadline=None)
@given(payload=hnp.arrays(np.uint64, _shapes), **_header)
def test_u64_roundtrip(payload, iteration, phase, sender, receiver):
    msg = Message(iteration, phase, sender, receiver, payload)
    _check_roundtrip(msg, np.uint64)
