"""Round-trip and error tests for the LEB128 varint codec."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.storage.varint import read_str, read_uint, write_str, write_uint


def encode_uint(value):
    buf = bytearray()
    write_uint(buf, value)
    return bytes(buf)


@pytest.mark.parametrize(
    "value", [0, 1, 127, 128, 255, 300, 16383, 16384, 2**32, 2**63]
)
def test_known_values_round_trip(value):
    buf = bytearray()
    write_uint(buf, value)
    decoded, offset = read_uint(bytes(buf), 0)
    assert decoded == value
    assert offset == len(buf)


def test_single_byte_for_small_values():
    assert len(encode_uint(0)) == 1
    assert len(encode_uint(127)) == 1
    assert len(encode_uint(128)) == 2


@given(st.integers(min_value=0, max_value=2**70))
def test_round_trip_property(value):
    data = encode_uint(value)
    decoded, offset = read_uint(data, 0)
    assert decoded == value
    assert offset == len(data)


@given(st.lists(st.integers(min_value=0, max_value=2**40), max_size=50))
def test_concatenated_stream(values):
    buf = bytearray()
    for value in values:
        write_uint(buf, value)
    data = bytes(buf)
    offset = 0
    decoded = []
    while offset < len(data):
        value, offset = read_uint(data, offset)
        decoded.append(value)
    assert decoded == values


def test_truncated_varint_raises_storage_error():
    data = encode_uint(2**40)[:-1]
    with pytest.raises(StorageError):
        read_uint(data, 0)


def test_read_past_end_raises_storage_error():
    with pytest.raises(StorageError):
        read_uint(b"", 0)


@given(st.text(max_size=80))
def test_string_round_trip(text):
    buf = bytearray()
    write_str(buf, text)
    decoded, offset = read_str(bytes(buf), 0)
    assert decoded == text
    assert offset == len(buf)


def test_truncated_string_raises_storage_error():
    buf = bytearray()
    write_str(buf, "hello world")
    with pytest.raises(StorageError):
        read_str(bytes(buf)[:-3], 0)
