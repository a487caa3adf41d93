"""Message and checkpoint byte formats."""

import hashlib
import struct

import numpy as np
import pytest

from dafed import wire
from dafed.network import init_theta
from dafed.optim import ParamStore


def _sample_message():
    g = np.random.default_rng(0)
    return wire.Message(
        round_idx=7, kind=wire.KIND_CENTRAL,
        params={"b.w": g.standard_normal((3, 4)), "a.v": g.standard_normal(5)},
        grads={"b.w": g.standard_normal((3, 4))})


SAMPLE_SHA256 = "1f840a6b012e4df040ca2c9e573d466e75f69b1aa26f5c7c39854f1c8e4cf098"


def _decode_sample(buf):
    return wire.decode_message(buf, wire.KIND_CENTRAL, 7)


def _raw_message(kind, round_idx, *entry_sections):
    """A message built by hand: its header, then the given entry sections."""
    return struct.pack("<BIB", wire.WIRE_VERSION, round_idx, kind) + b"".join(entry_sections)


def test_message_round_trip_is_bitwise():
    msg = _sample_message()
    out = _decode_sample(wire.encode_message(msg))
    assert out.round_idx == 7 and out.kind == wire.KIND_CENTRAL
    for name, arr in msg.params.items():
        assert np.array_equal(out.params[name], arr)
        assert out.params[name].dtype == np.float64
    assert np.array_equal(out.grads["b.w"], msg.grads["b.w"])


def test_encoding_is_deterministic():
    a = wire.encode_message(_sample_message())
    b = wire.encode_message(_sample_message())
    assert a == b


def test_message_bytes_are_pinned():
    # a change to the message layout must bump WIRE_VERSION and re-pin this
    buf = wire.encode_message(_sample_message())
    assert hashlib.sha256(buf).hexdigest() == SAMPLE_SHA256


def test_decoded_arrays_are_writable_copies():
    buf = wire.encode_message(_sample_message())
    out = _decode_sample(buf)
    out.params["b.w"][0, 0] = 42.0  # must not raise


def test_upload_kind_and_empty_sections():
    msg = wire.Message(round_idx=0, kind=wire.KIND_UPLOAD,
                       params={"w": np.array([1.0])})
    out = wire.decode_message(wire.encode_message(msg), wire.KIND_UPLOAD, 0)
    assert out.kind == wire.KIND_UPLOAD
    assert out.grads == {}
    empty = wire.Message(round_idx=0, kind=wire.KIND_CENTRAL, params={"w": np.ones(1)})
    assert wire.decode_message(wire.encode_message(empty), wire.KIND_CENTRAL, 0).grads == {}


def test_a_0d_entry_keeps_its_shape(tmp_path):
    msg = wire.Message(round_idx=0, kind=wire.KIND_UPLOAD, params={"a": np.array(0.5)})
    buf = wire.encode_message(msg)
    assert len(buf) == 22  # header 6, count 4, name 2 + 1, rank 1, value 8
    assert wire.decode_message(buf, wire.KIND_UPLOAD, 0).params["a"].shape == ()
    _small_checkpoint(tmp_path / "c.ckpt")
    theta = wire.load_checkpoint(tmp_path / "c.ckpt")[0]
    assert theta["a"].data.shape == () and theta["a"].item() == 0.5


def test_encode_refuses_gradients_in_an_upload():
    msg = wire.Message(round_idx=0, kind=wire.KIND_UPLOAD, params={"w": np.ones(1)},
                       grads={"w": np.ones(1)})
    with pytest.raises(wire.WireError, match="an upload carries no gradients"):
        wire.encode_message(msg)


def test_a_model_message_holds_parameters_only():
    theta = init_theta(6, 0)
    msg = wire.Message(round_idx=3, kind=wire.KIND_MODEL, params=wire.store_to_arrays(theta))
    buf = wire.encode_message(msg)
    out = wire.decode_message(buf, wire.KIND_MODEL, 3)
    assert out.kind == wire.KIND_MODEL and out.grads == {}
    assert set(out.params) == set(theta.names())
    assert all(out.params[n].tobytes() == theta[n].data.tobytes() for n in theta.names())
    # the upload layout under another kind byte
    upload = wire.encode_message(wire.Message(round_idx=3, kind=wire.KIND_UPLOAD, params=msg.params))
    assert buf[5] == wire.KIND_MODEL and buf[:5] + buf[6:] == upload[:5] + upload[6:]
    with pytest.raises(wire.WireError, match="payload kind 2 where kind 0 is expected"):
        wire.decode_message(buf, wire.KIND_CENTRAL, 3)
    msg.grads = {"clf.fc2.b": np.ones(2)}
    with pytest.raises(wire.WireError, match="a model message carries no gradients"):
        wire.encode_message(msg)


def test_decode_refuses_a_message_of_another_kind_or_round():
    buf = wire.encode_message(_sample_message())
    with pytest.raises(wire.WireError, match="payload kind 0 where kind 1 is expected"):
        wire.decode_message(buf, wire.KIND_UPLOAD, 7)
    for round_idx in (6, 8):
        with pytest.raises(wire.WireError,
                           match=f"message of round 7 where round {round_idx} is expected"):
            wire.decode_message(buf, wire.KIND_CENTRAL, round_idx)


def _small_checkpoint(path):
    theta = ParamStore()
    theta.add("b.w", np.arange(6.0).reshape(2, 3))
    theta.add("a", np.array(0.5))
    wire.save_checkpoint(path, theta, 3, hashlib.sha256(b"c").digest())
    return path.read_bytes()


def test_truncated_message_rejected(tmp_path):
    # WireError, a ValueError, must be the only exception a bad buffer raises:
    # every proper prefix is truncated, and trailing bytes are refused
    buf = wire.encode_message(_sample_message())
    for n in range(len(buf)):
        with pytest.raises(wire.WireError):
            _decode_sample(buf[:n])
    with pytest.raises(wire.WireError, match="left over"):
        _decode_sample(buf + b"\x00")

    ckpt = _small_checkpoint(tmp_path / "full.ckpt")
    path = tmp_path / "cut.ckpt"
    for n in list(range(len(ckpt))) + [-1]:
        path.write_bytes(ckpt[:n] if n >= 0 else ckpt + b"\x00")
        with pytest.raises(wire.WireError) as err:
            wire.load_checkpoint(path)
        assert str(path) in str(err.value)


def test_corrupt_message_rejected():
    buf = bytearray(wire.encode_message(_sample_message()))
    buf[bytes(buf).index(b"a.v")] = 0xff
    with pytest.raises(wire.WireError, match="UTF-8"):
        _decode_sample(bytes(buf))


def _corruptions(buf: bytes, seed: int, n: int):
    """`n` seeded corruptions of `buf`, cycling through a truncation, a bit
    flip anywhere, a byte overwrite anywhere and an 8-byte insertion."""
    g = np.random.default_rng(seed)
    for i in range(n):
        out = bytearray(buf)
        at = int(g.integers(len(buf)))
        kind = i % 4
        if kind == 0:
            del out[at:]
        elif kind == 1:
            out[at] ^= 1 << int(g.integers(8))
        elif kind == 2:
            out[at] = int(g.integers(256))
        else:
            out[at:at] = g.bytes(8)
        yield bytes(out)


def test_corrupt_message_decodes_or_raises_wire_error():
    buf = wire.encode_message(_sample_message())
    refused = 0
    for bad in _corruptions(buf, seed=1, n=400):
        try:
            _decode_sample(bad)
        except wire.WireError:
            refused += 1
    assert refused >= 100  # every truncation is refused


def test_corrupt_checkpoint_is_refused_naming_its_path(tmp_path):
    good = _small_checkpoint(tmp_path / "good.ckpt")
    path = tmp_path / "bad.ckpt"
    tried = 0
    for bad in _corruptions(good, seed=2, n=400):
        if bad == good:
            continue  # an overwrite with the same byte
        tried += 1
        path.write_bytes(bad)
        with pytest.raises(wire.WireError) as err:
            wire.load_checkpoint(path)
        assert str(path) in str(err.value)
    assert tried > 390


def _rename_entry(buf: bytes, old: str, new: str) -> bytes:
    """`buf` with its one length-prefixed entry name `old` replaced by `new`."""
    field = struct.pack("<H", len(old)) + old.encode()
    assert len(new) == len(old) and buf.count(field) == 1
    return buf.replace(field, struct.pack("<H", len(new)) + new.encode())


def test_repeated_section_unknown_kind_and_repeated_name_rejected(tmp_path):
    # the encoder writes the sections of its kind, a known kind, and sorted
    # unique names; a buffer that breaks any of these must not decode
    section = wire._encode_entries({"w": np.ones(2)})
    with pytest.raises(wire.WireError, match="left over"):
        wire.decode_message(_raw_message(wire.KIND_UPLOAD, 0, section, section),
                            wire.KIND_UPLOAD, 0)

    buf = bytearray(wire.encode_message(_sample_message()))
    buf[5] = 9  # after the version byte and the u32 round
    with pytest.raises(wire.WireError, match="payload kind 9 where kind 0 is expected"):
        _decode_sample(bytes(buf))

    two = wire.Message(round_idx=0, kind=wire.KIND_UPLOAD,
                       params={"v": np.zeros(1), "w": np.ones(1)})
    with pytest.raises(wire.WireError, match="'w' repeated or out of order after 'w'"):
        wire.decode_message(_rename_entry(wire.encode_message(two), "v", "w"),
                            wire.KIND_UPLOAD, 0)

    path = tmp_path / "dup.ckpt"
    path.write_bytes(_rename_entry(_small_checkpoint(tmp_path / "ok.ckpt"), "a", "c"))
    with pytest.raises(wire.WireError, match="'b.w' repeated or out of order after 'c'") as err:
        wire.load_checkpoint(path)
    assert str(path) in str(err.value)


@pytest.mark.parametrize("kind", [3, 9, -1])
def test_encode_refuses_an_unknown_kind(kind):
    msg = wire.Message(round_idx=0, kind=kind, params={"w": np.ones(1)})
    with pytest.raises(wire.WireError, match=f"unknown payload kind {kind}"):
        wire.encode_message(msg)


def test_encode_refuses_a_round_outside_u32():
    last = wire.Message(round_idx=2 ** 32 - 1, kind=wire.KIND_UPLOAD, params={"w": np.ones(1)})
    out = wire.decode_message(wire.encode_message(last), wire.KIND_UPLOAD, 2 ** 32 - 1)
    assert out.round_idx == 2 ** 32 - 1
    for round_idx in (-1, 2 ** 32):
        last.round_idx = round_idx
        with pytest.raises(wire.WireError, match=rf"round {round_idx} is outside \[0, 2\*\*32\)"):
            wire.encode_message(last)


def test_encode_refuses_a_name_longer_than_u16():
    longest = "é" * (65535 // 2) + "x"  # 65535 UTF-8 bytes
    msg = wire.Message(round_idx=0, kind=wire.KIND_UPLOAD, params={longest: np.ones(1)})
    out = wire.decode_message(wire.encode_message(msg), wire.KIND_UPLOAD, 0)
    assert list(out.params) == [longest]
    msg.params = {longest + "x": np.ones(1)}
    with pytest.raises(wire.WireError, match="name of 65536 UTF-8 bytes"):
        wire.encode_message(msg)


def test_encode_refuses_a_rank_above_u8(monkeypatch):
    # numpy caps an array's rank at 64, so a stand-in reports rank 256
    class Deep:
        ndim = 256
        shape = (1,) * 256

    monkeypatch.setattr(wire.np, "asarray", lambda arr, dtype, order: Deep())
    msg = wire.Message(round_idx=0, kind=wire.KIND_UPLOAD, params={"w": np.ones(1)})
    with pytest.raises(wire.WireError, match="'w' has rank 256"):
        wire.encode_message(msg)


def test_encode_refuses_a_dimension_above_u32():
    # an empty array may have a dimension that no u32 holds
    msg = wire.Message(round_idx=0, kind=wire.KIND_UPLOAD, params={"w": np.zeros((0, 2 ** 32))})
    with pytest.raises(wire.WireError, match=r"'w' has shape \(0, 4294967296\)"):
        wire.encode_message(msg)


def _entry_of_rank(rank):
    """One entry section holding a single float64 under `rank` unit dims."""
    return (struct.pack("<IH", 1, 1) + b"w" + struct.pack(f"<B{rank}I", rank, *[1] * rank)
            + struct.pack("<d", 1.5))


def _upload_of_rank(rank):
    raw = _raw_message(wire.KIND_UPLOAD, 0, _entry_of_rank(rank))
    return wire.decode_message(raw, wire.KIND_UPLOAD, 0)


def _checkpoint_of_rank(path, rank):
    body = wire.CKPT_MAGIC + bytes(32) + struct.pack("<I", 0) + _entry_of_rank(rank)
    path.write_bytes(body + hashlib.sha256(body).digest())
    return path


def test_ranks_up_to_numpys_limit_decode(tmp_path):
    for rank in (0, 64):
        assert _upload_of_rank(rank).params["w"].shape == (1,) * rank
        theta, _, _, _ = wire.load_checkpoint(_checkpoint_of_rank(tmp_path / "r.ckpt", rank))
        assert theta["w"].shape == (1,) * rank


@pytest.mark.parametrize("rank", [65, 255])
def test_a_rank_above_numpys_limit_is_a_wire_error(tmp_path, rank):
    with pytest.raises(wire.WireError, match=f"'w' has rank {rank}"):
        _upload_of_rank(rank)
    path = _checkpoint_of_rank(tmp_path / "deep.ckpt", rank)
    with pytest.raises(wire.WireError, match=f"deep.ckpt: entry 'w' has rank {rank}"):
        wire.load_checkpoint(path)


def test_an_empty_entry_whose_shape_numpy_cannot_hold_is_a_wire_error(tmp_path):
    # no data bytes follow a zero dimension, but numpy refuses the shape
    # when the other dimensions overflow its size
    for dims, ok in (((0, 3), True), ((0, 2 ** 32 - 1, 2 ** 32 - 1), False)):
        entry = (struct.pack("<IH", 1, 1) + b"w"
                 + struct.pack(f"<B{len(dims)}I", len(dims), *dims))
        msg = _raw_message(wire.KIND_UPLOAD, 0, entry)
        body = wire.CKPT_MAGIC + bytes(32) + struct.pack("<I", 0) + entry
        path = tmp_path / "empty.ckpt"
        path.write_bytes(body + hashlib.sha256(body).digest())
        if ok:
            assert wire.decode_message(msg, wire.KIND_UPLOAD, 0).params["w"].shape == dims
            assert wire.load_checkpoint(path)[0]["w"].shape == dims
            continue
        with pytest.raises(wire.WireError, match=r"'w' has shape \(0, 4294967295"):
            wire.decode_message(msg, wire.KIND_UPLOAD, 0)
        with pytest.raises(wire.WireError, match=r"empty.ckpt: entry 'w' has shape"):
            wire.load_checkpoint(path)


@pytest.mark.parametrize("round_idx", [-1, 2 ** 32])
def test_save_checkpoint_refuses_a_round_outside_u32_before_writing(tmp_path, round_idx):
    path = tmp_path / "model.ckpt"
    with pytest.raises(wire.WireError, match=rf"round {round_idx} is outside \[0, 2\*\*32\)"):
        wire.save_checkpoint(path, init_theta(5, seed=1), round_idx, bytes(32))
    assert not path.exists()


def test_checkpoint_round_trip(tmp_path):
    theta = init_theta(9, seed=4)
    cfg_digest = hashlib.sha256(b"config").digest()
    path = tmp_path / "model.ckpt"
    wire.save_checkpoint(path, theta, 30, cfg_digest)
    loaded, round_idx, got_digest, _ = wire.load_checkpoint(path)
    assert round_idx == 30
    assert got_digest == cfg_digest
    assert loaded.names() == theta.names()
    for name, t in theta.items():
        assert np.array_equal(loaded[name].data, t.data)


def test_checkpoint_save_is_reproducible(tmp_path):
    theta = init_theta(5, seed=1)
    cfg_digest = hashlib.sha256(b"x").digest()
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    wire.save_checkpoint(p1, theta, 3, cfg_digest)
    wire.save_checkpoint(p2, theta, 3, cfg_digest)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOTACKPT" + b"\x00" * 64)
    with pytest.raises(wire.WireError, match="not a checkpoint"):
        wire.load_checkpoint(path)
