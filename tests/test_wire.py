"""Message and checkpoint byte formats."""

import hashlib
import struct

import numpy as np
import pytest

from dafed import wire
from dafed.network import init_theta
from dafed.optim import Adam, ParamStore


def _sample_message():
    g = np.random.default_rng(0)
    return wire.Message(
        round_idx=7, kind=wire.KIND_BROADCAST,
        params={"b.w": g.standard_normal((3, 4)), "a.v": g.standard_normal(5)},
        grads={"b.w": g.standard_normal((3, 4))},
        scalars={"loss_total_source": 1.25})


def test_message_round_trip_is_bitwise():
    msg = _sample_message()
    out = wire.decode_message(wire.encode_message(msg))
    assert out.round_idx == 7 and out.kind == wire.KIND_BROADCAST
    for name, arr in msg.params.items():
        assert np.array_equal(out.params[name], arr)
        assert out.params[name].dtype == np.float64
    assert np.array_equal(out.grads["b.w"], msg.grads["b.w"])
    assert out.scalars == {"loss_total_source": 1.25}


def test_encoding_is_deterministic():
    a = wire.encode_message(_sample_message())
    b = wire.encode_message(_sample_message())
    assert a == b


def test_decoded_arrays_are_writable_copies():
    buf = wire.encode_message(_sample_message())
    out = wire.decode_message(buf)
    out.params["b.w"][0, 0] = 42.0  # must not raise


def test_upload_kind_and_empty_sections():
    msg = wire.Message(round_idx=0, kind=wire.KIND_UPLOAD,
                       params={"w": np.array([1.0])})
    out = wire.decode_message(wire.encode_message(msg))
    assert out.kind == wire.KIND_UPLOAD
    assert out.grads == {} and out.scalars == {}


def _small_checkpoint(path):
    theta = ParamStore()
    theta.add("b.w", np.arange(6.0).reshape(2, 3))
    theta.add("a", np.array(0.5))
    wire.save_checkpoint(path, theta, 3, hashlib.sha256(b"c").digest(),
                         {"site_x": hashlib.sha256(b"s").digest()})
    return path.read_bytes()


def test_truncated_message_rejected(tmp_path):
    # WireError, a ValueError, must be the only exception a bad buffer raises:
    # every proper prefix is truncated, and trailing bytes are refused
    buf = wire.encode_message(_sample_message())
    for n in range(len(buf)):
        with pytest.raises(wire.WireError):
            wire.decode_message(buf[:n])
    with pytest.raises(wire.WireError, match="left over"):
        wire.decode_message(buf + b"\x00")

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
        wire.decode_message(bytes(buf))
    vector_scalar = wire.Message(round_idx=0, kind=wire.KIND_UPLOAD, scalars={"s": np.ones(2)})
    with pytest.raises(wire.WireError, match="non-scalar"):
        wire.decode_message(wire.encode_message(vector_scalar))


def _rename_entry(buf: bytes, old: str, new: str) -> bytes:
    """`buf` with its one length-prefixed entry name `old` replaced by `new`."""
    field = struct.pack("<H", len(old)) + old.encode()
    assert len(new) == len(old) and buf.count(field) == 1
    return buf.replace(field, struct.pack("<H", len(new)) + new.encode())


def test_repeated_section_unknown_kind_and_repeated_name_rejected(tmp_path):
    # the encoder writes each section once, a known kind, and sorted unique
    # names; a buffer that breaks any of these must not decode
    section = bytes([wire.SECTION_PARAMS]) + wire._encode_entries({"w": np.ones(2)})
    header = struct.pack("<BIBB", wire.WIRE_VERSION, 0, wire.KIND_UPLOAD, 2)
    with pytest.raises(wire.WireError, match="section tag 0 repeated"):
        wire.decode_message(header + section + section)

    buf = bytearray(wire.encode_message(_sample_message()))
    buf[5] = 9  # after the version byte and the u32 round
    with pytest.raises(wire.WireError, match="unknown payload kind 9"):
        wire.decode_message(bytes(buf))

    two = wire.Message(round_idx=0, kind=wire.KIND_UPLOAD,
                       params={"v": np.zeros(1), "w": np.ones(1)})
    with pytest.raises(wire.WireError, match="'w' repeated or out of order after 'w'"):
        wire.decode_message(_rename_entry(wire.encode_message(two), "v", "w"))

    path = tmp_path / "dup.ckpt"
    path.write_bytes(_rename_entry(_small_checkpoint(tmp_path / "ok.ckpt"), "a", "c"))
    with pytest.raises(wire.WireError, match="'b.w' repeated or out of order after 'c'") as err:
        wire.load_checkpoint(path)
    assert str(path) in str(err.value)


@pytest.mark.parametrize("kind", [2, 9, -1])
def test_encode_refuses_an_unknown_kind(kind):
    msg = wire.Message(round_idx=0, kind=kind, params={"w": np.ones(1)})
    with pytest.raises(wire.WireError, match=f"unknown payload kind {kind}"):
        wire.encode_message(msg)


def test_encode_refuses_a_round_outside_u32():
    last = wire.Message(round_idx=2 ** 32 - 1, kind=wire.KIND_UPLOAD, params={"w": np.ones(1)})
    assert wire.decode_message(wire.encode_message(last)).round_idx == 2 ** 32 - 1
    for round_idx in (-1, 2 ** 32):
        last.round_idx = round_idx
        with pytest.raises(wire.WireError, match=rf"round {round_idx} is outside \[0, 2\*\*32\)"):
            wire.encode_message(last)


def test_encode_refuses_a_name_longer_than_u16():
    longest = "é" * (65535 // 2) + "x"  # 65535 UTF-8 bytes
    msg = wire.Message(round_idx=0, kind=wire.KIND_UPLOAD, params={longest: np.ones(1)})
    assert list(wire.decode_message(wire.encode_message(msg)).params) == [longest]
    msg.params = {longest + "x": np.ones(1)}
    with pytest.raises(wire.WireError, match="name of 65536 UTF-8 bytes"):
        wire.encode_message(msg)


def test_encode_refuses_a_rank_above_u8(monkeypatch):
    # numpy caps an array's rank at 64, so a stand-in reports rank 256
    class Deep:
        ndim = 256
        shape = (1,) * 256

    monkeypatch.setattr(wire.np, "ascontiguousarray", lambda arr, dtype: Deep())
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


def _message_of_rank(rank):
    return (struct.pack("<BIBBB", wire.WIRE_VERSION, 0, wire.KIND_UPLOAD, 1,
                        wire.SECTION_PARAMS) + _entry_of_rank(rank))


def _checkpoint_of_rank(path, rank):
    path.write_bytes(wire.CKPT_MAGIC + bytes(32) + struct.pack("<II", 0, 0)
                     + _entry_of_rank(rank))
    return path


def test_ranks_up_to_numpys_limit_decode(tmp_path):
    for rank in (0, 64):
        assert wire.decode_message(_message_of_rank(rank)).params["w"].shape == (1,) * rank
        theta, _, _, _ = wire.load_checkpoint(_checkpoint_of_rank(tmp_path / "r.ckpt", rank))
        assert theta["w"].shape == (1,) * rank


@pytest.mark.parametrize("rank", [65, 255])
def test_a_rank_above_numpys_limit_is_a_wire_error(tmp_path, rank):
    with pytest.raises(wire.WireError, match=f"'w' has rank {rank}"):
        wire.decode_message(_message_of_rank(rank))
    path = _checkpoint_of_rank(tmp_path / "deep.ckpt", rank)
    with pytest.raises(wire.WireError, match=f"deep.ckpt: entry 'w' has rank {rank}"):
        wire.load_checkpoint(path)


@pytest.mark.parametrize("round_idx", [-1, 2 ** 32])
def test_save_checkpoint_refuses_a_round_outside_u32_before_writing(tmp_path, round_idx):
    path = tmp_path / "model.ckpt"
    with pytest.raises(wire.WireError, match=rf"round {round_idx} is outside \[0, 2\*\*32\)"):
        wire.save_checkpoint(path, init_theta(5, seed=1), round_idx, bytes(32), {})
    assert not path.exists()


def test_checkpoint_round_trip(tmp_path):
    theta = init_theta(9, seed=4)
    opt = Adam(names=("a", "b"))
    opt.m["a"] = np.ones(3)
    opt.v["a"] = np.ones(3)
    digests = {"site_x": wire.optimizer_digest(opt)}
    cfg_digest = hashlib.sha256(b"config").digest()
    path = tmp_path / "model.ckpt"
    wire.save_checkpoint(path, theta, 30, cfg_digest, digests)
    loaded, round_idx, got_digest, got_sites = wire.load_checkpoint(path)
    assert round_idx == 30
    assert got_digest == cfg_digest
    assert got_sites == digests
    assert loaded.names() == theta.names()
    for name, t in theta.items():
        assert np.array_equal(loaded[name].data, t.data)


def test_checkpoint_save_is_reproducible(tmp_path):
    theta = init_theta(5, seed=1)
    cfg_digest = hashlib.sha256(b"x").digest()
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    wire.save_checkpoint(p1, theta, 3, cfg_digest, {})
    wire.save_checkpoint(p2, theta, 3, cfg_digest, {})
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOTACKPT" + b"\x00" * 64)
    with pytest.raises(wire.WireError, match="not a checkpoint"):
        wire.load_checkpoint(path)


def test_optimizer_digest_tracks_state():
    a = Adam(names=("w",))
    b = Adam(names=("w",))
    assert wire.optimizer_digest(a) == wire.optimizer_digest(b)
    a.m["w"] = np.ones(2)
    a.v["w"] = np.ones(2)
    a.step = 3
    assert wire.optimizer_digest(a) != wire.optimizer_digest(b)
