"""Binary encoding for round messages and checkpoints.

Message layout: version byte, round u32, kind byte, the parameters as one
entry section, and in a central message only, the gradients as a second
entry section. An entry section is an entry count u32, then entries encoded
as (name length u16, name bytes, rank u8, dims u32 each, float64
little-endian data). Everything is little-endian and iterated in sorted-name
order, so the same content always serializes to the same bytes. A receiver
names the kind and round it expects, and any other message is refused.

Three kinds go over the wire each round. A model message (kind 2) carries
the round's global model, every tensor with its running statistics. A
central message (kind 0) carries the central site's running statistics
after its step, and its gradients. An upload (kind 1) carries a site's
updated parameters.

Checkpoint layout: magic `FCFEDCK2`, config digest (32 bytes), round u32,
the parameters as one entry section (count u32, then entries as above), and
a SHA-256 over every byte before it.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .optim import ParamStore

WIRE_VERSION = 2
KIND_CENTRAL = 0
KIND_UPLOAD = 1
KIND_MODEL = 2

CKPT_MAGIC = b"FCFEDCK2"


class WireError(ValueError):
    pass


def _entry_chunks(entries: dict[str, np.ndarray]) -> list:
    """An entry section as chunks, which the caller joins with the rest of
    its message, so that every byte is copied once."""
    chunks = [struct.pack("<I", len(entries))]
    for name in sorted(entries):
        arr = np.asarray(entries[name], dtype="<f8", order="C")  # keeps a 0-d shape
        raw = name.encode("utf-8")
        if len(raw) > 0xFFFF:
            raise WireError(f"entry name of {len(raw)} UTF-8 bytes: at most 65535 fit")
        if arr.ndim > 0xFF:
            raise WireError(f"entry {name!r} has rank {arr.ndim}: at most 255 fit")
        if max(arr.shape, default=0) > 0xFFFFFFFF:
            raise WireError(f"entry {name!r} has shape {arr.shape}: "
                            "at most 4294967295 fit per dimension")
        chunks.append(struct.pack("<H", len(raw)))
        chunks.append(raw)
        chunks.append(struct.pack("<B", arr.ndim))
        for dim in arr.shape:
            chunks.append(struct.pack("<I", dim))
        chunks.append(arr)  # joined through the buffer protocol, C order
    return chunks


def _need(buf: bytes, end: int):
    if end > len(buf):
        raise WireError(f"truncated: {end} bytes needed, {len(buf)} present")


def _unpack(fmt: str, buf: bytes, off: int) -> tuple[tuple, int]:
    """Values of `fmt` at `off` and the offset after them."""
    end = off + struct.calcsize(fmt)
    _need(buf, end)
    return struct.unpack_from(fmt, buf, off), end


def _take(buf: bytes, off: int, n: int) -> tuple[bytes, int]:
    _need(buf, off + n)
    return buf[off:off + n], off + n


def _utf8(raw: bytes | memoryview) -> str:
    try:
        return str(raw, "utf-8")
    except UnicodeDecodeError:
        raise WireError(f"name is not UTF-8: {bytes(raw)!r}") from None


def _decode_entries(buf: bytes, off: int) -> tuple[dict[str, np.ndarray], int]:
    """Entries in strictly increasing name order, as the encoder writes them,
    so a repeated name cannot shadow an earlier one."""
    (count,), off = _unpack("<I", buf, off)
    entries = {}
    prev = None
    for _ in range(count):
        (nlen,), off = _unpack("<H", buf, off)
        raw, off = _take(buf, off, nlen)
        name = _utf8(raw)
        if prev is not None and name <= prev:
            raise WireError(f"entry {name!r} repeated or out of order after {prev!r}")
        prev = name
        (rank,), off = _unpack("<B", buf, off)
        if rank > 64:  # numpy's limit
            raise WireError(f"entry {name!r} has rank {rank}: numpy holds at most 64")
        dims, off = _unpack(f"<{rank}I", buf, off)
        if 8 * math.prod(d for d in dims if d) > np.iinfo(np.intp).max:  # numpy's limit
            raise WireError(f"entry {name!r} has shape {dims}: too large for numpy")
        n_vals = math.prod(dims)
        _need(buf, off + 8 * n_vals)
        arr = np.frombuffer(buf, dtype="<f8", count=n_vals, offset=off).reshape(dims)
        off += 8 * n_vals
        entries[name] = arr.astype(np.float64)  # own, writable copy
    return entries, off


def _check_end(buf: bytes, off: int):
    if off != len(buf):
        raise WireError(f"{len(buf) - off} bytes left over after the last entry")


@dataclass
class Message:
    round_idx: int
    kind: int
    params: dict[str, np.ndarray] = field(default_factory=dict)
    grads: dict[str, np.ndarray] = field(default_factory=dict)  # a central message's only


def encode_message(msg: Message) -> bytes:
    """The message's bytes; a field the decoder would refuse raises WireError."""
    if msg.kind not in (KIND_CENTRAL, KIND_UPLOAD, KIND_MODEL):
        raise WireError(f"unknown payload kind {msg.kind}")
    if msg.kind != KIND_CENTRAL and msg.grads:
        raise WireError(f"{'an upload' if msg.kind == KIND_UPLOAD else 'a model message'} "
                        "carries no gradients")
    if not 0 <= msg.round_idx <= 0xFFFFFFFF:
        raise WireError(f"round {msg.round_idx} is outside [0, 2**32)")
    out = [struct.pack("<BIB", WIRE_VERSION, msg.round_idx, msg.kind),
           *_entry_chunks(msg.params)]
    if msg.kind == KIND_CENTRAL:
        out += _entry_chunks(msg.grads)
    return b"".join(out)


def decode_message(buf: bytes, kind: int, round_idx: int) -> Message:
    """The message in `buf`; one of another kind or round raises WireError."""
    (version, got_round, got_kind), off = _unpack("<BIB", buf, 0)
    if version != WIRE_VERSION:
        raise WireError(f"unsupported wire version {version}")
    if got_kind != kind:
        raise WireError(f"payload kind {got_kind} where kind {kind} is expected")
    if got_round != round_idx:
        raise WireError(f"message of round {got_round} where round {round_idx} is expected")
    msg = Message(round_idx=round_idx, kind=kind)
    msg.params, off = _decode_entries(buf, off)
    if kind == KIND_CENTRAL:
        msg.grads, off = _decode_entries(buf, off)
    _check_end(buf, off)
    return msg


def store_to_arrays(store: ParamStore) -> dict[str, np.ndarray]:
    return {name: t.data for name, t in store.items()}


def arrays_to_store(arrays: dict[str, np.ndarray]) -> ParamStore:
    """A store over the given arrays, without copying them: decoded arrays
    are already the message's own."""
    store = ParamStore()
    for name in sorted(arrays):
        store.add(name, arrays[name])
    return store


def save_checkpoint(path, theta: ParamStore, round_idx: int, config_digest: bytes):
    """Magic, config digest, round, parameters, then a SHA-256 of all of them."""
    if len(config_digest) != 32:
        raise WireError("config digest must be 32 bytes")
    if not 0 <= round_idx <= 0xFFFFFFFF:
        raise WireError(f"round {round_idx} is outside [0, 2**32)")
    body = b"".join([CKPT_MAGIC, config_digest, struct.pack("<I", round_idx),
                     *_entry_chunks(store_to_arrays(theta))])
    with open(path, "wb") as fh:
        fh.write(body)
        fh.write(hashlib.sha256(body).digest())


def load_checkpoint(path) -> tuple[ParamStore, int, bytes, dict]:
    """(parameters, round, config digest, {}); malformed content or a wrong
    SHA-256 trailer raises WireError naming the path."""
    with open(path, "rb") as fh:
        buf = fh.read()
    if buf[:8] != CKPT_MAGIC:
        raise WireError(f"{path}: not a checkpoint file")
    body, trailer = memoryview(buf)[:-32], buf[-32:]  # a view: no 4 MB copy
    try:
        config_digest, off = _take(body, 8, 32)
        (round_idx,), off = _unpack("<I", body, off)
        arrays, off = _decode_entries(body, off)
        _check_end(body, off)
        if hashlib.sha256(body).digest() != trailer:
            raise WireError("contents do not match their SHA-256 trailer")
    except WireError as err:
        raise WireError(f"{path}: {err}") from None
    # the empty fourth value keeps the four-value unpacking in perfbench/run.py working
    return arrays_to_store(arrays), round_idx, bytes(config_digest), {}
