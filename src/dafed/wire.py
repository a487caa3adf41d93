"""Binary encoding for round messages and checkpoints.

Message layout: version byte, round u32, payload-kind byte, section count,
then per section a tag byte, an entry count, and entries encoded as
(name length u16, name bytes, rank u8, dims u32 each, float64 little-endian
data). Everything is little-endian and iterated in sorted-name order, so the
same content always serializes to the same bytes.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .optim import ParamStore

WIRE_VERSION = 1
KIND_BROADCAST = 0
KIND_UPLOAD = 1

SECTION_PARAMS = 0
SECTION_GRADS = 1
SECTION_SCALARS = 2

CKPT_MAGIC = b"FCFEDCK1"


class WireError(ValueError):
    pass


def _encode_entries(entries: dict[str, np.ndarray]) -> bytes:
    chunks = [struct.pack("<I", len(entries))]
    for name in sorted(entries):
        arr = np.ascontiguousarray(entries[name], dtype=np.float64)
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
        little = arr if arr.dtype.byteorder in ("<", "=", "|") else arr.astype("<f8")
        chunks.append(little)  # joined through the buffer protocol, C order
    return b"".join(chunks)


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


def _utf8(raw: bytes) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        raise WireError(f"name is not UTF-8: {raw!r}") from None


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
        dims, off = _unpack(f"<{rank}I", buf, off)
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
    grads: dict[str, np.ndarray] = field(default_factory=dict)
    scalars: dict[str, float] = field(default_factory=dict)


def encode_message(msg: Message) -> bytes:
    """The message's bytes; a field the decoder would refuse raises WireError."""
    if msg.kind not in (KIND_BROADCAST, KIND_UPLOAD):
        raise WireError(f"unknown payload kind {msg.kind}")
    if not 0 <= msg.round_idx <= 0xFFFFFFFF:
        raise WireError(f"round {msg.round_idx} is outside [0, 2**32)")
    sections = []
    if msg.params:
        sections.append((SECTION_PARAMS, msg.params))
    if msg.grads:
        sections.append((SECTION_GRADS, msg.grads))
    if msg.scalars:
        sections.append((SECTION_SCALARS, {k: np.asarray(v, dtype=np.float64)
                                           for k, v in msg.scalars.items()}))
    out = [struct.pack("<BIBB", WIRE_VERSION, msg.round_idx, msg.kind, len(sections))]
    for tag, entries in sections:
        out.append(struct.pack("<B", tag))
        out.append(_encode_entries(entries))
    return b"".join(out)


def decode_message(buf: bytes) -> Message:
    (version, round_idx, kind, n_sections), off = _unpack("<BIBB", buf, 0)
    if version != WIRE_VERSION:
        raise WireError(f"unsupported wire version {version}")
    if kind not in (KIND_BROADCAST, KIND_UPLOAD):
        raise WireError(f"unknown payload kind {kind}")
    msg = Message(round_idx=round_idx, kind=kind)
    prev_tag = -1
    for _ in range(n_sections):
        (tag,), off = _unpack("<B", buf, off)
        if tag <= prev_tag:  # the encoder writes each section once, in tag order
            raise WireError(f"section tag {tag} repeated or out of order after {prev_tag}")
        prev_tag = tag
        entries, off = _decode_entries(buf, off)
        if tag == SECTION_PARAMS:
            msg.params = entries
        elif tag == SECTION_GRADS:
            msg.grads = entries
        elif tag == SECTION_SCALARS:
            if any(v.size != 1 for v in entries.values()):
                raise WireError("scalar section holds a non-scalar entry")
            msg.scalars = {k: float(v.reshape(())) for k, v in entries.items()}
        else:
            raise WireError(f"unknown section tag {tag}")
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


def optimizer_digest(opt) -> bytes:
    """SHA-256 over the optimizer's moments and step count."""
    h = hashlib.sha256()
    h.update(struct.pack("<I", opt.step))
    for name in opt.names:
        h.update(name.encode("utf-8"))
        if name in opt.m:
            h.update(np.ascontiguousarray(opt.m[name]).tobytes())
            h.update(np.ascontiguousarray(opt.v[name]).tobytes())
    return h.digest()


def save_checkpoint(path, theta: ParamStore, round_idx: int, config_digest: bytes,
                    site_digests: dict[str, bytes]):
    """Header, config digest, round, per-site optimizer digests, parameters."""
    if len(config_digest) != 32:
        raise WireError("config digest must be 32 bytes")
    chunks = [CKPT_MAGIC, config_digest, struct.pack("<I", round_idx),
              struct.pack("<I", len(site_digests))]
    for site_id in sorted(site_digests):
        raw = site_id.encode("utf-8")
        digest = site_digests[site_id]
        if len(digest) != 32:
            raise WireError(f"optimizer digest for {site_id} must be 32 bytes")
        chunks.append(struct.pack("<H", len(raw)))
        chunks.append(raw)
        chunks.append(digest)
    chunks.append(_encode_entries(store_to_arrays(theta)))
    with open(path, "wb") as fh:
        fh.write(b"".join(chunks))


def load_checkpoint(path) -> tuple[ParamStore, int, bytes, dict[str, bytes]]:
    """(parameters, round, config digest, per-site optimizer digests); any
    malformed content raises WireError naming the path."""
    with open(path, "rb") as fh:
        buf = fh.read()
    if buf[:8] != CKPT_MAGIC:
        raise WireError(f"{path}: not a checkpoint file")
    try:
        config_digest, off = _take(buf, 8, 32)
        (round_idx, n_sites), off = _unpack("<II", buf, off)
        site_digests = {}
        for _ in range(n_sites):
            (nlen,), off = _unpack("<H", buf, off)
            raw, off = _take(buf, off, nlen)
            site_digests[_utf8(raw)], off = _take(buf, off, 32)
        arrays, off = _decode_entries(buf, off)
        _check_end(buf, off)
    except WireError as err:
        raise WireError(f"{path}: {err}") from None
    return arrays_to_store(arrays), round_idx, config_digest, site_digests
