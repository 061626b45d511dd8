"""Single-file parameter container with a versioned header.

Layout: magic line, sha256 digest of the config block, the flat config
key=value block, then each slot as a text shape line followed by raw
little-endian float64 bytes. Loading verifies the magic and digest;
compatibility with a corpus is checked by the caller against the stored
config values. Config values go to and from text through one codec,
which the command line also uses for its flags.
"""

from __future__ import annotations

import dataclasses
import hashlib
import typing
from typing import Mapping

import numpy as np

from .corpus import atomic_write
from .errors import DataError

MAGIC = b"CRNNET-CKPT-1"


def format_value(value) -> str:
    """Text form of one config value: bools as 1/0, tuples comma-joined,
    anything else by str (which round-trips floats exactly)."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def parse_value(kind, raw) -> object:
    """Value of a config field of type `kind` from its text form; a value
    that is not text goes through format_value first. Raises ValueError on
    malformed text."""
    text = raw if isinstance(raw, str) else format_value(raw)
    if kind is bool:
        return text.lower() in ("1", "true", "yes", "on")
    if typing.get_origin(kind) is tuple:
        return tuple(int(v) for v in text.split(","))
    return kind(text)


def field_kinds(cls) -> dict[str, type]:
    """Field name -> declared type, in field order, for a config dataclass."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls)}


def _config_block(config: Mapping[str, str]) -> bytes:
    lines = [f"{k}={config[k]}" for k in sorted(config)]
    return ("\n".join(lines) + "\n").encode("utf-8") if config else b""


def config_digest(config: Mapping[str, str]) -> str:
    """sha256 of the config block as save_checkpoint writes it."""
    return hashlib.sha256(_config_block(config)).hexdigest()


def save_checkpoint(path: str, config: Mapping[str, str],
                    slots: Mapping[str, np.ndarray]) -> None:
    block = _config_block(config)
    with atomic_write(path, "wb") as fh:
        fh.write(MAGIC + b"\n")
        fh.write(f"digest={config_digest(config)}\n".encode())
        fh.write(f"nconfig={len(config)}\n".encode())
        fh.write(block)
        fh.write(f"nslots={len(slots)}\n".encode())
        for name in sorted(slots):
            arr = np.ascontiguousarray(slots[name], dtype=np.float64)
            dims = " ".join(str(d) for d in arr.shape)
            fh.write(f"{name} {arr.ndim} {dims}\n".encode())
            fh.write(arr.tobytes())


def load_checkpoint(path: str) -> tuple[dict[str, str], dict[str, np.ndarray]]:
    try:
        with open(path, "rb") as fh:
            if fh.readline().rstrip(b"\n") != MAGIC:
                raise DataError(f"{path} is not a recognized checkpoint")
            digest_line = fh.readline().decode().strip()
            if not digest_line.startswith("digest="):
                raise DataError(f"{path}: missing digest line")
            stored_digest = digest_line.split("=", 1)[1]
            n_config = int(fh.readline().decode().split("=", 1)[1])
            config: dict[str, str] = {}
            raw_lines = []
            for _ in range(n_config):
                line = fh.readline().decode().rstrip("\n")
                raw_lines.append(line)
                key, _, val = line.partition("=")
                config[key] = val
            block = ("\n".join(raw_lines) + "\n").encode() if raw_lines else b""
            if hashlib.sha256(block).hexdigest() != stored_digest:
                raise DataError(f"{path}: config digest mismatch, file is corrupt")
            n_slots = int(fh.readline().decode().split("=", 1)[1])
            slots: dict[str, np.ndarray] = {}
            for _ in range(n_slots):
                header = fh.readline().decode().split()
                name, ndim = header[0], int(header[1])
                shape = tuple(int(d) for d in header[2:2 + ndim])
                count = int(np.prod(shape)) if shape else 1
                buf = fh.read(count * 8)
                if len(buf) != count * 8:
                    raise DataError(f"{path}: truncated slot {name!r}")
                slots[name] = np.frombuffer(buf, dtype=np.float64).reshape(shape).copy()
        return config, slots
    except DataError:
        raise
    except (OSError, ValueError, IndexError) as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}") from exc
