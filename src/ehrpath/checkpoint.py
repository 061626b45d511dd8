"""Single-file parameter container with a versioned header.

Layout: magic line, then a line with the sha256 digest of every byte after
it, then the flat config key=value block, then each slot as a text shape
line followed by raw little-endian float64 bytes. Loading verifies the
magic and the digest, so a changed config value or slot byte is caught;
compatibility with a corpus is checked by the caller against the stored
config values. Config values go to and from text through one codec,
which the command line also uses for its flags.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import typing
from typing import Mapping

import numpy as np

from .corpus import atomic_write
from .errors import DataError

MAGIC = b"CRNNET-CKPT-3"
BOOL_TEXT = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}


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
    malformed text, such as a bool not spelled as in BOOL_TEXT."""
    text = raw if isinstance(raw, str) else format_value(raw)
    if kind is bool:
        if text.lower() not in BOOL_TEXT:
            raise ValueError(f"cannot read {text!r} as bool")
        return BOOL_TEXT[text.lower()]
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


def save_checkpoint(path: str, config: Mapping[str, str],
                    slots: Mapping[str, np.ndarray]) -> None:
    parts = [f"nconfig={len(config)}\n".encode(), _config_block(config),
             f"nslots={len(slots)}\n".encode()]
    for name in sorted(slots):
        arr = np.ascontiguousarray(slots[name], dtype=np.float64)
        dims = " ".join(str(d) for d in arr.shape)
        parts += [f"{name} {arr.ndim} {dims}\n".encode(), arr.tobytes()]
    body = b"".join(parts)
    with atomic_write(path, "wb") as fh:
        fh.write(MAGIC + b"\n")
        fh.write(f"digest={hashlib.sha256(body).hexdigest()}\n".encode())
        fh.write(body)


def load_checkpoint(path: str) -> tuple[dict[str, str], dict[str, np.ndarray]]:
    try:
        with open(path, "rb") as fh:
            magic = fh.readline().rstrip(b"\n")
            if magic != MAGIC:
                if magic.startswith(b"CRNNET-CKPT-"):
                    raise DataError(f"{path} is a {magic.decode(errors='replace')} checkpoint; "
                                    f"this version reads {MAGIC.decode()} only, retrain to "
                                    "rewrite it")
                raise DataError(f"{path} is not a recognized checkpoint")
            digest_line = fh.readline().decode().strip()
            if not digest_line.startswith("digest="):
                raise DataError(f"{path}: missing digest line")
            raw = fh.read()
        if hashlib.sha256(raw).hexdigest() != digest_line.split("=", 1)[1]:
            raise DataError(f"{path}: digest mismatch, file is corrupt")
        body = io.BytesIO(raw)
        n_config = int(body.readline().decode().split("=", 1)[1])
        config: dict[str, str] = {}
        for _ in range(n_config):
            key, _, val = body.readline().decode().rstrip("\n").partition("=")
            config[key] = val
        n_slots = int(body.readline().decode().split("=", 1)[1])
        slots: dict[str, np.ndarray] = {}
        for _ in range(n_slots):
            header = body.readline().decode().split()
            name, ndim = header[0], int(header[1])
            shape = tuple(int(d) for d in header[2:2 + ndim])
            count = int(np.prod(shape)) if shape else 1
            buf = body.read(count * 8)
            if len(buf) != count * 8:
                raise DataError(f"{path}: truncated slot {name!r}")
            slots[name] = np.frombuffer(buf, dtype=np.float64).reshape(shape).copy()
        return config, slots
    except DataError:
        raise
    except (OSError, ValueError, IndexError) as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}") from exc
