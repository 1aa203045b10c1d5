"""Checkpoint (de)serialization for teacher and student models.

A checkpoint (format version 4) is one JSON header line, written with
sorted keys, then ``\\n``, then the model's parameter buffer (``flat``, see
``layers.py``) as its little-endian float64 bytes, exactly ``8 * flat.size``
of them.  The header holds the format version, the model kind, the
tokenizer/encoder (and, for a teacher, privileged) configs, the seed and
``layout``, the buffer's ordered ``[[name, shape], ...]`` table, which must
equal the model's own, so a reordered parameter is rejected too.  The same
bits go in and come out on any host, NaN payloads and -0.0 included, so a
saved model reloads bit-identically and a rerun rewrites a byte-identical
file.  A load builds the model without its seeded random init
(``init=False``), since the body overwrites every parameter.  Versions 1 to
3 (one JSON object, no header line) are no longer read; retrain to rebuild.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import asdict
from pathlib import Path
from typing import Union

from ..errors import SchemaError
from ..records import json_object, read_bytes, write_bytes
from .encoder import EncoderConfig
from .models import PrivilegedConfig, StudentModel, TeacherModel
from .tokenizer import TokenizerConfig

import numpy as np

CHECKPOINT_FORMAT_VERSION = 4

_DTYPE = np.dtype("<f8")


def _layout(model) -> list:
    return [[name, list(p.shape)] for name, p in model.named_parameters()]


def _load_params(model, layout, body) -> None:
    if layout != _layout(model):
        got, want = next(pair for pair in itertools.zip_longest(
            layout or [], _layout(model)) if pair[0] != pair[1])
        raise SchemaError(f"parameter layout mismatch: checkpoint has {got!r} "
                          f"where the model has {want!r}")
    if len(body) != model.flat.nbytes:
        raise SchemaError(f"parameter byte count mismatch: {len(body)} vs "
                          f"{model.flat.nbytes}")
    model.flat[...] = np.frombuffer(body, dtype=_DTYPE)


def checkpoint_header(model: Union[TeacherModel, StudentModel]) -> dict:
    kind = "teacher" if isinstance(model, TeacherModel) else "student"
    out = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "kind": kind,
        "tokenizer": asdict(model.tok_cfg),
        "encoder": asdict(model.enc_cfg),
        "seed": model.seed,
        "layout": _layout(model),
    }
    if kind == "teacher":
        out["privileged"] = asdict(model.priv)
    return out


def model_from_checkpoint(header: dict, body) -> Union[TeacherModel, StudentModel]:
    """The model of ``header`` with its parameters read from ``body``, the
    bytes-like little-endian float64 buffer."""
    if header.get("format_version") != CHECKPOINT_FORMAT_VERSION:
        raise SchemaError(
            f"unsupported checkpoint format: {header.get('format_version')!r} "
            f"(expected {CHECKPOINT_FORMAT_VERSION}); retrain the model with "
            f"train-lupi to rebuild it")
    tok_cfg = TokenizerConfig(**header["tokenizer"])
    enc_cfg = EncoderConfig(**header["encoder"])
    kind = header.get("kind")
    seed = header.get("seed", 0)
    if kind == "teacher":
        priv = PrivilegedConfig(**header["privileged"])
        model = TeacherModel(tok_cfg, enc_cfg, priv, seed=seed, init=False)
    elif kind == "student":
        model = StudentModel(tok_cfg, enc_cfg, seed=seed, init=False)
    else:
        raise SchemaError(f"unknown checkpoint kind: {kind!r}")
    _load_params(model, header.get("layout"), body)
    return model


def save_checkpoint(model: Union[TeacherModel, StudentModel],
                    path: Union[str, Path]) -> None:
    header = json.dumps(checkpoint_header(model), sort_keys=True)
    # no copy on a little-endian host
    write_bytes(path, header.encode("ascii") + b"\n",
                np.ascontiguousarray(model.flat, dtype=_DTYPE))


def _parse(data: bytes):
    # a file with no newline, such as a format-3 checkpoint, is all header,
    # so its version is what a load reports
    end = data.find(b"\n")
    if end < 0:
        end = len(data)
    header = json_object(data[:end].decode("utf-8"))
    return model_from_checkpoint(header, memoryview(data)[end + 1:])


def _load_kind(path, cls, kind: str):
    def parse(data: bytes):
        model = _parse(data)
        if not isinstance(model, cls):
            raise SchemaError(f"checkpoint does not contain a {kind} model")
        return model
    return read_bytes(path, parse)


def load_student(path: Union[str, Path]) -> StudentModel:
    return _load_kind(path, StudentModel, "student")


def load_teacher(path: Union[str, Path]) -> TeacherModel:
    return _load_kind(path, TeacherModel, "teacher")
