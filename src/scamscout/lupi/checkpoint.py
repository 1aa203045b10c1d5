"""Checkpoint (de)serialization for teacher and student models.

A checkpoint is one JSON object, written with sorted keys, holding the
format version, the model kind, the tokenizer/encoder (and, for a teacher,
privileged) configs, the seed, ``layout`` and ``params``.  Format version 3
stores the model's parameter buffer (``flat``, see ``layers.py``) as one
base64 string of its little-endian float64 bytes, and ``layout`` as its
ordered ``[[name, shape], ...]`` table, which must equal the model's own, so
a reordered parameter is rejected too.  The same bits go in and come out,
NaN payloads and -0.0 included, so a saved model reloads bit-identically and
a rerun rewrites a byte-identical file.  A load builds the model without
its seeded random init (``init=False``), since the stored bytes overwrite
every parameter.  Versions 1 and 2 are no longer read; retrain to rebuild.
"""

from __future__ import annotations

import base64
import itertools
import json
from dataclasses import asdict
from pathlib import Path
from typing import Union

from ..errors import SchemaError
from ..records import read_json, write_document
from .encoder import EncoderConfig
from .models import PrivilegedConfig, StudentModel, TeacherModel
from .tokenizer import TokenizerConfig

import numpy as np

CHECKPOINT_FORMAT_VERSION = 3

_DTYPE = np.dtype("<f8")


def _layout(model) -> list:
    return [[name, list(p.shape)] for name, p in model.named_parameters()]


def _load_params(model, layout, data) -> None:
    if layout != _layout(model):
        got, want = next(pair for pair in itertools.zip_longest(
            layout or [], _layout(model)) if pair[0] != pair[1])
        raise SchemaError(f"parameter layout mismatch: checkpoint has {got!r} "
                          f"where the model has {want!r}")
    try:
        raw = base64.b64decode(data, validate=True)
    except (TypeError, ValueError) as exc:  # binascii.Error is a ValueError
        raise SchemaError(f"bad base64 parameter data: {exc}") from exc
    if len(raw) != model.flat.nbytes:
        raise SchemaError(f"parameter byte count mismatch: {len(raw)} vs "
                          f"{model.flat.nbytes}")
    model.flat[...] = np.frombuffer(raw, dtype=_DTYPE)


def model_to_dict(model: Union[TeacherModel, StudentModel]) -> dict:
    kind = "teacher" if isinstance(model, TeacherModel) else "student"
    out = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "kind": kind,
        "tokenizer": asdict(model.tok_cfg),
        "encoder": asdict(model.enc_cfg),
        "seed": model.seed,
        "layout": _layout(model),
        "params": base64.b64encode(np.ascontiguousarray(
            model.flat, dtype=_DTYPE).tobytes()).decode("ascii"),
    }
    if kind == "teacher":
        out["privileged"] = asdict(model.priv)
    return out


def model_from_dict(blob: dict) -> Union[TeacherModel, StudentModel]:
    if blob.get("format_version") != CHECKPOINT_FORMAT_VERSION:
        raise SchemaError(
            f"unsupported checkpoint format: {blob.get('format_version')!r} "
            f"(expected {CHECKPOINT_FORMAT_VERSION}); retrain the model with "
            f"train-lupi to rebuild it")
    tok_cfg = TokenizerConfig(**blob["tokenizer"])
    enc_cfg = EncoderConfig(**blob["encoder"])
    kind = blob.get("kind")
    if kind == "teacher":
        priv = PrivilegedConfig(**blob["privileged"])
        model = TeacherModel(tok_cfg, enc_cfg, priv, seed=blob.get("seed", 0),
                             init=False)
    elif kind == "student":
        model = StudentModel(tok_cfg, enc_cfg, seed=blob.get("seed", 0), init=False)
    else:
        raise SchemaError(f"unknown checkpoint kind: {kind!r}")
    _load_params(model, blob.get("layout"), blob.get("params"))
    return model


def save_checkpoint(model: Union[TeacherModel, StudentModel],
                    path: Union[str, Path]) -> None:
    write_document(path, json.dumps(model_to_dict(model), sort_keys=True))


def _load_kind(path, cls, kind: str):
    def parse(blob: dict):
        model = model_from_dict(blob)
        if not isinstance(model, cls):
            raise SchemaError(f"checkpoint does not contain a {kind} model")
        return model
    return read_json(path, parse)


def load_student(path: Union[str, Path]) -> StudentModel:
    return _load_kind(path, StudentModel, "student")


def load_teacher(path: Union[str, Path]) -> TeacherModel:
    return _load_kind(path, TeacherModel, "teacher")
