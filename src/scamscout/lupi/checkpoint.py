"""Checkpoint (de)serialization for teacher and student models.

A checkpoint is one JSON object, written with sorted keys, holding the
format version, the model kind, the tokenizer/encoder (and, for a teacher,
privileged) configs, the seed, and ``params``: one ``{"shape", "data"}``
entry per parameter name.  Format version 2 stores ``data`` as the base64
(ASCII) encoding of the parameter's little-endian float64 bytes in C order.
The same bits go in and come out, NaN payloads and -0.0 included, so a saved
model reloads bit-identically and a rerun rewrites a byte-identical file.
Version 1 (one JSON float per element) is no longer read; retrain to rebuild.
"""

from __future__ import annotations

import base64
import json
from dataclasses import asdict
from pathlib import Path
from typing import Union

from ..errors import SchemaError
from .encoder import EncoderConfig
from .models import PrivilegedConfig, StudentModel, TeacherModel
from .tokenizer import TokenizerConfig

import numpy as np

CHECKPOINT_FORMAT_VERSION = 2

_DTYPE = np.dtype("<f8")


def _params_to_dict(params: dict) -> dict:
    return {name: {"shape": list(arr.shape),
                   "data": base64.b64encode(np.ascontiguousarray(
                       arr, dtype=_DTYPE).tobytes()).decode("ascii")}
            for name, arr in sorted(params.items())}


def _load_params(model, blob: dict) -> None:
    params = model.parameters()
    if set(blob) != set(params):
        missing = sorted(set(params) - set(blob))
        extra = sorted(set(blob) - set(params))
        raise SchemaError(f"parameter mismatch: missing={missing} extra={extra}")
    for name, entry in blob.items():
        shape = tuple(entry["shape"])
        if shape != params[name].shape:
            raise SchemaError(
                f"shape mismatch for {name}: {shape} vs {params[name].shape}")
        try:
            raw = base64.b64decode(entry["data"], validate=True)
        except (TypeError, ValueError) as exc:  # binascii.Error is a ValueError
            raise SchemaError(f"bad base64 data for {name}: {exc}") from exc
        expected = _DTYPE.itemsize * int(np.prod(shape))
        if len(raw) != expected:
            raise SchemaError(
                f"byte count mismatch for {name}: {len(raw)} vs {expected}")
        params[name][...] = np.frombuffer(raw, dtype=_DTYPE).reshape(
            params[name].shape)


def model_to_dict(model: Union[TeacherModel, StudentModel]) -> dict:
    kind = "teacher" if isinstance(model, TeacherModel) else "student"
    out = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "kind": kind,
        "tokenizer": asdict(model.tok_cfg),
        "encoder": asdict(model.enc_cfg),
        "seed": model.seed,
        "params": _params_to_dict(model.parameters()),
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
        model = TeacherModel(tok_cfg, enc_cfg, priv, seed=blob.get("seed", 0))
    elif kind == "student":
        model = StudentModel(tok_cfg, enc_cfg, seed=blob.get("seed", 0))
    else:
        raise SchemaError(f"unknown checkpoint kind: {kind!r}")
    _load_params(model, blob["params"])
    return model


def save_checkpoint(model: Union[TeacherModel, StudentModel],
                    path: Union[str, Path]) -> None:
    Path(path).write_text(json.dumps(model_to_dict(model), sort_keys=True))


def load_checkpoint(path: Union[str, Path]) -> Union[TeacherModel, StudentModel]:
    return model_from_dict(json.loads(Path(path).read_text()))


def load_student(path: Union[str, Path]) -> StudentModel:
    model = load_checkpoint(path)
    if not isinstance(model, StudentModel):
        raise SchemaError("checkpoint does not contain a student model")
    return model


def load_teacher(path: Union[str, Path]) -> TeacherModel:
    model = load_checkpoint(path)
    if not isinstance(model, TeacherModel):
        raise SchemaError("checkpoint does not contain a teacher model")
    return model
