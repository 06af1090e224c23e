"""Shared on-disk formats: JSON tensors and CSV reports.

Every array artifact in this repo uses the same JSON layout,
``{"shape": [...], "data": [row-major numbers]}``, and every CSV report
starts with a comment line naming the hash of the config that produced it.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Iterable, Sequence

import numpy as np


def tensor_to_obj(arr: np.ndarray) -> dict:
    a = np.asarray(arr, dtype=np.float64)
    return {"shape": list(a.shape), "data": [float(x) for x in a.ravel(order="C")]}


def obj_to_tensor(obj: dict) -> np.ndarray:
    shape = tuple(int(s) for s in obj["shape"])
    data = np.asarray(obj["data"], dtype=np.float64)
    if data.size != int(np.prod(shape, dtype=np.int64)):
        raise ValueError(f"data length {data.size} does not match shape {shape}")
    return data.reshape(shape, order="C")


def save_tensor(path: str, arr: np.ndarray, extra: dict | None = None) -> None:
    obj: dict[str, Any] = tensor_to_obj(arr)
    if extra:
        for key, val in extra.items():
            if key in ("shape", "data"):
                raise ValueError(f"reserved key: {key}")
            obj[key] = val
    write_json(path, obj)


def write_json(path: str, obj: dict) -> None:
    """The one JSON writer: sorted keys and a closing newline, so equal
    objects give equal bytes."""
    with open(path, "w") as f:
        json.dump(obj, f, sort_keys=True)
        f.write("\n")


def config_hash(config: dict) -> str:
    """Stable short hash of a config dict (canonical JSON, sorted keys)."""
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def format_cell(value: Any) -> str:
    # np.float64 subclasses float, but under numpy 2 its repr is "np.float64(...)"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (np.integer,)):
        return str(int(value))
    return str(value)


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence[Any]],
              config: dict | None = None) -> None:
    """Write a CSV report; first line is a comment naming the config hash."""
    lines = []
    if config is not None:
        lines.append(f"# config: {config_hash(config)}")
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(format_cell(c) for c in row))
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def ensure_dir(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path
