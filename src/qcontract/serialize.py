"""JSON I/O: complex matrices, states, and channel specs.

Complex matrices are row-major nested lists whose entries are [re, im]
pairs (plain numbers are accepted on input and read as real).  Channel
specs are {"kind": ..., parameters...} objects; see
:func:`channel_from_json` for the supported kinds.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .channels import (
    QuantumChannel,
    amplitude_damping,
    channel_from_kraus,
    depolarizing,
    embedded_classical,
    pauli_channel,
    random_channel,
)
from .errors import InputError
from .linalg import DensityMatrix, _numeric_array, validate_density

__all__ = [
    "matrix_to_json",
    "matrix_from_json",
    "state_from_json",
    "state_to_json",
    "channel_from_json",
    "channel_to_json",
    "load_json_arg",
]


def matrix_to_json(a: np.ndarray) -> list:
    """Row-major nested list of [re, im] pairs."""
    m = _numeric_array(a, "matrix")
    if m.ndim != 2:
        raise InputError(f"matrix must be a 2-d array, got shape {m.shape}")
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def _is_number(v) -> bool:
    """A JSON number: an int or a float, and not a bool, which is an int."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _entry(value, where: str) -> complex:
    if _is_number(value):
        return complex(value)
    if isinstance(value, (list, tuple)) and len(value) == 2 and all(map(_is_number, value)):
        return complex(value[0], value[1])
    raise InputError(f"{where}: entries must be numbers or [re, im] pairs, got {value!r}")


def matrix_from_json(obj, where: str = "matrix") -> np.ndarray:
    if not isinstance(obj, list) or not obj or not all(isinstance(r, list) for r in obj):
        raise InputError(f"{where}: expected a nested list of rows")
    width = len(obj[0])
    if any(len(r) != width for r in obj) or width == 0:
        raise InputError(f"{where}: rows must be nonempty and of equal length")
    return np.array(
        [[_entry(v, where) for v in row] for row in obj], dtype=complex
    )


def state_from_json(obj) -> DensityMatrix:
    """Parse a density matrix: either a bare matrix or {"matrix": ...}."""
    if isinstance(obj, dict):
        if "matrix" not in obj:
            raise InputError('state object must contain a "matrix" field')
        obj = obj["matrix"]
    return validate_density(matrix_from_json(obj, "state"))


def state_to_json(rho) -> dict:
    return {"matrix": matrix_to_json(validate_density(rho).entries)}


def _require(obj: dict, key: str, kind: str):
    if key not in obj:
        raise InputError(f'channel kind "{kind}" requires field "{key}"')
    return obj[key]


def _number(obj: dict, key: str, kind: str) -> float:
    v = _require(obj, key, kind)
    if not _is_number(v):
        raise InputError(f'channel field "{key}" must be a number, got {v!r}')
    return float(v)


def _integer(v, key: str, minimum: int) -> int:
    """An integral JSON number (2 and 2.0, not 2.7, "2" or true) >= minimum."""
    if not _is_number(v) or not float(v).is_integer() or v < minimum:
        raise InputError(f'channel field "{key}" must be an integer >= {minimum}, got {v!r}')
    return int(v)


def channel_from_json(obj) -> QuantumChannel:
    """Build a channel from a spec object.

    Kinds: "kraus" (operators: list of matrices), "depolarizing" (p,
    dim?), "pauli" (probs: 4 numbers), "embedded_classical" (matrix: real
    column-stochastic), "amplitude_damping" (gamma, excitation), "random"
    (dim, env?, seed?).
    """
    if not isinstance(obj, dict):
        raise InputError("channel spec must be a JSON object")
    kind = obj.get("kind")
    if kind == "kraus":
        ops = _require(obj, "operators", kind)
        if not isinstance(ops, list) or not ops:
            raise InputError('"operators" must be a nonempty list of matrices')
        kraus = [matrix_from_json(k, f"operators[{i}]") for i, k in enumerate(ops)]
        return channel_from_kraus(kraus, label=obj.get("label", "kraus"))
    if kind == "depolarizing":
        dim = _integer(obj.get("dim", 2), "dim", 2)
        return depolarizing(_number(obj, "p", kind), dim=dim)
    if kind == "pauli":
        probs = _require(obj, "probs", kind)
        if not isinstance(probs, list):
            raise InputError('"probs" must be a list of 4 numbers')
        return pauli_channel(probs)
    if kind == "embedded_classical":
        w = matrix_from_json(_require(obj, "matrix", kind), "matrix")
        if np.any(np.abs(w.imag) > 0):
            raise InputError("embedded_classical matrix must be real")
        return embedded_classical(w.real)
    if kind == "amplitude_damping":
        return amplitude_damping(
            _number(obj, "gamma", kind), _number(obj, "excitation", kind)
        )
    if kind == "random":
        dim = _integer(_require(obj, "dim", kind), "dim", 2)
        env = obj.get("env")
        env = _integer(env, "env", 1) if env is not None else None
        seed = _integer(obj.get("seed", 0), "seed", 0)
        return random_channel(dim, env=env, seed=seed)
    raise InputError(
        f"unknown channel kind {kind!r}; expected one of kraus, depolarizing, "
        "pauli, embedded_classical, amplitude_damping, random"
    )


def channel_to_json(channel: QuantumChannel) -> dict:
    """Kraus-form spec for a channel (requires stored Kraus operators)."""
    if channel.kraus is None:
        raise InputError(
            f"channel {channel.label!r} has no stored Kraus operators to serialize"
        )
    return {
        "kind": "kraus",
        "label": channel.label,
        "operators": [matrix_to_json(k) for k in channel.kraus],
    }


def load_json_arg(text: str, what: str = "argument"):
    """Parse a CLI argument that is either a file path or inline JSON."""
    stripped = text.strip()
    if stripped.startswith("{") or stripped.startswith("["):
        try:
            return json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise InputError(f"could not parse inline JSON {what}: {exc}") from exc
    if not os.path.exists(text):
        raise InputError(f"{what} file not found: {text}")
    try:
        with open(text, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise InputError(f"could not parse JSON in {text}: {exc}") from exc
