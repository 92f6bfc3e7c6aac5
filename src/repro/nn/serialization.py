"""Saving and loading MLP models.

Models are stored as a JSON header (topology, activations, hook metadata)
plus the weight arrays, in a single ``.npz`` file. This is enough to round-
trip the trained/minimized classifiers used by the experiments and to ship
example artefacts without pickling arbitrary objects. ``np.savez`` stamps
every archive member with the zip epoch rather than the clock, so one model
always serializes to the same bytes, and float64 arrays round-trip exactly.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO, Dict, List, Union

import numpy as np

from .layers import ActivationLayer, Dense, Dropout
from .network import MLP


#: Version written into every model header; :func:`load_model` rejects others.
FORMAT_VERSION = 1


def model_architecture(model: MLP) -> List[Dict[str, object]]:
    """Describe the layer stack as JSON-serializable dictionaries.

    This is the header :func:`save_model` stores; two models with equal
    architectures accept each other's weights.
    """
    arch: List[Dict[str, object]] = []
    for layer in model.layers:
        if isinstance(layer, Dense):
            arch.append(
                {
                    "type": "dense",
                    "n_inputs": layer.n_inputs,
                    "n_outputs": layer.n_outputs,
                    "use_bias": layer.use_bias,
                    "has_mask": layer.mask is not None,
                }
            )
        elif isinstance(layer, ActivationLayer):
            arch.append({"type": "activation", "name": layer.activation.name})
        elif isinstance(layer, Dropout):
            arch.append({"type": "dropout", "rate": layer.rate})
        else:
            raise TypeError(
                f"Cannot serialize layer of type {type(layer).__name__}"
            )
    return arch


def write_model(model: MLP, file: Union[str, Path, IO[bytes]]) -> None:
    """Serialize ``model`` as an ``.npz`` archive to a path or open binary file.

    The same model always yields the same bytes; callers that need atomic
    replacement hand in a temp file.
    """
    arrays: Dict[str, np.ndarray] = {}
    dense_index = 0
    for layer in model.layers:
        if isinstance(layer, Dense):
            arrays[f"dense_{dense_index}_weights"] = layer.weights
            arrays[f"dense_{dense_index}_bias"] = layer.bias
            if layer.mask is not None:
                arrays[f"dense_{dense_index}_mask"] = layer.mask
            dense_index += 1

    header = json.dumps(
        {"format_version": FORMAT_VERSION, "architecture": model_architecture(model)}
    )
    arrays["__header__"] = np.frombuffer(header.encode("utf-8"), dtype=np.uint8)
    np.savez(file, **arrays)


def save_model(model: MLP, path: Union[str, Path]) -> Path:
    """Serialize ``model`` to ``path`` (``.npz`` appended if missing).

    Pruning masks are stored; quantizer hooks are *not* (they are plain
    callables) — re-attach them after loading via
    :func:`repro.quantization.qat.attach_quantizers`.
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(".npz")
    path.parent.mkdir(parents=True, exist_ok=True)
    write_model(model, path)
    return path


def load_model(path: Union[str, Path]) -> MLP:
    """Load a model previously written by :func:`save_model`."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"No model file at {path}")
    with np.load(path) as data:
        header_bytes = bytes(data["__header__"].tobytes())
        header = json.loads(header_bytes.decode("utf-8"))
        if header.get("format_version") != FORMAT_VERSION:
            raise ValueError(
                f"Unsupported model format version: {header.get('format_version')}"
            )
        model = MLP()
        dense_index = 0
        for entry in header["architecture"]:
            layer_type = entry["type"]
            if layer_type == "dense":
                layer = Dense(
                    int(entry["n_inputs"]),
                    int(entry["n_outputs"]),
                    use_bias=bool(entry["use_bias"]),
                )
                layer.weights = np.array(data[f"dense_{dense_index}_weights"], dtype=np.float64)
                layer.bias = np.array(data[f"dense_{dense_index}_bias"], dtype=np.float64)
                if entry.get("has_mask"):
                    layer.mask = np.array(data[f"dense_{dense_index}_mask"], dtype=np.float64)
                model.add(layer)
                dense_index += 1
            elif layer_type == "activation":
                model.add(ActivationLayer(str(entry["name"])))
            elif layer_type == "dropout":
                model.add(Dropout(float(entry["rate"])))
            else:
                raise ValueError(f"Unknown layer type in model file: {layer_type}")
    return model
