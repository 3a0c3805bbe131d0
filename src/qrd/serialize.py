"""File formats for operators, channels, configs, and result values.

Matrices travel as JSON objects {"dim": d, "re": [[...]], "im": [[...]]},
channels as {"d_in": ..., "d_out": ..., "kraus": [matrix, ...]} or with a
"choi" matrix instead of the Kraus list.  Extended-real values are
serialized as the strings "inf" / "-inf" in JSON and as empty cells in
CSV, so downstream tools never meet a non-numeric token unannounced.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from typing import TYPE_CHECKING

import numpy as np

from .errors import MalformedInputError, NotPSDError, QrdError
from .opcore import HermitianOperator, _cut_spectrum

if TYPE_CHECKING:
    from .channels import Channel

# The names the command line and config files accept for `qrd channel
# --kind` and `qrd verify --suite`.  They live here, with the other
# boundary formats, so the parser can offer them without importing the
# channel calculus or the suites.

#: kinds that channel optimization accepts
CHANNEL_KINDS = ("daz", "sandwiched", "petz", "umegaki", "measured", "dmax")

#: verification suites, in run order; verify runs _<name>_trial and _<name>_fixed
SUITES = (
    "alt", "variational", "dmaxbound", "nszkola", "caratheodory", "zlimits",
    "families", "channels", "smoothing",
)


def _digest(*arrays) -> str:
    """12 hex digits of the SHA-256 of the arrays' bytes: the input fingerprint of a record."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(np.asarray(a)).tobytes())
    return h.hexdigest()[:12]


def _as_float_grid(obj, shape: tuple[int, int], where: str) -> np.ndarray:
    """A finite real array of the given shape; ragged or non-numeric input is malformed."""
    try:
        grid = np.asarray(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise MalformedInputError(f"{where}: entries are not a grid of numbers") from exc
    if grid.shape != shape:
        raise MalformedInputError(f"{where}: expected shape {shape}, got {grid.shape}")
    if not np.all(np.isfinite(grid)):
        raise MalformedInputError(f"{where}: entries must be finite")
    return grid


def _square_from_json(obj, where: str) -> np.ndarray:
    """Rebuild a complex square matrix; imaginary part may be omitted."""
    if not isinstance(obj, dict):
        raise MalformedInputError(f"{where}: expected an object, got {type(obj).__name__}")
    if "dim" not in obj or "re" not in obj:
        raise MalformedInputError(f"{where}: missing required keys 'dim' and 're'")
    try:
        dim = int(obj["dim"])
    except (TypeError, ValueError) as exc:
        raise MalformedInputError(f"{where}: 'dim' is not an integer") from exc
    if dim < 1:
        raise MalformedInputError(f"{where}: 'dim' must be positive, got {dim}")
    return _complex_grid(obj, (dim, dim), where)


def _complex_grid(obj, shape: tuple[int, int], where: str) -> np.ndarray:
    """re + i im from an object with a 're' grid and an optional 'im' grid."""
    re = _as_float_grid(obj["re"], shape, f"{where}['re']")
    if obj.get("im") is None:
        return re + 0j
    return re + 1j * _as_float_grid(obj["im"], shape, f"{where}['im']")


def matrix_from_json(obj, where: str = "matrix") -> HermitianOperator:
    m = _square_from_json(obj, where)
    try:
        return HermitianOperator(m)
    except QrdError as exc:
        raise MalformedInputError(f"{where}: {exc}") from exc


def matrix_to_json(op: HermitianOperator) -> dict:
    out = {"dim": op.dim, "re": np.real(op.entries).tolist()}
    im = np.imag(op.entries)
    if np.any(im != 0.0):
        out["im"] = im.tolist()
    return out


def state_from_json(obj, where: str = "state") -> HermitianOperator:
    """A matrix that additionally passes the PSD and positive-trace gates."""
    op = matrix_from_json(obj, where)
    try:
        _cut_spectrum(*op.eig)
    except NotPSDError as exc:
        raise MalformedInputError(f"{where}: not positive semidefinite ({exc})") from exc
    if not op.trace > 0.0:
        raise MalformedInputError(f"{where}: trace {op.trace:.3e} is not positive")
    return op


def _read_json(path: str | os.PathLike) -> object:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise MalformedInputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise MalformedInputError(f"{path} is not valid JSON: {exc}") from exc


def load_state(path: str | os.PathLike) -> HermitianOperator:
    return state_from_json(_read_json(path), where=str(path))


def dump_matrix(op: HermitianOperator, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(matrix_to_json(op), fh, sort_keys=True)
        fh.write("\n")


def channel_from_json(obj, where: str = "channel") -> Channel:
    """Kraus form preferred; a "choi" matrix is accepted as an alternative."""
    from .channels import Channel

    if not isinstance(obj, dict):
        raise MalformedInputError(f"{where}: expected an object, got {type(obj).__name__}")
    try:
        d_in = int(obj["d_in"])
        d_out = int(obj["d_out"])
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedInputError(f"{where}: needs integer 'd_in' and 'd_out'") from exc
    if min(d_in, d_out) < 1:
        raise MalformedInputError(f"{where}: dimensions must be positive")
    if "kraus" in obj:
        entries = obj["kraus"]
        if not isinstance(entries, list) or not entries:
            raise MalformedInputError(f"{where}['kraus']: expected a nonempty list")
        kraus = []
        for i, item in enumerate(entries):
            spot = f"{where}['kraus'][{i}]"
            if not isinstance(item, dict) or "re" not in item:
                raise MalformedInputError(f"{spot}: expected an object with 're'")
            kraus.append(_complex_grid(item, (d_out, d_in), spot))
        try:
            return Channel(kraus)
        except QrdError as exc:
            raise MalformedInputError(f"{where}: {exc}") from exc
    if "choi" in obj:
        choi = matrix_from_json(obj["choi"], f"{where}['choi']")
        try:
            return Channel.from_choi(choi, d_in, d_out)
        except QrdError as exc:
            raise MalformedInputError(f"{where}: {exc}") from exc
    raise MalformedInputError(f"{where}: needs either a 'kraus' list or a 'choi' matrix")


def channel_to_json(channel: Channel) -> dict:
    return {
        "d_in": channel.d_in,
        "d_out": channel.d_out,
        "kraus": [
            {"re": np.real(k).tolist(), "im": np.imag(k).tolist()}
            for k in channel.kraus
        ],
    }


def load_channel(path: str | os.PathLike) -> Channel:
    return channel_from_json(_read_json(path), where=str(path))


def dump_channel(channel: Channel, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(channel_to_json(channel), fh, sort_keys=True)
        fh.write("\n")


def value_to_json(x: float) -> float | str:
    """Extended reals become strings so json stays standards-compliant."""
    if math.isnan(x):
        raise MalformedInputError("refusing to serialize NaN")
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return float(x)


def csv_cell(x: float | None) -> str:
    """Empty cell for +/-inf and for out-of-domain (None) entries."""
    if x is None or math.isinf(x):
        return ""
    if math.isnan(x):
        raise MalformedInputError("refusing to serialize NaN")
    return repr(float(x))


def load_config(path: str | os.PathLike) -> dict:
    obj = _read_json(path)
    if not isinstance(obj, dict):
        raise MalformedInputError(f"{path}: config must be a JSON object")
    return obj
