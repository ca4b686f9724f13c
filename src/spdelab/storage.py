"""On-disk formats: binary field snapshots, CSV tables, and line-oriented configs.

Binary snapshot layout (little endian):

    bytes  0..7   magic "SPDEFLD1"
    bytes  8..11  uint32 nx (spatial intervals; payload rows have nx-1 values)
    bytes 12..15  uint32 number of time slices in the payload
    bytes 16..23  float64 T (time horizon the slices cover)
    bytes 24..31  reserved (zero)

followed by the time-major float64 payload of interior node values. A single
field snapshot has one slice, a control nt slices, a path nt+1 slices.

CSV files are comma separated with a header row; floats carry 17 significant
digits so re-runs can be compared byte for byte.

Config files are UTF-8 "key = value" lines; '#' starts a comment, blank lines
are ignored, and a key set on two lines is a ConfigError naming both.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

__all__ = [
    "MAGIC",
    "write_snapshot",
    "read_snapshot",
    "write_csv",
    "format_value",
    "parse_config_text",
    "parse_config_file",
    "ConfigError",
]

MAGIC = b"SPDEFLD1"
_HEADER = struct.Struct("<8sIId8x")  # 32 bytes


class ConfigError(ValueError):
    pass


def write_snapshot(path, data: np.ndarray, nx: int, T: float) -> None:
    """Write a (n_slices, nx-1) or (nx-1,) array as a field snapshot file."""
    arr = np.atleast_2d(np.asarray(data, dtype="<f8"))
    if arr.shape[1] != nx - 1:
        raise ValueError(f"payload width {arr.shape[1]} does not match nx-1 = {nx - 1}")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, nx, arr.shape[0], float(T)))
        fh.write(np.ascontiguousarray(arr).tobytes())


def read_snapshot(path):
    """Read a snapshot file; returns (data (n_slices, nx-1), nx, T)."""
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise ValueError(f"{path}: truncated snapshot header")
    magic, nx, n_slices, T = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise ValueError(f"{path}: bad magic {magic!r}")
    expected = _HEADER.size + 8 * n_slices * (nx - 1)
    if len(raw) != expected:
        raise ValueError(f"{path}: payload size {len(raw)} != expected {expected}")
    data = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size).reshape(
        n_slices, nx - 1
    )
    return data.copy(), int(nx), float(T)


def format_value(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.17g}"
    return str(v)


def write_csv(path, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_value(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def parse_config_text(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    set_on: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in set_on:
            raise ConfigError(
                f"config key '{key}' is set twice, on lines {set_on[key]} and {lineno}"
            )
        set_on[key] = lineno
        out[key] = value
    return out


def parse_config_file(path) -> dict[str, str]:
    return parse_config_text(Path(path).read_text(encoding="utf-8"))
