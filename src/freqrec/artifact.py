"""The one layout of every saved table, graph and checkpoint: optional
magic bytes, one sorted-key JSON header line, then a payload of arrays
stored back to back, integers as little-endian int64 and floats as
little-endian float64.  Only this module reads or writes the header and
converts a payload between bytes and arrays; an artifact's own module
declares the layout its header implies."""

import json
import math

import numpy as np

from freqrec.errors import InputError


# the stored form of each array kind: integers and floats
_WIRE = {"i": "<i8", "f": "<f8"}


def write(path, header, arrays, magic=b""):
    with open(path, "wb") as fh:
        fh.write(magic + json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        for a in arrays:
            fh.write(np.ascontiguousarray(a, dtype=_WIRE[a.dtype.kind]))


def read(path, kind, counts=(), magic=b""):
    """(header, payload bytes).  The header must be a JSON object whose
    `counts` fields are non-negative integers and whose fingerprint is a
    string ("" when absent); any failure is an InputError naming `kind`."""
    try:
        with open(path, "rb") as fh:
            head, line, payload = fh.read(len(magic)), fh.readline(), fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {kind} {path}: {exc}") from exc
    try:
        if head != magic:
            raise ValueError(f"not a {kind} (bad magic bytes)")
        header = json.loads(line.decode("utf-8"))
        if not isinstance(header, dict):
            raise ValueError("not a JSON object")
        for key in counts:
            if type(header.get(key)) is not int or header[key] < 0:
                raise ValueError(f"{key} is {header.get(key, 'missing')!r}, "
                                 "not a non-negative integer")
        if not isinstance(header.setdefault("fingerprint", ""), str):
            raise ValueError(f"fingerprint {header['fingerprint']!r} is not a string")
    except ValueError as exc:
        raise InputError(f"malformed {kind} header in {path}: {exc}") from exc
    return header, payload


def arrays(payload, layout, path, what):
    """The arrays that `layout`, a list of (name, shape, dtype), lays out
    back to back in `payload`, as new arrays of those dtypes.  A payload
    that is not exactly those bytes, or a float array with a non-finite
    entry, is an InputError naming `path` (and the first bad entry)."""
    ends = np.cumsum([0] + [8 * math.prod(shape) for _, shape, _ in layout])
    if ends[-1] != len(payload):
        listed = ", ".join(f"{name} {np.dtype(dtype).name} {shape}"
                           for name, shape, dtype in layout)
        raise InputError(f"{path}: a {what} payload of {len(payload)} bytes does not hold "
                         f"the {ends[-1]} bytes of {listed}")
    out = []
    for (name, shape, dtype), start in zip(layout, ends):
        wire = _WIRE[np.dtype(dtype).kind]
        a = np.frombuffer(payload, wire, math.prod(shape), start).astype(dtype).reshape(shape)
        if a.dtype.kind == "f" and not np.isfinite(a).all():
            at = tuple(int(k) for k in np.argwhere(~np.isfinite(a))[0])
            raise InputError(f"{path}: {what} {name} entry {at[0] if a.ndim == 1 else at} "
                             f"is non-finite ({float(a[at])!r})")
        out.append(a)
    return out
