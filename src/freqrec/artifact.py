"""The one layout of every saved table, graph and checkpoint: optional
magic bytes, one sorted-key JSON header line, then a payload that the
artifact's own module encodes and checks.  Only this module reads or
writes the header."""

import json

from freqrec.errors import InputError


def write(path, header, payload, magic=b""):
    with open(path, "wb") as fh:
        fh.write(magic + json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        fh.write(payload)


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
