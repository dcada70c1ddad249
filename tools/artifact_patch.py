#!/usr/bin/env python3
"""Writes a deliberately damaged copy of a DeepOD state-dict file.

Used to check that the loaders answer hostile and corrupt artifacts with a
typed error (exit 1 and a LoadErrorKind name) instead of crashing. The file
format is the tagged state dict of src/nn/serialize.h: a 16-byte header,
one record per tensor, then an FNV-1a 64 checksum of every preceding byte.

  artifact_patch.py IN OUT --set NAME[I]=VALUE
      Sets element I (default 0) of f64 record NAME to VALUE ("nan", "inf"
      and plain floats) and recomputes the checksum, so the file passes the
      integrity check and reaches the value checks behind it.
  artifact_patch.py IN OUT --flip NAME
      XORs one byte in the middle of NAME's payload and keeps the stale
      checksum (expect bad_checksum).
  artifact_patch.py IN OUT --truncate NAME
      Cuts the file in the middle of NAME's payload (expect truncated).

Standard library only. Exit codes: 0 written, 1 bad input, 2 usage.
"""

import argparse
import re
import struct
import sys

MAGIC = 0xD33B0D02
DTYPE_BYTES = {1: 8, 2: 2}  # f64, f16; int8 (3) is handled below


def fnv1a64(data):
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def index_records(data):
    """Returns {name: (dtype, shape, payload_offset, payload_bytes)}."""
    magic, _version, count = struct.unpack_from("<IIQ", data, 0)
    if magic != MAGIC:
        raise ValueError("not a deepod state dict")
    offset = 16
    records = {}
    for _ in range(count):
        (name_len,) = struct.unpack_from("<I", data, offset)
        offset += 4
        name = data[offset:offset + name_len].decode("utf-8")
        offset += name_len
        dtype, ndim = struct.unpack_from("<BI", data, offset)
        offset += 5
        shape = list(struct.unpack_from("<%dQ" % ndim, data, offset))
        offset += 8 * ndim
        elements = 1
        for d in shape:
            elements *= d
        if dtype == 3:
            rows = shape[0] if shape and shape[0] else 1
            payload = 8 * rows + elements
        else:
            payload = DTYPE_BYTES[dtype] * elements
        records[name] = (dtype, shape, offset, payload)
        offset += payload
    if offset != len(data) - 8:
        raise ValueError("record table does not end at the checksum")
    return records


def record(records, name):
    if name not in records:
        raise ValueError("no record named %r" % name)
    return records[name]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src")
    parser.add_argument("dst")
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--set", metavar="NAME[I]=VALUE")
    action.add_argument("--flip", metavar="NAME")
    action.add_argument("--truncate", metavar="NAME")
    args = parser.parse_args()

    with open(args.src, "rb") as f:
        data = bytearray(f.read())
    try:
        records = index_records(data)
        if args.set is not None:
            m = re.fullmatch(r"([^\[=]+)(?:\[(\d+)\])?=(.+)", args.set)
            if m is None:
                raise ValueError("--set wants NAME[I]=VALUE")
            name, element = m.group(1), int(m.group(2) or 0)
            dtype, shape, offset, payload = record(records, name)
            if dtype != 1 or 8 * element >= payload:
                raise ValueError("%s[%d] is not an f64 element" % (name, element))
            struct.pack_into("<d", data, offset + 8 * element, float(m.group(3)))
            struct.pack_into("<Q", data, len(data) - 8, fnv1a64(data[:-8]))
        elif args.flip is not None:
            _, _, offset, payload = record(records, args.flip)
            if payload == 0:
                raise ValueError("%s has an empty payload" % args.flip)
            data[offset + payload // 2] ^= 0x5A
        else:
            _, _, offset, payload = record(records, args.truncate)
            del data[offset + payload // 2:]
    except (ValueError, struct.error) as e:
        print("artifact_patch: %s" % e, file=sys.stderr)
        return 1
    with open(args.dst, "wb") as f:
        f.write(data)
    return 0


if __name__ == "__main__":
    sys.exit(main())
