#!/usr/bin/env python3
"""Writes a deliberately damaged copy of a DeepOD state-dict file.

Used to check that the loaders answer hostile and corrupt artifacts with a
typed error (exit 1 and a LoadErrorKind name) instead of crashing. The file
format is the tagged state dict of src/nn/serialize.h: a 16-byte header,
one record per tensor, then the XXH64 (seed 0) of every preceding byte.

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
MASK = 0xFFFFFFFFFFFFFFFF
P1, P2, P3, P4, P5 = (0x9E3779B185EBCA87, 0xC2B2AE3D27D4EB4F,
                      0x165667B19E3779F9, 0x85EBCA77C2B2AE63,
                      0x27D4EB2F165667C5)


def rotl(x, r):
    return ((x << r) | (x >> (64 - r))) & MASK


def xxh64_round(acc, lane):
    return rotl((acc + lane * P2) & MASK, 31) * P1 & MASK


def xxh64(data):
    """XXH64 with seed 0, as the xxHash specification defines it."""
    size, p = len(data), 0
    if size >= 32:
        v = [(P1 + P2) & MASK, P2, 0, (-P1) & MASK]
        lanes = struct.unpack_from("<%dQ" % (size // 32 * 4), data, 0)
        for i, lane in enumerate(lanes):
            v[i % 4] = xxh64_round(v[i % 4], lane)
        p = size // 32 * 32
        acc = (rotl(v[0], 1) + rotl(v[1], 7) + rotl(v[2], 12) +
               rotl(v[3], 18)) & MASK
        for lane in v:
            acc = ((acc ^ xxh64_round(0, lane)) * P1 + P4) & MASK
    else:
        acc = P5
    acc = (acc + size) & MASK
    while size - p >= 8:
        (lane,) = struct.unpack_from("<Q", data, p)
        acc = (rotl(acc ^ xxh64_round(0, lane), 27) * P1 + P4) & MASK
        p += 8
    if size - p >= 4:
        (word,) = struct.unpack_from("<I", data, p)
        acc = (rotl(acc ^ (word * P1 & MASK), 23) * P2 + P3) & MASK
        p += 4
    for b in data[p:]:
        acc = rotl(acc ^ (b * P5 & MASK), 11) * P1 & MASK
    acc = (acc ^ (acc >> 33)) * P2 & MASK
    acc = (acc ^ (acc >> 29)) * P3 & MASK
    return acc ^ (acc >> 32)


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
            struct.pack_into("<Q", data, len(data) - 8, xxh64(data[:-8]))
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
