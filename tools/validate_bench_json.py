#!/usr/bin/env python3
"""Validate the shared BENCH-json record schema.

Every machine-readable measurement file in this repo uses one schema,
obs::Record rendered by obs::RenderRecordsJson: the bench emitters, and
obs::Registry exports (deepod_server --stats-json and its stats frame,
deepod_loadgen --json, deepod_train's deepod_metrics.json under
DEEPOD_OBS=metrics or trace). Bench emitters: BENCH_table5.json
(bench_table5_efficiency), BENCH_datagen.json (bench_datagen's data-plane
records), BENCH_table6.json (bench_table6_scalability: per-(method,
fraction) records with wall_seconds = training time and value = test
MAPE) and BENCH_nn_micro.json (bench_nn_micro):

    {
      "hardware_concurrency": <int>,
      "records": [
        {"name": str, "wall_seconds": num, "threads": int >= 1,
         // optional, omitted when not measured:
         "samples_per_sec": num > 0, "count": num >= 0, "value": num,
         "p50_ms": num >= 0, "p95_ms": num >= 0, "p99_ms": num >= 0},
        ...
      ]
    }

Usage:
    validate_bench_json.py FILE [FILE ...]
        [--require NAME ...]          # record names that must be present
        [--require-prefix PREFIX ...] # at least one record per prefix
        [--allow-empty]               # permit an empty records list
        [--identity 'A=B+C' ...]      # count(A) == count(B) + count(C)

Exits non-zero with a message naming the offending file/record on the
first violation. Shared by the CI smoke jobs and the bench-regression job.
"""

import argparse
import json
import sys

OPTIONAL_NUMERIC_FIELDS = ("samples_per_sec", "count", "value",
                           "p50_ms", "p95_ms", "p99_ms")
KNOWN_FIELDS = {"name", "wall_seconds", "threads", *OPTIONAL_NUMERIC_FIELDS}


class ValidationError(Exception):
    pass


def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def validate_record(record, where):
    if not isinstance(record, dict):
        raise ValidationError(f"{where}: record is not an object")
    name = record.get("name")
    if not isinstance(name, str) or not name:
        raise ValidationError(f"{where}: missing or empty 'name'")
    where = f"{where} ({name!r})"
    if not is_number(record.get("wall_seconds")):
        raise ValidationError(f"{where}: 'wall_seconds' must be a number")
    if record["wall_seconds"] < 0:
        raise ValidationError(f"{where}: 'wall_seconds' must be >= 0")
    threads = record.get("threads")
    if not isinstance(threads, int) or isinstance(threads, bool) or threads < 1:
        raise ValidationError(f"{where}: 'threads' must be an int >= 1")
    for field in OPTIONAL_NUMERIC_FIELDS:
        if field in record and not is_number(record[field]):
            raise ValidationError(f"{where}: '{field}' must be a number")
    if "samples_per_sec" in record and record["samples_per_sec"] <= 0:
        raise ValidationError(f"{where}: 'samples_per_sec' must be > 0")
    for field in ("count", "p50_ms", "p95_ms", "p99_ms"):
        if field in record and record[field] < 0:
            raise ValidationError(f"{where}: '{field}' must be >= 0")
    percentiles = [record.get(p) for p in ("p50_ms", "p95_ms", "p99_ms")]
    if all(p is not None for p in percentiles):
        if not (percentiles[0] <= percentiles[1] <= percentiles[2]):
            raise ValidationError(
                f"{where}: percentiles must be monotone "
                f"(p50 {percentiles[0]} <= p95 {percentiles[1]} "
                f"<= p99 {percentiles[2]})")
    unknown = set(record) - KNOWN_FIELDS
    if unknown:
        raise ValidationError(
            f"{where}: unknown fields {sorted(unknown)} "
            "(extend the schema in src/obs/metrics.h and this validator "
            "together)")
    return name


def check_identity(path, identity, counts):
    """Checks a stats identity 'A=B+C+...' over the records' counts."""
    lhs, sep, rhs = identity.partition("=")
    terms = rhs.split("+")
    if not sep or not lhs or not all(terms):
        raise ValidationError(f"--identity {identity!r}: expected 'A=B+C'")
    values = {}
    for name in [lhs, *terms]:
        if not is_number(counts.get(name)):
            raise ValidationError(
                f"{path}: identity {identity!r} needs a counted record "
                f"{name!r}")
        values[name] = counts[name]
    total = sum(values[t] for t in terms)
    if values[lhs] != total:
        detail = " + ".join(f"{t} {values[t]:g}" for t in terms)
        raise ValidationError(
            f"{path}: identity {identity!r} broken: {lhs} {values[lhs]:g} "
            f"!= {detail}")


def validate_file(path, args):
    with open(path) as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            raise ValidationError(f"{path}: invalid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: top level is not an object")
    hc = doc.get("hardware_concurrency")
    if not isinstance(hc, int) or isinstance(hc, bool) or hc < 0:
        raise ValidationError(
            f"{path}: 'hardware_concurrency' must be an int >= 0")
    records = doc.get("records")
    if not isinstance(records, list):
        raise ValidationError(f"{path}: 'records' must be a list")
    if not records and not args.allow_empty:
        raise ValidationError(f"{path}: no records emitted")
    names = []
    for i, record in enumerate(records):
        names.append(validate_record(record, f"{path}: records[{i}]"))
    dupes = {n for n in names if names.count(n) > 1}
    if dupes:
        print(f"{path}: WARNING: duplicate record names {sorted(dupes)}",
              file=sys.stderr)
    for required in args.require:
        if required not in names:
            raise ValidationError(f"{path}: missing required record "
                                  f"{required!r}")
    for prefix in args.require_prefix:
        if not any(n.startswith(prefix) for n in names):
            raise ValidationError(
                f"{path}: no record with required prefix {prefix!r}")
    counts = {r["name"]: r.get("count") for r in records}
    for identity in args.identity:
        check_identity(path, identity, counts)
    print(f"{path}: OK ({len(records)} records)")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="+", metavar="FILE")
    parser.add_argument("--require", nargs="*", default=[], metavar="NAME")
    parser.add_argument("--require-prefix", nargs="*", default=[],
                        metavar="PREFIX")
    parser.add_argument("--allow-empty", action="store_true")
    parser.add_argument("--identity", nargs="*", default=[],
                        metavar="A=B+C")
    args = parser.parse_args()
    try:
        for path in args.files:
            validate_file(path, args)
    except ValidationError as e:
        print(f"FAIL: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"FAIL: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
