#!/usr/bin/env python3
"""DeepOD benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a DeepOD checkout. The script

  1. builds the repo's libraries, deepod_{datagen,train,server} and the
     benchmark program (perfbench/*.cc) with CMake into
     $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench);
  2. builds the seed's inputs once and caches them under .bench_work/:
     datagen shards, the served artifacts and the fleet manifest. None of
     this is timed;
  3. runs the benchmark program, which prints the workload's metrics. The
     last line of standard output is one JSON object: correct, attempted,
     failed, metrics.

Workloads and metrics are described in perfbench/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys
import time

WORKLOADS = ("serve_hot", "serve_fleet", "serve_live")
# Seed directories kept in .bench_work (oldest are pruned beyond this).
KEEP_WORLDS = 12
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def run_logged(cmd, log_path, timeout):
    with open(log_path, "ab") as out:
        out.write(("$ " + " ".join(cmd) + "\n").encode())
        out.flush()
        proc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              timeout=timeout)
    if proc.returncode != 0:
        with open(log_path, "rb") as f:
            tail = f.read()[-4000:].decode(errors="replace")
        sys.stderr.write(tail)
        raise RuntimeError(f"command failed ({proc.returncode}): {cmd[0]}")


def build(root, build_dir):
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    run_logged(["cmake", "-S", os.path.join(root, "perfbench"),
                "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
               log_path, 600)
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    run_logged(["cmake", "--build", build_dir, "-j", jobs, "--target",
                "perfbench", "deepod_server", "deepod_train",
                "deepod_datagen"], log_path, 880)
    return {
        "perfbench": os.path.join(build_dir, "perfbench"),
        "server": os.path.join(build_dir, "deepod_tools", "deepod_server"),
        "train": os.path.join(build_dir, "deepod_tools", "deepod_train"),
        "datagen": os.path.join(build_dir, "deepod_tools", "deepod_datagen"),
    }


# The seed's inputs. City alpha backs every workload and the layer probes;
# beta (larger, warm) and gamma (cold, oracle-only) complete the three-city
# fleet.
CITIES = {
    "alpha": {"grid": 8, "trips_per_day": 40, "days": 20, "id": 1, "salt": 0},
    "beta": {"grid": 12, "trips_per_day": 40, "days": 20, "id": 2, "salt": 1},
}
COLD_CITY = {"grid": 6, "id": 3, "salt": 2}


def prepare_city(bins, world, name, seed, log_path):
    spec = CITIES[name]
    city_dir = os.path.join(world, name)
    if os.path.exists(os.path.join(city_dir, "done")):
        return
    shutil.rmtree(city_dir, ignore_errors=True)
    city_seed = str(seed * 7 + spec["salt"])
    run_logged([bins["datagen"], "--out", os.path.join(city_dir, "data"),
                "--grid", str(spec["grid"]),
                "--trips-per-day", str(spec["trips_per_day"]),
                "--days", str(spec["days"]), "--seed", city_seed,
                "--shards", "4", "--threads", "1"], log_path, 300)
    run_logged([bins["train"], "--data", os.path.join(city_dir, "data"),
                "--feed", "sharded", "--out", os.path.join(city_dir, "model"),
                "--epochs", "1", "--threads", "1",
                "--network-id", str(spec["id"]), "--oracle-grid", "4"],
               log_path, 300)
    open(os.path.join(city_dir, "done"), "w").close()


def prepare_fleet(bins, world, seed, log_path):
    prepare_city(bins, world, "beta", seed, log_path)
    cold_dir = os.path.join(world, "gamma")
    if not os.path.exists(os.path.join(cold_dir, "done")):
        shutil.rmtree(cold_dir, ignore_errors=True)
        run_logged([bins["train"], "--out", os.path.join(cold_dir, "model"),
                    "--grid", str(COLD_CITY["grid"]),
                    "--seed", str(seed * 7 + COLD_CITY["salt"]),
                    "--network-id", str(COLD_CITY["id"]), "--oracle-only",
                    "--oracle-grid", "4"], log_path, 300)
        open(os.path.join(cold_dir, "done"), "w").close()
    with open(os.path.join(world, "fleet.csv"), "w") as f:
        f.write("network_id,name,network,artifact,oracle,policy\n")
        for name in ("alpha", "beta"):
            f.write(f"{CITIES[name]['id']},{name},{name}/model/network.csv,"
                    f"{name}/model/model.artifact,,model\n")
        f.write(f"{COLD_CITY['id']},gamma,gamma/model/network.csv,"
                "gamma/model/model.artifact,gamma/model/oracle.artifact,"
                "oracle\n")


def prune_worlds(work, keep_dir):
    worlds = [os.path.join(work, d) for d in os.listdir(work)
              if d.startswith("seed-")]
    worlds = [w for w in worlds if os.path.abspath(w) != keep_dir]
    worlds.sort(key=os.path.getmtime)
    for w in worlds[:max(0, len(worlds) - (KEEP_WORLDS - 1))]:
        shutil.rmtree(w, ignore_errors=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    root = os.getcwd()
    for needed in ("src/CMakeLists.txt", "tools/CMakeLists.txt",
                   "perfbench/CMakeLists.txt"):
        if not os.path.exists(os.path.join(root, needed)):
            log(f"not a DeepOD checkout: {needed} is missing in {root}")
            return 2

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(root, build_root, "perfbench"))
    work = os.path.abspath(os.path.join(root, ".bench_work"))
    world = os.path.join(work, f"seed-{args.seed}")
    os.makedirs(world, exist_ok=True)
    os.utime(world)
    prune_worlds(work, world)

    t0 = time.monotonic()
    bins = build(root, build_dir)
    log(f"build ready in {time.monotonic() - t0:.1f} s")

    t0 = time.monotonic()
    log_path = os.path.join(world, "prepare.log")
    prepare_city(bins, world, "alpha", args.seed, log_path)
    if args.workload == "serve_fleet":
        prepare_fleet(bins, world, args.seed, log_path)
    log(f"inputs for seed {args.seed} ready in {time.monotonic() - t0:.1f} s")

    cmd = [bins["perfbench"], "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--world", world,
           "--server", bins["server"]]
    # Own session so a timed-out run and any server it spawned can be
    # killed as one group.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, 9)
        proc.communicate()
        log(f"benchmark exceeded {RUN_TIMEOUT_S} s")
        return 1
    sys.stdout.write(out.decode())
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, subprocess.TimeoutExpired, OSError) as e:
        log(f"error: {e}")
        sys.exit(1)
