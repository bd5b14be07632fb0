#!/usr/bin/env python3
"""rexspeed benchmark: builds the program from source, runs one workload
in a fresh load-generator process and prints one JSON result line.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from the root of a source tree. Workloads:

  serve-hot   `rexspeed serve --domains 1`, every timed request a cache hit
  serve-cold  the same daemon, every timed request a distinct cache miss
  fleet-hot   `rexspeed serve --shards 2` on serve-hot's exact requests
  offline     Monte-Carlo, journaled Monte-Carlo, journal resume and a
              grid sweep, in-process at 1 domain

`--trace 0` reports the end-to-end metrics; `--trace 1` is a separate
run of the same inputs that reports every layer's costs, writes the
benchmark's spans and keeps the program's own trace. Every workload
reports every metric. The load generator and every server it starts run
on one CPU. The last line of stdout is {"correct", "attempted",
"failed", "metrics"}; the line before it, and .perfbench/results/,
record the machine, the commit and the exact server command lines and
environment.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("serve-hot", "serve-cold", "fleet-hot", "offline")
STATE = ".perfbench"
SOURCES = ("dune-project", "bin/rexspeed.ml", "lib/server/daemon.ml", "perfbench/dune")
LOADGEN = "_build/default/perfbench/loadgen.exe"
REXSPEED = "_build/default/bin/rexspeed.exe"
# Variables the program reads at start-up: chaos injection, tracing, pool
# size, retries, shard count, timeouts, and the OCaml runtime's settings.
INHERITED = ("REXSPEED_", "OCAMLRUNPARAM")
LOADGEN_TIMEOUT_S = 150


def die(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def clean_env():
    return {k: v for k, v in os.environ.items() if not k.startswith(INHERITED)}


def proc_stat(pid):
    """(state, process group) of a live process, or None."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return fields[0], int(fields[2])
    except (OSError, IndexError, ValueError):
        return None


def pids():
    return [int(p) for p in os.listdir("/proc") if p.isdigit()]


def serve_processes():
    """Live `rexspeed serve` processes, from any earlier run."""
    found = []
    for pid in pids():
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                argv = f.read().split(b"\0")
        except OSError:
            continue
        name = os.path.basename(argv[0]).decode(errors="replace")
        if name in ("rexspeed", "rexspeed.exe") and len(argv) > 1 and argv[1] == b"serve":
            stat = proc_stat(pid)
            if stat and stat[0] != "Z":
                found.append(pid)
    return found


def group_members(pgid):
    members = []
    for pid in pids():
        stat = proc_stat(pid)
        if stat and stat[1] == pgid and stat[0] != "Z":
            members.append(pid)
    return members


def reap_group(pgid):
    """Kill whatever the load generator left in its process group and
    wait until every member has ended."""
    deadline = time.monotonic() + 10
    while group_members(pgid):
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        if time.monotonic() > deadline:
            die(f"processes of group {pgid} survived SIGKILL", 1)
        time.sleep(0.01)


def loadavg():
    with open("/proc/loadavg") as f:
        return [float(x) for x in f.read().split()[:3]]


def commit():
    if not os.path.isdir(".git"):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        return None


def source_digest():
    """SHA-256 over the sources the benchmark builds, for trees without git."""
    h = hashlib.sha256()
    files = ["dune-project", "dune"]
    for top in ("lib", "bin", "perfbench"):
        for d, _, names in os.walk(top):
            files += [os.path.join(d, n) for n in names]
    for path in sorted(files):
        if os.path.isfile(path):
            h.update(path.encode() + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()
    # SIGTERM unwinds through the cleanup below instead of killing this
    # process and leaving the load generator's group behind.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if a.seconds < 1:
        die("--seconds must be at least 1", 2)

    missing = [f for f in SOURCES if not os.path.isfile(f)]
    if missing:
        die(f"not a rexspeed source tree (missing {', '.join(missing)}); run from its root", 2)
    orphans = serve_processes()
    if orphans:
        die(f"refusing to start: rexspeed serve still running as pid {orphans}", 3)

    env = clean_env()
    cpus = sorted(os.sched_getaffinity(0))
    t0 = time.monotonic()
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--cache=disabled", "./" + REXSPEED[len("_build/default/"):],
         "./" + LOADGEN[len("_build/default/"):]],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        die("build failed", 4)
    build_s = time.monotonic() - t0

    os.makedirs(os.path.join(STATE, "results"), exist_ok=True)
    run_dir = os.path.join(STATE, f"run-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    tag = f"{a.workload}-s{a.seed}-t{a.trace}"
    results = os.path.join(STATE, "results")
    load_before = loadavg()
    cmd = [LOADGEN, "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace), "--rexspeed", REXSPEED, "--dir", run_dir,
           "--spans", os.path.join(results, f"spans-{tag}.json")]
    # A session of its own: every server the load generator starts, and
    # every fleet worker, shares its process group, so none can outlive
    # the run. All of them inherit one CPU: on a small virtual machine a
    # wake-up that crosses CPUs costs from tens of microseconds to
    # milliseconds depending on the host's load, and unpinned runs of the
    # same workload read 8k and 22k hot requests per second minutes
    # apart.
    cpu = cpus[-1]
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True,
                            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    try:
        out, _ = proc.communicate(timeout=LOADGEN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out = None
    finally:
        reap_group(proc.pid)
        proc.wait()
        for name in os.listdir(run_dir):
            if "trace" in name and ".json" in name:
                os.replace(os.path.join(run_dir, name), os.path.join(results, f"{tag}-{name}"))
        shutil.rmtree(run_dir, ignore_errors=True)
    if out is None:
        die(f"load generator did not finish within {LOADGEN_TIMEOUT_S} s", 1)
    if proc.returncode != 0:
        die(f"load generator exited with code {proc.returncode}", 1)
    try:
        result = json.loads(out.strip().splitlines()[-1])
        meta = result.pop("meta")
    except (IndexError, ValueError, KeyError):
        die("load generator printed no result", 1)

    meta.update(
        nproc=len(cpus),
        cpu=cpu,
        commit=commit(),
        source_digest=source_digest(),
        build_s=build_s,
        loadavg_before=load_before,
        loadavg_after=loadavg(),
    )
    with open(os.path.join(results, f"{tag}.json"), "w") as f:
        json.dump({"result": result, "meta": meta}, f, indent=1)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
