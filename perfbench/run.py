#!/usr/bin/env python3
"""Builds and runs the Locus tuning benchmark.

Run from the root of a Locus source tree:

    python3 perfbench/run.py --workload fig7-search --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

The first form builds perfbench/ (CMake, Release) into $CARGO_TARGET_DIR or
.bench_build, runs one workload and prints its metrics; the last stdout line
is the JSON result. --smoke runs every workload once at tiny sizes, traced and
untraced, and checks every correctness condition.

All scratch state (journals, queues, native work dirs) lives in a directory
under .bench_tmp/ unique to this invocation and is removed afterwards; traces
go to .bench_out/. No process started here outlives the script.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["fig5-eval", "fig7-search", "fig7-serve"]
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures and builds the benchmark; returns the binary path."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        raise RuntimeError("no Locus sources (src/) next to perfbench/")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    ninja = shutil.which("ninja")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(out, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent invocations build once
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if ninja:
                cmd += ["-G", "Ninja"]
            run_logged(cmd)
        run_logged(["cmake", "--build", out, "-j", jobs])
    return os.path.join(out, "locus_perfbench")


def run_logged(cmd):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          timeout=BUILD_TIMEOUT_S, text=True)
    if proc.returncode != 0:
        log(proc.stdout[-4000:])
        # Leave no half-configured tree behind for the next attempt.
        cache = os.path.join(build_dir(), "CMakeCache.txt")
        if "-S" in cmd and os.path.exists(cache):
            os.remove(cache)
        raise RuntimeError("command failed: " + " ".join(cmd))


def source_id():
    """Git commit when available, plus a digest of the sources built."""
    commit = "not a git checkout"
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cpp", ".h", ".txt")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return "commit %s, source digest %s" % (commit, digest.hexdigest()[:12])


def stray_pids(marker):
    """Pids of live processes whose command line mentions marker."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == os.getpid():
            continue
        try:
            with open("/proc/%s/cmdline" % entry, "rb") as f:
                if marker.encode() in f.read():
                    pids.append(int(entry))
        except OSError:
            pass
    return pids


def stop_all(proc, scratch):
    """Kills the benchmark's process group and any worker still running on
    its scratch dir (workers get their own process groups), then waits until
    every one has ended."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    proc.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        pids = stray_pids(scratch)
        if not pids:
            return True
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        time.sleep(0.05)
    return not stray_pids(scratch)


def run_workload(binary, workload, seed, seconds, trace, smoke, src_id):
    """Runs one workload, echoing its report; returns (exit code, last line)."""
    tmp_base = os.path.join(ROOT, ".bench_tmp")
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(tmp_base, exist_ok=True)
    os.makedirs(out_dir, exist_ok=True)
    scratch = os.path.realpath(tempfile.mkdtemp(prefix="run-", dir=tmp_base))
    env = dict(os.environ, TMPDIR=scratch)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--scratch", scratch, "--out-dir", out_dir, "--source-id", src_id]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        log("error: %s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
        out, code = "", 1
    finally:
        if not stop_all(proc, scratch):
            log("error: could not stop every worker process")
            code = 1
        shutil.rmtree(scratch, ignore_errors=True)
    lines = out.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    sys.stdout.flush()
    return code, lines[-1]


def main():
    # A SIGTERM unwinds through run_workload's cleanup like an error would.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload once at tiny sizes and check it")
    args = ap.parse_args()
    if not args.smoke and not args.workload:
        ap.error("--workload is required unless --smoke is given")

    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as e:
        log("error: build failed: %s" % e)
        return 1
    src_id = source_id()

    if args.smoke:
        failures = 0
        start = time.monotonic()
        for workload in WORKLOADS:
            for trace in (0, 1):
                code, last = run_workload(binary, workload, args.seed, 0, trace,
                                          True, src_id)
                try:
                    ok = code == 0 and json.loads(last).get("correct") is True
                except ValueError:
                    ok = False
                print("smoke %-12s trace %d: %s" % (workload, trace,
                                                  "ok" if ok else "FAILED"),
                      flush=True)
                failures += not ok
        print("smoke: %d failure(s) in %.1f s" % (failures, time.monotonic() - start))
        return 1 if failures else 0

    code, last = run_workload(binary, args.workload, args.seed, args.seconds,
                              args.trace, False, src_id)
    try:
        result = json.loads(last)
        valid = isinstance(result, dict) and set(result) == {
            "correct", "attempted", "failed", "metrics"}
    except ValueError:
        valid = False
    if not valid:
        log("error: the benchmark printed no result")
        return code if code > 0 else 1
    print(last, flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
