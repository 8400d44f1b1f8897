#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload lu-fine --seed 1 --seconds 10 --trace 0

The Go benchmark in this directory is built into the build directory
($CARGO_TARGET_DIR, default .bench_build) with its Go caches kept there too,
then run with the given arguments. Its last line of output is one JSON object
holding every end-to-end metric of BENCHMARK.json (or, with --trace 1, every
per-layer metric); the command fails if the metrics do not match that list or
an output disagrees with the sequential oracle.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
RUN_TIMEOUT_S = 170


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def go_env(build):
    """The Go toolchain environment: every cache and config file inside the
    build directory, no network, no toolchain switch."""
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOMODCACHE": os.path.join(build, "gopath", "pkg", "mod"),
        "HOME": os.path.join(build, "home"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "XDG_CACHE_HOME": os.path.join(build, "cache"),
        "GOENV": "off",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "-mod=mod",
        "CGO_ENABLED": "0",
    })
    return env


def build_binary(build):
    os.makedirs(build, exist_ok=True)
    binary = os.path.join(build, "perfbench")
    proc = subprocess.run(["go", "build", "-trimpath", "-o", binary, "."],
                          cwd=HERE, env=go_env(build),
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        fail("build failed:\n" + proc.stdout)
    return binary


def commit_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


def tree_hash(skip):
    """SHA-256 over the Go sources, module files and BENCHMARK.json: the
    identity of the measured code where no git metadata is present."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames
                             if d != ".git" and os.path.join(dirpath, d) != skip)
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum", "BENCHMARK.json"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build = os.path.abspath(os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    want = expected_metrics(args.trace)
    binary = build_binary(build)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", commit_sha(), "--tree", tree_hash(build)]
    if args.trace:
        cmd += ["--spans", os.path.join(build, "spans", "%s-seed%d.jsonl" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(proc.stdout)
        fail("benchmark printed no result (exit code %d)" % proc.returncode)
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if got != want:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail("metrics differ from BENCHMARK.json: missing %s, unexpected %s, unit mismatches %s" % (
            sorted(set(want) - set(got)), sorted(set(got) - set(want)),
            sorted(k for k in set(want) & set(got) if want[k] != got[k])))
    sys.stdout.write(proc.stdout)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
