#!/usr/bin/env python3
"""End-to-end benchmark entry point.

Builds the benchmark package (e2ebench/, which compiles the repository's
src/ with the default RelWithDebInfo flags) into the build directory on
first use, then runs one workload and passes its output through.  The last
stdout line is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage (from the repository root):

    python3 e2ebench/run.py --workload paper_pipeline --seed 1 \
        --seconds 30 --trace 0 [--low-rate R --high-rate R --p99-limit-ms L]
    python3 e2ebench/run.py --smoke      # every workload once, tiny sizes;
                                         # checks names/units vs BENCHMARK.json

The build directory is $CARGO_TARGET_DIR when set, else .bench_build.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ["paper_pipeline", "scenario_design", "evaluate_closed_loop",
             "mixed_open_loop"]
# Workloads whose checked outputs are identical for every run of a seed.
DETERMINISTIC = ("paper_pipeline", "scenario_design")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configures once, then builds incrementally; returns the binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("src/ not found next to e2ebench/: "
                           "run from a full checkout of the repository")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", out,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j3"], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "e2ebench")


def tree_digest():
    """sha256 over the files of src/ and e2ebench/, names included."""
    h = hashlib.sha256()
    for top in ("src", "e2ebench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git(*args):
    """stdout of a git command in ROOT, or None when it fails."""
    try:
        out = subprocess.run(["git", "-C", ROOT] + list(args),
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_id():
    """The commit when ROOT is a git work tree, with a digest of src/ and
    e2ebench/ appended when either has uncommitted changes; else the
    digest alone."""
    top = git("rev-parse", "--show-toplevel")
    head = git("rev-parse", "HEAD")
    if top and head and os.path.realpath(top) == os.path.realpath(ROOT):
        dirty = git("status", "--porcelain", "--", "src", "e2ebench")
        return "git:" + head + ("+dirty:" + tree_digest() if dirty else "")
    return "sha256:" + tree_digest()


def run_binary(binary, args):
    """Runs one workload; returns (exit code, stdout lines)."""
    proc = subprocess.run([binary] + args, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S, cwd=ROOT)
    return proc.returncode, proc.stdout.splitlines()


def result_of(lines):
    if not lines:
        raise ValueError("no output")
    doc = json.loads(lines[-1])
    if sorted(doc) != ["attempted", "correct", "failed", "metrics"]:
        raise ValueError("result keys " + ",".join(sorted(doc)))
    return doc


def smoke(binary, passthrough, sid):
    """Every workload (listed in BENCHMARK.json or not) once per trace mode
    at tiny sizes; metric names and units must match BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expect = {
        0: [(m["name"], m["unit"]) for m in spec["end_to_end"]],
        1: [(m["name"], m["unit"]) for m in spec["per_layer"]],
    }
    listed = [w["name"] for w in spec["workloads"]]
    ok = set(listed) <= set(WORKLOADS)
    digests = {}
    if not ok:
        log(f"BENCHMARK.json workloads {listed} not all in {WORKLOADS}")
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, lines = run_binary(binary, [
                "--workload", workload, "--seed", "1", "--seconds", "1",
                "--trace", str(trace), "--smoke", "--source-id", sid,
                "--scratch-dir", build_dir()] + passthrough)
            try:
                doc = result_of(lines)
                got = [(k, v["unit"]) for k, v in doc["metrics"].items()]
                good = code == 0 and doc["correct"] and got == expect[trace]
                if got != expect[trace]:
                    extra = sorted(set(got) - set(expect[trace]))
                    missing = sorted(set(expect[trace]) - set(got))
                    log(f"{workload} trace {trace}: metrics differ from "
                        f"BENCHMARK.json (extra {extra}, missing {missing}, "
                        f"or order)")
            except (ValueError, KeyError) as e:
                good = False
                log(f"{workload} trace {trace}: bad output ({e})")
            digests.setdefault(workload, set()).update(
                l.split()[-1] for l in lines if l.startswith("# digest "))
            print(f"smoke {workload} trace={trace}: {'ok' if good else 'FAIL'}")
            ok = ok and good
        # The serial flows must produce the same outputs traced and untraced.
        if workload in DETERMINISTIC and len(digests[workload]) != 1:
            log(f"{workload}: outputs differ between trace modes "
                f"({sorted(digests[workload])})")
            ok = False
    print(json.dumps({"smoke": "ok" if ok else "FAIL"}))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--low-rate", type=float)
    p.add_argument("--high-rate", type=float)
    p.add_argument("--p99-limit-ms", type=float)
    p.add_argument("--default-seed", type=int, default=1,
                   help="seed used when --seed is not given")
    p.add_argument("--held-out-seed", type=int,
                   help="seed reserved for confirming gain claims "
                        "(recorded in the stamp, never used by default)")
    p.add_argument("--smoke", action="store_true")
    a = p.parse_args()
    if not a.smoke and a.workload is None:
        p.error("--workload is required (or --smoke)")

    passthrough = []
    for flag, value in (("--low-rate", a.low_rate),
                        ("--high-rate", a.high_rate),
                        ("--p99-limit-ms", a.p99_limit_ms)):
        if value is not None:
            passthrough += [flag, repr(value)]
    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 2
    sid = source_id()
    if a.smoke:
        return smoke(binary, passthrough, sid)

    seed = a.default_seed if a.seed is None else a.seed
    print(f"# seeds default={a.default_seed} held_out={a.held_out_seed} "
          f"used={seed}")
    try:
        code, lines = run_binary(binary, [
            "--workload", a.workload, "--seed", str(seed),
            "--seconds", repr(a.seconds), "--trace", str(a.trace),
            "--source-id", sid, "--scratch-dir", build_dir()] + passthrough)
    except subprocess.TimeoutExpired:
        log(f"{a.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    if code != 0:
        log(f"e2ebench exited with {code}")
        print("\n".join(lines[:-1] if lines and lines[-1].startswith("{")
                        else lines))
        return code
    try:
        result_of(lines)
    except ValueError as e:
        log(f"malformed result: {e}")
        return 1
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
