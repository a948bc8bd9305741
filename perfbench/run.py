#!/usr/bin/env python3
"""The repository benchmark: failure sweeps end to end and layer by layer.

    python3 perfbench/run.py --workload storm-geant --seed 1 --seconds 30 --trace 0

Run from the repository root.  Builds perfbench_driver (the program's `pr`
library plus perfbench/src) into .bench_build, or into $CARGO_TARGET_DIR when
that is set, runs the workload in a child process, checks its outputs, and
prints every metric with its unit.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ledger and
writes the spans to <build dir>/traces/<workload>-seed<N>.spans.jsonl.
--size tiny runs a few scenarios of each workload (for the tests).
--record-reference rewrites perfbench/reference.json with the state digests
of the default seed (after a deliberate change of a workload's results).

See perfbench/README.md for the workloads and the metric map.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics as M  # noqa: E402

WORKLOADS = ("storm-geant", "dual-link-geant", "backbone-isp1024")
REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 1
# Whole-run limits: a run must end within 180 s, or 900 s when it compiles.
RUN_LIMIT_S = 175
BUILD_RUN_LIMIT_S = 880
# The traced ledger must attribute at least this share of traced cell time
# to src/ layers, or it no longer says where a sweep spends its time.
MIN_LAYER_COVERAGE = 0.9
# Per workload, the layer it exists to stress and the layer it contrasts
# with: the first must take at least DOMINANCE times the second's self time.
DOMINANT_LAYER = {"storm-geant": ("sim.walk_ns", "route.spf_repair_ns"),
                  "backbone-isp1024": ("route.spf_repair_ns", "sim.walk_ns")}
DOMINANCE = 10.0


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configures (once) and builds the driver; returns (path, compiled)."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise RuntimeError("the program's sources (CMakeLists.txt, src/) are not "
                           "next to perfbench/; run from a full checkout")
    out = build_dir()
    driver = out / "perfbench_driver"
    before = driver.stat().st_mtime_ns if driver.exists() else None
    # Keep the compiler's temporary files inside the build directory too.
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if not (out / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr, env=env)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    subprocess.run(["cmake", "--build", str(out), "--target", "perfbench_driver", "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr, env=env)
    after = driver.stat().st_mtime_ns if driver.exists() else None
    if after is None:
        raise RuntimeError("build produced no perfbench_driver")
    return driver, before != after


def run_driver(driver, args, mode, deadline):
    traces = build_dir() / "traces"
    cmd = [str(driver), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode, "--size", args.size,
           "--out-dir", str(traces)]
    timeout = max(10.0, deadline - time.monotonic())
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                          timeout=timeout, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench_driver exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("perfbench_driver printed nothing")
    return json.loads(lines[-1])


def load_spans(path):
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def source_digest():
    """sha256 over the program's sources and the benchmark's own files, so a
    result can be tied to a tree where git is unavailable."""
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for p in sorted(base.rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    build_file = ROOT / "CMakeLists.txt"
    h.update(b"CMakeLists.txt")
    h.update(build_file.read_bytes())
    return h.hexdigest()


def git_state():
    if not (ROOT / ".git").exists():
        return None, None
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain"],
                               capture_output=True, text=True, check=True).stdout.strip()
        return sha, bool(dirty)
    except (OSError, subprocess.CalledProcessError):
        return None, None


def provenance(run):
    p = dict(run["provenance"])
    sha, dirty = git_state()
    p.update({
        "nproc": os.cpu_count(),
        "git_sha": sha,
        "git_dirty": dirty,
        "source_sha256": source_digest() if sha is None else None,
        "workload": run["workload"],
        "seed": run["seed"],
        "size": run["size"],
        "threads_par": run["threads_par"],
        "scenarios_per_pass": run["scenarios_per_pass"],
        "facts": run["facts"],
    })
    return p


def load_reference():
    if REFERENCE.is_file():
        return json.loads(REFERENCE.read_text(encoding="utf-8"))
    return {}


def check(run, args):
    """Correctness of one driver run; returns a list of failures."""
    bad = []
    passes = run["passes"]
    for p in passes:
        if p["failure"]:
            bad.append(f"pass {p['pass']} at {p['threads']} threads: {p['failure']}")
    by_pass = {}
    for p in passes:
        by_pass.setdefault(p["pass"], set()).add(p["digest"])
    for idx, digests in sorted(by_pass.items()):
        if len(digests) != 1:
            bad.append(f"pass {idx}: state digest differs across thread counts {sorted(digests)}")
    if not run["sampled"] and len({p["digest"] for p in passes}) != 1:
        bad.append("repeated passes of one sweep produced different digests")
    if args.size == "full" and args.seed == DEFAULT_SEED:
        want = load_reference().get(args.workload)
        got = next(p["digest"] for p in passes if p["pass"] == 0)
        if want is None:
            bad.append(f"no reference digest for {args.workload} in {REFERENCE.name}")
        elif got != want:
            bad.append(f"state digest {got} != reference {want} for the default seed")
    if "trace" in run:
        bad.extend(run["trace"]["fidelity_failures"])
    return bad


def check_ledger(workload, metrics):
    """The traced ledger's own properties; returns a list of failures."""
    bad = []
    coverage = metrics["trace.layer_coverage_frac"][0]
    if coverage < MIN_LAYER_COVERAGE:
        bad.append(f"src/ layers account for {coverage:.3f} of traced cell time, "
                   f"below {MIN_LAYER_COVERAGE}")
    if workload in DOMINANT_LAYER:
        big, small = DOMINANT_LAYER[workload]
        if metrics[big][0] < DOMINANCE * metrics[small][0]:
            bad.append(f"{big} ({metrics[big][0]:.0f}) is not {DOMINANCE:g}x "
                       f"{small} ({metrics[small][0]:.0f})")
    return bad


def record_reference():
    driver, compiled = build()
    ref = {"default_seed": DEFAULT_SEED}
    for w in WORKLOADS:
        ns = argparse.Namespace(workload=w, seed=DEFAULT_SEED, seconds=1, size="full")
        run = run_driver(driver, ns, "measure",
                         time.monotonic() + (BUILD_RUN_LIMIT_S if compiled else RUN_LIMIT_S))
        digests = {p["digest"] for p in run["passes"] if p["pass"] == 0}
        if len(digests) != 1:
            raise RuntimeError(f"{w}: 1- and N-thread digests differ: {sorted(digests)}")
        ref[w] = digests.pop()
        compiled = False
    REFERENCE.write_text(json.dumps(ref, indent=2) + "\n", encoding="utf-8")
    log(f"wrote {REFERENCE}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    start = time.monotonic()
    try:
        if args.record_reference:
            record_reference()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        driver, compiled = build()
        deadline = start + (BUILD_RUN_LIMIT_S if compiled else RUN_LIMIT_S)
        run = run_driver(driver, args, "trace" if args.trace else "measure", deadline)
        if args.trace:
            metrics, details = M.per_layer(run, load_spans(run["trace"]["spans_path"]))
        else:
            metrics, details = M.end_to_end(run), {}
    except (RuntimeError, OSError, subprocess.SubprocessError, ValueError, KeyError) as e:
        log(f"perfbench: {e}")
        return 1

    failures = check(run, args)
    if args.trace:
        failures.extend(check_ledger(args.workload, metrics))
    if not M.finite(metrics):
        failures.append("a metric is not a finite number")
    for f in failures:
        log(f"perfbench: CHECK FAILED: {f}")
    print(f"# {run['workload']} seed={run['seed']} size={run['size']} "
          f"mode={run['mode']} threads_par={run['threads_par']} "
          f"scenarios/pass={run['scenarios_per_pass']} passes={len(run['passes'])}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for name, d in details.items():
        print(f"# {name} timing: n={d['n']} p50={d['p50']} tail=p{d['tail_pct']}={d['tail']}")
    print("provenance " + json.dumps(provenance(run), sort_keys=True))
    result = {
        "correct": not failures,
        "attempted": int(run["attempted"]),
        "failed": int(run["failed"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
