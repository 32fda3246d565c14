#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds `perfbench/` (a stand-alone Cargo
package linking the simulator crates by path) in release mode into
`$CARGO_TARGET_DIR` (default `.bench_build`), then runs one workload in its
own process. The last line of stdout is the JSON result; each result is
also saved with the host facts (nproc, commit, rustc) under
`<target dir>/perfbench-results/`. `--workload all` runs every workload in
turn, each in its own process. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "perfbench" / "Cargo.toml"
WORKLOADS = ["paper-hybrid", "large-cold", "replay-faults"]
# One workload run must finish within the benchmark's 180 s limit.
RUN_TIMEOUT_S = 170


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=20050404)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args()


def target_dir():
    td = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return td if td.is_absolute() else Path.cwd() / td


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(td):
    if not (ROOT / "crates").is_dir():
        fail(f"no simulator sources at {ROOT / 'crates'}: run from a full checkout")
    env = dict(os.environ, CARGO_TARGET_DIR=str(td))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(MANIFEST)]
    # Build output goes to stderr so stdout stays the benchmark's report.
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return td / "release" / "perfbench"


def command_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
        return out.stdout.strip() if out.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def source_digest():
    """SHA-256 over the simulator and benchmark sources: identifies the code
    measured even where the checkout is not a git repository."""
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for top in ("crates", "perfbench"):
        files += sorted(p for p in (ROOT / top).rglob("*") if p.suffix in (".rs", ".toml", ".py"))
    for f in files:
        if f.is_file():
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()[:16]


def host_facts():
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "commit": command_output(["git", "rev-parse", "HEAD"]) or "none (not a git checkout)",
        "source_sha256": source_digest(),
        "rustc": command_output(["rustc", "--version"]) or "unknown",
    }


def run_one(binary, td, workload, args, facts):
    """Run one workload in its own process; return (exit code, result line)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(td / "perfbench-work")]
    # Its own session, so a timeout also stops the trace-export child it
    # may have started.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        shutil.rmtree(td / "perfbench-work", ignore_errors=True)
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s", code=3)
    lines = stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    if result is None:
        sys.stdout.write(stdout)
        fail(f"{workload} printed no result (exit code {proc.returncode})", code=proc.returncode or 2)
    print("\n".join(lines[:-1]))
    record = {"workload": workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "host": facts, "report": lines[:-1], "result": result}
    out_dir = td / "perfbench-results"
    out_dir.mkdir(parents=True, exist_ok=True)
    name = f"{workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1) + "\n")
    return proc.returncode, lines[-1]


def main():
    args = parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    td = target_dir()
    binary = build(td)
    facts = host_facts()
    print("meta " + " ".join(f"{k}={v}" for k, v in facts.items()))
    if args.workload != "all":
        code, line = run_one(binary, td, args.workload, args, facts)
        print(line)
        sys.exit(code)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        code, line = run_one(binary, td, workload, args, facts)
        result = json.loads(line)
        worst = worst or code
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    sys.exit(worst)


if __name__ == "__main__":
    main()
