#!/usr/bin/env python3
"""Build and run SPAL's benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the benchmark package in
`perfbench/` (a Cargo package of its own that depends on the library
crates by path) in release mode, offline, into `$CARGO_TARGET_DIR` or
`perfbench/target`, then runs it with the same arguments. The
benchmark's standard output passes through; its last line is the JSON
result. This script also checks that result against `BENCHMARK.json`:
the four keys, and exactly the declared metric names and units for the
chosen `--trace` mode. Build output goes to standard error.

Exit status: the benchmark's own (0 = every check passed), or non-zero
without a result line when the build fails, the run times out, or the
result does not match `BENCHMARK.json`.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def run(cmd, timeout, **kwargs):
    """Run `cmd` from the repository root; kill it and wait on timeout."""
    with subprocess.Popen(cmd, cwd=ROOT, **kwargs) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            sys.exit(f"run.py: {cmd[0]} timed out after {timeout} s")
        return proc.returncode, out


def check_result(line, trace):
    """Problems with the result line, as a list of strings."""
    try:
        result = json.loads(line)
    except ValueError:
        return [f"last line is not JSON: {line!r}"]
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    section = spec["per_layer" if trace == "1" else "end_to_end"]
    declared = {m["name"]: m["unit"] for m in section}
    printed = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if printed != declared:
        problems.append(f"metrics {printed} differ from BENCHMARK.json {declared}")
    return problems


def main():
    args = sys.argv[1:]
    trace = args[args.index("--trace") + 1] if "--trace" in args[:-1] else None
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(HERE, "target"))
    code, _ = run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        BUILD_TIMEOUT_S,
        stdout=sys.stderr,
    )
    if code != 0:
        sys.exit(f"run.py: build failed ({code})")
    binary = os.path.join(ROOT, target, "release", "spal-perfbench")
    code, out = run([binary] + args, RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    lines = out.rstrip("\n").split("\n")
    if code in (0, 1) and trace in ("0", "1"):
        problems = check_result(lines[-1], trace)
        if problems:
            sys.stdout.write("\n".join(lines[:-1]) + "\n")
            sys.exit("run.py: " + "; ".join(problems))
    sys.stdout.write(out)
    sys.exit(code)


if __name__ == "__main__":
    main()
