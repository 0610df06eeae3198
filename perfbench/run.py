#!/usr/bin/env python3
"""Builds and runs the rapt benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                             [perfbench input flags, e.g. --manifest-seed 0x484f4c44]

Run from the repository root. The perfbench binary is built from source (CMake,
Release) into $CARGO_TARGET_DIR, or .bench_build when that is unset, then run
once; its last stdout line is checked against BENCHMARK.json (every metric of
the run's kind present, with the declared unit and direction, nothing else)
and reprinted as the result line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

Exits non-zero, without a result line, when the repository sources are
missing, the build fails, the run refuses to measure, or the metric set does
not match BENCHMARK.json. A run whose checks fail prints its result line with
"correct": false and exits 1.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BINARY = "perfbench"


def fail(message, code=2):
    print("perfbench/run.py: " + message, file=sys.stderr)
    sys.exit(code)


def scratch_env(build_dir):
    """The environment for the build and the run: temporary files stay in
    the build directory, inside the checkout."""
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build(build_dir, env):
    configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (configure, ["cmake", "--build", build_dir, "-j", jobs]):
        # Build output goes to stderr: stdout carries only the run's report.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, cwd=ROOT, env=env)
        if proc.returncode != 0:
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, BINARY)


def expected_metrics(traced):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    kind = "per_layer" if traced else "end_to_end"
    return {m["name"]: (m["unit"], m["better"]) for m in bench[kind]}


def check_metrics(doc, traced):
    """The self-test: the run printed exactly BENCHMARK.json's metrics."""
    want = expected_metrics(traced)
    got = doc["metrics"]
    problems = []
    for name in sorted(set(want) - set(got)):
        problems.append("missing " + name)
    for name in sorted(set(got) - set(want)):
        problems.append("undeclared " + name)
    for name in sorted(set(want) & set(got)):
        unit, better = want[name]
        if got[name]["unit"] != unit:
            problems.append("%s unit %s, declared %s" % (name, got[name]["unit"], unit))
        if got[name]["better"] != better:
            problems.append("%s direction %s, declared %s" % (name, got[name]["better"], better))
    return problems


def main(argv):
    traced = False
    for i, arg in enumerate(argv):
        if arg == "--trace" and i + 1 < len(argv):
            traced = argv[i + 1] != "0"
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("the rapt sources (CMakeLists.txt, src/) are not next to perfbench/")
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = scratch_env(build_dir)
    binary = build(build_dir, env)

    proc = subprocess.run([binary] + argv, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode not in (0, 1) or not lines:
        fail("benchmark run failed with exit code %d" % proc.returncode, 3)
    doc = json.loads(lines[-1])
    problems = check_metrics(doc, traced)
    if problems:
        fail("metrics do not match BENCHMARK.json: " + "; ".join(problems), 4)

    result = {
        "correct": bool(doc["correct"]) and proc.returncode == 0,
        "attempted": int(doc["attempted"]),
        "failed": int(doc["failed"]),
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in doc["metrics"].items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
