#!/usr/bin/env python3
"""Runs one Yannakakis+ benchmark run from the root of a checkout.

    python3 perfbench/run.py --workload <sgpb-m2m|lsqb-cyclic> \
        --seed <n> --seconds <s> --trace <0|1>

The first run in a checkout builds the program and the benchmark from
source with sbt (the benchmark's own build in perfbench/ refers to the
program's root project) and caches the resulting classpath under
.bench_build/perfbench/, keyed by a hash of every source and build file.
Later runs start the JVM directly. The last line of standard output is the
run's result as one JSON object; the exit code is non-zero when the build
fails, a result disagrees with the oracle, or the run does not finish.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("sgpb-m2m", "lsqb-cyclic")

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170

# A run lasts about a minute: the optimizing JIT compiler would still be
# compiling Spark's hot paths at its end, making each repetition faster than
# the last. With the quick compiler only, timings settle in the warm-up passes.
# The throughput collector has no concurrent cycles to land inside a timing;
# a fixed heap and young generation keep its collections from changing pace
# from run to run, and two collector threads match the two Spark task slots.
# The rest is the module access Spark needs on Java 17 (what spark-submit adds).
JVM_OPTS = [
    "-Xms2g",
    "-Xmx2g",
    "-Xmn1g",
    "-XX:TieredStopAtLevel=1",
    "-XX:+UseParallelGC",
    "-XX:-UseAdaptiveSizePolicy",
    "-XX:ParallelGCThreads=2",
    "-XX:+IgnoreUnrecognizedVMOptions",
    "-Djdk.reflect.useDirectMethodHandle=false",
    "-Dio.netty.tryReflectionSetAccessible=true",
] + [
    f"--add-opens=java.base/{p}=ALL-UNNAMED"
    for p in (
        "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
        "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
        "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
        "sun.util.calendar",
    )
]


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_files():
    """Every file the build reads, in a stable order."""
    roots = [ROOT / "src" / "main", BENCH / "src" / "main", ROOT / "project", BENCH / "project"]
    files = [ROOT / "build.sbt", BENCH / "build.sbt"]
    for r in roots:
        if r.is_dir():
            files += [p for p in r.rglob("*")
                      if p.is_file() and "target" not in p.relative_to(r).parts]
    return sorted(files)


def stamp():
    h = hashlib.sha256()
    for p in source_files():
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def run_bounded(cmd, cwd, timeout, capture):
    """Runs `cmd` in its own process group; kills the whole group on timeout."""
    proc = subprocess.Popen(cmd, cwd=cwd, start_new_session=True, text=True,
                            stdout=subprocess.PIPE if capture else None)
    try:
        out, _ = proc.communicate(timeout=timeout)
        return proc.returncode, out
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def classpath():
    """The runtime classpath, building first when the sources changed."""
    cached = OUT / f"classpath-{stamp()}.txt"
    if cached.is_file():
        return cached.read_text().strip()
    t0 = time.time()
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "export Runtime/fullClasspath"]
    try:
        code, out = run_bounded(cmd, BENCH, BUILD_TIMEOUT_S, capture=True)
    except subprocess.TimeoutExpired:
        fail(f"build did not finish within {BUILD_TIMEOUT_S} s")
    if code != 0:
        sys.stderr.write(out[-4000:])
        fail(f"build failed (sbt exit {code})")
    lines = [ln.strip() for ln in out.splitlines() if ln.strip()]
    cp = next((ln for ln in reversed(lines)
               if not ln.startswith("[") and "perfbench" in ln and os.pathsep in ln), None)
    if cp is None:
        sys.stderr.write(out[-4000:])
        fail("build printed no classpath")
    OUT.mkdir(parents=True, exist_ok=True)
    cached.write_text(cp + "\n")
    print(f"perfbench: built in {time.time() - t0:.0f} s", file=sys.stderr)
    return cp


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                           text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    a = ap.parse_args()

    if not (ROOT / "build.sbt").is_file() or not (ROOT / "src" / "main" / "scala").is_dir():
        fail(f"no program sources next to {BENCH.name}/ (expected build.sbt and src/main/scala)")

    cp = classpath()
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    cmd = (["java", f"-Djava.io.tmpdir={tmp}"] + JVM_OPTS +
           ["-cp", cp, "repro.perfbench.Main",
            "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
            "--trace", a.trace, "--out", str(OUT / "runs"), "--git-sha", git_sha()])
    try:
        code, out = run_bounded(cmd, ROOT, RUN_TIMEOUT_S, capture=True)
    except subprocess.TimeoutExpired:
        fail(f"run did not finish within {RUN_TIMEOUT_S} s")
    sys.stdout.write(out)
    sys.stdout.flush()
    if code != 0:
        fail(f"run failed (exit {code})", code=code if code > 0 else 3)


if __name__ == "__main__":
    main()
