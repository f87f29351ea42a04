"""Runs one workload of the Spark end-to-end benchmark.

    python3 sparkbench/run.py --workload stock-batch --seed 7 --seconds 8 --trace 0

Run from the root of a checkout. Builds the program and the benchmark
(see build.py), then runs `bench.Main` in one JVM and prints its output;
the last line is the JSON result. Everything the run writes stays under
`.bench_build/` in the checkout and is removed at the end, except the JVM
log of a failed run.

Extra options, used by the self-test: `--scale tiny` shrinks every
workload; `--perturb 1` alters one result row before it is checked.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # write nothing into the benchmark's own directory
sys.path.insert(0, str(Path(__file__).resolve().parent))
import build  # noqa: E402

WORKLOADS = ("stock-batch", "rideshare-batch", "rideshare-stream")
HEAP = "3g"
RUN_LIMIT_S = 170

# Module access Spark needs on Java 17 (what spark-submit adds itself).
JAVA_OPENS = [
    "--add-opens=java.base/" + p + "=ALL-UNNAMED"
    for p in ("java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
              "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
              "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
              "sun.util.calendar")
]


def git_sha():
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
        return res.stdout.strip() if res.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def result_line(stdout):
    lines = [l for l in stdout.splitlines() if l.strip()]
    if not lines:
        return None
    try:
        res = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    if set(res) != {"correct", "attempted", "failed", "metrics"} or res["attempted"] < 1:
        return None
    return res


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=8)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    ap.add_argument("--perturb", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    try:
        cp = build.build()
    except build.BuildError as e:
        print(e, file=sys.stderr)
        return 2

    work = (build.BUILD_DIR / f"run-{os.getpid()}").resolve()
    work.mkdir(parents=True, exist_ok=True)
    log = work / "jvm.log"
    cmd = ["java", f"-Xms{HEAP}", f"-Xmx{HEAP}", "-XX:+UseParallelGC", "-XX:-UsePerfData",
           *JAVA_OPENS,
           f"-Djava.io.tmpdir={work}",
           f"-Dsparkbench.work={work}",
           f"-Dsparkbench.git={git_sha()}",
           f"-Dsparkbench.sources={build.STAMP.read_text().strip()}",
           "-cp", cp, "bench.Main",
           "--workload", a.workload, "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--scale", a.scale, "--perturb", str(a.perturb)]
    if a.seed is not None:
        cmd += ["--seed", str(a.seed)]

    with open(log, "w") as err:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, text=True,
                                start_new_session=True)

        def stop(signum, _frame):
            os.killpg(proc.pid, signal.SIGKILL)
            sys.exit(128 + signum)
        signal.signal(signal.SIGTERM, stop)
        signal.signal(signal.SIGINT, stop)
        try:
            stdout, _ = proc.communicate(timeout=RUN_LIMIT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            print(f"benchmark run exceeded {RUN_LIMIT_S} s", file=sys.stderr)
            stdout = ""
        finally:
            # Nothing the JVM started may outlive the run.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
    res = result_line(stdout) if proc.returncode == 0 else None
    if res is None:
        tail = log.read_text()[-6000:] if log.exists() else ""
        print(stdout[-4000:], file=sys.stderr)
        print(tail, file=sys.stderr)
        print(f"no result (exit {proc.returncode}); JVM log kept in {log}", file=sys.stderr)
        return 1
    shutil.rmtree(work, ignore_errors=True)
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
