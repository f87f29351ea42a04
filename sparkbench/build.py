"""Build file of the Spark end-to-end benchmark.

Compiles the program (`src/main/scala`) together with the benchmark's own
Scala sources (`sparkbench/scala`) into `.bench_build/classes`, with the
Scala compiler that ships in the Spark distribution's jar directory. A
digest of every source file is stored next to the classes, so a checkout
is compiled once and rebuilt only when a source changes.

    python3 sparkbench/build.py        # from the root of a checkout
"""

import hashlib
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
BUILD_DIR = Path(".bench_build")
CLASSES = BUILD_DIR / "classes"
STAMP = BUILD_DIR / "classes.sha256"

# The DuckDB oracle is the only program file that needs a jar outside the
# Spark distribution, and the benchmark does not call it.
EXCLUDED = {"Oracle.scala"}


class BuildError(Exception):
    pass


def spark_jars(root=Path(".")):
    """Jars of the Spark distribution: $SPARK_HOME/jars, else the directory
    the repository's build.sbt puts on its classpath (`unmanagedBase`)."""
    home = os.environ.get("SPARK_HOME")
    if home:
        jar_dir = Path(home) / "jars"
    else:
        sbt = root / "build.sbt"
        m = re.search(r'unmanagedBase\s*:=\s*file\("([^"]+)"\)', sbt.read_text()) if sbt.exists() else None
        if not m:
            raise BuildError("set SPARK_HOME to a Spark distribution")
        jar_dir = Path(m.group(1))
    jars = sorted(jar_dir.glob("*.jar"))
    if not any(j.name.startswith("scala-compiler") for j in jars):
        raise BuildError(f"no Scala compiler among the jars in {jar_dir}")
    return jars


def sources(root):
    program = root / "src" / "main" / "scala"
    prog = sorted(p for p in program.rglob("*.scala") if p.name not in EXCLUDED)
    bench = sorted((BENCH_DIR / "scala").rglob("*.scala"))
    if not prog:
        raise BuildError(f"no program sources under {program}")
    if not bench:
        raise BuildError(f"no benchmark sources under {BENCH_DIR / 'scala'}")
    return prog + bench


def digest(files, root):
    h = hashlib.sha256()
    for f in files:
        h.update(str(f.relative_to(root)).encode())
        h.update(b"\0")
        h.update(f.read_bytes())
    return h.hexdigest()


def classpath():
    return os.pathsep.join([str(CLASSES.resolve())] + [str(j) for j in spark_jars()])


def build(root=Path(".")):
    """Compiles if any source changed; returns the run classpath."""
    root = root.resolve()
    files = sources(root)
    want = digest(files, root)
    if STAMP.exists() and STAMP.read_text().strip() == want and CLASSES.is_dir():
        return classpath()
    jars = spark_jars()
    shutil.rmtree(CLASSES, ignore_errors=True)
    CLASSES.mkdir(parents=True, exist_ok=True)
    argfile = BUILD_DIR / "scalac.args"
    argfile.write_text("\n".join(str(f) for f in files) + "\n")
    cmd = [
        "java", "-Xss8m", "-Xmx2g", "-XX:-UsePerfData", f"-Djava.io.tmpdir={BUILD_DIR.resolve()}",
        "-cp", os.pathsep.join(str(j) for j in jars),
        "scala.tools.nsc.Main",
        "-nowarn", "-deprecation:false", "-release", "17",
        "-d", str(CLASSES),
        "-classpath", os.pathsep.join(str(j) for j in jars),
        f"@{argfile}",
    ]
    res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if res.returncode != 0:
        raise BuildError("scalac failed:\n" + res.stdout[-4000:])
    STAMP.write_text(want + "\n")
    return classpath()


if __name__ == "__main__":
    try:
        print(build())
    except BuildError as e:
        print(e, file=sys.stderr)
        sys.exit(1)
