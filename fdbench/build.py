#!/usr/bin/env python3
"""Build file of the benchmark.

Compiles the program's sources (src/main/scala at the repository root) and
the benchmark's (fdbench/src) with the Scala compiler that ships in Spark's
jars directory into fdbench/.build/fdbench.jar. Then a short training run
(repro.fdbench.Train) writes a class-data-sharing archive of the classes
Spark and the program load, which cuts the start-up of every run by about
half. A stamp of the sources' hash skips both when nothing changed.

    python3 fdbench/build.py      # prints the jar
"""
import hashlib
import os
import shutil
import subprocess
import sys
import zipfile

sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(HERE, ".build")
JAR = os.path.join(BUILD, "fdbench.jar")
ARCHIVE = os.path.join(BUILD, "fdbench.jsa")
STAMP = os.path.join(BUILD, "stamp")
# Heap fixed at both ends so its sizing does not vary between runs.
HEAP = "3g"
# What Spark's own launcher opens on Java 17.
JAVA_OPENS = [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in (
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
    "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "jdk.internal.ref",
    "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar")]
SOURCE_DIRS = [os.path.join(ROOT, "src", "main", "scala"), os.path.join(HERE, "src")]


class BuildError(Exception):
    pass


def spark_jars():
    """The jars directory of the Spark distribution: $SPARK_HOME, else spark-submit's."""
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if not submit:
            raise BuildError("set SPARK_HOME or put spark-submit on PATH")
        home = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    jars = os.path.join(home, "jars")
    if not any(f.startswith("scala-compiler") for f in os.listdir(jars)):
        raise BuildError(f"no scala-compiler jar in {jars}")
    return jars


def java():
    home = os.environ.get("JAVA_HOME")
    return os.path.join(home, "bin", "java") if home else "java"


def sources():
    for d in SOURCE_DIRS:
        if not os.path.isdir(d):
            raise BuildError(f"missing source directory {os.path.relpath(d, ROOT)}")
    found = sorted(os.path.join(dp, f) for d in SOURCE_DIRS
                   for dp, _, fs in os.walk(d) for f in fs if f.endswith(".scala"))
    if not found:
        raise BuildError("no Scala sources")
    return found


def jvm(work, archive_flag):
    """The pinned JVM command line, up to the main class."""
    return [java(), f"-Xms{HEAP}", f"-Xmx{HEAP}", "-XX:+UseParallelGC", "-XX:-UsePerfData", archive_flag,
            "-Xlog:disable", "-Xlog:all=warning:stderr", *JAVA_OPENS,
            "-Djdk.reflect.useDirectMethodHandle=false",
            "-Dio.netty.tryReflectionSetAccessible=true",
            "-Dlog4j2.configurationFile=" + os.path.join(HERE, "log4j2.properties"),
            "-Djava.io.tmpdir=" + os.path.join(work, "tmp"),
            "-cp", JAR + os.pathsep + os.path.join(spark_jars(), "*")]


def jvm_env(work):
    os.makedirs(os.path.join(work, "tmp"), exist_ok=True)
    return dict(os.environ, SPARK_LOCAL_DIRS=os.path.join(work, "spark"))


def build():
    """Compiles and trains if the sources changed; returns the jar."""
    srcs = sources()
    jars = spark_jars()
    h = hashlib.sha256()
    for s in srcs:
        h.update(os.path.relpath(s, ROOT).encode())
        with open(s, "rb") as f:
            h.update(f.read())
    stamp = h.hexdigest()
    if os.path.exists(JAR) and os.path.exists(STAMP) and open(STAMP).read() == stamp:
        return JAR
    shutil.rmtree(BUILD, ignore_errors=True)
    classes = os.path.join(BUILD, "classes")
    os.makedirs(classes)
    cmd = [java(), "-Xss8m", "-Xmx2g", "-cp", os.path.join(jars, "*"),
           "scala.tools.nsc.Main", "-usejavacp", "-nowarn", "-d", classes] + srcs
    print(f"[fdbench] compiling {len(srcs)} sources", file=sys.stderr)
    if subprocess.run(cmd, stdout=sys.stderr, timeout=600).returncode != 0:
        shutil.rmtree(BUILD, ignore_errors=True)
        raise BuildError("compilation failed")
    with zipfile.ZipFile(JAR, "w") as z:
        for dp, _, fs in os.walk(classes):
            for f in fs:
                z.write(os.path.join(dp, f), os.path.relpath(os.path.join(dp, f), classes))
    shutil.rmtree(classes)
    # The archive only speeds start-up: a run goes on without it.
    print("[fdbench] training run for the class-data archive", file=sys.stderr)
    work = os.path.join(BUILD, "train")
    train = jvm(work, "-XX:ArchiveClassesAtExit=" + ARCHIVE) + ["repro.fdbench.Train", work]
    r = subprocess.run(train, stdout=sys.stderr, env=jvm_env(work), timeout=300)
    shutil.rmtree(work, ignore_errors=True)
    if r.returncode != 0 and os.path.exists(ARCHIVE):
        os.remove(ARCHIVE)
    with open(STAMP, "w") as f:
        f.write(stamp)
    return JAR


if __name__ == "__main__":
    try:
        print(build())
    except BuildError as e:
        print(f"fdbench build: {e}", file=sys.stderr)
        sys.exit(2)
