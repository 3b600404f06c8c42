#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload flagship-edit --seed 1 --seconds 20 --trace 0

Builds perfbench/perfbench.exe with dune (the first build compiles the
whole library), then runs one workload.  Everything the run writes
stays inside the checkout: the dune build tree under _build/, plugin
sources, compiler temporaries and served program files under a
per-run directory in .perfbench/ that is removed afterwards, and the
traced run's span file in .perfbench/.  The benchmark's result is the
last line of standard output.
"""

import hashlib
import os
import shutil
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def source_rev(root):
    """The git revision when the checkout is a repository, else a
    digest of the sources the benchmark builds from."""
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, env=env,
                capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha1()
    for top in ("lib", "perfbench", "dune-project"):
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, root).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "src-" + h.hexdigest()[:12]


def run(cmd, env, timeout, stdout=None):
    """Run [cmd] in its own process group; on timeout kill the whole
    group and wait for it."""
    p = subprocess.Popen(cmd, env=env, stdout=stdout, start_new_session=True)
    try:
        return p.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        fail("%s timed out after %d s" % (cmd[0], timeout))
    except BaseException:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        raise


def main():
    root = os.getcwd()
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a source checkout (no dune-project or lib/ here)")
    state = os.path.join(root, ".perfbench")
    work = os.path.join(state, "run-%d" % os.getpid())
    os.makedirs(work, exist_ok=True)
    env = dict(os.environ)
    env.update(
        DUNE_CACHE="disabled",
        TMPDIR=work,
        PED_BUILD_DIR=os.path.join(root, "_build", "default"),
    )
    try:
        code = run(["dune", "build", "--root", ".", "./perfbench/perfbench.exe"],
                   env, BUILD_TIMEOUT_S, stdout=sys.stderr)
        if code != 0:
            fail("build failed (exit %d)" % code)
        sys.stdout.flush()
        code = run([EXE] + sys.argv[1:] +
                   ["--tmp", work, "--out", state, "--rev", source_rev(root)],
                   env, RUN_TIMEOUT_S)
        if code != 0:
            fail("benchmark exited with code %d" % code)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
