#!/usr/bin/env python3
"""Build sigserver and the benchmark harness from source, then run the harness.

    python3 perfbench/run.py --workload mem-knn --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout. Everything it builds or writes goes
under .bench_build/ in that checkout: the Go build cache, the two
binaries, the generated dataset, page files and the span dump of a
traced run. The last line of standard output is the result object; the
exit code is the harness's.
"""
import os
import subprocess
import sys


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build = os.path.join(root, ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        TMPDIR=tmp,
        GOTMPDIR=tmp,
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-buildvcs=false",
    )
    bin_dir = os.path.join(build, "bin")
    server = os.path.join(bin_dir, "sigserver")
    harness = os.path.join(bin_dir, "perfbench")
    for pkg_dir, target, out in (
        (root, "./cmd/sigserver", server),
        (os.path.join(root, "perfbench"), ".", harness),
    ):
        # Build output goes to stderr so stdout keeps the result line last.
        r = subprocess.run(["go", "build", "-o", out, target], cwd=pkg_dir, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            print("perfbench: building %s failed" % target, file=sys.stderr)
            return r.returncode or 1
    cmd = [harness, "--server", server, "--work", os.path.join(build, "run")] + sys.argv[1:]
    return subprocess.run(cmd, cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
