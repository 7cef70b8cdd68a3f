#!/usr/bin/env python3
"""Build the benchmark and the maiad daemon from source, then run one benchmark run.

Run from the repository root:

    python3 perfbench/run.py --workload suite --seed 1 --seconds 20 --trace 0

Every build product, and the Go build cache, goes under .bench_build/ in the
current directory, so a run reads and writes nothing outside the checkout.
The benchmark's own flags are passed through unchanged; see perfbench/README.md.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    out = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(out, "gocache"),
        "GOPATH": os.path.join(out, "gopath"),
        "GOMODCACHE": os.path.join(out, "gopath", "pkg", "mod"),
        # Go keeps its telemetry counters under the user config directory.
        "XDG_CONFIG_HOME": os.path.join(out, "config"),
        "GOENV": "off",
        "GOFLAGS": "-mod=mod",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    bench = os.path.join(out, "perfbench")
    maiad = os.path.join(out, "maiad")
    builds = [
        (os.path.join(root, "perfbench"), ["go", "build", "-o", bench, "."]),
        (root, ["go", "build", "-o", maiad, "./cmd/maiad"]),
    ]
    for cwd, cmd in builds:
        # Build output goes to stderr: the last stdout line is the result.
        if subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr).returncode != 0:
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            return 1
    return subprocess.run([bench, "--maiad", maiad] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
