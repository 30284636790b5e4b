#!/usr/bin/env python3
"""Build and run the end-to-end benchmark of `ssdql serve --store`.

Run from the root of a checkout:

    python3 perfbench/run.py --workload read-hot --seed 1 --seconds 10 --trace 0

Builds bin/ssdql.exe and perfbench/perfbench.exe with dune, then hands
its arguments to perfbench.exe, whose last line of output is the JSON
result.  Exits non-zero, printing no result, when the checkout holds no
ssdql sources to build.
"""

import os
import sys


def main():
    if not (os.path.isfile("dune-project") and os.path.isfile(os.path.join("bin", "ssdql.ml"))):
        sys.stderr.write("perfbench: no ssdql sources here; run from the root of a checkout\n")
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    pid = os.fork()
    if pid == 0:
        # dune's progress output goes to stderr: stdout carries only the result
        os.dup2(2, 1)
        os.execvpe("dune", ["dune", "build", "--root", ".", "--display", "quiet",
                            "bin/ssdql.exe", "perfbench/perfbench.exe"], env)
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        sys.stderr.write("perfbench: build failed\n")
        return 2
    exe = os.path.join("_build", "default", "perfbench", "perfbench.exe")
    ssdql = os.path.join("_build", "default", "bin", "ssdql.exe")
    os.execv(exe, [exe, "--ssdql", ssdql] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
