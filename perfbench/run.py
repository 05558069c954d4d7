#!/usr/bin/env python3
"""Build and run the two-clock benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload hot-nulgrind --seed 1 --seconds 12 --trace 0

It builds perfbench/perfbench.exe with dune (from source, inside the
checkout) and runs it with the same arguments; the last line of its
standard output is the JSON result.  With --trace 1 the traced run's
spans are written to perfbench-out/spans-<workload>.jsonl.
"""

import os
import subprocess
import sys


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from the root of a source checkout "
              "(no dune-project or lib/ here)", file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/perfbench.exe"],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    args = sys.argv[1:]
    if "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]:
        workload = "run"
        if "--workload" in args:
            workload = (args[args.index("--workload") + 1:] or ["run"])[0]
        os.makedirs("perfbench-out", exist_ok=True)
        args += ["--spans",
                 os.path.join("perfbench-out", "spans-%s.jsonl" % workload)]
    exe = os.path.join("_build", "default", "perfbench", "perfbench.exe")
    return subprocess.run([exe] + args, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
