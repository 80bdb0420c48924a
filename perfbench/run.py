#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload suite-full --seed 1 --seconds 20 --trace 0

Run from the root of the repository.  The build goes to ./_build with the
shared dune cache off, so the benchmark reads and writes only inside the
checkout.  Arguments are passed to perfbench/main.exe unchanged; the last
line it prints is the JSON result.
"""
import os
import subprocess
import sys

root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
env = dict(os.environ, DUNE_CACHE="disabled")
build = subprocess.run(
    ["dune", "build", "--root", root, "--display", "quiet", "./perfbench/main.exe"],
    cwd=root,
    env=env,
)
if build.returncode != 0:
    sys.exit("perfbench: build failed")
exe = os.path.join(root, "_build", "default", "perfbench", "main.exe")
os.chdir(root)
os.execv(exe, [exe] + sys.argv[1:])
