#!/usr/bin/env python3
"""Build the engine's worker daemon and the benchmark, then run the benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Both builds are release builds into CARGO_TARGET_DIR (default
`.bench_build` under the current directory), offline. The spawned path runs
`mpc_workerd` from the repository's own workspace; the benchmark is a
package of its own in this directory. Build output goes to standard error,
so the benchmark's result stays the last line of standard output. Spans of a
traced run are written under `.bench_out/`.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    env = dict(os.environ)
    target = Path(env.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    env["CARGO_TARGET_DIR"] = str(target)
    cargo = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path"]
    builds = [
        cargo + [str(ROOT / "Cargo.toml"), "-p", "mpc-net", "--bin", "mpc_workerd"],
        cargo + [str(HERE / "Cargo.toml")],
    ]
    for cmd in builds:
        built = subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr)
        if built.returncode != 0:
            print(f"perfbench: build failed: {' '.join(cmd)}", file=sys.stderr)
            return built.returncode or 1
    release = target / "release"
    run = subprocess.run(
        [
            str(release / "perfbench"),
            *sys.argv[1:],
            "--workerd",
            str(release / "mpc_workerd"),
            "--out",
            str(ROOT / ".bench_out"),
        ],
        cwd=ROOT,
    )
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
