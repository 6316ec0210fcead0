#!/usr/bin/env python3
"""Build vaultd and the end-to-end benchmark from source, then run it.

Usage (from anywhere inside a checkout):

    python3 e2e_bench/run.py [--workload NAME] [--seed S] [--seconds N] [--trace 0|1]

Builds `vaultd` with the repository's own workspace and `e2e_bench`
with this directory's package, both in release mode into
`$CARGO_TARGET_DIR` (default `target/` at the repository root), and
then replaces itself with `e2e_bench`, run from the repository root
with the given arguments, so a signal sent to this command reaches the
benchmark (whose `vaultd` children die with it). Build output goes to
standard error, so the benchmark's result stays the last line of
standard output. Exits non-zero when a build fails or the benchmark
reports a failure.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    env = dict(os.environ)
    target = Path(env.get("CARGO_TARGET_DIR", "target"))
    if not target.is_absolute():
        target = ROOT / target
    env["CARGO_TARGET_DIR"] = str(target)
    builds = [
        ["cargo", "build", "--release", "--offline", "-q", "-p", "vault-server", "--bin", "vaultd"],
        ["cargo", "build", "--release", "--offline", "-q", "--manifest-path", str(HERE / "Cargo.toml")],
    ]
    for cmd in builds:
        try:
            built = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        except OSError as e:
            print(f"run.py: cannot run {cmd[0]}: {e}", file=sys.stderr)
            return 1
        if built.returncode != 0:
            print(f"run.py: build failed: {' '.join(cmd)}", file=sys.stderr)
            return 1
    bench = str(target / "release" / "e2e_bench")
    os.chdir(ROOT)
    sys.stdout.flush()
    os.execve(bench, [bench, *sys.argv[1:]], env)


if __name__ == "__main__":
    sys.exit(main())
