#!/usr/bin/env python3
"""CLI usage-error gate.

Runs `dwm_cli` with flag values the drivers cannot accept and requires exit
status exactly 2 (usage error) for each: a CHECK-abort (SIGABRT) or a
silent success both fail the gate. Covers a non-power-of-two --base-leaves
on dbuild and a negative --budget on build and dbuild.

Runs as a ctest (`cli_flag_errors`):
  cli_flag_errors.py --cli build/tools/dwm_cli
"""

import argparse
import os
import subprocess
import sys
import tempfile

# (description, argv tail); --input and --output are appended per case.
CASES = [
    ("dbuild --base-leaves 300",
     ["dbuild", "--algo", "dgreedy-abs", "--budget", "32",
      "--base-leaves", "300"]),
    ("build --budget -5",
     ["build", "--algo", "greedy-abs", "--budget", "-5"]),
    ("dbuild --budget -5",
     ["dbuild", "--algo", "dgreedy-abs", "--budget", "-5"]),
]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cli", required=True,
                        help="path to the dwm_cli binary")
    args = parser.parse_args()

    failures = 0
    with tempfile.TemporaryDirectory(prefix="dwm_cli_flags_") as workdir:
        data = os.path.join(workdir, "data.bin")
        subprocess.run([args.cli, "gen", "--dataset", "uniform", "--n",
                        "1024", "--output", data],
                       check=True, stdout=subprocess.DEVNULL)
        for name, argv in CASES:
            output = os.path.join(workdir, "out.dwm")
            proc = subprocess.run(
                [args.cli] + argv + ["--input", data, "--output", output],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            if proc.returncode == 2 and proc.stderr.strip():
                print(f"ok   {name}: exit 2 ({proc.stderr.strip()})")
            else:
                failures += 1
                print(f"FAIL {name}: exit {proc.returncode}, stderr "
                      f"{proc.stderr.strip()!r}")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
