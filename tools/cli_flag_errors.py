#!/usr/bin/env python3
"""CLI usage-error gate.

Runs `dwm_cli` with flag values it cannot accept and requires exit status
exactly 2 (usage error) and a reason on stderr for each: a CHECK-abort
(SIGABRT) or a silent success both fail the gate. Covers numeric flags that
break the one parse rule of src/common/parse.h (garbage, trailing junk,
NaN) or fall outside the range the command takes, and a --base-leaves the
chosen driver cannot use.

Runs as a ctest (`cli_flag_errors`):
  cli_flag_errors.py --cli build/tools/dwm_cli
"""

import argparse
import os
import subprocess
import sys
import tempfile

# (description, argv); {data} is a 1024-value input, {synopsis} a synopsis
# built from it, {out} a scratch output path.
BUILD = ["build", "--input", "{data}", "--output", "{out}",
         "--algo", "greedy-abs"]
DBUILD = ["dbuild", "--input", "{data}", "--output", "{out}"]
CASES = [
    ("dbuild --base-leaves 300",
     DBUILD + ["--algo", "dgreedy-abs", "--budget", "32",
               "--base-leaves", "300"]),
    ("build --budget -5", BUILD + ["--budget", "-5"]),
    ("dbuild --budget -5", DBUILD + ["--algo", "dgreedy-abs", "--budget", "-5"]),
    ("build --budget 12abc", BUILD + ["--budget", "12abc"]),
    ("build --budget abc", BUILD + ["--budget", "abc"]),
    ("gen --n 1024abc",
     ["gen", "--dataset", "uniform", "--n", "1024abc", "--output", "{out}"]),
    ("gen --n -4",
     ["gen", "--dataset", "uniform", "--n", "-4", "--output", "{out}"]),
    ("point --index 5xyz",
     ["point", "--synopsis", "{synopsis}", "--index", "5xyz"]),
    ("dbuild --algo dmhs --eps -1",
     DBUILD + ["--algo", "dmhs", "--budget", "32", "--eps", "-1"]),
    ("dbuild --algo dmhs --eps nan",
     DBUILD + ["--algo", "dmhs", "--budget", "32", "--eps", "nan"]),
    ("dbuild --algo dih --quantum 0",
     DBUILD + ["--algo", "dih", "--budget", "32", "--quantum", "0"]),
    ("dbuild --threads abc",
     DBUILD + ["--algo", "dgreedy-abs", "--budget", "32", "--threads", "abc"]),
]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cli", required=True,
                        help="path to the dwm_cli binary")
    args = parser.parse_args()

    failures = 0
    with tempfile.TemporaryDirectory(prefix="dwm_cli_flags_") as workdir:
        paths = {
            "data": os.path.join(workdir, "data.bin"),
            "synopsis": os.path.join(workdir, "data.dwm"),
            "out": os.path.join(workdir, "out"),
        }
        subprocess.run([args.cli, "gen", "--dataset", "uniform", "--n",
                        "1024", "--output", paths["data"]],
                       check=True, stdout=subprocess.DEVNULL)
        subprocess.run([args.cli, "build", "--input", paths["data"],
                        "--algo", "greedy-abs", "--budget", "32",
                        "--output", paths["synopsis"]],
                       check=True, stdout=subprocess.DEVNULL)
        for name, argv in CASES:
            proc = subprocess.run(
                [args.cli] + [arg.format(**paths) for arg in argv],
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
