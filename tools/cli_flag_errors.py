#!/usr/bin/env python3
"""CLI usage-error gate.

Runs `dwm_cli` with flag values it cannot accept and requires the expected
exit status (2 for a usage error, 1 for a resource failure) and a reason on
stderr for each: a CHECK-abort (SIGABRT) or a silent success both fail the
gate. Covers numeric flags that break the one parse rule of
src/common/parse.h (garbage, trailing junk, NaN) or fall outside the range
the command takes, a --base-leaves the chosen driver cannot use, and a
`gen --n` no vector or no address space can hold.

The serve/query protocol lines follow the same parse rule: each rejected
line piped into `dwm_cli serve` must answer "error: ..." and nothing else,
and `dwm_cli query` must exit 2 on it.

Runs as a ctest (`cli_flag_errors`):
  cli_flag_errors.py --cli build/tools/dwm_cli
"""

import argparse
import os
import subprocess
import sys
import tempfile

# (description, argv[, exit status, default 2]); {data} is a 1024-value
# input, {synopsis} a synopsis built from it, {out} a scratch output path.
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
    # 2^62 doubles: past vector<double>::max_size(), a usage error.
    ("gen --n 2^62",
     ["gen", "--dataset", "uniform", "--n", "4611686018427387904",
      "--output", "{out}"]),
    # 2^50 doubles (2^53 bytes) exceed the 2^47-byte user address space, so
    # the allocation fails at once without touching memory. Only these two
    # sizes are safe to run: any smaller one might really be allocated.
    ("gen --n 2^50",
     ["gen", "--dataset", "uniform", "--n", "1125899906842624",
      "--output", "{out}"], 1),
]

# Protocol lines that break the parse rule, piped one per session into
# `dwm_cli serve` over {packed} (dataset z, algo ga, B=32). `use z ga 32`
# names that shard, so only the '+' makes `use z ga +32` wrong.
BAD_LINES = [
    "point +5", "point 5x", "point 0x10", "point 5 6", "point",
    "sum +1 9", "sum 1 9abc", "avg 1", "use z ga +32", "use z ga 32x",
    "batch +1", "batch 1x", "batch",
]
GOOD_LINES = ["point 5", " point\t5 ", "sum 1 9", "use z ga 32"]


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
            "packed": os.path.join(workdir, "data.dwms"),
        }
        subprocess.run([args.cli, "gen", "--dataset", "uniform", "--n",
                        "1024", "--output", paths["data"]],
                       check=True, stdout=subprocess.DEVNULL)
        subprocess.run([args.cli, "build", "--input", paths["data"],
                        "--algo", "greedy-abs", "--budget", "32",
                        "--output", paths["synopsis"]],
                       check=True, stdout=subprocess.DEVNULL)
        subprocess.run([args.cli, "pack", "--synopsis", paths["synopsis"],
                        "--dataset", "z", "--algo", "ga", "--budget", "32",
                        "--output", paths["packed"]],
                       check=True, stdout=subprocess.DEVNULL)
        for case in CASES:
            name, argv = case[0], case[1]
            want = case[2] if len(case) > 2 else 2
            proc = subprocess.run(
                [args.cli] + [arg.format(**paths) for arg in argv],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            if proc.returncode == want and proc.stderr.strip():
                print(f"ok   {name}: exit {want} ({proc.stderr.strip()})")
            else:
                failures += 1
                print(f"FAIL {name}: exit {proc.returncode} (want {want}), "
                      f"stderr {proc.stderr.strip()!r}")
        for line in BAD_LINES + GOOD_LINES:
            # The trailing `point 5` proves the session went on; a bad
            # `batch` line must not swallow it as the batch's query.
            serve = subprocess.run(
                [args.cli, "serve", "--synopsis", paths["packed"]],
                input=line + "\npoint 5\n", stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True)
            replies = [r for r in serve.stdout.splitlines()
                       if not r.startswith("shard ")]
            bad = line in BAD_LINES
            ok = serve.returncode == 0 and len(replies) == (
                2 if bad or not line.startswith("use") else 1)
            ok = ok and replies[0].startswith("error:") == bad
            ok = ok and not replies[-1].startswith("error:")
            if bad and line.split()[0] in ("point", "sum", "avg"):
                query = subprocess.run(
                    [args.cli, "query", "--synopsis", paths["packed"],
                     "--queries", "-"], input=line + "\n",
                    stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
                ok = ok and query.returncode == 2 and not query.stdout
            kind = "rejected" if bad else "answered"
            if ok:
                print(f"ok   serve {line!r}: {kind}")
            else:
                failures += 1
                print(f"FAIL serve {line!r}: want {kind}, exit "
                      f"{serve.returncode}, replies {replies!r}")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
