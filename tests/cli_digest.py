"""One SHA-256 over the CLI's behaviour on every sample object.

Runs each subcommand in-process over ``sample_objects/``, in text and in
``--json`` form: ``object`` and ``yb`` on each file, ``yb --lam=X`` on
each file for each X in ``LAMS``, ``hom`` in each ``--form`` and
``pbw --oracle`` to the default degree 3 and to ``--degree 6`` on each
ordered pair, ``bialgebra`` and ``det`` on each ordered triple (files may
repeat) and on each run of 4 and of 5 consecutive files in sorted
order, each in text and ``--json`` form; then argv forms that argparse
parses by rarer paths: ``--js`` for ``--json``, ``--form=both``,
``--degree=4`` and options before ``--`` and the files.  Usage errors are
left out: argparse wraps their text to the terminal's width.  Prints the
number of calls and one digest over (argv, exit code, stdout, stderr) of
every call, so two checkouts behave the same on these inputs iff they
print the same line:

    python tests/cli_digest.py

The package is imported from this checkout's ``src/``.  Not collected by
pytest (no ``test_`` prefix).
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from itertools import product
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from qlincat.cli import main  # noqa: E402

# explicit braid coefficients: 0 and 1, the refused -1 (a repeated
# coefficient), and a negative, an integer and a fractional value; the
# "--lam=X" form lets argparse read a negative fraction as a value
LAMS = ("0", "1", "2", "-1", "-1/3", "5/2")


def calls() -> list[list[str]]:
    files = sorted(f"sample_objects/{p.name}" for p in (ROOT / "sample_objects").glob("*.json"))
    out = []
    for f in files:
        out += [["object", f], ["yb", f]] + [["yb", f, f"--lam={lam}"] for lam in LAMS]
    for pair in product(files, repeat=2):
        out += [["hom", *pair, "--form", form] for form in ("general", "sudbery", "both")]
        out += [["pbw", *pair, "--oracle"], ["pbw", *pair, "--oracle", "--degree", "6"]]
    for triple in product(files, repeat=3):
        out += [["bialgebra", *triple], ["det", *triple]]
    for k in (4, 5):
        for i in range(len(files) - k + 1):
            window = files[i : i + k]
            out += [["bialgebra", *window], ["det", *window]]
    out = [argv + tail for argv in out for tail in ([], ["--json"])]
    # valid forms that take argparse's rarer paths: an abbreviated option,
    # --opt=value and "--" before the files
    for f in files:
        out += [["object", f, "--js"], ["yb", "--js", "--", f]]
    for pair in product(files, repeat=2):
        out += [["hom", *pair, "--form=both"], ["pbw", *pair, "--oracle", "--degree=4"],
                ["hom", "--form", "sudbery", "--js", "--", *pair]]
    for i in range(len(files) - 3):
        window = files[i : i + 4]
        out += [["bialgebra", "--json", "--", *window], ["det", "--js", "--", *window]]
    return out


def run(argv: list[str]) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = f"exit {exc.code}"
        except Exception as exc:  # a traceback is behaviour too: record it
            code = f"raised {type(exc).__name__}: {exc}"
    return argv, code, out.getvalue(), err.getvalue()


def main_digest() -> None:
    os.chdir(ROOT)
    digest = hashlib.sha256()
    argvs = calls()
    for argv in argvs:
        digest.update(json.dumps(run(argv)).encode("utf-8"))
    print(f"{len(argvs)} calls {digest.hexdigest()}")


if __name__ == "__main__":
    main_digest()
