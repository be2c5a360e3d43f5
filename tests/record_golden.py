"""Record the golden output of every pinned CLI command.

    python3 tests/record_golden.py

runs each command of ``tests/golden/commands.txt`` in-process, in file
order and from the repository root, and writes its exact stdout to
``tests/golden/<name>.json`` or ``.csv``, where ``<name>`` is the command
with spaces as ``_`` and slashes as ``~``.  It removes every other file
there.  ``tests/test_golden.py`` checks each file byte for byte.

CLI output must stay byte-identical for fixed seeds, so run this only on a
commit whose output is the reference, and list every number it moves in
CHANGES.md.  Nothing else writes under ``tests/golden/``.
"""

from __future__ import annotations

import io
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
COMMANDS = GOLDEN / "commands.txt"

sys.path.insert(0, str(ROOT / "src"))

from corrspace import cli  # noqa: E402


def commands() -> list[str]:
    """The pinned commands, in file order; ``#`` lines are comments."""
    lines = COMMANDS.read_text(encoding="ascii").splitlines()
    return [line for line in lines if line.strip() and not line.startswith("#")]


def golden_name(command: str) -> str:
    """The file name of a command's output, without its suffix."""
    return command.replace(" ", "_").replace("/", "~")


def golden_suffix(output: bytes) -> str:
    return ".json" if output.startswith(b"{") else ".csv"


def golden_files() -> dict[str, Path]:
    """The recorded output files, by name without suffix."""
    return {path.stem: path for path in GOLDEN.iterdir() if path != COMMANDS}


def run(command: str) -> bytes:
    """Run one command in-process from the repository root; its stdout bytes.

    A relative path in the command (``--counts tests/golden/...``) is read
    from the root.  A nonzero exit raises with the command's stderr.
    """
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(command.split())
    finally:
        os.chdir(cwd)
    if code != 0:
        raise RuntimeError(f"{command!r} exited {code}: {err.getvalue()}")
    return out.getvalue().encode("ascii")


def main() -> int:
    kept = {COMMANDS}
    written = 0
    for command in commands():
        output = run(command)
        path = GOLDEN / (golden_name(command) + golden_suffix(output))
        if path in kept:
            print(f"two commands share the file {path.name}", file=sys.stderr)
            return 1
        kept.add(path)
        if not path.exists() or path.read_bytes() != output:
            path.write_bytes(output)
            written += 1
    stale = [path for path in GOLDEN.iterdir() if path not in kept]
    for path in stale:
        path.unlink()
    print(f"{len(kept) - 1} commands: {written} files written, {len(stale)} removed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
