"""Record the SHA-256 of every command the cli workload can run.

    python3 perfbench/record_cli_digests.py

writes perfbench/cli_digests.json.  CLI output must stay byte-identical, so
run this only on a commit whose output is the reference; the cli workload
fails any operation whose output differs from the recorded digest.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from corrspace import cli  # noqa: E402
from workloads import DIGESTS, all_cli_commands  # noqa: E402


def main() -> int:
    digests = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        out = str(Path(tmp) / "out")
        for argv in all_cli_commands():
            if cli.main([*argv, "--out", out]) != 0:
                print(f"command failed: {' '.join(argv)}", file=sys.stderr)
                return 1
            digests[" ".join(argv)] = hashlib.sha256(Path(out).read_bytes()).hexdigest()
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"{len(digests)} digests written to {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
