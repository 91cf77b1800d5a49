"""Record the reference digests that the correctness gate compares against.

    python3 perfbench/record_reference.py > perfbench/reference.json

Run from the repository root, and only on a commit whose outputs are known to
be right: the digests record what the library computes there.  The file in
this directory was recorded at commit 17a5811 (coinrace 0.1.0), whose outputs
match the golden fixtures and the brute-force oracle.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import gate
import workloads
from run import import_library


def main() -> int:
    src = Path.cwd() / "src"
    sys.path.insert(0, str(src))
    lib = import_library(src)
    advantage = {}
    for game in workloads.band(workloads.LARGE_GAMES) + workloads.band(workloads.SMOKE_GAMES):
        poly = lib.advantage.advantage_polynomial(lib.game.GameParams(*game)).poly
        advantage[workloads.game_key(game)] = gate.coeff_digest(gate.coefficients(poly))
    stdout = {}
    for argv in (["table", "4", "--format", "latex"], ["table", "6"]):
        rc, text = workloads.run_cli(lib, argv)
        if rc != 0:
            raise SystemExit(f"{' '.join(argv)} exited {rc}")
        stdout[" ".join(argv)] = gate.digest(text)
    json.dump({"advantage_sha256": advantage, "cli_stdout_sha256": stdout}, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
