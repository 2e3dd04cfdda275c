#!/usr/bin/env python3
"""Record the stdout digest of every CLI command in the benchmark ladders.

    python3 bench/record_digests.py

Run it only when a change to gridperc alters CLI output on purpose; the
benchmark then checks later versions against the new bytes.  The sweep's
``runtime_ms`` column is masked before hashing.
"""

from __future__ import annotations

import json

from oracle import DIGESTS_PATH, stdout_digest
from run import import_gridperc
from workloads import BUDGET_COMMAND, CERTIFY_LADDER, EXHAUSTIVE_LADDER, SWEEP_LADDER, run_cli


def main() -> None:
    gp = import_gridperc()
    commands = [(c, False) for c in CERTIFY_LADDER]
    commands += [(c, True) for c, *_ in SWEEP_LADDER]
    commands += [(c, False) for c, _ in EXHAUSTIVE_LADDER] + [(BUDGET_COMMAND, False)]
    digests = {}
    for command, mask_runtime in commands:
        result = run_cli(gp, command.split())
        digests[command] = stdout_digest(result.out, mask_runtime)
        print(f"exit {result.rc}  {digests[command][:12]}  {command}")
    with open(DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
