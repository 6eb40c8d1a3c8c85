"""Regenerate emit_digests.txt from the current THF output.

Run from the repository root:  python3 perfbench/freeze_emit.py

The digests pin the exact bytes `ddlkit embed --thf -` writes for every
formula of the emit pool, so the emit workload checks THF byte
stability.  Regenerate them only when a change to the THF output is
intended.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import ddlkit.cli  # noqa: E402
from workloads import (EMIT_DIGESTS, EMIT_POOL_SEED, EMIT_POOL_SIZE,  # noqa: E402
                       _cli, emit_digest, emit_pool)


def main() -> int:
    lines = [f"# sha256[:20] of `ddlkit embed --formula F --thf -` for the "
             f"{EMIT_POOL_SIZE} formulas of workloads.emit_pool() "
             f"(seed {EMIT_POOL_SEED}), one per line in pool order"]
    for f in emit_pool():
        rc, text = _cli(ddlkit, ["embed", "--formula", f, "--thf", "-"])
        if rc != 0:
            print(f"emit failed on {f!r}", file=sys.stderr)
            return 1
        lines.append(emit_digest(text.encode("utf-8")))
    EMIT_DIGESTS.write_text("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
