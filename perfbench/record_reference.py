"""Record perfbench/reference.json: headline results of every config at the default seed.

Run from the repository root:  python3 perfbench/record_reference.py
It refuses to write when any check row fails.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from gate import REFERENCE_PATH
from workloads import DEFAULT_SEED, HEADLINE, WORKLOADS, load_configs

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from condensate_lab import cli

    reference = {}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for workload in WORKLOADS:
            for name, cfg in load_configs(cli, ROOT, workload, DEFAULT_SEED):
                report = cli.run(cfg, Path(tmp) / name)
                if not report.passed():
                    print(f"{name}: a check row fails; nothing written", file=sys.stderr)
                    return 1
                reference[name] = {
                    "checks": len(report.checks),
                    "results": {key: report.results[key] for key in HEADLINE[name]},
                }
                print(f"recorded {name}", flush=True)
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
