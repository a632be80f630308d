"""Write perfbench/expected/<workload>.json from one certify run per workload.

Usage (from the repository root): python3 perfbench/record_expected.py

The expected files hold the decisive content that every later commit must
reproduce; regenerate them only on a commit whose verdicts are trusted.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from run import EXPECTED_DIR, ROOT, WORKLOADS, Cli, FlagOrder, decisive_content, warm_up


def main() -> int:
    EXPECTED_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        cli = Cli(Path(tmp))
        warm_up(cli)
        for workload in WORKLOADS:
            child = cli.certify(FlagOrder(workload, 0).next())
            if child.code != 0:
                raise SystemExit(f"{workload}: certify exited {child.code}: {child.stderr}")
            content = decisive_content(json.loads(cli.cert.read_bytes()))
            path = EXPECTED_DIR / f"{workload}.json"
            path.write_text(json.dumps(content, indent=1, sort_keys=True) + "\n", encoding="utf-8")
            print(f"{path.relative_to(ROOT)}: {len(content)} sections")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
