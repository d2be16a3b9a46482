"""Record the SHA-256 of every CLI report the benchmark checks.

``cli.json_digest_match`` counts reports that are byte-identical to the
digests in ``digests.json``.  They were recorded at the seed commit with::

    python3 perfbench/record_digests.py

A change that alters a report on purpose (a new witness, say) re-records
them and says so.  Only operations that decide are recorded.
"""

from __future__ import annotations

import json
import os
import sys

import run


def main() -> int:
    os.chdir(run.ROOT)
    sys.path.insert(0, str(run.SRC))
    digests = {}
    for workload in ("witness_search", "gauge_pipeline"):
        for record in run.run_pass(run.build_ops(workload, 0)):
            if record.outcome == "decided":
                digests[record.label] = record.info["sha256"]
    path = run.HERE / "digests.json"
    path.write_text(json.dumps(dict(sorted(digests.items())), indent=1) + "\n")
    print(f"{len(digests)} digests written to {path.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
