"""Regenerate the engine-equivalence golden fixtures.

Run from the repo root::

    PYTHONPATH=src:tests/engine python tests/engine/generate_fixtures.py

The committed fixtures were produced by the pre-refactor Trusted
Server's monolithic ``_process`` method (commit 58784ca); regenerating
them against the staged engine is only legitimate when a *deliberate*
semantic change has been reviewed and documented — the whole point of
the fixture is to catch accidental drift.
"""

from __future__ import annotations

import gzip
import json
from pathlib import Path

from repro.engine.context import AnonymitySetScope

import workload

FIXTURE_DIR = Path(__file__).parent / "fixtures"


def main() -> None:
    FIXTURE_DIR.mkdir(parents=True, exist_ok=True)
    for scope in AnonymitySetScope:
        record = workload.run_workload(scope)
        path = FIXTURE_DIR / f"equivalence_{scope.value}.json.gz"
        payload = json.dumps(record, indent=1, sort_keys=True) + "\n"
        # mtime=0 keeps the archive byte-stable across regenerations,
        # so an unchanged fixture produces no diff.
        with open(path, "wb") as fh:
            with gzip.GzipFile(fileobj=fh, mode="wb", mtime=0) as gz:
                gz.write(payload.encode("utf-8"))
        print(f"wrote {path} ({len(record['events'])} events)")


if __name__ == "__main__":
    main()
