"""Runs ``simra-dram serve`` with the query-path spans installed.

    python3 serve_launcher.py SPANS.json serve --results-dir DIR --port 0

Wraps the service's public entry points, hands the remaining arguments
to the CLI, and when the server stops (SIGTERM drains it) writes every
recorded span to ``SPANS.json``.
"""

import json
import sys
from pathlib import Path

from spans import SpanRecorder, Patches

ROUTES = {"figure": 1, "figures": 2, "fleet_summary": 3, "ci": 4}
"""Route codes stored as the count of each ``handle`` span."""


def route_code(target: str) -> int:
    path = target.partition("?")[0]
    if path == "/figures":
        return ROUTES["figures"]
    if path.startswith("/figures/"):
        return ROUTES["figure"]
    if path == "/fleet/summary":
        return ROUTES["fleet_summary"]
    if path.startswith("/ci/"):
        return ROUTES["ci"]
    return 0


def main(argv) -> int:
    out = Path(argv[0])
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from repro import cli
    from repro.characterization.reader import ResultReader
    from repro.service.api import ResultService

    recorder = SpanRecorder()
    with Patches(recorder) as patches:
        patches.span(ResultService, "handle", "handle",
                     count=lambda a, k, _: route_code(a[2]))
        patches.span(ResultReader, "load", "reader.load")
        # A digest whose memo was not reused was re-derived from disk.
        patches.span(ResultReader, "content_digest", "reader.content_digest",
                     before=lambda a, k: a[0].digest_reuses,
                     count=lambda a, k, reuses, _: int(
                         a[0].digest_reuses == reuses))
        code = cli.main(argv[1:])
    out.write_text(json.dumps(recorder.spans))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
