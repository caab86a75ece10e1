"""``buffopt serve`` with span wrappers, for traced ``service`` runs.

Usage::

    python3 perfbench/traced_serve.py SPANS.jsonl [buffopt serve flags]

Wraps, in this server process only, the admission call
(``OptimizationService.submit``, one span per request, keyed by the
request's ``id``), the supervised execution (``ResilientExecutor.map``,
keyed by net name) and the service journal writes, then runs the
ordinary ``buffopt serve`` entry point.  The spans are written to
``SPANS.jsonl`` when the server has drained and exits.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import add_src_path  # noqa: E402
from spans import SpanRecorder  # noqa: E402


def main(argv) -> int:
    spans_path = Path(argv[0])
    if not add_src_path():
        print("traced_serve: no src/repro in this checkout", file=sys.stderr)
        return 2
    from repro import cli
    from repro.batch.resilience import ResilientExecutor
    from repro.service.cache import ServiceJournal
    from repro.service.server import OptimizationService

    recorder = SpanRecorder()
    submit = OptimizationService.submit
    execute = ResilientExecutor.map

    def traced_submit(self, payload):
        req = payload.get("id") if isinstance(payload, dict) else None
        with recorder.span("service", "submit", req):
            return submit(self, payload)

    def traced_map(self, fn, items, on_result=None):
        items = list(items)
        with recorder.span("batch", "exec", items[0].request.net_name):
            return execute(self, fn, items, on_result=on_result)

    OptimizationService.submit = traced_submit
    ResilientExecutor.map = traced_map
    recorder.wrap(ServiceJournal, "record_accepted", "service", "journal")
    recorder.wrap(ServiceJournal, "record_result", "service", "journal")
    try:
        return cli.main(["serve", *argv[1:]])
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
