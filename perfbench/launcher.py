#!/usr/bin/env python3
"""Start ``repro-preview`` with the benchmark's span wrappers installed.

Usage: ``python3 perfbench/launcher.py SPANS.json serve --store ...``
(everything after the spans path is passed to ``repro.cli.main``).  The
process serves exactly as the plain CLI does; on shutdown (SIGINT) it
writes the spans and garbage-collection events it recorded to
``SPANS.json``.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common, spans  # noqa: E402


def main(argv) -> int:
    common.require_sources()
    out, args = argv[0], argv[1:]
    import repro.cli

    recorder = spans.Recorder()
    spans.install(recorder)
    recorder.watch_gc()
    try:
        return repro.cli.main(args)
    finally:
        recorder.unwatch_gc()
        recorder.dump(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
