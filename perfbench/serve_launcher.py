"""Start ``repro serve`` with the benchmark's wrappers installed.

    python3 perfbench/serve_launcher.py --stats FILE [--trace] -- serve ARGS...

Times every job's compile and run between speed probes (and, with
``--trace``, wraps every layer), then calls the normal ``repro``
command-line entry point with the arguments after ``--``.  When the
daemon stops (SIGINT), it writes the job times, the probe marks, the
recorded trace and the process's peak resident memory to the
``--stats`` file.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import tracer as tracing  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--stats", required=True, metavar="FILE")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    harness.use_source_tree()
    tracer, timeline = tracing.Tracer(), harness.Timeline()
    if args.trace:
        tracing.install(tracer)
    # the daemon keeps its own garbage: collecting would change it
    jobs = tracing.install_job_timer(tracer, timeline, collect=False)
    from repro.cli import main as repro_main

    try:
        code = repro_main(command)
    finally:
        tracer.uninstall()
    document = {"peak_rss_mb": harness.peak_rss_mb(), "trace": tracer.dump(),
                "marks": timeline.marks, "jobs": jobs}
    Path(args.stats).write_text(json.dumps(document), encoding="utf-8")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
