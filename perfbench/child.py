"""One benchmark job: a process that runs rankmin CLI commands in order.

Usage: ``python3 perfbench/child.py SPEC.json``.  The spec names the
command lines, a status file, an optional span file and whether to stop
after set-up.  The job imports rankmin from the checkout's ``src/``,
parses the first command line, notes that moment as the end of set-up,
then runs each command through ``rankmin.cli.run_command``.  Commands
print to this process's stdout.  The status file records the set-up
timestamp (``time.monotonic``, comparable with the parent's clock) and
every exit code; the process exits 0 only if every command did.
"""

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from rankmin import cli

    cli.build_parser().parse_args(spec["commands"][0])
    ready = time.monotonic()
    status = {"ready": ready, "exit_codes": []}
    recorder = None
    if spec.get("trace_file"):
        import spans

        recorder = spans.Recorder()
        spans.install(recorder)
    try:
        if not spec.get("setup_only"):
            for job_id, argv in enumerate(spec["commands"]):
                if recorder is not None:
                    recorder.job_id = job_id
                status["exit_codes"].append(cli.run_command(argv))
                sys.stdout.flush()
    finally:
        if recorder is not None:
            recorder.write(spec["trace_file"])
        with open(spec["status_file"], "w", encoding="utf-8") as fh:
            json.dump(status, fh)
    return 0 if all(c == 0 for c in status["exit_codes"]) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
