"""Run one fourfold command with span recording, for the traced cli-cold run.

    python perfbench/tracechild.py <spans.json> <fourfold arguments...>

Imports the package from PYTHONPATH, wraps its public functions (see
spans.py), runs `fourfold.cli.main` on the arguments, writes the spans as
JSON to the first argument and exits with the command's exit code.  With
"-" for the span file it runs the command unrecorded: the untraced side of
the overhead comparison.
"""

import json
import sys

import spans


def main():
    path, argv = sys.argv[1], sys.argv[2:]
    import fourfold

    if path == "-":
        return fourfold.cli.main(argv)
    recorder = spans.Spans()
    recorder.install(fourfold)
    recorder.input_id = 0
    try:
        return fourfold.cli.main(argv)
    finally:
        recorder.uninstall()
        sys.stdout.flush()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(recorder.spans, fh)


if __name__ == "__main__":
    sys.exit(main())
