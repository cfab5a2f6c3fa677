"""Run one cohomix CLI command under the benchmark's tracer.

    python cli_child.py <spans file> <cohomix cli arguments...>

Installs the same wrappers as the in-process traced run, calls
cohomix.cli.main with the arguments, writes the spans to the file and exits
with main's exit code.  cohomix must be importable (PYTHONPATH=src).
"""

import sys

import cohomix.cli
from tracing import Tracer


def main():
    spans, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    tracer.job_id = 0
    try:
        code = cohomix.cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        tracer.write(spans)
    return code


if __name__ == "__main__":
    sys.exit(main())
