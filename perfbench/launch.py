"""Run one starcob CLI invocation as the `starcob` console script does:
import `starcob.cli`, call `main`, exit with its return code.

    PYTHONPATH=src python3 perfbench/launch.py [--trace OUT.json] -- ARGS...

With `--trace`, the span wrappers of `tracer.py` are installed after the
import and before `main` runs, and the spans are written to OUT.json when
`main` returns.  Untraced and traced invocations therefore have the same
process shape, and their wall-time difference is the tracing overhead.
"""
import sys


def main() -> int:
    argv = sys.argv[1:]
    trace_path = None
    if argv[:1] == ["--trace"]:
        trace_path, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    import starcob.cli

    if trace_path is None:
        return starcob.cli.main(argv)
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return starcob.cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.dump(trace_path)


if __name__ == "__main__":
    sys.exit(main())
