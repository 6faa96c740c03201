"""One revcrochet operation in a fresh interpreter, measured from inside.

    PYTHONPATH=src python3 perfbench/child.py MODE ARGV...

MODE is setup (time the import of revcrochet.cli, then one operation,
then calibrate the machine's speed),
plain (the operation alone), trace (the operation under probe.Tracer) or
counts (under probe.EvalCounter).  plain and trace time the call the same
way, so the two compare tracing and nothing else.  The last line of
stdout is one JSON object; the operation's own stdout and stderr are
inside it.
"""

import sys
import time

t0 = time.perf_counter()
import revcrochet.cli as cli  # noqa: E402  (imported first, so it is timed alone)

import_s = time.perf_counter() - t0

import json  # noqa: E402

import probe  # noqa: E402
from runner import calibration_s, call  # noqa: E402


def main():
    mode, argv = sys.argv[1], sys.argv[2:]
    result = {"import_ms": import_s * 1000.0}
    if mode == "setup":
        rc, _, _, seconds = call(cli.run, argv)
        result.update(rc=rc, setup_s=import_s + seconds, calibration_s=calibration_s())
    elif mode == "plain":
        rc, out, err, seconds = call(cli.run, argv)
        result.update(rc=rc, out=out, err=err, seconds=seconds)
    elif mode == "trace":
        tracer = probe.Tracer()
        with tracer.install():
            rc, out, err, seconds = call(tracer.wrap(cli.run, probe.ROOT_SPAN), argv)
        result.update(rc=rc, out=out, err=err, seconds=seconds, spans=tracer.spans,
                      counts=tracer.counts)
    elif mode == "counts":
        counter = probe.EvalCounter()
        with counter.install():
            rc, out, err, _ = call(cli.run, argv)
        result.update(rc=rc, out=out, err=err, counts=counter.counts)
    else:
        sys.exit(f"unknown mode {mode!r}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
