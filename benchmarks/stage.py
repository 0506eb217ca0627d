"""One step of a falsikit run in a fresh interpreter, timed from inside it.

    python3 benchmarks/stage.py --config run.ini --result result.json \
        [--stage falsify|predict] [--spans spans.json]

It imports falsikit and parses the config (the set-up sample), then, with
``--stage``, runs ``falsikit run --stage <stage>`` through ``falsikit.cli.main``
with its report sent to /dev/null.  The timings, the exit code and any error
go to ``--result`` as JSON; ``--spans`` also records the layer spans.
"""

import argparse
import contextlib
import json
import os
import time
import traceback


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--stage", choices=("falsify", "predict"))
    parser.add_argument("--spans")
    args = parser.parse_args()

    t0 = time.perf_counter()
    import falsikit.cli
    from falsikit.pipeline import parse_config
    t1 = time.perf_counter()
    parse_config(args.config)
    t2 = time.perf_counter()
    result = {"import_s": t1 - t0, "parse_s": t2 - t1, "setup_s": t2 - t0,
              "falsikit": falsikit.cli.__file__}

    if args.stage is not None:
        tracer = None
        if args.spans:
            import spans
            tracer = spans.Tracer()
            spans.install(tracer)
        argv = ["run", "--config", args.config, "--stage", args.stage]
        t3 = time.perf_counter()
        try:
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                result["exit_code"] = falsikit.cli.main(argv)
        except Exception:   # a stage that raises is a failed stage, not a crashed benchmark
            result["exit_code"] = None
            result["error"] = traceback.format_exc()
        result["stage_s"] = time.perf_counter() - t3
        if tracer is not None:
            tracer.dump(args.spans)

    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
