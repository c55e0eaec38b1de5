"""One `fedleak` CLI invocation in a fresh interpreter, timed from outside.

    python3 perfbench/worker.py [--spans SPANS_JSON] SRC_DIR RESULT_JSON -- CLI_ARGS...

Imports `fedleak.cli` from SRC_DIR (and refuses any other copy), then
times `fedleak.cli.main(CLI_ARGS)` with the wall clock and getrusage.
With --spans the call runs under the tracer and the spans are written to
SPANS_JSON afterwards, and the tracer's estimate of its own overhead is
added to the result. The result JSON holds the exit code, wall time,
CPU time, peak RSS, context switches, and the system-wide monotonic
clock reading just after `fedleak.cli` was imported, from which the
parent derives the set-up time, and the wall and CPU seconds per pass
of the reference kernel in probe.py, run right after the call.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def _usage(ru: resource.struct_rusage, ch: resource.struct_rusage) -> dict[str, float]:
    return {
        "cpu_s": ru.ru_utime + ru.ru_stime + ch.ru_utime + ch.ru_stime,
        "ctx_vol": ru.ru_nvcsw + ch.ru_nvcsw,
        "ctx_invol": ru.ru_nivcsw + ch.ru_nivcsw,
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="time one fedleak CLI call")
    parser.add_argument("src_dir")
    parser.add_argument("result_json")
    parser.add_argument("--spans", help="trace the call and write spans here")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    result_path, spans_path, cli_args = args.result_json, args.spans, args.cli_args
    if cli_args[:1] == ["--"]:
        cli_args = cli_args[1:]

    src = Path(args.src_dir).resolve()
    sys.path.insert(0, str(src))
    import fedleak.cli

    imported_monotonic = time.monotonic()
    if src not in Path(fedleak.__file__).resolve().parents:
        print(f"fedleak imported from {fedleak.__file__}, not {src}", file=sys.stderr)
        return 2

    tracer = None
    if spans_path:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    before = _usage(resource.getrusage(resource.RUSAGE_SELF),
                    resource.getrusage(resource.RUSAGE_CHILDREN))
    start = time.perf_counter()
    try:
        if tracer:
            rc = tracer.call("cli.main", fedleak.cli.main, cli_args)
        else:
            rc = fedleak.cli.main(cli_args)
    finally:
        wall = time.perf_counter() - start
        if tracer:
            tracer.uninstall()
    ru_self = resource.getrusage(resource.RUSAGE_SELF)
    ru_children = resource.getrusage(resource.RUSAGE_CHILDREN)
    after = _usage(ru_self, ru_children)
    # The host's speed right after the call, in this process (see probe.py).
    import probe

    probe_s, probe_cpu_s = probe.seconds_per_pass()
    result = {key: after[key] - before[key] for key in after}
    result.update(
        rc=int(rc),
        wall_s=wall,
        imported_monotonic=imported_monotonic,
        probe_s=probe_s,
        probe_cpu_s=probe_cpu_s,
        # ru_maxrss is in KiB on Linux.
        peak_rss_mb=max(ru_self.ru_maxrss, ru_children.ru_maxrss) / 1024.0,
    )
    if tracer:
        tracer.dump(spans_path)
        result["trace_overhead_s"] = tracer.overhead_estimate()
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
