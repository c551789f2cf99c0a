"""The process that runs one workload's commands: one caller, closed loop.

Usage (started by run.py): python3 worker.py SRC_DIR PLAN_JSON

The worker imports distdet.cli from SRC_DIR and prints "ready": from then on
the program can take its first command, which is where run.py stops its
set-up clock. It then waits for one line on stdin: "quit" ends it, "go" reads
the plan and runs its commands through distdet.cli.main in-process, the next
one starting when the previous one returns, in passes over the plan's
commands until the plan's seconds have passed and, untraced, the pass is
complete. Each op's timing, exit code and captured output are appended to the
plan's results file. In a traced plan every command runs twice, untraced and
then traced, and the spans are written out at the end.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import traceback
from pathlib import Path


def run_op(main, argv: list[str]) -> tuple[int, int | None, str, str]:
    """Run one command; returns (wall ns, exit code or None on a traceback, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter_ns()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv) or 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    except Exception:
        code = None
        err.write(traceback.format_exc())
    return time.perf_counter_ns() - start, code, out.getvalue(), err.getvalue()


def peak_rss_kib() -> int:
    """This process's peak resident set. getrusage's ru_maxrss is not used: after
    exec it also carries the parent's peak, and the parent holds the inputs."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> int:
    src, plan_path = Path(sys.argv[1]).resolve(), Path(sys.argv[2])
    sys.path.insert(0, str(src))
    import distdet.cli

    if src not in Path(distdet.cli.__file__).resolve().parents:
        print(f"distdet imported from {distdet.cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0

    plan = json.loads(plan_path.read_text(encoding="utf-8"))
    ops, seconds = plan["argv"], plan["seconds"]
    tracer = None
    if plan["trace"]:
        from spans import Tracer

        tracer = Tracer()
        if tracer.missing:
            print("not traced, not found: " + ", ".join(tracer.missing), file=sys.stderr)

    elapsed = 0
    index = 0
    with open(plan["results"], "w", encoding="utf-8") as results:
        # Untraced runs end on a whole pass, so every command runs equally often.
        while elapsed < seconds * 1e9 or (index % len(ops) and not tracer):
            argv = ops[index % len(ops)]
            for traced in (False, True) if tracer else (False,):
                if traced:
                    tracer.install()
                    tracer.begin_op(index)
                wall, code, out, err = run_op(distdet.cli.main, argv)
                if traced:
                    tracer.end_op()
                    tracer.uninstall()
                elapsed += wall
                record = {"slot": index % len(ops), "traced": traced, "wall_ns": wall, "code": code, "out": out, "err": err}
                results.write(json.dumps(record) + "\n")
            index += 1
    if tracer:
        with open(plan["spans"], "w", encoding="utf-8") as handle:
            for span in tracer.spans:
                handle.write(json.dumps(span) + "\n")
    print(json.dumps({"peak_rss_kib": peak_rss_kib()}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
