#!/usr/bin/env python3
"""Merge observatory artifacts into one markdown efficiency report.

Inputs (produced by `isex --trace-out/--pool-profile-out` or
`isex_serve --trace-out F --pool-profile-out F`):

  --trace t.json          Chrome trace whose spans carry trace-context ids
                          (args.trace_id/span_id/parent_span_id).  Jobs are
                          the root spans (parent_span_id == 0); every other
                          tagged span nests under one of them.
  --pool-profile p.json   PoolProfile artifact: per-worker busy/idle
                          occupancy, task-duration histogram, and per
                          parallel-section Amdahl numbers.
  --statusz s.json        Optional /statusz snapshot fetched while the
                          server was live (isex_client.py statusz).

Report sections: per-job span breakdown, queue-wait percentiles (from the
`job.queue_wait` spans), top serial sections by Amdahl serial fraction,
per-section imbalance (max task / mean task: how much task sizes vary, not
how evenly threads were loaded) next to the per-worker busy spread, and
worker occupancy.  The busy spread and the occupancy table are what show
load balance.

Usage:
    python3 tools/trace_report.py --trace t.json --pool-profile p.json \
        [--statusz s.json] [--out REPORT.md]

Exit status: 0 on success (including partially-missing optional inputs),
2 when a provided file cannot be read or parsed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def fmt(x, digits=3):
    if isinstance(x, bool):
        return "yes" if x else "no"
    if isinstance(x, float):
        return f"{x:,.{digits}f}"
    if isinstance(x, int):
        return f"{x:,}"
    return str(x)


def table(headers, rows):
    out = ["| " + " | ".join(headers) + " |",
           "| " + " | ".join("---" for _ in headers) + " |"]
    for row in rows:
        out.append("| " + " | ".join(str(c) for c in row) + " |")
    return "\n".join(out) + "\n"


def percentile(sorted_values, p):
    """Nearest-rank percentile over an already-sorted list."""
    if not sorted_values:
        return 0.0
    rank = max(1, round(p / 100.0 * len(sorted_values)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


def load_json(path):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as err:
        print(f"trace_report: cannot load {path}: {err}", file=sys.stderr)
        return None


def tagged_spans(trace_doc):
    """Complete spans carrying trace-context ids, as (event, args) pairs."""
    spans = []
    for e in trace_doc.get("traceEvents", []):
        args = e.get("args")
        if (isinstance(e, dict) and e.get("ph") == "X"
                and isinstance(args, dict) and args.get("span_id")):
            spans.append((e, args))
    return spans


def render_jobs(spans):
    """Per-root-span breakdown: every trace groups under its root."""
    roots = [(e, a) for e, a in spans if a.get("parent_span_id") == 0]
    by_trace = {}
    for e, a in spans:
        by_trace.setdefault(a.get("trace_id"), []).append((e, a))
    rows = []
    for e, a in sorted(roots, key=lambda ea: ea[0].get("ts", 0)):
        family = by_trace.get(a.get("trace_id"), [])
        children = len(family) - 1
        wait = next((c.get("dur", 0) for c, ca in family
                     if c.get("name") == "job.queue_wait"), None)
        rows.append((e.get("name", "?"), fmt(a.get("trace_id")),
                     fmt(e.get("dur", 0) / 1e3, 2),
                     "-" if wait is None else fmt(wait / 1e3, 2),
                     fmt(children)))
    if not rows:
        return ("_No root spans (parent_span_id == 0) in the trace — was "
                "tracing enabled end to end?_\n")
    lines = [f"{len(rows)} jobs (root spans), "
             f"{len(spans)} context-tagged spans total.\n",
             table(["job", "trace id", "duration ms", "queue wait ms",
                    "child spans"], rows)]
    return "\n".join(lines)


def render_queue_wait(spans):
    waits = sorted(e.get("dur", 0) for e, a in spans
                   if e.get("name") == "job.queue_wait")
    if not waits:
        return ("_No `job.queue_wait` spans — the trace does not come from "
                "a server run, or no job ever waited in the queue._\n")
    rows = [(f"p{p}", fmt(percentile(waits, p) / 1e3, 3))
            for p in (50, 90, 99)]
    rows.append(("max", fmt(waits[-1] / 1e3, 3)))
    return (f"Queue-wait distribution over {len(waits)} jobs "
            "(admission to worker pop):\n\n"
            + table(["percentile", "wait ms"], rows))


def render_serial_sections(profile):
    sections = sorted(profile.get("sections", []),
                      key=lambda s: s.get("serial_fraction", 0.0),
                      reverse=True)
    if not sections:
        return ("_No parallel sections recorded — was pool profiling "
                "enabled?_\n")
    rows = [(f"`{s.get('name', '?')}`", fmt(s.get("invocations", 0)),
             fmt(s.get("tasks", 0)),
             fmt(s.get("serial_fraction", 0.0), 4),
             fmt(s.get("serial_seconds", 0.0), 4),
             fmt(s.get("wall_seconds", 0.0), 4))
            for s in sections]
    lines = ["Amdahl attribution per `deterministic_fanout` call site: "
             "`serial_fraction = serial / (serial + wall)`, where serial is "
             "the un-parallelizable split/setup work on the calling "
             "thread.  Sections are sorted worst first — the top entry is "
             "the best target for shrinking serial work.\n",
             table(["section", "invocations", "tasks", "serial fraction",
                    "serial s", "parallel wall s"], rows)]
    return "\n".join(lines)


def render_imbalance(profile):
    lines = []
    sections = sorted((s for s in profile.get("sections", [])
                       if s.get("tasks", 0) > 0),
                      key=lambda s: s.get("imbalance", 0.0), reverse=True)
    if sections:
        rows = [(f"`{s.get('name', '?')}`", fmt(s.get("imbalance", 0.0), 3),
                 fmt(s.get("max_task_seconds", 0.0) * 1e3, 3),
                 fmt(s.get("task_seconds", 0.0)
                     / max(1, s.get("tasks", 1)) * 1e3, 3))
                for s in sections]
        lines.append("Per-section imbalance (`max task / mean task`): how "
                     "much task sizes vary, 1.0 when every task took the "
                     "same time.  A high value does not mean threads sat "
                     "idle — a batch dispatched largest first keeps them "
                     "busy; the worker busy spread below and the occupancy "
                     "table show how evenly threads were loaded.\n")
        lines.append(table(["section", "imbalance", "max task ms",
                            "mean task ms"], rows))
    busy = [w.get("busy_seconds", 0.0) for w in profile.get("workers", [])
            if w.get("worker") != "external" and w.get("tasks", 0) > 0]
    if busy:
        spread = max(busy) / max(min(busy), 1e-12)
        lines.append(f"\nWorker busy-time spread: max/min = {fmt(spread, 2)} "
                     f"across {len(busy)} active workers "
                     f"({fmt(min(busy), 4)}s .. {fmt(max(busy), 4)}s busy).")
    if not lines:
        return "_No per-task profile data recorded._\n"
    return "\n".join(lines)


def render_workers(profile):
    workers = profile.get("workers", [])
    if not workers:
        return "_No worker occupancy data._\n"
    rows = [(w.get("worker", "?"), fmt(w.get("tasks", 0)),
             fmt(w.get("busy_seconds", 0.0), 4),
             fmt(w.get("idle_seconds", 0.0), 4),
             fmt(w.get("occupancy", 0.0), 3))
            for w in workers]
    pool = profile.get("pool", {})
    lines = [f"Pool: {pool.get('threads', '?')} worker threads, "
             f"{fmt(pool.get('task_count', 0))} profiled tasks, "
             f"{fmt(pool.get('task_seconds_total', 0.0), 4)}s total task "
             "time.  The `external` row aggregates tasks run inline by "
             "non-pool threads helping a fan-out.\n",
             table(["worker", "tasks", "busy s", "idle s", "occupancy"],
                   rows)]
    return "\n".join(lines)


def render_statusz(status):
    jobs = status.get("jobs", {})
    cache = status.get("cache", {})
    rows = [("uptime s", fmt(status.get("uptime_us", 0) / 1e6, 1)),
            ("jobs accepted", fmt(jobs.get("accepted", 0))),
            ("jobs completed", fmt(jobs.get("completed", 0))),
            ("jobs failed", fmt(jobs.get("failed", 0))),
            ("cache hits", fmt(jobs.get("cache_hits", 0))),
            ("cache misses", fmt(jobs.get("cache_misses", 0))),
            ("warm-start schedule entries",
             fmt(cache.get("warm_start_schedule_entries", 0))),
            ("corrupt log entries skipped",
             fmt(cache.get("corrupt_skipped", 0)))]
    return table(["statusz", "value"], rows)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace", help="Chrome trace JSON with context ids")
    parser.add_argument("--pool-profile", help="PoolProfile JSON artifact")
    parser.add_argument("--statusz", help="optional /statusz snapshot")
    parser.add_argument("--out", default="-",
                        help="output markdown path (default: stdout)")
    args = parser.parse_args()
    if not (args.trace or args.pool_profile):
        parser.error("nothing to report on — pass --trace and/or "
                     "--pool-profile")

    sections = ["# Exploration efficiency report\n"]
    failed = False
    if args.trace:
        doc = load_json(args.trace)
        if doc is None:
            failed = True
        else:
            spans = tagged_spans(doc)
            sections.append("## Jobs\n")
            sections.append(render_jobs(spans))
            sections.append("## Queue-wait percentiles\n")
            sections.append(render_queue_wait(spans))
    if args.pool_profile:
        profile = load_json(args.pool_profile)
        if profile is None:
            failed = True
        else:
            sections.append("## Top serial sections\n")
            sections.append(render_serial_sections(profile))
            sections.append("## Task-size imbalance and load balance\n")
            sections.append(render_imbalance(profile))
            sections.append("## Worker occupancy\n")
            sections.append(render_workers(profile))
    if args.statusz:
        status = load_json(args.statusz)
        if status is None:
            failed = True
        else:
            sections.append("## Server snapshot\n")
            sections.append(render_statusz(status))
    if failed:
        return 2

    report = "\n".join(sections)
    if args.out == "-":
        sys.stdout.write(report)
    else:
        try:
            Path(args.out).write_text(report)
        except OSError as err:
            print(f"trace_report: cannot write --out {args.out}: {err}",
                  file=sys.stderr)
            return 2
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
