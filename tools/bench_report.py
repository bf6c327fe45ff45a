#!/usr/bin/env python3
"""Merge every BENCH_*.json in a directory into one markdown summary.

Every gate harness (bench/perf_*, through bench/gate_report.hpp) and
`isex sweep` write one schema: the run's scalar parameters as top-level
members, one `rows` array of flat objects, and (the harnesses) one `gates`
array of {name, kind: identity|floor|ceiling, value, bound, enforced, pass}.
google-benchmark outputs (BENCH_explorer.json) keep their own shape.  CI
runs the benches in separate steps, so this script is the one place their
numbers come together — the merged report is uploaded as a build artifact
and is the first thing to read when a perf gate trips.  It computes
nothing: every number it prints is in the file.

Usage:
    python3 tools/bench_report.py [--dir BUILD_DIR] [--out REPORT.md]
        [--check-identity]

Writes markdown to --out (default stdout).  --check-identity exits 3 when
any file holds a failed identity gate.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

GATE_COLUMNS = ("name", "kind", "value", "bound", "enforced", "pass")


def fmt(x):
    if isinstance(x, bool):
        return "yes" if x else "no"
    if isinstance(x, list):
        return " ".join(fmt(v) for v in x)
    if isinstance(x, int):
        return f"{x:,}"
    return str(x)


def table(headers, rows):
    out = ["| " + " | ".join(headers) + " |",
           "| " + " | ".join("---" for _ in headers) + " |"]
    for row in rows:
        out.append("| " + " | ".join(str(c) for c in row) + " |")
    return "\n".join(out) + "\n"


def objects(data, key):
    """The objects of the `key` array, or None when it is not an array."""
    value = data.get(key)
    if not isinstance(value, list):
        return None
    return [v for v in value if isinstance(v, dict)]


def render_report(data):
    """A parameters line, a rows table over the union of row keys, and a
    gates table."""
    params = [f"{k}={fmt(v)}" for k, v in data.items()
              if k not in ("rows", "gates")]
    lines = ["Parameters: " + ", ".join(params) + ".\n"] if params else []
    rows = objects(data, "rows")
    keys = list(dict.fromkeys(k for r in rows or [] for k in r))
    if rows is None:
        lines.append("_No `rows` array: truncated bench write or schema "
                     "drift — investigate the producing step._\n")
    elif keys:
        lines.append(table(keys, ([fmt(r.get(k, "")) for k in keys]
                                  for r in rows)))
    gates = objects(data, "gates")
    if gates:
        lines.append(table(GATE_COLUMNS, ([fmt(g.get(k, "")) for k in
                                           GATE_COLUMNS] for g in gates)))
    return "\n".join(lines)


def render_google_benchmark(data):
    ctx = data.get("context", {})
    lines = [f"google-benchmark run ({ctx.get('date', 'unknown date')}, "
             f"{ctx.get('num_cpus', '?')} CPUs).\n"]
    rows = [(b.get("name", "?"),
             f"{b.get('real_time', 0.0):,.1f} {b.get('time_unit', 'ns')}",
             fmt(b.get("iterations", 0)))
            for b in data.get("benchmarks", [])
            if b.get("run_type", "iteration") == "iteration"]
    lines.append(table(["benchmark", "time", "iterations"], rows))
    return "\n".join(lines)


def render(data):
    if "context" in data and "benchmarks" in data:
        return render_google_benchmark(data)
    return render_report(data)


def identity_failures(data):
    """Names of the file's failed identity gates."""
    return [g.get("name", "?") for g in objects(data, "gates") or []
            if g.get("kind") == "identity" and g.get("pass") is False]


def self_test():
    """Unit checks run by the CI observability step (--self-test)."""
    gates = [
        {"name": "walk equals reference", "kind": "identity", "value": True,
         "bound": True, "enforced": True, "pass": True},
        {"name": "speedup", "kind": "floor", "value": 0.9, "bound": 2,
         "enforced": False, "pass": False}]
    # A file with rows and gates renders both tables, rows over the union
    # of their keys.
    out = render({"bench": "t", "quick": True,
                  "rows": [{"name": "a", "seconds_each": [0.1, 0.2]},
                           {"name": "total", "speedup": 2.5}],
                  "gates": gates})
    assert "Parameters: bench=t, quick=yes." in out, out
    assert "| name | seconds_each | speedup |" in out, out
    assert "| total |  | 2.5 |" in out, out
    assert "| walk equals reference | identity | yes | yes | yes | yes |" \
        in out, out
    # A failed identity gate makes --check-identity exit 3; a failed
    # unenforced floor does not.
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        check = ["--dir", tmp, "--check-identity"]
        bench = Path(tmp, "BENCH_t.json")
        bench.write_text(json.dumps({"rows": [], "gates": gates}))
        assert main(check) == 0
        gates[0]["pass"] = False
        bench.write_text(json.dumps({"rows": [], "gates": gates}))
        assert main(check) == 3
    # A file without rows degrades with a note instead of a traceback.
    assert "No `rows` array" in render({"bench": "t", "rows": 3})
    # The isex sweep file renders through the same function.
    out = render({"bench": "cache_sweep", "kernel": "k.tac", "rows": [
        {"l1_size": 4096, "l1_ways": 2, "l1_hit_rate": 0.9, "ises": 3}]})
    assert "| l1_size | l1_ways | l1_hit_rate | ises |" in out, out
    assert "| 4,096 | 2 | 0.9 | 3 |" in out, out
    print("bench_report self-test OK")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dir", default=".",
                        help="directory holding BENCH_*.json (default: cwd)")
    parser.add_argument("--out", default="-",
                        help="output markdown path (default: stdout)")
    parser.add_argument("--check-identity", action="store_true",
                        help="exit 3 if any BENCH_*.json holds a failed "
                             "identity gate (CI gate)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the built-in unit checks and exit")
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test()

    bench_dir = Path(args.dir)
    if not bench_dir.is_dir():
        print(f"error: --dir {bench_dir} is not a directory", file=sys.stderr)
        return 2
    files = sorted(bench_dir.glob("BENCH_*.json"))
    sections = ["# Benchmark report\n"]
    if not files:
        sections.append(f"_No BENCH_*.json files found in `{bench_dir}`._\n")
    broken_identity = []  # (file name, gate name)
    for path in files:
        sections.append(f"## {path.name}\n")
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as err:
            sections.append(f"_unreadable: {err}_\n")
            continue
        if not isinstance(data, dict):
            sections.append("_top level is not a JSON object_\n")
            continue
        broken_identity.extend(
            (path.name, name) for name in identity_failures(data))
        sections.append(render(data))

    if broken_identity:
        sections.append("## Identity gates\n")
        sections.append("**BROKEN** — failed identity gates:\n\n" +
                        "\n".join(f"- `{name}`: {gate}"
                                  for name, gate in broken_identity) + "\n")

    report = "\n".join(sections)
    if args.out == "-":
        sys.stdout.write(report)
    else:
        try:
            Path(args.out).write_text(report)
        except OSError as err:
            print(f"error: cannot write --out {args.out}: {err}",
                  file=sys.stderr)
            return 2
        print(f"wrote {args.out} ({len(files)} bench file(s))")
    if args.check_identity and broken_identity:
        for name, gate in broken_identity:
            print(f"identity violation: {name}: {gate}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
