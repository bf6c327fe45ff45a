#!/usr/bin/env python3
"""Merge every BENCH_*.json in a directory into one markdown summary.

Each perf harness writes its own JSON (BENCH_antwalk.json,
BENCH_candidates.json, BENCH_runtime.json, google-benchmark outputs like
BENCH_explorer.json, ...).  CI runs them in separate steps, so this script is
the one place their numbers come together — the merged report is uploaded as
a build artifact and is the first thing to read when a perf gate trips.

Usage:
    python3 tools/bench_report.py [--dir BUILD_DIR] [--out REPORT.md]

Writes markdown to --out (default stdout).  Unknown JSON shapes degrade to a
key/value listing of their top-level scalars rather than failing, so adding a
new bench never breaks the report step.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def fmt(x, digits=2):
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


def render_antwalk(data):
    lines = ["Optimized ant walk vs pre-optimization reference "
             f"({data.get('walks_per_dfg', '?')} walks per DFG"
             f"{', quick' if data.get('quick') else ''}).\n"]
    rows = [(b["name"], fmt(b["nodes"]),
             fmt(b["reference_walks_per_sec"], 0),
             fmt(b["optimized_walks_per_sec"], 0),
             fmt(b["speedup"]) + "x",
             fmt(b["optimized_allocs_per_walk"], 3),
             fmt(b["identical"]))
            for b in data.get("benchmarks", [])]
    t = data.get("total", {})
    if t:
        rows.append(("**total**", "", fmt(t["reference_walks_per_sec"], 0),
                     fmt(t["optimized_walks_per_sec"], 0),
                     fmt(t["speedup"]) + "x",
                     fmt(t["optimized_allocs_per_walk"], 3),
                     fmt(t["identical"])))
    lines.append(table(["DFG", "nodes", "ref walks/s", "opt walks/s",
                        "speedup", "allocs/walk", "identical"], rows))
    return "\n".join(lines)


def render_candidates(data):
    lines = ["Copy-free candidate evaluation (CollapsedView + scheduler "
             "scratch) vs collapse-and-schedule reference "
             f"({data.get('passes_per_case', '?')} passes per case"
             f"{', quick' if data.get('quick') else ''}).\n"]
    rows = [(b["name"], fmt(b["nodes"]), fmt(b["candidates"]),
             fmt(b["reference_evals_per_sec"], 0),
             fmt(b["optimized_evals_per_sec"], 0),
             fmt(b["speedup"]) + "x",
             fmt(b["optimized_allocs_per_eval"], 3),
             fmt(b["identical"]))
            for b in data.get("benchmarks", [])]
    t = data.get("total", {})
    if t:
        rows.append(("**total**", "", "", fmt(t["reference_evals_per_sec"], 0),
                     fmt(t["optimized_evals_per_sec"], 0),
                     fmt(t["speedup"]) + "x",
                     fmt(t["optimized_allocs_per_eval"], 3),
                     fmt(t["identical"])))
    lines.append(table(["case", "nodes", "cands", "ref evals/s",
                        "opt evals/s", "speedup", "allocs/eval",
                        "identical"], rows))
    return "\n".join(lines)


def render_runtime(data):
    lines = [f"Exploration-sweep runtime: `{data.get('sweep', '?')}` "
             f"(deterministic: {fmt(data.get('deterministic', '?'))}).\n"]
    if data.get("scaling_valid") is False:
        lines.append("**Note:** run on a single-core host "
                     f"(hardware_concurrency="
                     f"{data.get('hardware_concurrency', '?')}) — the flat "
                     "jobs-sweep speedups are a host artifact, not a "
                     "regression.\n")
    # Runs missing seconds_min (truncated write, schema drift) degrade to a
    # visible note instead of a KeyError that would silently drop the whole
    # file from the report.
    complete = [r for r in data.get("runs", []) if "seconds_min" in r]
    dropped = len(data.get("runs", [])) - len(complete)
    if dropped:
        lines.append(f"**Note:** {dropped} run(s) missing `seconds_min` "
                     "omitted from the table below (truncated bench write "
                     "or schema drift — investigate the producing step).\n")
    rows = [(fmt(r["jobs"]), fmt(r["seconds_min"], 4),
             fmt(r["seconds_median"], 4),
             fmt(r["speedup_vs_jobs1"]) + "x",
             fmt(parallel_efficiency(r), 3),
             fmt(r["cache_hits"]), fmt(r["cache_misses"]),
             fmt(r["cache_hit_rate"], 4))
            for r in complete]
    lines.append(table(["jobs", "min s", "median s", "speedup vs jobs=1",
                        "efficiency", "hits", "misses", "hit rate"], rows))
    for scaling in runtime_scaling(data.get("runs", [])):
        lines.append(scaling)
    return "\n".join(lines)


def parallel_efficiency(run):
    """Speedup divided by worker count: 1.0 is perfect linear scaling."""
    jobs = run.get("jobs", 0)
    return run["speedup_vs_jobs1"] / jobs if jobs > 0 else 0.0


def runtime_scaling(runs):
    """The jobs=1 vs widest-jobs headline."""
    missing = sum(1 for r in runs if not r.get("seconds_min", 0) > 0)
    if missing:
        yield (f"\n_Note: {missing} run(s) without a positive `seconds_min` "
               "excluded from the scaling headline._")
    timed = [r for r in runs if r.get("seconds_min", 0) > 0]
    base = next((r for r in timed if r.get("jobs") == 1), None)
    peak = max((r for r in timed if r.get("jobs", 1) > 1),
               key=lambda r: r["jobs"], default=None)
    if base is None or peak is None:
        return
    ratio = base["seconds_min"] / peak["seconds_min"]
    yield (f"\nScaling: jobs=1 -> jobs={peak['jobs']} is {fmt(ratio)}x "
           f"(parallel efficiency {fmt(ratio / peak['jobs'], 3)}, "
           f"{fmt(base['seconds_min'], 4)}s -> "
           f"{fmt(peak['seconds_min'], 4)}s).")


def render_colony(data):
    lines = ["Multi-colony ACO scaling: "
             f"`{data.get('sweep', '?')}` "
             f"(identity jobs=1 == jobs=8 per colony count: "
             f"{fmt(data.get('identity_ok', '?'))}"
             f"{', quick' if data.get('quick') else ''}).\n"]
    rows = [(fmt(r["colonies"]), fmt(r["jobs"]), fmt(r["seconds_min"], 4),
             fmt(r["seconds_median"], 4),
             fmt(r["speedup_vs_serial"]) + "x", r.get("digest", "?"))
            for r in data.get("runs", [])]
    lines.append(table(["colonies", "jobs", "min s", "median s",
                        "speedup vs serial", "digest"], rows))
    lines.append(colony_scaling_line(data))
    return "\n".join(lines)


def colony_scaling_line(data):
    """Headline: colonies=K/jobs=J vs the colonies=1/jobs=1 baseline."""
    headline = data.get("headline_speedup")
    floor = data.get("speedup_floor")
    enforced = data.get("floor_enforced")
    hw = data.get("hardware_concurrency", "?")
    if headline is None:
        return ""
    line = (f"\nColony scaling: colonies=8/jobs=8 is {fmt(headline)}x vs the "
            f"serial baseline (floor {fmt(floor)}x, "
            f"{'enforced' if enforced else 'informational'} at "
            f"hardware_concurrency={hw}); "
            f"identity: {'OK' if data.get('identity_ok') else 'VIOLATED'}.")
    if not enforced:
        line += (" Speedup floor not enforced on this host — colony "
                 "sharding needs >= 4 cores to show wall-clock wins.")
    return line


def render_portfolio(data):
    lines = ["Batched portfolio exploration vs back-to-back independent "
             f"flows: `{data.get('sweep', '?')}` "
             f"(per-program bit-identity: {fmt(data.get('identity_ok', '?'))}"
             f"{', quick' if data.get('quick') else ''}).\n"]
    rows = [(p["name"], fmt(p["weight"]), fmt(p["base_time"]),
             fmt(p["final_time"]), fmt(p["num_ises"]),
             fmt(p["weighted_benefit"], 1), p.get("digest", "?"))
            for p in data.get("programs", [])]
    lines.append(table(["program", "weight", "base", "final", "ISEs",
                        "weighted benefit", "digest"], rows))
    lines.append(portfolio_dedup_line(data))
    lines.append(portfolio_scaling_line(data))
    return "\n".join(lines)


def portfolio_dedup_line(data):
    rate = data.get("dedup_hit_rate")
    if rate is None:
        return ""
    return (f"\nCross-program dedup: eval-cache hit rate {fmt(rate, 4)} "
            f"(floor {fmt(data.get('dedup_floor', 0.0))}, "
            f"{'OK' if data.get('dedup_ok') else 'BELOW FLOOR'}); "
            f"{fmt(data.get('deduped_jobs', 0))} of "
            f"{fmt(data.get('total_jobs', 0))} jobs deduped; "
            f"isomorphic-but-renumbered: "
            f"{fmt(data.get('isomorphic_hot_blocks', 0))} hot blocks, "
            f"{fmt(data.get('isomorphic_candidates', 0))} candidates.")


def portfolio_scaling_line(data):
    headline = data.get("headline_speedup")
    if headline is None:
        return ""
    valid = data.get("scaling_valid")
    line = (f"\nBatch scaling: one portfolio run is {fmt(headline)}x vs "
            f"back-to-back flows (floor "
            f"{fmt(data.get('speedup_floor', 0.0))}x, "
            f"{'enforced' if valid else 'informational'} at "
            f"hardware_concurrency={data.get('hardware_concurrency', '?')}); "
            f"{fmt(data.get('selected_ises', 0))} ISEs in "
            f"{fmt(data.get('selected_types', 0))} shared types, "
            f"total area {fmt(data.get('total_area', 0.0))}.")
    if not valid:
        line += (" Speedup floor not enforced on this host — the flat batch "
                 "needs >= 4 cores to show wall-clock wins.")
    return line


def render_cachemodel(data):
    lines = ["Memory-hierarchy cost model gates: "
             f"`{data.get('sweep', '?')}` with cache "
             f"`{data.get('cache_config', '?')}`"
             f"{', quick' if data.get('quick') else ''}.\n",
             f"Identity: {fmt(data.get('identity_ok', '?'))} "
             f"(null-model residue-free: {fmt(data.get('null_identity', '?'))}"
             f", jobs-invariant: {fmt(data.get('jobs_identity', '?'))} at "
             f"jobs={data.get('jobs', '?')}); ISE sets changed on "
             f"{fmt(data.get('changed_programs', 0))} program(s) "
             f"({'OK' if data.get('effect_ok') else 'NO EFFECT'}); overhead "
             f"{fmt(data.get('overhead', 0.0))}x vs null model (ceiling "
             f"{fmt(data.get('overhead_ceiling', 0.0))}x, "
             f"{'OK' if data.get('overhead_ok') else 'EXCEEDED'}); L1 hit "
             f"rate {fmt(data.get('l1_hit_rate', 0.0), 4)} over "
             f"{fmt(data.get('accesses', 0))} accesses, "
             f"{fmt(data.get('annotated_nodes', 0))} nodes annotated.\n"]
    rows = [(p["name"], p.get("null_digest", "?"),
             p.get("cache_digest", "?"), fmt(p.get("changed", "?")))
            for p in data.get("programs", [])]
    lines.append(table(["program", "null digest", "cache digest",
                        "ISE set changed"], rows))
    return "\n".join(lines)


def render_cachesweep(data):
    lines = ["Cache-geometry sweep (`isex sweep`): "
             f"kernel `{data.get('kernel', '?')}`, machine "
             f"`{data.get('machine', '?')}`, seed {data.get('seed', '?')}, "
             f"{data.get('repeats', '?')} repeats per point.\n"]
    rows = []
    for r in data.get("rows", []):
        base = r.get("base_cycles", 0)
        final = r.get("final_cycles", 0)
        reduction = (base - final) / base if base else 0.0
        rows.append((fmt(r.get("l1_size", "?")), fmt(r.get("l1_ways", "?")),
                     fmt(r.get("l1_line", "?")),
                     fmt(r.get("l1_hit_rate", 0.0), 4),
                     fmt(base), fmt(final), fmt(reduction, 3),
                     fmt(r.get("ises", "?"))))
    lines.append(table(["L1 size", "ways", "line", "L1 hit rate",
                        "base cycles", "final cycles", "reduction",
                        "ISEs"], rows))
    return "\n".join(lines)


def render_google_benchmark(data):
    ctx = data.get("context", {})
    lines = [f"google-benchmark run ({ctx.get('date', 'unknown date')}, "
             f"{ctx.get('num_cpus', '?')} CPUs).\n"]
    rows = [(b.get("name", "?"),
             fmt(b.get("real_time", 0.0), 1) + " " + b.get("time_unit", "ns"),
             fmt(b.get("iterations", 0)))
            for b in data.get("benchmarks", [])
            if b.get("run_type", "iteration") == "iteration"]
    lines.append(table(["benchmark", "time", "iterations"], rows))
    return "\n".join(lines)


def render_generic(data):
    rows = [(k, fmt(v)) for k, v in data.items()
            if isinstance(v, (str, int, float, bool))]
    if not rows:
        return "_(no top-level scalars to summarize)_\n"
    return table(["key", "value"], rows)


def render(data):
    if data.get("bench") == "antwalk_hotpath":
        return render_antwalk(data)
    if data.get("bench") == "candidate_eval_pipeline":
        return render_candidates(data)
    if data.get("bench") == "colony_scaling":
        return render_colony(data)
    if data.get("bench") == "portfolio":
        return render_portfolio(data)
    if data.get("bench") == "cachemodel":
        return render_cachemodel(data)
    if data.get("bench") == "cache_sweep":
        return render_cachesweep(data)
    if "sweep" in data and "runs" in data:
        return render_runtime(data)
    if "context" in data and "benchmarks" in data:
        return render_google_benchmark(data)
    return render_generic(data)


# Keys whose `false` value marks a broken bit-identity / determinism gate.
# The scan is recursive so per-benchmark "identical": false entries trip it
# too, not just the top-level stamps.
IDENTITY_KEYS = frozenset(
    {"identity_ok", "identity", "identical", "deterministic",
     "null_identity", "jobs_identity"})


def identity_failures(data, prefix=""):
    """Yield dotted paths of every false identity stamp in the JSON tree."""
    if isinstance(data, dict):
        for key, value in data.items():
            path = f"{prefix}.{key}" if prefix else key
            if key in IDENTITY_KEYS and value is False:
                yield path
            else:
                yield from identity_failures(value, path)
    elif isinstance(data, list):
        for i, value in enumerate(data):
            yield from identity_failures(value, f"{prefix}[{i}]")


def self_test():
    """Unit checks run by the CI observability step (--self-test)."""
    # A runtime file with a truncated run must degrade with a note, not
    # drop the run silently or KeyError the whole section.
    out = render_runtime({
        "sweep": "t", "runs": [
            {"jobs": 1, "seconds_min": 1.0,
             "seconds_median": 1.0, "speedup_vs_jobs1": 1.0,
             "cache_hits": 1, "cache_misses": 1, "cache_hit_rate": 0.5},
            {"jobs": 8},  # truncated: no seconds_min
        ]})
    assert "missing `seconds_min`" in out, "no degradation note emitted"
    assert "without a positive `seconds_min`" in out, \
        "scaling headline drops runs silently"
    # The identity scan must see both top-level stamps and nested
    # per-benchmark flags, and ignore true ones.
    found = list(identity_failures(
        {"identity_ok": False,
         "benchmarks": [{"identical": True}, {"identical": False}],
         "nested": {"jobs_identity": False}}))
    assert found == ["identity_ok", "benchmarks[1].identical",
                     "nested.jobs_identity"], found
    assert not list(identity_failures({"identity_ok": True})), \
        "true stamps flagged"
    # The new renderers must handle their producers' shapes.
    assert "cost model gates" in render_cachemodel(
        {"identity_ok": True, "programs": [
            {"name": "p", "null_digest": "0", "cache_digest": "1",
             "changed": True}]})
    assert "Cache-geometry sweep" in render_cachesweep(
        {"rows": [{"l1_size": 4096, "l1_ways": 2, "l1_line": 32,
                   "l1_hit_rate": 0.9, "base_cycles": 100,
                   "final_cycles": 80, "ises": 3}]})
    print("bench_report self-test OK")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dir", default=".",
                        help="directory holding BENCH_*.json (default: cwd)")
    parser.add_argument("--out", default="-",
                        help="output markdown path (default: stdout)")
    parser.add_argument("--check-identity", action="store_true",
                        help="exit 3 if any BENCH_*.json stamps an identity "
                             "key false (CI gate)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the built-in unit checks and exit")
    args = parser.parse_args()

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
    broken_identity = []  # (file name, dotted key path)
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
            (path.name, key) for key in identity_failures(data))
        try:
            sections.append(render(data))
        except (KeyError, TypeError, ValueError) as err:
            # A recognized shape with missing/mistyped fields (truncated
            # write, schema drift): degrade to the scalar listing and say so
            # instead of dying with a traceback mid-report.
            sections.append(f"_malformed ({type(err).__name__}: {err}); "
                            "top-level scalars only:_\n\n")
            sections.append(render_generic(data))

    if broken_identity:
        sections.append("## Identity gates\n")
        sections.append("**BROKEN** — determinism/bit-identity stamps are "
                        "false:\n\n" +
                        "\n".join(f"- `{name}`: `{key}`"
                                  for name, key in broken_identity) + "\n")

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
        for name, key in broken_identity:
            print(f"identity violation: {name}: {key}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
