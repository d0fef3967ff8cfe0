"""The Ode environment's command line: run O++ programs against a database.

Usage::

    python -m repro DB.odb script.opp [script2.opp ...]   # run programs
    python -m repro DB.odb                                # interactive
    python -m repro DB.odb --schema                       # show clusters
    python -m repro DB.odb --verify                       # integrity check
    python -m repro verify DB.odb                         # same, subcommand
    python -m repro DB.odb --vacuum                       # compact storage
    python -m repro scrub DB.odb                          # checksum scrub
    python -m repro DB.odb --scrub                        # same, flag form
    python -m repro stats DB.odb                          # runtime counters
    python -m repro DB.odb --stats                        # same, flag form
    python -m repro stats DB.odb --format=json            # machine readable
    python -m repro stats DB.odb --format=prom            # Prometheus text
    python -m repro events DB.odb                         # event log
    python -m repro promlint metrics.prom                 # lint exposition
    python -m repro serve DB.odb --port 7117              # network server
    python -m repro simulate oltp --report out.json       # macro workload
    python -m repro simulate oltp --remote HOST:PORT      # drive a server
    python -m repro top timeline.jsonl                    # live dashboard
    python -m repro bench-diff old.json new.json          # regression gate

In interactive mode each submitted chunk is parsed and executed against
the open database; state (variables, classes) persists for the session.
A chunk ends on an empty line, so multi-line declarations work.
"""

from __future__ import annotations

import argparse
import json
import sys

from .core.database import Database
from .errors import OdeError
from .obs import load_events, parse_prometheus, render_prometheus
from .obs.metrics import MetricsRegistry, PromParseError
from .opp.interp import Interpreter


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run O++ programs against an Ode database.")
    parser.add_argument("database", help="path to the database file "
                                         "(created if absent)")
    parser.add_argument("scripts", nargs="*",
                        help="O++ source files to execute, in order")
    parser.add_argument("--schema", action="store_true",
                        help="print the cluster schema and exit")
    parser.add_argument("--verify", action="store_true",
                        help="run the integrity checker and exit")
    parser.add_argument("--vacuum", action="store_true",
                        help="compact every cluster and exit")
    parser.add_argument("--scrub", action="store_true",
                        help="checksum-verify every on-disk page and exit "
                             "(bad pages are quarantined; exit status 1)")
    parser.add_argument("--stats", action="store_true",
                        help="print runtime statistics (buffer pool, WAL, "
                             "plan cache, per-cluster optimizer stats) "
                             "and exit")
    parser.add_argument("--format", choices=("text", "json", "prom"),
                        default="text", dest="format",
                        help="stats output format: human text (default), "
                             "JSON, or Prometheus text exposition")
    parser.add_argument("--events", action="store_true",
                        help="print the persisted event log "
                             "(slow queries, lock waits, deadlocks, "
                             "group-commit flushes, vacuums) and exit")
    parser.add_argument("--limit", type=int, default=None,
                        help="with --events: show only the last N events")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress program output (still executed)")
    parser.add_argument("--dump-code", action="store_true",
                        help="with explain statements: also print the "
                             "generated (compiled) query source")
    return parser


def _print_schema(db: Database) -> None:
    schema = db.schema()
    if not schema:
        print("(no clusters)")
        return
    for name, info in sorted(schema.items()):
        bases = " : " + ", ".join(info["parents"]) if info["parents"] else ""
        print("cluster %s%s  (%s objects)" % (name, bases, info["objects"]))
        for fname, ftype in info["fields"].items():
            marker = ""
            if fname in info["indexes"]:
                marker = "   [indexed: %s]" % info["indexes"][fname]
            print("    %-16s %s%s" % (fname, ftype, marker))
        if info["constraints"]:
            print("    constraints: %s" % ", ".join(info["constraints"]))
        if info["triggers"]:
            print("    triggers:    %s" % ", ".join(info["triggers"]))


def _directory_series(db: Database) -> MetricsRegistry:
    """The per-cluster object-directory block as ``directory_*{cluster=}``
    gauges, built from one ``db.stats()`` walk at render time."""
    series = MetricsRegistry()
    for name, info in db.stats()["directory"].items():
        for field in ("leaf_pages", "live_entries", "dead_entries"):
            series.gauge("directory." + field, cluster=name).set(info[field])
    return series


def _print_stats(db: Database) -> None:
    stats = db.stats()
    pool = stats["buffer_pool"]
    wal = stats["wal"]
    cache = stats["plan_cache"]
    print("buffer pool:  %d hits, %d misses (%.1f%% hit rate), "
          "%d evictions"
          % (pool.get("hits", 0), pool.get("misses", 0),
             100.0 * pool.get("hits", 0)
             / max(1, pool.get("hits", 0) + pool.get("misses", 0)),
             pool.get("evictions", 0)))
    print("readahead:    %d prefetch calls, %d pages fetched"
          % (pool.get("prefetches", 0), pool.get("readahead_pages", 0)))
    pages = stats["page_cache"]
    print("page cache:   %d hits, %d misses (%.1f%% hit rate), "
          "%d evictions, %d/%d pages cached"
          % (pages["hits"], pages["misses"], 100.0 * pages["hit_ratio"],
             pages["evictions"], pages["cached_pages"],
             pages["capacity_pages"]))
    print("scans:        %d records peeked, %d decoded"
          % (stats["scan"]["records_peeked"],
             stats["scan"]["records_decoded"]))
    decoded = stats["decoded_cache"]
    print("decoded cache: %d hits, %d misses (%.1f%% hit rate), "
          "%d evictions, %d/%d entries"
          % (decoded["hits"], decoded["misses"],
             100.0 * decoded["hits"]
             / max(1, decoded["hits"] + decoded["misses"]),
             decoded["evictions"], decoded["entries"],
             decoded["capacity"]))
    print("WAL:          %d appends, %d fsyncs, %d flush calls, "
          "%d group deferrals (durability: %s)"
          % (wal["appends"], wal["syncs"], wal["flush_calls"],
             wal["group_deferrals"], wal["durability"]))
    print("plan cache:   %d hits, %d misses (%.1f%% hit rate), "
          "%d entries, %d invalidations"
          % (cache["hits"], cache["misses"], 100.0 * cache["hit_rate"],
             cache["entries"], cache["invalidations"]))
    print("pages:        %d in file" % stats["pages"])
    storage = stats["storage"]
    print("storage:      page-file format %d; record layouts: %s"
          % (storage["format_version"],
             ", ".join("%s %d" % item
                       for item in sorted(storage["layouts"].items()))
             or "none"))
    shards = stats["shards"]
    if shards["count"] > 1:
        print("shards:       %d shards" % shards["count"])
        for entry in shards["per_shard"]:
            print("  shard %-3d %6d pages (%.1f%% occupancy), "
                  "%d scan(s)"
                  % (entry["shard"], entry["pages"],
                     100.0 * entry["occupancy"],
                     shards["scans"][entry["shard"]]))
    frag = stats["fragmentation"]
    if frag:
        print("cluster placement:")
        for name, info in sorted(frag.items()):
            print("  %-20s %4d pages in %3d run(s), span %4d "
                  "(fragmentation %.2f)"
                  % (name, info["pages"], info["runs"], info["span"],
                     info["fragmentation"]))
        print("object directories:")
        for name, info in sorted(stats["directory"].items()):
            print("  %-20s %4d leaf page(s), %6d live, %6d dead entries"
                  % (name, info["leaf_pages"], info["live_entries"],
                     info["dead_entries"]))
    # Persisted summaries exist for analyzed/mutated clusters only; load
    # every cluster's summary so the report is complete.
    for name in db.clusters():
        db.cluster_stats.get(name)
    clusters = db.stats()["clusters"]
    if clusters:
        print("cluster statistics:")
        for name, info in sorted(clusters.items()):
            print("  %-20s %6d objects  (%s)"
                  % (name, info["objects"], info["precision"]))
            for field, fs in info["fields"].items():
                print("      .%-16s %6d distinct, min=%r max=%r"
                      % (field, fs["n_distinct"], fs["min"], fs["max"]))


def _print_events(db: Database, limit=None) -> None:
    """Merge the persisted sidecar with this process's (empty) ring."""
    events = load_events(str(db.store.path) + ".events")
    events.extend(db.events.snapshot())
    if limit is not None:
        events = events[-limit:]
    if not events:
        print("(no events)")
        return
    for event in events:
        data = " ".join("%s=%s" % (k, json.dumps(v, sort_keys=True))
                        for k, v in sorted(event["data"].items()))
        print("#%-5d %.3f %-18s %s"
              % (event["seq"], event["ts"], event["kind"], data))


def _promlint(argv) -> int:
    """``python -m repro promlint [FILE]`` — validate Prometheus text."""
    if argv and argv[0] not in ("-",):
        with open(argv[0], "r", encoding="utf-8") as handle:
            text = handle.read()
    else:
        text = sys.stdin.read()
    try:
        families = parse_prometheus(text)
    except PromParseError as exc:
        print("promlint: %s" % exc, file=sys.stderr)
        return 1
    samples = sum(len(v) for v in families.values())
    print("ok: %d metric families, %d samples" % (len(families), samples))
    return 0


def _repl(db: Database, interp: Interpreter) -> None:
    print("Ode environment — O++ interpreter. Empty line runs the chunk; "
          "Ctrl-D exits.")
    lines: list = []
    while True:
        try:
            prompt = "o++> " if not lines else "...> "
            line = input(prompt)
        except EOFError:
            print()
            return
        except KeyboardInterrupt:
            print("\n(interrupted)")
            lines = []
            continue
        if line.strip() == "" and lines:
            source = "\n".join(lines)
            lines = []
            try:
                before = len(interp.output)
                interp.run(source)
                sys.stdout.write("".join(interp.output[before:]))
            except OdeError as exc:
                print("error: %s" % exc)
        elif line.strip() or lines:
            lines.append(line)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # Subcommand forms: ``python -m repro stats DB.odb`` etc.
    if argv and argv[0] == "promlint":
        return _promlint(argv[1:])
    if argv and argv[0] == "serve":
        from .server.cli import cmd_serve
        return cmd_serve(argv[1:])
    if argv and argv[0] in ("simulate", "top", "bench-diff"):
        from .obs.workload import cli as workload_cli
        handler = {"simulate": workload_cli.cmd_simulate,
                   "top": workload_cli.cmd_top,
                   "bench-diff": workload_cli.cmd_bench_diff}[argv[0]]
        return handler(argv[1:])
    if argv and argv[0] == "stats":
        argv = argv[1:] + ["--stats"]
    elif argv and argv[0] == "events":
        argv = argv[1:] + ["--events"]
    elif argv and argv[0] == "scrub":
        argv = argv[1:] + ["--scrub"]
    elif argv and argv[0] == "verify":
        argv = argv[1:] + ["--verify"]
    args = _build_parser().parse_args(argv)
    db = Database(args.database)
    try:
        if args.stats:
            if args.format == "json":
                print(json.dumps(db.stats(), indent=2, sort_keys=True,
                                 default=str))
            elif args.format == "prom":
                sys.stdout.write(render_prometheus(db.metrics)
                                 + render_prometheus(_directory_series(db)))
            else:
                _print_stats(db)
            return 0
        if args.events:
            _print_events(db, args.limit)
            return 0
        if args.schema:
            _print_schema(db)
            return 0
        if args.verify:
            problems = db.verify()
            if problems:
                for problem in problems:
                    print("PROBLEM:", problem)
                return 1
            print("ok: store is internally consistent")
            return 0
        if args.scrub:
            report = db.scrub()
            print("scrub: %d pages checked, %d bad, %d quarantined"
                  % (report["pages_checked"], len(report["bad_pages"]),
                     report["quarantined"]))
            if report["bad_pages"]:
                print("bad pages: %s"
                      % ", ".join(str(p) for p in report["bad_pages"]))
                print("database is read-only (degraded): %s"
                      % report["degraded"])
                return 1
            return 0
        if args.vacuum:
            for name, report in db.vacuum().items():
                print("%s: %d objects rewritten, %d pages freed"
                      % (name, report["objects"], report["pages_freed"]))
            return 0
        interp = Interpreter(db, echo=False, dump_code=args.dump_code)
        if args.scripts:
            for path in args.scripts:
                before = len(interp.output)
                interp.run_file(path)
                if not args.quiet:
                    sys.stdout.write("".join(interp.output[before:]))
            return 0
        _repl(db, interp)
        return 0
    except OdeError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    finally:
        db.close()


if __name__ == "__main__":
    sys.exit(main())
