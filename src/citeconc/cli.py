"""Command-line entry point: `citeconc validate|analyze|generate`.

Exit codes: 0 success, 1 usage/config error, 2 data error.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from citeconc import corpus as corpus_mod
from citeconc import report as report_mod
from citeconc import studies as studies_mod
from citeconc import synthgen
from citeconc.config import ConfigError, build_run, parse_config
from citeconc.corpus import DataError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="citeconc", description="Citation-concentration analytics")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="check tabular inputs and print drop tallies")
    v.add_argument("articles")
    v.add_argument("edges")
    v.add_argument("--span", nargs=2, type=int, metavar=("START", "END"))

    a = sub.add_parser("analyze", help="run a configured study battery")
    a.add_argument("config")

    g = sub.add_parser("generate", help="write a synthetic corpus to TSV files")
    g.add_argument("--scenario", required=True, help=f"one of: {', '.join(synthgen.SCENARIOS)}")
    g.add_argument("--out", required=True, help="output directory")
    g.add_argument("--seed", type=int, default=None)
    return p


def cmd_validate(articles_path: str, edges_path: str, span: tuple[int, int] | None) -> int:
    try:
        with open(articles_path, "rb") as fa, open(edges_path, "rb") as fe:
            tables = corpus_mod.read_tables(fa.read(), fe.read(), span)
    except OSError as e:
        print(f"error: cannot read {e.filename}: {e}", file=sys.stderr)
        return EXIT_DATA
    except DataError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as e:  # an inverted --span
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE

    print(f"articles read: {tables['rows_read'][0]}")
    print(f"articles retained: {len(tables['ids'])}")
    print(f"edges read: {tables['rows_read'][1]}")
    print(f"edges retained: {len(tables['citing'])}")
    print("drops:")
    for reason, n in tables["drops"].items():
        print(f"  {reason}: {n}")
    years, year_counts = np.unique(tables["pub_year"], return_counts=True)
    print("years:")
    for year, n in zip(years.tolist(), year_counts.tolist()):
        print(f"  {year}: {n}")
    for title, labels, codes in (("fields", tables["fields"], tables["field_code"]),
                                 ("regions", tables["regions"], tables["region_code"])):
        print(f"{title}:")
        for label, n in sorted(zip(labels, np.bincount(codes, minlength=len(labels)).tolist())):
            print(f"  {label}: {n}")
    return EXIT_OK


def cmd_analyze(config_path: str) -> int:
    try:
        with open(config_path, encoding="utf-8") as f:
            run = build_run(parse_config(f.read()))
    except (OSError, UnicodeDecodeError) as e:
        print(f"error: cannot read {config_path}: {e}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_USAGE

    try:
        if run.gen is not None:
            corpus = synthgen.generate(run.gen)
        else:
            corpus = corpus_mod.load_corpus_files(run.articles_path, run.edges_path, run.span)
    except (OSError, DataError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_USAGE

    os.makedirs(run.out_dir, exist_ok=True)
    manifest = []
    try:
        for spec, reports in zip(run.studies, studies_mod.run_studies(corpus, run.studies)):
            for rep in reports:
                files = []
                if "csv" in run.formats:
                    path = os.path.join(run.out_dir, f"{rep.study_id}.csv")
                    report_mod.write_csv(rep, path)
                    files.append(os.path.basename(path))
                if "json" in run.formats:
                    path = os.path.join(run.out_dir, f"{rep.study_id}.json")
                    report_mod.write_json(rep, path)
                    files.append(os.path.basename(path))
                manifest.append({
                    "study": spec.name,
                    "id": rep.study_id,
                    "files": files,
                    "columns": rep.columns,
                    "config_hash": report_mod.config_hash(rep.config),
                })
    except ValueError as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    report_mod.write_manifest(manifest, os.path.join(run.out_dir, "manifest.json"))
    print(f"wrote {len(manifest)} series to {run.out_dir}")
    return EXIT_OK


def cmd_generate(scenario_name: str, out_dir: str, seed: int | None) -> int:
    try:
        params = synthgen.scenario(scenario_name, seed=seed)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    corpus = synthgen.generate(params)
    os.makedirs(out_dir, exist_ok=True)
    articles_path = os.path.join(out_dir, "articles.tsv")
    edges_path = os.path.join(out_dir, "edges.tsv")
    corpus_mod.write_tables(corpus, articles_path, edges_path)
    print(f"scenario: {scenario_name}")
    print(f"seed: {params.seed}")
    print(f"span: {params.span[0]}-{params.span[1]}")
    print(f"articles: {corpus.n_articles}")
    print(f"edges: {corpus.n_edges}")
    print(f"clamped_refs: {corpus.drops.get('clamped_refs', 0)}")
    print(f"wrote {articles_path} and {edges_path}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "validate":
        span = tuple(args.span) if args.span else None
        return cmd_validate(args.articles, args.edges, span)
    if args.command == "analyze":
        return cmd_analyze(args.config)
    if args.command == "generate":
        return cmd_generate(args.scenario, args.out, args.seed)
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
