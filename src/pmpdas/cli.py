"""Command-line driver.

Subcommands:

* storage-report  proof-amortization arithmetic for one (entries, g) choice
* ablation        run the four publication arms over churn levels and seeds
* gen-fixture     write a fixture file holding a test SRS and a data grid
* prove           append one aggregated proof object per group to a fixture
* verify          recheck every proof object in a fixture against its header

Exit codes: 0 success, 1 verification failure, 2 usage or input error.
The PMP_SEED environment variable overrides the configured seed list.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import random
import sys

from . import dasnet, grid as grid_mod
from .dasnet import (
    BlockContext, ConfigMode, ExperimentConfig, ExperimentSession,
)
from .kzg import gen
from .wire import (
    WireError, decode_fixture, decode_grid, decode_prove_params, decode_srs,
    encode_fixture, encode_grid, encode_prove_params, encode_srs,
    storage_report,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2

ABLATION_COLUMNS = (
    "mode", "seed", "churn", "objects_stored", "proof_bytes", "object_bytes",
    "hit_rate", "verify_failures", "g1_mults", "g2_mults", "pairings",
    "interpolations",
)


class CliError(Exception):
    """Usage or input problem; maps to exit code 2."""


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _rows_to_csv(rows, columns) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([row[c] for c in columns])
    return buf.getvalue()


def _rows_to_json(rows, columns) -> str:
    return json.dumps([{c: row[c] for c in columns} for row in rows],
                      indent=2) + "\n"


# ---------------------------------------------------------------------------
# storage-report

def cmd_storage_report(args) -> int:
    try:
        report = storage_report(args.entries, args.group)
    except WireError as exc:
        raise CliError(str(exc))
    row = report.as_dict()
    columns = tuple(row.keys())
    if args.format == "csv":
        text = _rows_to_csv([row], columns)
    else:
        text = _rows_to_json([row], columns)
    _write_output(text, args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# ablation

def cmd_ablation(args) -> int:
    try:
        cfg = ExperimentConfig.from_file(args.config) if args.config \
            else ExperimentConfig()
    except (dasnet.DasNetError, OSError, ValueError) as exc:
        raise CliError(f"bad config: {exc}")
    env_seed = os.environ.get("PMP_SEED")
    if env_seed is not None:
        try:
            cfg.seeds = (int(env_seed),)
        except ValueError:
            raise CliError(f"PMP_SEED must be an integer, got {env_seed!r}")
    try:
        session = ExperimentSession(cfg)
        rows = [session.run(mode, churn, seed)
                for mode in cfg.modes
                for churn in cfg.churn
                for seed in cfg.seeds]
    except (dasnet.DasNetError, grid_mod.GridError) as exc:
        raise CliError(str(exc))
    rows.sort(key=lambda r: (r["mode"], r["churn"], r["seed"]))
    if args.format == "csv":
        text = _rows_to_csv(rows, ABLATION_COLUMNS)
    else:
        text = _rows_to_json(rows, ABLATION_COLUMNS)
    _write_output(text, args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# fixtures

def _load_fixture(path: str):
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        return decode_fixture(data)
    except (OSError, WireError) as exc:
        raise CliError(f"cannot read fixture {path}: {exc}")


def _fixture_sections(sections) -> dict:
    out = {}
    for tag, payload in sections:
        out.setdefault(tag, []).append(payload)
    return out


def _require_section(by_tag: dict, tag: str) -> bytes:
    if tag not in by_tag:
        raise CliError(f"fixture is missing its {tag!r} section")
    return by_tag[tag][0]


def _decode_context(by_tag: dict):
    try:
        srs = decode_srs(_require_section(by_tag, "SRS1"))
        grid = decode_grid(_require_section(by_tag, "GRID"), srs)
    except dasnet.DECODE_ERRORS as exc:
        raise CliError(f"malformed fixture: {exc}")
    return srs, grid


def cmd_gen_fixture(args) -> int:
    seed = args.seed
    env_seed = os.environ.get("PMP_SEED")
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError:
            raise CliError(f"PMP_SEED must be an integer, got {env_seed!r}")
    try:
        dims = grid_mod.GridDims(args.rows, args.cols, args.extension)
        degree = max(dims.extended_cols - 1, 2)
        secret = int.from_bytes(
            hashlib.sha256(b"pmpdas-fixture-srs|"
                           + seed.to_bytes(8, "big", signed=True)).digest(),
            "big")
        srs = gen(degree, secret)
        rng = random.Random(f"fixture-data|{seed}")
        data = bytes(rng.randrange(256)
                     for _ in range(dims.data_capacity_bytes))
        grid = grid_mod.build_grid(data, dims, srs)
    except (grid_mod.GridError, ValueError) as exc:
        raise CliError(str(exc))
    blob = encode_fixture([("SRS1", encode_srs(srs)),
                           ("GRID", encode_grid(grid))])
    try:
        with open(args.output, "wb") as fh:
            fh.write(blob)
    except OSError as exc:
        raise CliError(f"cannot write {args.output}: {exc}")
    return EXIT_OK


def _prove_params(args) -> bytes:
    for flag, value in (("--group", args.group),
                        ("--rows-per-group", args.rows_per_group)):
        if not 1 <= value < 1 << 32:
            raise CliError(f"{flag} must be between 1 and 2^32 - 1")
    return encode_prove_params(args.group, args.rows_per_group)


def cmd_prove(args) -> int:
    params = _prove_params(args)
    by_tag = _fixture_sections(_load_fixture(args.fixture))
    srs, grid = _decode_context(by_tag)
    ctx = BlockContext(b"fixture", grid, srs, args.group, args.rows_per_group)
    sections = [("SRS1", _require_section(by_tag, "SRS1")),
                ("GRID", _require_section(by_tag, "GRID")),
                ("PRMS", params)]
    try:
        objects = dasnet.build_objects(ctx, ConfigMode.PMP)
    except (grid_mod.GridError, ValueError) as exc:
        raise CliError(str(exc))
    sections.extend(("MCEL", obj) for obj in objects.values())
    try:
        with open(args.output, "wb") as fh:
            fh.write(encode_fixture(sections))
    except OSError as exc:
        raise CliError(f"cannot write {args.output}: {exc}")
    return EXIT_OK


def cmd_verify(args) -> int:
    by_tag = _fixture_sections(_load_fixture(args.fixture))
    srs, grid = _decode_context(by_tag)
    try:
        group_size, rows_per_group = decode_prove_params(
            _require_section(by_tag, "PRMS"))
    except WireError as exc:
        raise CliError(f"malformed fixture: {exc}")
    mcells = by_tag.get("MCEL", [])
    ctx = BlockContext(b"fixture", grid, srs, group_size, rows_per_group)
    try:
        regions = dasnet.object_regions(ctx, ConfigMode.PMP)
    except grid_mod.GridError as exc:
        raise CliError(str(exc))
    if len(mcells) != len(regions):
        raise CliError(
            f"fixture holds {len(mcells)} proof objects for "
            f"{len(regions)} groups")
    for payload, region in zip(mcells, regions):
        group_id = (f"band {region.rows_start // rows_per_group}, "
                    f"group {region.cols_start // group_size}")
        try:
            ok = dasnet.verify_object(ctx, ConfigMode.PMP, region, payload)
        except dasnet.DECODE_ERRORS as exc:
            print(f"verification failed at {group_id}: {exc}",
                  file=sys.stderr)
            return EXIT_VERIFY_FAILED
        if not ok:
            print(f"verification failed at {group_id}", file=sys.stderr)
            return EXIT_VERIFY_FAILED
    print(f"verified {len(regions)} groups")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pmpdas",
        description="Polynomial multiproof toolkit for sampled retrieval.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("storage-report",
                       help="proof-amortization arithmetic")
    p.add_argument("--entries", type=int, required=True,
                   help="extended grid entries")
    p.add_argument("--group", type=int, required=True, help="group size g")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", default=None, help="default: stdout")
    p.set_defaults(func=cmd_storage_report)

    p = sub.add_parser("ablation", help="run the four-arm churn experiment")
    p.add_argument("--config", default=None,
                   help="key=value config file (defaults are built in)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", default=None, help="default: stdout")
    p.set_defaults(func=cmd_ablation)

    p = sub.add_parser("gen-fixture", help="write an SRS + grid fixture")
    p.add_argument("--output", required=True)
    p.add_argument("--rows", type=int, default=2)
    p.add_argument("--cols", type=int, default=4)
    p.add_argument("--extension", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gen_fixture)

    p = sub.add_parser("prove",
                       help="aggregate one proof object per group")
    p.add_argument("--fixture", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--group", type=int, default=4, help="group size g")
    p.add_argument("--rows-per-group", type=int, default=1)
    p.set_defaults(func=cmd_prove)

    p = sub.add_parser("verify", help="recheck every proof in a fixture")
    p.add_argument("--fixture", required=True)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
