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


def _write_output(data: str | bytes, path: str | None) -> None:
    """Writes text to stdout, or text (as UTF-8) or bytes to `path`."""
    if path is None:
        sys.stdout.write(data)
        return
    if isinstance(data, str):
        data = data.encode("utf-8")
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}")


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


def _env_seed() -> int | None:
    """The seed the PMP_SEED environment variable sets, if it is set."""
    value = os.environ.get("PMP_SEED")
    try:
        return None if value is None else int(value)
    except ValueError:
        raise CliError(f"PMP_SEED must be an integer, got {value!r}")


# ---------------------------------------------------------------------------
# storage-report

def cmd_storage_report(args) -> int:
    try:
        report = storage_report(args.entries, args.group)
    except WireError as exc:
        raise CliError(str(exc))
    row = report.as_dict()
    render = _rows_to_csv if args.format == "csv" else _rows_to_json
    _write_output(render([row], tuple(row.keys())), args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# ablation

def cmd_ablation(args) -> int:
    try:
        cfg = ExperimentConfig.from_file(args.config) if args.config \
            else ExperimentConfig()
    except (dasnet.DasNetError, OSError, ValueError) as exc:
        raise CliError(f"bad config: {exc}")
    env_seed = _env_seed()
    if env_seed is not None:
        cfg.seeds = (env_seed,)
    if args.output is not None:
        # create (or empty) the output now: an unwritable path fails
        # before the runs, not after them
        _write_output("", args.output)
    try:
        session = ExperimentSession(cfg)
        rows = [session.run(mode, churn, seed)
                for mode in cfg.modes
                for churn in cfg.churn
                for seed in cfg.seeds]
    except (dasnet.DasNetError, grid_mod.GridError) as exc:
        raise CliError(str(exc))
    rows.sort(key=lambda r: (r["mode"], r["churn"], r["seed"]))
    render = _rows_to_csv if args.format == "csv" else _rows_to_json
    _write_output(render(rows, ABLATION_COLUMNS), args.output)
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
    """Payloads by tag; only MCEL, one per proof object, may repeat among
    the sections the CLI reads."""
    out = {}
    for tag, payload in sections:
        if tag in out and tag in ("SRS1", "GRID", "PRMS"):
            raise CliError(f"malformed fixture: repeated {tag!r} section")
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
    seed, source = args.seed, "--seed"
    env_seed = _env_seed()
    if env_seed is not None:
        seed, source = env_seed, "PMP_SEED"
    # the seed enters the SRS secret as 8 signed big-endian bytes
    if not -(1 << 63) <= seed < 1 << 63:
        raise CliError(f"{source} must be between -2^63 and 2^63 - 1")
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
    except grid_mod.GridError as exc:
        raise CliError(str(exc))
    _write_output(encode_fixture([("SRS1", encode_srs(srs)),
                                  ("GRID", encode_grid(grid))]), args.output)
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
    if args.group > srs.degree_bound:
        raise CliError(f"--group {args.group} exceeds the SRS degree bound "
                       f"{srs.degree_bound}")
    ctx = BlockContext(b"fixture", grid, srs, args.group, args.rows_per_group)
    sections = [("SRS1", _require_section(by_tag, "SRS1")),
                ("GRID", _require_section(by_tag, "GRID")),
                ("PRMS", params)]
    try:
        objects = dasnet.build_objects(ctx, ConfigMode.PMP)
    except grid_mod.GridError as exc:
        raise CliError(str(exc))
    sections.extend(("MCEL", obj) for obj in objects.values())
    _write_output(encode_fixture(sections), args.output)
    return EXIT_OK


def cmd_verify(args) -> int:
    by_tag = _fixture_sections(_load_fixture(args.fixture))
    srs, grid = _decode_context(by_tag)
    try:
        group_size, rows_per_group = decode_prove_params(
            _require_section(by_tag, "PRMS"))
        if group_size > srs.degree_bound:
            raise WireError("group size exceeds the SRS degree bound")
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
    verdicts = dasnet.verify_round(ctx, ConfigMode.PMP,
                                   list(zip(regions, mcells)))
    for (ok, _, error), region in zip(verdicts, regions):
        if not ok:
            reason = "" if error is None else f": {error}"
            print(f"verification failed at band "
                  f"{region.rows_start // rows_per_group}, "
                  f"group {region.cols_start // group_size}{reason}",
                  file=sys.stderr)
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
