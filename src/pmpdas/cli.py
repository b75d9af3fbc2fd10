"""Command-line driver.

Subcommands:

* storage-report  proof-amortization arithmetic for one (entries, g) choice
* ablation        run the four publication arms over churn levels and seeds
* gen-fixture     write a fixture file holding a test SRS and a data grid
* prove           append one aggregated proof object per group to a fixture
* verify          recheck every proof object in a fixture against its header

Exit codes: 0 success, 1 verification failure, 2 usage or input error;
any other exception is an internal fault and propagates.
The PMP_SEED environment variable replaces the configured seed list of
`ablation` and the --seed of `gen-fixture`.
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
    DECODE_ERRORS, Fixture, WireError, check_fixture_size, storage_report,
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
    # from_pairs makes every check the session and its runs would make,
    # so an error they raise is an internal fault and propagates
    session = ExperimentSession(cfg)
    rows = [session.run(mode, churn, seed)
            for mode in cfg.modes
            for churn in cfg.churn
            for seed in cfg.seeds]
    rows.sort(key=lambda r: (r["mode"], r["churn"], r["seed"]))
    render = _rows_to_csv if args.format == "csv" else _rows_to_json
    _write_output(render(rows, ABLATION_COLUMNS), args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# fixtures

def _load_fixture(path: str) -> Fixture:
    try:
        with open(path, "rb") as fh:
            return Fixture.from_bytes(fh.read())
    except OSError as exc:
        raise CliError(f"cannot read fixture {path}: {exc}")
    except DECODE_ERRORS as exc:
        raise CliError(f"malformed fixture: {exc}")


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
        check_fixture_size(degree, dims)
    except (grid_mod.GridError, WireError) as exc:
        raise CliError(str(exc))
    secret = int.from_bytes(
        hashlib.sha256(b"pmpdas-fixture-srs|"
                       + seed.to_bytes(8, "big", signed=True)).digest(),
        "big")
    srs = gen(degree, secret)
    rng = random.Random(f"fixture-data|{seed}")
    data = bytes(rng.randrange(256) for _ in range(dims.data_capacity_bytes))
    grid = grid_mod.build_grid(data, dims, srs)
    _write_output(Fixture(srs, grid).to_bytes(), args.output)
    return EXIT_OK


def cmd_prove(args) -> int:
    fixture = _load_fixture(args.fixture)
    srs, grid = fixture.srs, fixture.grid
    params = (args.group, args.rows_per_group)
    try:
        Fixture(srs, grid, params)  # checks the layout before proving
    except WireError as exc:
        raise CliError(str(exc))
    objects = dasnet.build_objects(
        BlockContext(b"fixture", grid, srs, *params), ConfigMode.PMP)
    proved = Fixture(srs, grid, params, tuple(objects.values()))
    _write_output(proved.to_bytes(), args.output)
    return EXIT_OK


def cmd_verify(args) -> int:
    fixture = _load_fixture(args.fixture)
    if fixture.params is None:
        raise CliError("fixture is missing its 'PRMS' section")
    ctx = BlockContext(b"fixture", fixture.grid, fixture.srs, *fixture.params)
    regions = dasnet.object_regions(ctx, ConfigMode.PMP)
    if len(fixture.mcells) != len(regions):
        raise CliError(
            f"fixture holds {len(fixture.mcells)} proof objects for "
            f"{len(regions)} groups")
    verdicts = dasnet.verify_round(ctx, ConfigMode.PMP,
                                   list(zip(regions, fixture.mcells)))
    for (ok, _, error), region in zip(verdicts, regions):
        if not ok:
            reason = "" if error is None else f": {error}"
            print(f"verification failed at band "
                  f"{region.rows_start // ctx.rows_per_group}, "
                  f"group {region.cols_start // ctx.group_size}{reason}",
                  file=sys.stderr)
            return EXIT_VERIFY_FAILED
    print(f"verified {len(regions)} group{'' if len(regions) == 1 else 's'}")
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
