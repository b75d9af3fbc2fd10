"""Command-line driver: exit codes, determinism, and fixture round trips."""

import hashlib
import json

import pytest

from helpers import shift_between_rows
from pmpdas import cli, dasnet, field_poly, grid, kzg, wire
from pmpdas.curve import G1Point, G2Point
from pmpdas.kzg import KzgError, PairingTerms, gen
from pmpdas.multiproof import MultiproofError
from pmpdas.wire import (
    decode_fixture, encode_fixture, encode_prove_params, encode_srs,
)

# sha256 of command outputs. A change here means published bytes or
# ablation results changed. The proved fixture was re-recorded when the
# power-of-two row domain became bit-reversed; the natural-order value is
# the one recorded at commit 4e41ff2 (before the light client and `verify`
# shared one verification path), as is the ablation value.
PROVED_FIXTURE_SHA256 = \
    "f8306c99676d5b63dcd90ad870458e86b1d6be1de2377c97e7134fbdbdb62b33"
NATURAL_ORDER_PROVED_FIXTURE_SHA256 = \
    "0a80e7892bd172ba0284351684f3ad4f00a68f074333438689026c74e193e132"
# 2 x 8 fixtures proved with --group 4, whose rows have degree 7, so that
# no aggregated proof is the identity: recorded at commit c600d97, keyed
# by --rows-per-group
NONTRIVIAL_PROVED_FIXTURE_SHA256 = {
    1: "c137ac4de9e411491191be1d1e6f68938bef618fc1bd4418c05bdcb07e1b103f",
    2: "2497066611315456bb637b67516c0ff066599409b0c7e3778a498f9fd1354f0a",
}
DEFAULT_ABLATION_SEED_1_CSV_SHA256 = \
    "b977a717f3736b610c7fe29e69e5f8a16c9e27e890040fa57f4961745b9d16f0"


def run_cli(args):
    return cli.main(args)


def test_storage_report_reference_row(capsys):
    assert run_cli(["storage-report", "--entries", "64", "--group", "4"]) == 0
    out = capsys.readouterr().out
    assert "2816" in out and "176" in out and "44" in out

    assert run_cli(["storage-report", "--entries", "64", "--group", "1"]) == 0
    assert "5120" in capsys.readouterr().out


def test_storage_report_json(capsys):
    assert run_cli(["storage-report", "--entries", "64", "--group", "4",
                    "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows[0]["grouped_total_bytes"] == 2816
    assert rows[0]["amortized_bytes_per_entry"] == 44


def test_storage_report_divisibility_error(capsys):
    assert run_cli(["storage-report", "--entries", "64", "--group", "3"]) == 2
    assert "divide" in capsys.readouterr().err


def test_unknown_flags_rejected():
    with pytest.raises(SystemExit) as exc:
        run_cli(["storage-report", "--entries", "64", "--group", "4",
                 "--bogus", "1"])
    assert exc.value.code == 2


def _tiny_config(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("rows=2\ncols=4\npeers=20\nreplication=3\n"
                    "peer_capacity=none\nsamples=8\nseeds=1-2\n"
                    "churn=0.0,0.3\nmodes=vanilla,pmp\n")
    return str(path)


def test_ablation_deterministic_and_well_formed(tmp_path):
    cfg = _tiny_config(tmp_path)
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert run_cli(["ablation", "--config", cfg, "--output", out1]) == 0
    assert run_cli(["ablation", "--config", cfg, "--output", out2]) == 0
    blob = open(out1, "rb").read()
    assert blob == open(out2, "rb").read()
    lines = blob.decode().splitlines()
    assert lines[0] == ",".join(cli.ABLATION_COLUMNS)
    assert len(lines) == 1 + 2 * 2 * 2  # modes x churn x seeds
    # churn-0 rows all report a perfect hit rate
    for line in lines[1:]:
        cells = line.split(",")
        if cells[2] == "0.0":
            assert cells[6] == "1.0"


def test_ablation_json_and_seed_override(tmp_path, monkeypatch):
    cfg = _tiny_config(tmp_path)
    out = str(tmp_path / "a.json")
    monkeypatch.setenv("PMP_SEED", "9")
    assert run_cli(["ablation", "--config", cfg, "--format", "json",
                    "--output", out]) == 0
    rows = json.loads(open(out).read())
    assert {row["seed"] for row in rows} == {9}
    monkeypatch.setenv("PMP_SEED", "bogus")
    assert run_cli(["ablation", "--config", cfg, "--output", out]) == 2


def test_ablation_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    for text in ("rows=two\n", "seeds=5-3\n", "retry_budget=-1\n",
                 "samples=-1\n", "modes=vanilla,vanilla\n",
                 "churn=0.1,0.10\n", "seeds=1-3,2\n", "churn=0.0,1.5\n",
                 "samples=999\n", "peers=0\n", "replication=0\n",
                 "rows=0\n", "group_size=3\n", "cols=3\n"):
        bad.write_text(text)
        assert run_cli(["ablation", "--config", str(bad)]) == 2, text
        assert "bad config" in capsys.readouterr().err


def test_ablation_rejects_a_repeated_config_key(tmp_path, capsys):
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("samples=8\nsamples=4\nseeds=1\n")
    assert run_cli(["ablation", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "bad config" in err and "'samples'" in err


@pytest.mark.parametrize("text", ["modes=vanilla\nrows_per_group=0\n",
                                  "modes=vanilla\ngroup_size=0\n"])
def test_ablation_rejects_a_group_dimension_below_one(tmp_path, text):
    cfg = tmp_path / "groups.cfg"
    cfg.write_text(text + "seeds=1\n")
    assert run_cli(["ablation", "--config", str(cfg)]) == 2


def test_ablation_without_peers_exits_2(tmp_path, capsys):
    cfg = tmp_path / "nopeers.cfg"
    cfg.write_text("peers=0\n")
    assert run_cli(["ablation", "--config", str(cfg)]) == 2
    assert "peer" in capsys.readouterr().err


@pytest.mark.parametrize("capacity", ["0", "-1"])
def test_ablation_rejects_a_peer_capacity_below_one(tmp_path, capsys,
                                                    capacity):
    # a capacity of 0 would count every peer full and hold each object on
    # one peer, whatever the replication factor
    cfg = tmp_path / "capacity.cfg"
    cfg.write_text(f"peer_capacity={capacity}\n")
    assert run_cli(["ablation", "--config", str(cfg)]) == 2
    assert "peer_capacity" in capsys.readouterr().err


def test_fixture_prove_verify_round_trip(tmp_path, capsys):
    fx = str(tmp_path / "fx.bin")
    fxp = str(tmp_path / "fxp.bin")
    assert run_cli(["gen-fixture", "--output", fx,
                    "--rows", "2", "--cols", "4"]) == 0
    assert run_cli(["prove", "--fixture", fx, "--output", fxp,
                    "--group", "4"]) == 0
    assert run_cli(["verify", "--fixture", fxp]) == 0
    assert "verified 4 groups" in capsys.readouterr().out


def test_verify_counts_one_group_in_the_singular(tmp_path, capsys):
    fx, fxp = str(tmp_path / "fx.bin"), str(tmp_path / "fxp.bin")
    assert run_cli(["gen-fixture", "--output", fx,
                    "--rows", "1", "--cols", "1"]) == 0
    assert run_cli(["prove", "--fixture", fx, "--output", fxp,
                    "--group", "2"]) == 0
    assert run_cli(["verify", "--fixture", fxp]) == 0
    assert capsys.readouterr().out == "verified 1 group\n"


def test_verify_detects_tampered_scalar(tmp_path, capsys):
    fx, fxp = str(tmp_path / "fx.bin"), str(tmp_path / "fxp.bin")
    run_cli(["gen-fixture", "--output", fx, "--rows", "2", "--cols", "4"])
    run_cli(["prove", "--fixture", fx, "--output", fxp, "--group", "4"])
    blob = bytearray(open(fxp, "rb").read())
    blob[-5] ^= 0x01  # a byte inside the last proof object's scalars
    tampered = str(tmp_path / "tampered.bin")
    open(tampered, "wb").write(bytes(blob))
    assert run_cli(["verify", "--fixture", tampered]) == 1
    assert "band 1, group 1" in capsys.readouterr().err


def test_verify_checks_a_failed_group_only_in_the_round(tmp_path, capsys,
                                                        monkeypatch):
    fx, fxp = str(tmp_path / "fx.bin"), str(tmp_path / "fxp.bin")
    run_cli(["gen-fixture", "--output", fx, "--rows", "2", "--cols", "8"])
    run_cli(["prove", "--fixture", fx, "--output", fxp, "--group", "4"])
    blob = bytearray(open(fxp, "rb").read())
    blob[-5] ^= 0x01  # a scalar bit of the last of 8 groups
    tampered = tmp_path / "tampered.bin"
    tampered.write_bytes(bytes(blob))
    checks = []
    real = kzg.pairing_check

    def counting(pairs):
        checks.append(len(pairs))
        return real(pairs)

    monkeypatch.setattr(kzg, "pairing_check", counting)
    assert run_cli(["verify", "--fixture", str(tampered)]) == 1
    assert capsys.readouterr().err == \
        "verification failed at band 1, group 3\n"
    # the round's check, then one per group; none repeats
    assert len(checks) == 9


def test_verify_names_the_region_of_a_swapped_object(tmp_path, capsys):
    # two well-formed proof objects in each other's place: each names its
    # own region, so the first one fails to decode, with both regions
    sections = decode_fixture(open(_proved_fixture(tmp_path), "rb").read())
    first = next(i for i, (tag, _) in enumerate(sections) if tag == "MCEL")
    (_, a), (_, b) = sections[first:first + 2]
    sections[first:first + 2] = [("MCEL", b), ("MCEL", a)]
    swapped = tmp_path / "swapped.bin"
    swapped.write_bytes(encode_fixture(sections))
    assert run_cli(["verify", "--fixture", str(swapped)]) == 1
    assert capsys.readouterr().err == (
        "verification failed at band 0, group 0: object of "
        f"{wire.GCellBlock(0, 1, 4, 8)} stored for "
        f"{wire.GCellBlock(0, 1, 0, 4)}\n")


def test_verify_detects_permuted_header_commitments(tmp_path, capsys):
    fx, fxp = str(tmp_path / "fx.bin"), str(tmp_path / "fxp.bin")
    run_cli(["gen-fixture", "--output", fx, "--rows", "2", "--cols", "4"])
    run_cli(["prove", "--fixture", fx, "--output", fxp, "--group", "4"])
    sections = decode_fixture(open(fxp, "rb").read())
    swapped = []
    for tag, payload in sections:
        if tag == "GRID":
            # the trailing 2 x 48 bytes are the row commitments; swap them
            body, c0, c1 = payload[:-96], payload[-96:-48], payload[-48:]
            payload = body + c1 + c0
        swapped.append((tag, payload))
    permuted = str(tmp_path / "permuted.bin")
    open(permuted, "wb").write(encode_fixture(swapped))
    assert run_cli(["verify", "--fixture", permuted]) == 2
    assert "malformed fixture: grid header commitments" in \
        capsys.readouterr().err


def _proved_fixture(tmp_path):
    fx, fxp = str(tmp_path / "fx.bin"), str(tmp_path / "fxp.bin")
    assert run_cli(["gen-fixture", "--output", fx,
                    "--rows", "2", "--cols", "4"]) == 0
    assert run_cli(["prove", "--fixture", fx, "--output", fxp,
                    "--group", "4"]) == 0
    return fxp


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def test_proved_fixture_bytes_are_pinned(tmp_path):
    assert _sha256(_proved_fixture(tmp_path)) == PROVED_FIXTURE_SHA256


@pytest.mark.parametrize("k, groups", [(1, 8), (2, 4)])
def test_nontrivial_proved_fixture_bytes_are_pinned(tmp_path, capsys, k,
                                                    groups):
    fx, fxp = str(tmp_path / "fx.bin"), str(tmp_path / "fxp.bin")
    assert run_cli(["gen-fixture", "--output", fx,
                    "--rows", "2", "--cols", "8"]) == 0
    assert run_cli(["prove", "--fixture", fx, "--output", fxp, "--group",
                    "4", "--rows-per-group", str(k)]) == 0
    assert _sha256(fxp) == NONTRIVIAL_PROVED_FIXTURE_SHA256[k]
    mcells = wire.Fixture.from_bytes(open(fxp, "rb").read()).mcells
    assert len(mcells) == groups
    for payload in mcells:
        proof = G1Point.from_bytes(wire.MCell.from_bytes(payload).proof)
        assert not proof.is_identity()
    assert run_cli(["verify", "--fixture", fxp]) == 0
    assert f"verified {groups} groups" in capsys.readouterr().out


@pytest.mark.parametrize("k", [2, 3])
def test_verify_rejects_values_shifted_between_rows(tmp_path, capsys, k):
    fx, fxp = str(tmp_path / "fx.bin"), str(tmp_path / "fxp.bin")
    # rows of degree 7 in groups of 4, so that no proof is the identity
    assert run_cli(["gen-fixture", "--output", fx,
                    "--rows", str(k), "--cols", "8"]) == 0
    assert run_cli(["prove", "--fixture", fx, "--output", fxp, "--group",
                    "4", "--rows-per-group", str(k)]) == 0
    proved = wire.Fixture.from_bytes(open(fxp, "rb").read())
    ctx = dasnet.BlockContext(b"fixture", proved.grid, proved.srs, 4, k)
    first, *rest = proved.mcells
    assert not G1Point.from_bytes(wire.MCell.from_bytes(first).proof) \
        .is_identity()
    region = dasnet.object_regions(ctx, dasnet.ConfigMode.PMP)[0]
    shifted = tmp_path / "shifted.bin"
    shifted.write_bytes(wire.Fixture(
        proved.srs, proved.grid, proved.params,
        (shift_between_rows(ctx, region, first, 0, 1, 7), *rest)).to_bytes())
    assert run_cli(["verify", "--fixture", fxp]) == 0
    capsys.readouterr()
    assert run_cli(["verify", "--fixture", str(shifted)]) == 1
    assert capsys.readouterr().err == \
        "verification failed at band 0, group 0\n"


def test_natural_order_fixture_verifies_through_the_general_check(
        tmp_path, capsys, monkeypatch):
    # a grid on the roots of unity in natural order, as `gen-fixture` built
    # it before the row domain was bit-reversed: the fixture carries its
    # domain, proves to the same bytes as then and verifies with one
    # [Z_md]_2 base per micro-domain
    with monkeypatch.context() as patch:
        patch.setattr(grid, "default_row_domain",
                      field_poly.roots_of_unity_domain)
        fxp = _proved_fixture(tmp_path)
    assert _sha256(fxp) == NATURAL_ORDER_PROVED_FIXTURE_SHA256
    checks = []
    real = kzg.pairing_check

    def counting(pairs):
        checks.append(len(pairs))
        return real(pairs)

    monkeypatch.setattr(kzg, "pairing_check", counting)
    assert run_cli(["verify", "--fixture", fxp]) == 0
    assert "verified 4 groups" in capsys.readouterr().out
    assert checks == [3]


def test_default_ablation_bytes_are_pinned(tmp_path, monkeypatch):
    out = str(tmp_path / "ablation.csv")
    monkeypatch.setenv("PMP_SEED", "1")
    assert run_cli(["ablation", "--output", out]) == 0
    assert _sha256(out) == DEFAULT_ABLATION_SEED_1_CSV_SHA256


def test_verify_reports_undecodable_object(tmp_path, capsys, monkeypatch):
    blob = bytearray(open(_proved_fixture(tmp_path), "rb").read())
    blob[-1] = 0xFF  # top byte of the last scalar: above the field modulus
    bad = tmp_path / "bad.bin"
    bad.write_bytes(bytes(blob))
    reduced = []
    real = dasnet.object_terms

    def counted(*args, **kwargs):
        reduced.append(args[2])
        return real(*args, **kwargs)

    monkeypatch.setattr(dasnet, "object_terms", counted)
    assert run_cli(["verify", "--fixture", str(bad)]) == 1
    assert capsys.readouterr().err == (
        "verification failed at band 1, group 1: "
        "scalar encoding exceeds the field modulus\n")
    # the round names the reason: each of the 4 groups is decoded once
    assert len(reduced) == len(set(reduced)) == 4


def test_verify_internal_error_raises_instead_of_failing(tmp_path,
                                                         monkeypatch):
    fxp = _proved_fixture(tmp_path)

    def broken(*args, **kwargs):
        raise MultiproofError("internal fault")

    monkeypatch.setattr(dasnet, "shared_terms", broken)
    with pytest.raises(MultiproofError):
        run_cli(["verify", "--fixture", fxp])


def test_verify_internal_error_in_the_round_check_raises(tmp_path,
                                                        monkeypatch):
    fxp = _proved_fixture(tmp_path)

    def broken(self):
        raise KzgError("internal fault")

    monkeypatch.setattr(PairingTerms, "check", broken)
    with pytest.raises(KzgError):
        run_cli(["verify", "--fixture", fxp])


def test_verify_missing_sections(tmp_path, capsys):
    path = tmp_path / "empty.bin"
    path.write_bytes(encode_fixture([]))
    assert run_cli(["verify", "--fixture", str(path)]) == 2
    assert "malformed fixture: fixture is missing its 'SRS1' section" in \
        capsys.readouterr().err
    # a container cut inside its 5-byte header
    path.write_bytes(b"PMPD")
    assert run_cli(["verify", "--fixture", str(path)]) == 2
    assert "malformed fixture" in capsys.readouterr().err
    fx = str(tmp_path / "fx.bin")
    assert run_cli(["gen-fixture", "--output", fx,
                    "--rows", "2", "--cols", "4"]) == 0
    assert run_cli(["verify", "--fixture", fx]) == 2
    assert "fixture is missing its 'PRMS' section" in capsys.readouterr().err
    assert run_cli(["verify", "--fixture", str(tmp_path / "nope.bin")]) == 2
    assert "cannot read fixture" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["prove", "verify"])
def test_grid_that_is_not_a_codeword_is_malformed(tmp_path, capsys, command):
    sections = decode_fixture(open(_proved_fixture(tmp_path), "rb").read())
    damaged = []
    for tag, payload in sections:
        if tag == "GRID":
            # row 0, column 4: the first extended cell of the 2x4 grid,
            # after the 12-byte dimensions and the 8 domain points
            pos = 12 + 8 * 32 + 4 * 32
            payload = payload[:pos] + bytes([payload[pos] ^ 0x01]) \
                + payload[pos + 1:]
        damaged.append((tag, payload))
    bad = tmp_path / "bad.bin"
    bad.write_bytes(encode_fixture(damaged))
    args = [command, "--fixture", str(bad)]
    if command == "prove":
        args += ["--output", str(tmp_path / "out.bin")]
    assert run_cli(args) == 2
    assert "malformed fixture" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["prove", "verify"])
@pytest.mark.parametrize("tag", ["SRS1", "GRID", "PRMS"])
def test_repeated_single_valued_section_is_malformed(tmp_path, capsys,
                                                     command, tag):
    sections = decode_fixture(open(_proved_fixture(tmp_path), "rb").read())
    other = str(tmp_path / "other.bin")
    assert run_cli(["gen-fixture", "--output", other, "--rows", "2",
                    "--cols", "4", "--seed", "1"]) == 0
    # a second, different section of the tag after the proof objects
    extra = dict(decode_fixture(open(other, "rb").read()),
                 PRMS=encode_prove_params(2, 1))[tag]
    bad = tmp_path / "bad.bin"
    bad.write_bytes(encode_fixture(sections + [(tag, extra)]))
    args = [command, "--fixture", str(bad)]
    if command == "prove":
        args += ["--output", str(tmp_path / "out.bin")]
    assert run_cli(args) == 2
    assert f"malformed fixture: repeated {tag!r} section" in \
        capsys.readouterr().err


def _g2_start(payload):
    # the G2 powers follow the 4-byte degree bound d and d + 1 G1 powers
    return 4 + 48 * (int.from_bytes(payload[:4], "little") + 1)


def _degree_0_srs(payload):
    # the first G1 and the first G2 power under degree bound 0
    g2 = _g2_start(payload)
    return (0).to_bytes(4, "little") + payload[4:52] + payload[g2:g2 + 96]


def _doubled_point(payload, pos, cls):
    size = len(cls.generator().to_bytes())
    doubled = cls.from_bytes(payload[pos:pos + size]) * 2
    return payload[:pos] + doubled.to_bytes() + payload[pos + size:]


def _repeated_domain_point(payload):
    # the second of the 8 domain points, after the 12-byte dimensions,
    # becomes a copy of the first
    return payload[:44] + payload[12:44] + payload[76:]


FIXTURE_DAMAGE = {
    "degree-0-srs": ("SRS1", _degree_0_srs),
    # the 2x4 grid needs degree 3 for its rows and 4 for its groups of 4
    "degree-2-srs": ("SRS1", lambda payload: encode_srs(gen(2, 12345))),
    "degree-3-srs": ("SRS1", lambda payload: encode_srs(gen(3, 12345))),
    "g1-power-0-not-generator": (
        "SRS1", lambda payload: _doubled_point(payload, 4, G1Point)),
    "g2-power-0-not-generator": (
        "SRS1", lambda payload: _doubled_point(
            payload, _g2_start(payload), G2Point)),
    "zero-rows": ("GRID", lambda payload: bytes(4) + payload[4:]),
    "extension-1": ("GRID", lambda payload: payload[:8]
                    + (1).to_bytes(4, "little") + payload[12:]),
    "repeated-domain-point": ("GRID", _repeated_domain_point),
    # proof parameters the 8 columns and the degree-7 SRS cannot take
    "prms-0-1": ("PRMS", lambda payload: encode_prove_params(0, 1)),
    "prms-3-1": ("PRMS", lambda payload: encode_prove_params(3, 1)),
    "prms-4-0": ("PRMS", lambda payload: encode_prove_params(4, 0)),
    "prms-8-1": ("PRMS", lambda payload: encode_prove_params(8, 1)),
}


@pytest.mark.parametrize("damage", sorted(FIXTURE_DAMAGE))
def test_undecodable_srs_or_grid_is_malformed(tmp_path, capsys, damage):
    target, edit = FIXTURE_DAMAGE[damage]
    sections = decode_fixture(open(_proved_fixture(tmp_path), "rb").read())
    bad = tmp_path / "bad.bin"
    bad.write_bytes(encode_fixture(
        [(tag, edit(payload) if tag == target else payload)
         for tag, payload in sections]))
    assert run_cli(["verify", "--fixture", str(bad)]) == 2
    assert "malformed fixture" in capsys.readouterr().err


def test_internal_error_while_decoding_grid_raises(tmp_path, monkeypatch):
    fxp = _proved_fixture(tmp_path)

    def broken(*args, **kwargs):
        raise KzgError("internal fault")

    monkeypatch.setattr(wire, "extend_rows", broken)
    with pytest.raises(KzgError):
        run_cli(["verify", "--fixture", fxp])


def test_verify_rejects_short_params_section(tmp_path, capsys):
    sections = decode_fixture(open(_proved_fixture(tmp_path), "rb").read())
    bad = tmp_path / "bad.bin"
    bad.write_bytes(encode_fixture(
        [(tag, payload[:7] if tag == "PRMS" else payload)
         for tag, payload in sections]))
    assert run_cli(["verify", "--fixture", str(bad)]) == 2
    assert "malformed fixture" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-1"])
def test_prove_rejects_rows_per_group_below_one(tmp_path, capsys, value):
    fx = str(tmp_path / "fx.bin")
    assert run_cli(["gen-fixture", "--output", fx,
                    "--rows", "2", "--cols", "4"]) == 0
    assert run_cli(["prove", "--fixture", fx, "--output",
                    str(tmp_path / "fxp.bin"), "--group", "4",
                    "--rows-per-group", value]) == 2
    assert "error: --rows-per-group" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["storage-report", "ablation",
                                     "gen-fixture", "prove"])
def test_unwritable_output_exits_2(tmp_path, capsys, command):
    fx = str(tmp_path / "fx.bin")
    assert run_cli(["gen-fixture", "--output", fx,
                    "--rows", "2", "--cols", "4"]) == 0
    args = {
        "storage-report": ["--entries", "64", "--group", "4"],
        "ablation": ["--config", _tiny_config(tmp_path)],
        "gen-fixture": ["--rows", "2", "--cols", "4"],
        "prove": ["--fixture", fx],
    }[command]
    out = str(tmp_path / "missing-dir" / "out")
    assert run_cli([command, *args, "--output", out]) == 2
    assert f"error: cannot write {out}" in capsys.readouterr().err


def test_ablation_checks_its_output_before_the_runs(tmp_path, capsys,
                                                   monkeypatch):
    def no_session(*args):
        raise AssertionError("the session was built before the output "
                             "was checked")

    # no session, so no `ExperimentSession.run` either
    monkeypatch.setattr(cli, "ExperimentSession", no_session)
    out = str(tmp_path / "missing-dir" / "out.csv")
    assert run_cli(["ablation", "--config", _tiny_config(tmp_path),
                    "--output", out]) == 2
    assert f"error: cannot write {out}" in capsys.readouterr().err


OUT_OF_RANGE_SEEDS = ["99999999999999999999", str(1 << 63),
                      str(-(1 << 63) - 1)]


@pytest.mark.parametrize("seed", OUT_OF_RANGE_SEEDS)
def test_gen_fixture_rejects_out_of_range_seed_flag(tmp_path, capsys, seed):
    out = tmp_path / "fx.bin"
    assert run_cli(["gen-fixture", "--output", str(out),
                    "--seed", seed]) == 2
    assert "error: --seed must be between" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("seed", OUT_OF_RANGE_SEEDS)
def test_gen_fixture_rejects_out_of_range_seed_env(tmp_path, capsys,
                                                   monkeypatch, seed):
    monkeypatch.setenv("PMP_SEED", seed)
    out = tmp_path / "fx.bin"
    assert run_cli(["gen-fixture", "--output", str(out)]) == 2
    assert "error: PMP_SEED must be between" in capsys.readouterr().err
    assert not out.exists()


def test_gen_fixture_accepts_the_extreme_seeds(tmp_path):
    for seed in (str((1 << 63) - 1), str(-(1 << 63))):
        assert run_cli(["gen-fixture", "--output", str(tmp_path / "fx.bin"),
                        "--seed", seed]) == 0


def test_prove_rejects_group_above_the_srs_bound(tmp_path, capsys):
    # the 2x4 fixture's SRS has degree bound 7; 8 divides its 8 columns
    fx = str(tmp_path / "fx.bin")
    assert run_cli(["gen-fixture", "--output", fx,
                    "--rows", "2", "--cols", "4"]) == 0
    assert run_cli(["prove", "--fixture", fx, "--output",
                    str(tmp_path / "fxp.bin"), "--group", "8"]) == 2
    assert "error: --group 8 exceeds the SRS degree bound 7" in \
        capsys.readouterr().err


@pytest.mark.parametrize("group", ["3", "5", "6"])
def test_prove_rejects_a_group_that_does_not_divide_the_columns(
        tmp_path, capsys, group):
    # the 2x4 fixture has 8 extended columns and SRS degree bound 7
    fx = str(tmp_path / "fx.bin")
    assert run_cli(["gen-fixture", "--output", fx,
                    "--rows", "2", "--cols", "4"]) == 0
    out = tmp_path / "fxp.bin"
    assert run_cli(["prove", "--fixture", fx, "--output", str(out),
                    "--group", group]) == 2
    assert capsys.readouterr().err == \
        f"error: --group {group} does not divide the 8 extended columns\n"
    assert not out.exists()


def test_prove_internal_error_raises(tmp_path, monkeypatch):
    fx = str(tmp_path / "fx.bin")
    assert run_cli(["gen-fixture", "--output", fx,
                    "--rows", "2", "--cols", "4"]) == 0

    def broken(*args, **kwargs):
        raise KzgError("internal fault")

    monkeypatch.setattr(dasnet, "open_groups", broken)
    with pytest.raises(KzgError):
        run_cli(["prove", "--fixture", fx, "--output",
                 str(tmp_path / "fxp.bin")])


def test_gen_fixture_internal_error_raises(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise KzgError("internal fault")

    monkeypatch.setattr(cli, "gen", broken)
    with pytest.raises(KzgError):
        run_cli(["gen-fixture", "--output", str(tmp_path / "fx.bin")])
