import os
import random
import shlex
import struct
from pathlib import Path

import pytest

from mbcr.cli import main
from mbcr.codec import encode, validate_params
from mbcr.errors import ShareFormatError
from mbcr.gf import Field
from mbcr.sharefile import (
    HEADER_SIZE,
    ShareFile,
    file_to_stripes,
    pack_share_file,
    parse_share_file,
    read_share_file,
    stripes_to_file,
    write_share_file,
)


def make_share_file(node_id=1, stripes=2, alpha=7):
    rng = random.Random(node_id)
    return ShareFile(
        params=validate_params(5, 2, 3, 2, Field.gf256()),
        node_id=node_id,
        stripe_count=stripes,
        original_length=17,
        payload=bytes(rng.randrange(256) for _ in range(stripes * alpha)),
    )


class TestShareFile:
    def test_pack_parse_round_trip_is_byte_identity(self):
        sf = make_share_file()
        data = pack_share_file(sf)
        assert parse_share_file(data) == sf
        assert pack_share_file(parse_share_file(data)) == data

    def test_header_layout(self):
        data = pack_share_file(make_share_file())
        assert data[:4] == b"MBCR"
        assert data[4] == 1  # version
        assert data[5] == 1  # binary field kind
        assert int.from_bytes(data[6:8], "little") == 0x11D
        assert int.from_bytes(data[8:10], "little") == 5  # n
        assert len(data) == HEADER_SIZE + 14

    def test_parse_rejects_garbage(self):
        with pytest.raises(ShareFormatError):
            parse_share_file(b"nope")
        good = pack_share_file(make_share_file())
        with pytest.raises(ShareFormatError):
            parse_share_file(b"XXXX" + good[4:])
        with pytest.raises(ShareFormatError):
            parse_share_file(good[:-1])

    def test_file_io_atomic(self, tmp_path):
        sf = make_share_file()
        path = str(tmp_path / "s.mbcr")
        write_share_file(path, sf)
        assert read_share_file(path) == sf
        assert not [f for f in os.listdir(tmp_path) if f.startswith(".mbcr-tmp")]

    def test_striping_pads_with_zeros(self):
        stripes = file_to_stripes(b"abc", 2)
        assert stripes == [(97, 98), (99, 0)]
        assert stripes_to_file(stripes, 3) == b"abc"

    def test_empty_file_is_one_zero_stripe(self):
        stripes = file_to_stripes(b"", 12)
        assert stripes == [(0,) * 12]
        assert stripes_to_file(stripes, 0) == b""


class TestCli:
    def encode(self, tmp_path, data, n=5, k=2, d=3, r=2):
        src = tmp_path / "input.bin"
        src.write_bytes(data)
        out = tmp_path / "shares"
        rc = main(
            ["encode", "-n", str(n), "-k", str(k), "-d", str(d), "-r", str(r),
             str(src), "--out", str(out)]
        )
        assert rc == 0
        return out

    def test_params_ok(self, capsys):
        assert main(["params", "-n", "5", "-k", "2", "-d", "3", "-r", "2"]) == 0
        out = capsys.readouterr().out
        assert "block size (B)            : 12" in out
        assert "repair bandwidth (gamma)  : 7" in out

    def test_params_k_gt_d_is_usage_error(self, capsys):
        assert main(["params", "-n", "4", "-k", "3", "-d", "2", "-r", "2"]) == 2
        assert "k = 3 > d = 2" in capsys.readouterr().err

    def test_params_larger_example(self, capsys):
        assert main(["params", "-n", "10", "-k", "3", "-d", "5", "-r", "3"]) == 0
        out = capsys.readouterr().out
        assert "block size (B)            : 30" in out
        assert "share size (alpha)        : 12" in out

    def test_encode_share_file_sizes(self, tmp_path):
        out = self.encode(tmp_path, bytes(range(24)))
        files = sorted(os.listdir(out))
        assert files == [f"share_{i:03d}.mbcr" for i in range(1, 6)]
        for f in files:
            sf = read_share_file(str(out / f))
            assert sf.stripe_count == 2
            assert len(sf.payload) == 14

    def test_encode_reconstruct_round_trip(self, tmp_path):
        data = bytes(random.Random(0).randrange(256) for _ in range(100))
        out = self.encode(tmp_path, data)
        dest = tmp_path / "rec.bin"
        rc = main(
            ["reconstruct", str(out / "share_002.mbcr"), str(out / "share_004.mbcr"),
             "--out", str(dest)]
        )
        assert rc == 0
        assert dest.read_bytes() == data

    @pytest.mark.parametrize("size", [0, 1, 11, 13, 41])
    def test_share_files_hold_the_per_stripe_scalar_encoding(self, tmp_path, size):
        # Sizes 0, 1, B-1, B+1 and 3B+5 at (5,2,3,2), where B = 12.
        data = random.Random(size).randbytes(size)
        out = self.encode(tmp_path, data)
        p = validate_params(5, 2, 3, 2, Field.gf256())
        per_stripe = [encode(s, p) for s in file_to_stripes(data, p.block_size)]
        for i in range(1, 6):
            sf = read_share_file(str(out / f"share_{i:03d}.mbcr"))
            assert sf.stripe_count == len(per_stripe)
            assert sf.payload == b"".join(bytes(s[i - 1].evals) for s in per_stripe)
        dest = tmp_path / "rec.bin"
        readers = [str(out / "share_005.mbcr"), str(out / "share_002.mbcr")]
        assert main(["reconstruct", *readers, "--out", str(dest)]) == 0
        assert dest.read_bytes() == data
        rep = tmp_path / "repaired"
        survivors = [str(out / f"share_{i:03d}.mbcr") for i in (2, 4, 5)]
        assert main(["repair", *survivors, "--failed", "1,3", "--out", str(rep)]) == 0
        for name in ("share_001.mbcr", "share_003.mbcr"):
            assert (rep / name).read_bytes() == (out / name).read_bytes()

    def test_reconstruct_checks_every_share_past_k(self, tmp_path, capsys):
        data = random.Random(1).randbytes(100)  # 9 stripes
        out = self.encode(tmp_path, data)
        paths = [str(out / f"share_{i:03d}.mbcr") for i in (1, 2, 3)]
        dest = tmp_path / "rec.bin"
        assert main(["reconstruct", *paths, "--out", str(dest)]) == 0
        assert dest.read_bytes() == data
        dest.unlink()
        # Flip symbol 3 of stripe 2 of the third share (share size 7).
        blob = bytearray((out / "share_003.mbcr").read_bytes())
        blob[HEADER_SIZE + 2 * 7 + 3] ^= 0x40
        (out / "share_003.mbcr").write_bytes(bytes(blob))
        capsys.readouterr()
        assert main(["reconstruct", *paths, "--out", str(dest)]) == 1
        err = capsys.readouterr().err
        assert "share 3 is inconsistent" in err and "first bad stripe: 2" in err
        assert not dest.exists()

    def test_a_mismatch_names_the_shares_decoded_from(self, tmp_path, capsys):
        # With shares 1 and 3 decoded first, a bad byte in share 1 makes the
        # decode disagree with the good share 4: all that is known is that
        # share 4 and shares 1, 3 do not agree, and the error says so.
        data = random.Random(1).randbytes(100)
        out = self.encode(tmp_path, data)
        blob = bytearray((out / "share_001.mbcr").read_bytes())
        blob[HEADER_SIZE] ^= 0x01
        (out / "share_001.mbcr").write_bytes(bytes(blob))
        paths = [str(out / f"share_{i:03d}.mbcr") for i in (1, 3, 4)]
        capsys.readouterr()
        dest = tmp_path / "rec.bin"
        assert main(["reconstruct", *paths, "--out", str(dest)]) == 1
        err = capsys.readouterr().err
        assert "share 4 is inconsistent with the data decoded from shares 1, 3" in err
        assert "first bad stripe: 0" in err
        assert not dest.exists()

    def test_reconstruct_with_too_few_shares(self, tmp_path, capsys):
        out = self.encode(tmp_path, b"hello world")
        rc = main(
            ["reconstruct", str(out / "share_001.mbcr"), "--out", str(tmp_path / "x")]
        )
        assert rc == 2
        assert "at least k" in capsys.readouterr().err

    def test_reconstruct_with_mismatched_headers(self, tmp_path, capsys):
        out1 = self.encode(tmp_path, b"abc")
        tmp2 = tmp_path / "other"
        tmp2.mkdir()
        out2 = self.encode(tmp2, b"abc", n=6, k=2, d=3, r=2)
        rc = main(
            ["reconstruct", str(out1 / "share_001.mbcr"), str(out2 / "share_002.mbcr"),
             "--out", str(tmp_path / "x")]
        )
        assert rc == 2
        assert "mismatched" in capsys.readouterr().err

    # (byte offset, struct format, values) patched into a (5,2,3,2) header.
    @pytest.mark.parametrize(
        "offset, fmt, values, message",
        [
            (16, "<H", (0,), "node id 0 is outside [1, 5]"),
            (16, "<H", (9,), "node id 9 is outside [1, 5]"),
            (10, "<H", (4,), "invalid code parameters in header: k = 4 > d = 3"),
            (5, "<BH", (0, 6), "modulus 6 is not a prime"),
            (22, "<Q", (13,), "recorded length 13 exceeds the 12 data symbols"),
        ],
    )
    def test_reconstruct_rejects_a_bad_header(
        self, tmp_path, capsys, offset, fmt, values, message
    ):
        out = self.encode(tmp_path, b"hello world")
        path = out / "share_001.mbcr"
        blob = bytearray(path.read_bytes())
        struct.pack_into(fmt, blob, offset, *values)
        path.write_bytes(bytes(blob))
        rc = main(["reconstruct", str(path), str(out / "share_002.mbcr"),
                   "--out", str(tmp_path / "x")])
        assert rc == 2
        err = capsys.readouterr().err
        assert message in err and err.count("\n") == 1

    def test_reconstruct_rejects_a_payload_symbol_outside_the_field(
        self, tmp_path, capsys
    ):
        p = validate_params(5, 2, 3, 2, Field.prime(11))
        shares = encode(tuple(i % 11 for i in range(p.block_size)), p)
        paths = []
        for share in shares[:2]:
            payload = bytes(share.evals)
            if share.node_id == 1:
                payload = payload[:-1] + bytes([11])
            path = str(tmp_path / f"share_{share.node_id}.mbcr")
            write_share_file(path, ShareFile(p, share.node_id, 1, p.block_size, payload))
            paths.append(path)
        rc = main(["reconstruct", *paths, "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "11 is not an element of GF(11)" in capsys.readouterr().err

    def test_prime_field_files_hold_one_stripe(self, tmp_path, capsys):
        # Prime-field symbols do not pack into columns; encode never
        # writes such files, and a hand-made one is refused.
        p = validate_params(5, 2, 3, 2, Field.prime(11))
        paths = []
        for i in (1, 2):
            path = str(tmp_path / f"share_{i}.mbcr")
            write_share_file(path, ShareFile(p, i, 2, 24, bytes(2 * p.share_size)))
            paths.append(path)
        rc = main(["reconstruct", *paths, "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "GF(11) symbols do not pack into columns" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["reconstruct", "repair"])
    def test_zero_stripe_share_files_are_rejected(self, tmp_path, capsys, command):
        # encode writes at least one stripe, so a file with none is malformed.
        paths = []
        for i in range(1, 6):
            sf = ShareFile(make_share_file().params, i, 0, 0, b"")
            paths.append(str(tmp_path / f"share_{i:03d}.mbcr"))
            write_share_file(paths[-1], sf)
        if command == "reconstruct":
            argv = ["reconstruct", *paths[:2], "--out", str(tmp_path / "x")]
        else:
            argv = ["repair", *paths[2:], "--failed", "1,2", "--out", str(tmp_path / "r")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "stripe count is 0" in err and err.count("\n") == 1
        assert not (tmp_path / "x").exists() and not (tmp_path / "r").exists()

    def test_readme_cli_block_runs(self, tmp_path, monkeypatch):
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        block = readme.split("## CLI\n\n```sh\n", 1)[1].split("```", 1)[0]
        monkeypatch.chdir(tmp_path)
        (tmp_path / "input.bin").write_bytes(bytes(range(200)))
        for line in block.splitlines():
            argv = shlex.split(line, comments=True)
            assert argv[0] == "mbcr"
            assert main(argv[1:]) == 0, line

    def test_repair_regenerates_identical_files(self, tmp_path, capsys):
        out = self.encode(tmp_path, bytes(range(30)))
        rep = tmp_path / "repaired"
        survivors = [str(out / f"share_{i:03d}.mbcr") for i in (3, 4, 5)]
        rc = main(["repair", *survivors, "--failed", "1,2", "--seed", "9",
                   "--out", str(rep)])
        assert rc == 0
        for i in (1, 2):
            orig = (out / f"share_{i:03d}.mbcr").read_bytes()
            assert (rep / f"share_{i:03d}.mbcr").read_bytes() == orig
        text = capsys.readouterr().out
        assert "= 7 symbols/stripe" in text
        assert "system total: 14 symbols/stripe" in text

    def test_repair_with_explicit_helpers(self, tmp_path):
        out = self.encode(tmp_path, b"x" * 12, n=7, k=2, d=3, r=2)
        rep = tmp_path / "repaired"
        survivors = [str(out / f"share_{i:03d}.mbcr") for i in (3, 4, 5, 6, 7)]
        rc = main(["repair", *survivors, "--failed", "1,2",
                   "--helpers", "1:3+4+5;2:4+5+6", "--out", str(rep)])
        assert rc == 0
        assert (rep / "share_001.mbcr").read_bytes() == (
            out / "share_001.mbcr"
        ).read_bytes()

    def test_repair_draws_helpers_from_the_supplied_shares(self, tmp_path, capsys):
        # Nodes 1-3 of (10,4,6,3) failed; shares 4-9 are d = 6 helpers, and
        # no file is given for node 10.
        data = random.Random(10).randbytes(2000)
        out = self.encode(tmp_path, data, n=10, k=4, d=6, r=3)
        shares = [str(out / f"share_{i:03d}.mbcr") for i in range(4, 10)]
        for seed in range(3):
            rep = tmp_path / f"repaired{seed}"
            rc = main(["repair", *shares, "--failed", "1,2,3", "--seed", str(seed),
                       "--out", str(rep)])
            assert rc == 0
            for i in (1, 2, 3):
                name = f"share_{i:03d}.mbcr"
                assert (rep / name).read_bytes() == (out / name).read_bytes()
        rc = main(["repair", *shares[1:], "--failed", "1,2,3", "--out", str(rep)])
        assert rc == 2
        assert "need d = 6 survivors" in capsys.readouterr().err

    def test_repair_wrong_failed_count(self, tmp_path, capsys):
        out = self.encode(tmp_path, b"abcdef")
        rc = main(["repair", str(out / "share_003.mbcr"), str(out / "share_004.mbcr"),
                   str(out / "share_005.mbcr"), "--failed", "1",
                   "--out", str(tmp_path / "r")])
        assert rc == 2
        assert "exactly r" in capsys.readouterr().err

    def test_verify_passes(self, capsys):
        rc = main(["verify", "-n", "5", "-k", "2", "-d", "3", "-r", "2", "-q", "7"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "CHECK cutset_bound_equality" in out

    def test_verify_fault_injection_fails(self, capsys):
        rc = main(["verify", "-n", "5", "-k", "2", "-d", "3", "-r", "2", "-q", "7",
                   "--inject-fault"])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out

    def test_verify_passes_at_k1(self, capsys):
        # k = 1: every node spans the whole block, so pairwise intersections
        # have dimension alpha; the checks must accept this correct code.
        rc = main(["verify", "-n", "4", "-k", "1", "-d", "2", "-r", "2", "-q", "5"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "FAIL" not in out
        assert "CHECK property1_pair_intersection i=1,j=2 PASS" in out

    def test_verify_fault_injection_fails_at_k1(self, capsys):
        rc = main(["verify", "-n", "4", "-k", "1", "-d", "2", "-r", "2", "-q", "5",
                   "--inject-fault"])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out

    def test_consecutive_calls_share_no_parsed_state(self, capsys):
        # The parser is built once per process; a flag given to one call
        # must not carry over to the next.
        argv = ["verify", "-n", "5", "-k", "2", "-d", "3", "-r", "2", "-q", "7"]
        assert main([*argv, "--inject-fault"]) == 1
        assert "FAIL" in capsys.readouterr().out
        assert main(argv) == 0
        assert "FAIL" not in capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            main(["verify", "-n", "5"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("q", [0, 1, 4])
    def test_a_bad_modulus_is_a_usage_error(self, capsys, q):
        # 0 must not fall through to the default field.
        for command in ("params", "verify", "bound", "simulate"):
            argv = [command, "-n", "3", "-k", "1", "-d", "1", "-r", "1", "-q", str(q)]
            assert main(argv) == 2, command
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"modulus {q} is not a prime" in captured.err, command

    @pytest.mark.parametrize("n", [65522, 70000, 10**18])
    def test_a_node_count_above_the_largest_prime_field_is_a_usage_error(
        self, capsys, n
    ):
        # The default prime field is the smallest prime >= n, and Field
        # accepts none above 65521 (the next prime is 65537); n = 10**18
        # must be refused before the search for one starts.
        for command in ("verify", "bound"):
            argv = [command, "-n", str(n), "-k", "1", "-d", "1", "-r", "1"]
            assert main(argv) == 2, command
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"n = {n}" in captured.err, command

    def test_bound_command(self, capsys):
        assert main(["bound", "-n", "5", "-k", "2", "-d", "3", "-r", "2"]) == 0
        out = capsys.readouterr().out
        assert "cut-set max file size at MBCR point: 12" in out
        assert "bound met with equality: True" in out

    @pytest.mark.parametrize("size", ["0", "-5"])
    def test_bound_rejects_a_file_size_below_one(self, capsys, size):
        argv = ["bound", "-n", "5", "-k", "2", "-d", "3", "-r", "2", "--file-size", size]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--file-size must be positive, got {size}" in captured.err

    def test_simulate_rejects_a_negative_stage_count(self, capsys):
        argv = ["simulate", "-n", "5", "-k", "2", "-d", "3", "-r", "2", "--stages", "-1"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--stages must not be negative, got -1" in captured.err

    def test_simulate_twenty_stages(self, capsys):
        rc = main(["simulate", "-n", "5", "-k", "2", "-d", "3", "-r", "2",
                   "--stages", "20", "--seed", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "cumulative repair bandwidth: 280" in out

    def test_simulate_r1_no_phase2(self, capsys):
        rc = main(["simulate", "-n", "4", "-k", "2", "-d", "2", "-r", "1",
                   "--stages", "1", "--seed", "0"])
        assert rc == 0
        # gamma = 2d + r - 1 = 4, one newcomer, one stage
        assert "cumulative repair bandwidth: 4" in capsys.readouterr().out

    def test_seed_determinism(self, tmp_path, capsys):
        out = self.encode(tmp_path, bytes(range(40)))
        survivors = [str(out / f"share_{i:03d}.mbcr") for i in (2, 3, 5)]
        r1, r2 = tmp_path / "r1", tmp_path / "r2"
        for rep in (r1, r2):
            rc = main(["repair", *survivors, "--failed", "1,4", "--seed", "11",
                       "--out", str(rep)])
            assert rc == 0
        for name in os.listdir(r1):
            assert (r1 / name).read_bytes() == (r2 / name).read_bytes()
