import errno
import os
import random
import shlex
import struct
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import parameter_grid
from mbcr import bounds, cli, codec, poly, repair, subspace
from mbcr.cli import main
from mbcr.codec import encode, validate_params
from mbcr.errors import ShareFormatError
from mbcr.gf import Field
from mbcr.sharefile import (
    HEADER_SIZE,
    ShareFile,
    atomic_write,
    file_to_stripes,
    pack_share_file,
    parse_share_file,
    read_share_file,
    read_shares,
    stripes_to_file,
    write_share_file,
)


def make_share_file(node_id=1, alpha=7):
    # 17 bytes at (5,2,3,2), where B = 12, fill 2 stripes.
    rng = random.Random(node_id)
    return ShareFile(
        params=validate_params(5, 2, 3, 2, Field.gf256()),
        node_id=node_id,
        original_length=17,
        payload=bytes(rng.randrange(256) for _ in range(2 * alpha)),
    )


def header_stripe_count(path):
    """The stripe count a share file's header carries (bytes 18-21)."""
    return int.from_bytes(Path(path).read_bytes()[18:22], "little")


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

    @pytest.mark.parametrize("node_id", [0, 6])
    def test_parse_refuses_a_node_id_outside_the_code(self, node_id):
        # codec.share_point_nodes refuses such an id too, later, so the CLI
        # cases of test_reconstruct_rejects_a_bad_header do not show this check.
        blob = bytearray(pack_share_file(make_share_file()))
        struct.pack_into("<H", blob, 16, node_id)
        message = rf"node id {node_id} is outside \[1, 5\]"
        with pytest.raises(ShareFormatError, match=message):
            parse_share_file(bytes(blob))

    def test_pack_refuses_a_payload_one_symbol_short(self):
        sf = make_share_file()
        short = replace(sf, payload=sf.payload[:-1])
        message = "payload length 13 does not match 2 stripes of 7 symbols"
        with pytest.raises(ShareFormatError, match=message):
            pack_share_file(short)

    def test_pack_refuses_a_prime_field_share_file(self):
        # The reader accepts GF(256) only, so the writer never makes another.
        p = validate_params(5, 2, 3, 2, Field.prime(11))
        sf = ShareFile(p, 1, p.block_size, bytes(p.share_size))
        with pytest.raises(ShareFormatError, match=r"GF\(256\) symbols, not GF\(11\)"):
            pack_share_file(sf)

    def test_writer_and_reader_agree_on_every_record(self):
        # Every code on the n <= 7 grid, every node id, and recorded lengths
        # 0, 1, B - 1, B, B + 1 and 3B + 1, each with the payload that
        # length fills: the reader reads back what the writer writes, and
        # the writer writes back what the reader reads.
        rng = random.Random(28)
        for n, k, d, r in parameter_grid(7):
            p = validate_params(n, k, d, r, Field.gf256())
            B = p.block_size
            for length in sorted({0, 1, B - 1, B, B + 1, 3 * B + 1}):
                size = max(1, -(-length // B)) * p.share_size
                for i in range(1, n + 1):
                    sf = ShareFile(p, i, length, rng.randbytes(size))
                    blob = pack_share_file(sf)
                    assert parse_share_file(blob) == sf
                    assert pack_share_file(parse_share_file(blob)) == blob

    # Each record is one the reader would refuse: 17 bytes at (5,2,3,2)
    # fill 2 stripes of 7 symbols, and a length is a u64.
    @pytest.mark.parametrize(
        "change, message",
        [({"node_id": 0}, r"node id 0 is outside \[1, 5\]"),
         ({"node_id": 6}, r"node id 6 is outside \[1, 5\]"),
         ({"payload": bytes(7)}, "payload length 7 does not match 2 stripes of 7 symbols"),
         ({"original_length": -1}, r"recorded length -1 is outside \[0, 2\^64\)"),
         ({"original_length": 2**64}, r"recorded length \d+ is outside \[0, 2\^64\)")],
        ids=["node-0", "node-n+1", "one-stripe-short", "negative-length", "length-2^64"],
    )
    def test_pack_refuses_what_parse_refuses(self, change, message):
        with pytest.raises(ShareFormatError, match=message):
            pack_share_file(replace(make_share_file(), **change))

    def test_file_io_atomic(self, tmp_path):
        sf = make_share_file()
        path = str(tmp_path / "s.mbcr")
        write_share_file(path, sf)
        assert read_share_file(path) == sf
        assert not [f for f in os.listdir(tmp_path) if f.startswith(".mbcr-tmp")]

    def test_atomic_write_errors_name_the_target(self, tmp_path):
        # Each OSError keeps its errno and strerror but names the path
        # given, not the temp file, and no temp file is left.
        missing = str(tmp_path / "missing" / "s.mbcr")
        with pytest.raises(FileNotFoundError) as exc:
            atomic_write(missing, b"x")
        assert (exc.value.errno, exc.value.filename) == (errno.ENOENT, missing)
        target = tmp_path / "dir"
        target.mkdir()
        with pytest.raises(IsADirectoryError) as exc:
            atomic_write(str(target), b"x")
        assert (exc.value.errno, exc.value.filename) == (errno.EISDIR, str(target))
        assert exc.value.filename2 is None
        assert not list(tmp_path.rglob(".mbcr-tmp-*"))

    def test_read_shares_refuses_an_empty_set(self):
        # As reconstruct([]), encode(()) and run_repair([]) do: a typed
        # error, not an IndexError.
        with pytest.raises(ShareFormatError, match="no share files"):
            read_shares([])

    def test_striping_pads_with_zeros(self):
        stripes = file_to_stripes(b"abc", 2)
        assert stripes == [(97, 98), (99, 0)]
        assert stripes_to_file(stripes, 3) == b"abc"

    def test_empty_file_is_one_zero_stripe(self):
        stripes = file_to_stripes(b"", 12)
        assert stripes == [(0,) * 12]
        assert stripes_to_file(stripes, 0) == b""


# The header of share 1 of "hello world" at (5,2,3,2), and part of the error
# that refuses it with bit 0 of byte 0, 1, ... flipped: in the magic,
# version, field kind, modulus, n, k, d (d = 2 makes B = 8, so 11 bytes
# fill 2 stripes), r, node id, stripe count and recorded length.
HELLO_HEADER = pack_share_file(
    ShareFile(validate_params(5, 2, 3, 2, Field.gf256()), 1, 11, bytes(7)))[:HEADER_SIZE]
HEADER_BIT_FLIPS = [
    "bad magic b'LBCR'", "bad magic b'MCCR'", "bad magic b'MBBR'", "bad magic b'MBCS'",
    "unsupported version 0",
    "field kind 0, modulus 0x11d is not GF(256)", "field kind 1, modulus 0x11c is not GF(256)",
    "field kind 1, modulus 0x1d is not GF(256)",
    "d + r = 5 exceeds n = 4", "field order 256 is smaller than n = 261",
    "mismatched code parameters", "k = 258 > d = 3",
    "stripe count is 1, but a recorded length of 11 fills 2", "d + r = 261 exceeds n = 5",
    "d + r = 6 exceeds n = 5", "d + r = 261 exceeds n = 5",
    "node id 0 is outside [1, 5]", "node id 257 is outside [1, 5]",
    *(f"stripe count is {1 ^ 256**i}, but a recorded length of 11 fills 1" for i in range(4)),
    "mismatched recorded lengths",
    *(f"stripe count is 1, but a recorded length of {11 ^ 256**i} fills" for i in range(1, 8)),
]


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

    def test_params_defaults_to_gf256(self, capsys):
        assert main(["params", "-n", "5", "-k", "2", "-d", "3", "-r", "2"]) == 0
        assert "n=5 k=2 d=3 r=2 field=GF(256)\n" in capsys.readouterr().out

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
            assert header_stripe_count(out / f) == 2
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
            assert header_stripe_count(out / f"share_{i:03d}.mbcr") == len(per_stripe)
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

    @pytest.mark.xfail(
        strict=True,
        reason="exactly k shares carry too little redundancy to check every "
        "symbol: a corrupt share can decode to wrong bytes with exit 0",
    )
    def test_exactly_k_shares_never_give_wrong_bytes_with_exit_0(self, tmp_path):
        # Flip payload byte 0 of share 1 and read shares 1 and 3 only, at
        # (5,2,3,2): the output differs from the input at byte 1.
        data = random.Random(1).randbytes(100)
        out = self.encode(tmp_path, data)
        blob = bytearray((out / "share_001.mbcr").read_bytes())
        blob[HEADER_SIZE] ^= 0x01
        (out / "share_001.mbcr").write_bytes(bytes(blob))
        paths = [str(out / f"share_{i:03d}.mbcr") for i in (1, 3)]
        dest = tmp_path / "rec.bin"
        rc = main(["reconstruct", *paths, "--out", str(dest)])
        assert rc != 0 or dest.read_bytes() == data

    # At (14,10,10,4), all 14 shares are read back, then again with the last
    # symbol (a g sample) of the last stripe flipped in share 1, within the
    # k decoded from, or in share 11 or 14, past them. One codec call per
    # file runs its maps with 10 and 14 outputs packed, once per stripe,
    # below 10 and 14 stripes, and per element on columns from there.
    @pytest.mark.parametrize(
        "node, stripes",
        [pytest.param(1, 3, id="1"), pytest.param(11, 3, id="11"),
         *(pytest.param(14, s, id=f"14-{s}-stripes") for s in (2, 9, 10, 13, 14, 40))],
    )
    def test_a_per_stripe_mismatch_names_the_file_stripe(
        self, tmp_path, capsys, node, stripes
    ):
        data = random.Random(stripes).randbytes(stripes * 140 - 7)
        out = self.encode(tmp_path, data, 14, 10, 10, 4)
        paths = [str(out / f"share_{i:03d}.mbcr") for i in range(1, 15)]
        dest = tmp_path / "rec.bin"
        assert main(["reconstruct", *paths, "--out", str(dest)]) == 0
        assert dest.read_bytes() == data
        dest.unlink()
        path = out / f"share_{node:03d}.mbcr"
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0x40
        path.write_bytes(bytes(blob))
        capsys.readouterr()
        assert main(["reconstruct", *paths, "--out", str(dest)]) == 1
        err = capsys.readouterr().err
        assert f"share {node} is inconsistent" in err
        assert f"first bad stripe: {stripes - 1}" in err
        assert not dest.exists()

    @pytest.mark.parametrize("code", [(5, 2, 3, 2), (10, 4, 6, 3), (14, 10, 10, 4)])
    def test_both_orientations_match_the_library_column_path(self, tmp_path, code):
        # One codec call per file, whose maps run packed while the stripe
        # count is below their output counts (at most n) and per element
        # from there: from 1 stripe to n + 2, past the crossover of every
        # map, share files, read output and regenerated shares hold the
        # per-stripe scalar encoding.
        n, k, d, r = code
        p = validate_params(n, k, d, r, Field.gf256())
        rng = random.Random(n)
        for count in range(1, n + 3):
            data = rng.randbytes(count * p.block_size - rng.randrange(p.block_size))
            work = tmp_path / str(count)
            work.mkdir()
            out = self.encode(work, data, n, k, d, r)
            path = lambda i: str(out / f"share_{i:03d}.mbcr")
            per_stripe = [encode(s, p) for s in file_to_stripes(data, p.block_size)]
            for i in range(1, n + 1):
                sf = read_share_file(path(i))
                assert sf.payload == b"".join(bytes(s[i - 1].evals) for s in per_stripe)
            readers = [path(i) for i in rng.sample(range(1, n + 1), k + 1)]
            assert main(["reconstruct", *readers, "--out", str(work / "rec.bin")]) == 0
            assert (work / "rec.bin").read_bytes() == data
            failed = sorted(rng.sample(range(1, n + 1), r))
            survivors = [path(i) for i in range(1, n + 1) if i not in failed]
            argv = ["repair", *survivors, "--failed", ",".join(map(str, failed))]
            assert main([*argv, "--seed", str(count), "--out", str(work / "rep")]) == 0
            for i in failed:
                name = f"share_{i:03d}.mbcr"
                assert (work / "rep" / name).read_bytes() == (out / name).read_bytes()

    @pytest.mark.parametrize("count", [1, 3, 40])
    def test_each_file_command_makes_one_codec_call(self, tmp_path, monkeypatch, count):
        # At (14,10,10,4), whatever the stripe count, and none passes the
        # count: encode and reconstruct take data and params, run_repair
        # shares, plan and params.
        calls = []

        def spy(fn):
            def wrapped(*args):
                calls.append((fn.__name__, len(args)))
                return fn(*args)
            return wrapped

        monkeypatch.setattr(cli, "encode", spy(codec.encode))
        monkeypatch.setattr(cli, "reconstruct", spy(codec.reconstruct))
        monkeypatch.setattr(cli, "run_repair", spy(repair.run_repair))
        data = random.Random(count).randbytes(140 * count - 1)
        out = self.encode(tmp_path, data, 14, 10, 10, 4)
        paths = [str(out / f"share_{i:03d}.mbcr") for i in range(1, 15)]
        assert main(["reconstruct", *paths[:10], "--out", str(tmp_path / "rec.bin")]) == 0
        argv = ["repair", *paths[4:], "--failed", "1,2,3,4", "--out", str(tmp_path / "r")]
        assert main(argv) == 0
        assert calls == [("encode", 2), ("reconstruct", 2), ("run_repair", 3)]

    def test_output_files_get_the_umask_mode(self, tmp_path):
        # As open(path, "wb") creates a file: 0o666 less the umask, also
        # when the output replaces a file of another mode.
        old = os.umask(0o027)
        try:
            out = self.encode(tmp_path, b"cooperative repair")
            dest = tmp_path / "rec.bin"
            dest.touch(mode=0o600)
            paths = [str(out / f"share_{i:03d}.mbcr") for i in range(1, 6)]
            assert main(["reconstruct", *paths[:2], "--out", str(dest)]) == 0
            argv = ["repair", *paths[2:], "--failed", "1,2", "--out", str(tmp_path / "r")]
            assert main(argv) == 0
            outputs = [*out.iterdir(), dest, *(tmp_path / "r").iterdir()]
        finally:
            os.umask(old)
        assert len(outputs) == 8
        assert {oct(path.stat().st_mode & 0o777) for path in outputs} == {oct(0o640)}

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
        assert "mismatched code parameters" in capsys.readouterr().err

    # The second set differs from a 3-byte (5,2,3,2) encoding in one header
    # field: 15 bytes span 2 stripes, and its recorded length is patched to 3,
    # which fills 1, so each of its files is refused as it is parsed.
    @pytest.mark.parametrize("command", ["reconstruct", "repair"])
    @pytest.mark.parametrize(
        "other, length, message",
        [(b"x" * 15, 3, "stripe count is 2, but a recorded length of 3 fills 1"),
         (b"abcd", 4, "mismatched recorded lengths")],
    )
    def test_a_set_differing_in_one_header_field_names_it(
        self, tmp_path, capsys, command, other, length, message
    ):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        out1 = self.encode(tmp_path / "a", b"abc")
        out2 = self.encode(tmp_path / "b", other)
        for path in out2.iterdir():
            blob = bytearray(path.read_bytes())
            struct.pack_into("<Q", blob, 22, length)
            path.write_bytes(bytes(blob))
        if command == "reconstruct":
            paths = [str(out1 / "share_001.mbcr"), str(out2 / "share_002.mbcr")]
            argv = ["reconstruct", *paths, "--out", str(tmp_path / "x")]
        else:
            paths = [str(out1 / "share_003.mbcr"), str(out1 / "share_004.mbcr"),
                     str(out2 / "share_005.mbcr")]
            argv = ["repair", *paths, "--failed", "1,2", "--out", str(tmp_path / "r")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert message in err and err.count("\n") == 1
        assert not (tmp_path / "x").exists() and not (tmp_path / "r").exists()

    # (byte offset, struct format, values) patched into a (5,2,3,2) header.
    @pytest.mark.parametrize(
        "offset, fmt, values, message",
        [
            (16, "<H", (0,), "node id 0 is outside [1, 5]"),
            (16, "<H", (9,), "node id 9 is outside [1, 5]"),
            (10, "<H", (4,), "invalid code parameters in header: k = 4 > d = 3"),
            (5, "<BH", (0, 11), "field kind 0, modulus 0xb is not GF(256)"),
            (22, "<Q", (13,), "stripe count is 1, but a recorded length of 13 fills 2"),
            (5, "<BH", (1, 0x11B), "field kind 1, modulus 0x11b is not GF(256)"),
            (4, "<B", (2,), "unsupported version 2"),
            # Bit 0 of each header byte, flipped.
            *((offset, "<B", (HELLO_HEADER[offset] ^ 1,), message)
              for offset, message in enumerate(HEADER_BIT_FLIPS)),
        ],
    )
    def test_reconstruct_rejects_a_bad_header(
        self, tmp_path, capsys, offset, fmt, values, message
    ):
        out = self.encode(tmp_path, b"hello world")
        path = out / "share_001.mbcr"
        blob = bytearray(path.read_bytes())
        assert blob[:HEADER_SIZE] == HELLO_HEADER
        struct.pack_into(fmt, blob, offset, *values)
        path.write_bytes(bytes(blob))
        rc = main(["reconstruct", str(path), str(out / "share_002.mbcr"),
                   "--out", str(tmp_path / "x")])
        assert rc == 2
        err = capsys.readouterr().err
        assert message in err and err.count("\n") == 1
        assert not (tmp_path / "x").exists()
        assert not list(tmp_path.rglob(".mbcr-tmp-*"))

    def test_reconstruct_into_an_existing_directory_is_refused(self, tmp_path, capsys):
        # The temp file is written, then cannot be renamed onto the
        # directory: it is removed and the error re-raised. An --out in a
        # missing directory is refused as well, and both errors name --out.
        out = self.encode(tmp_path, b"hello world")
        target = tmp_path / "x"
        target.mkdir()
        for dest, reason in ((target, "Is a directory"),
                             (tmp_path / "missing" / "out.bin", "No such file or directory")):
            rc = main(["reconstruct", str(out / "share_001.mbcr"), str(out / "share_002.mbcr"),
                       "--out", str(dest)])
            assert rc == 2
            err = capsys.readouterr().err
            assert reason in err and err.count("\n") == 1
            assert str(dest) in err and ".mbcr-tmp" not in err
        assert list(target.iterdir()) == []
        assert not list(tmp_path.rglob(".mbcr-tmp-*"))

    @pytest.mark.parametrize("alias", ["same-path", "other-path", "hard-link"])
    def test_reconstruct_refuses_to_overwrite_an_input_share(self, tmp_path, capsys, alias):
        out = self.encode(tmp_path, b"hello world")
        share = out / "share_001.mbcr"
        before = share.read_bytes()
        target = {"same-path": share, "other-path": out / ".." / out.name / share.name,
                  "hard-link": tmp_path / "link.mbcr"}[alias]
        if alias == "hard-link":
            os.link(share, target)
        rc = main(["reconstruct", str(share), str(out / "share_002.mbcr"),
                   "--out", str(target)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"--out {target} is one of the input share files" in err
        assert err.count("\n") == 1
        assert share.read_bytes() == before
        assert not list(tmp_path.rglob(".mbcr-tmp-*"))

    def test_encode_refuses_more_nodes_than_gf256_has_points(self, tmp_path, capsys):
        src = tmp_path / "input.bin"
        src.write_bytes(b"abc")
        out = tmp_path / "shares"
        argv = ["encode", "-n", "257", "-k", "2", "-d", "3", "-r", "2", str(src)]
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "n = 257" in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, message",
        [
            ("reconstruct", "duplicate node ids in [3, 3]"),
            ("repair", "survivor node id 3 is supplied more than once"),
        ],
    )
    def test_a_share_file_supplied_twice_is_refused(
        self, tmp_path, capsys, command, message
    ):
        out = self.encode(tmp_path, b"cooperative repair")
        paths = [str(out / f"share_{i:03d}.mbcr") for i in (3, 3, 4, 5)]
        if command == "reconstruct":
            argv = ["reconstruct", *paths[:2], "--out", str(tmp_path / "x")]
        else:
            argv = ["repair", *paths, "--failed", "1,2", "--out", str(tmp_path / "r")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert message in err and err.count("\n") == 1
        assert not (tmp_path / "x").exists() and not (tmp_path / "r").exists()

    @pytest.mark.parametrize("command", ["reconstruct", "repair"])
    def test_zero_stripe_share_files_are_rejected(self, tmp_path, capsys, command):
        # encode writes at least one stripe, so a file with none is malformed.
        # pack_share_file refuses to write one: patch the header's count to 0
        # in valid records of an empty file and cut their payloads.
        p = make_share_file().params
        paths = []
        for i in range(1, 6):
            blob = bytearray(pack_share_file(ShareFile(p, i, 0, bytes(p.share_size))))
            struct.pack_into("<I", blob, 18, 0)
            paths.append(str(tmp_path / f"share_{i:03d}.mbcr"))
            Path(paths[-1]).write_bytes(bytes(blob[:HEADER_SIZE]))
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

    def test_readme_python_blocks_run(self):
        # In order and in one namespace, as a reader runs them.
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        blocks = [b.split("```", 1)[0] for b in readme.split("```python\n")[1:]]
        assert len(blocks) == 3
        namespace = {}
        for block in blocks:
            exec(compile(block, "README.md", "exec"), namespace)

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

    # At r = 1 the newcomer has no peers: it assembles no phase-2 points and
    # reads f_1 from its d helpers' values and its own F(x_1, y_1). At
    # (10,4,6,3) each newcomer resamples g from a helper set of its own.
    # On 1 or 2 stripes a map with more outputs than stripes runs packed,
    # and on 40 every map runs per element.
    @pytest.mark.parametrize(
        "code, stripes, failed, how",
        [*(((7, 3, 4, 1), stripes, (1,), how) for stripes in (1, 40)
           for how in (["--seed", "5"], ["--helpers", "1:3+4+6+7"])),
         *(((10, 4, 6, 3), stripes, (1, 2, 3),
            ["--helpers", "1:4+5+6+7+8+9;2:5+6+7+8+9+10;3:4+6+7+8+9+10"]) for stripes in (2, 40))],
        ids=["r1-seed-1", "r1-helpers-1", "r1-seed-40", "r1-helpers-40",
             "per-newcomer-helpers-2", "per-newcomer-helpers-40"],
    )
    def test_repair_round_trip_with_a_given_helper_choice(
        self, tmp_path, code, stripes, failed, how
    ):
        n = code[0]
        block = validate_params(*code, Field.gf256()).block_size
        data = random.Random(stripes).randbytes(stripes * block - 5)
        out = self.encode(tmp_path, data, *code)
        survivors = [str(out / f"share_{i:03d}.mbcr") for i in range(1, n + 1) if i not in failed]
        argv = ["repair", *survivors, "--failed", ",".join(map(str, failed)), *how]
        assert main([*argv, "--out", str(tmp_path / "r")]) == 0
        for i in failed:
            name = f"share_{i:03d}.mbcr"
            assert (tmp_path / "r" / name).read_bytes() == (out / name).read_bytes()

    # Empty items of --failed and --helpers are skipped.
    @pytest.mark.parametrize(
        "argv",
        [["--failed", "1,2,"],
         ["--failed", "1,2", "--helpers", "1:3+4+5;2:3+4+5;"],
         ["--failed", "1,2", "--helpers", "1:3++4+5;2:3+4+5"]],
        ids=["failed-trailing-comma", "helpers-trailing-semicolon", "helpers-double-plus"],
    )
    def test_repair_skips_empty_list_items(self, tmp_path, argv):
        out = self.encode(tmp_path, b"x" * 12)
        survivors = [str(out / f"share_{i:03d}.mbcr") for i in (3, 4, 5)]
        assert main(["repair", *survivors, *argv, "--out", str(tmp_path / "r")]) == 0
        for name in ("share_001.mbcr", "share_002.mbcr"):
            assert (tmp_path / "r" / name).read_bytes() == (out / name).read_bytes()

    def test_repair_rejects_a_newcomer_named_twice_in_helpers(self, tmp_path, capsys):
        out = self.encode(tmp_path, b"x" * 12)
        survivors = [str(out / f"share_{i:03d}.mbcr") for i in (3, 4, 5)]
        rc = main(["repair", *survivors, "--failed", "1,2",
                   "--helpers", "1:9+9+9;1:3+4+5;2:3+4+5", "--out", str(tmp_path / "r")])
        assert rc == 2
        assert "newcomer 1 is named twice" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("failed", ["1,1,2", "1,2,2,1"])
    def test_repair_rejects_a_repeated_failed_id(self, tmp_path, capsys, failed):
        out = self.encode(tmp_path, b"x" * 12)
        survivors = [str(out / f"share_{i:03d}.mbcr") for i in (3, 4, 5)]
        rc = main(["repair", *survivors, "--failed", failed, "--out", str(tmp_path / "r")])
        assert rc == 2
        assert "is named more than once" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    # Survivors 3, 4 and 5 of (5,2,3,2) are given with each of these.
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--failed", "x,y"], "cannot parse failed-node list 'x,y'"),
            (["--failed", "1,2", "--helpers", "1=3"], "cannot parse helper map '1=3'"),
            (["--failed", "2,3"], "a share file was supplied for a failed node"),
            (["--failed", "1,9"], "failed ids out of range: [1, 9]"),
            (["--failed", "1,2", "--helpers", "1:3+4+5;3:3+4+5"],
             "helper map keys must equal the failed set"),
        ],
        ids=["failed-ids", "helper-map", "failed-share", "failed-range", "helper-keys"],
    )
    def test_repair_refuses_a_bad_failed_set_or_helper_map(
        self, tmp_path, capsys, argv, message
    ):
        out = self.encode(tmp_path, b"x" * 12)
        survivors = [str(out / f"share_{i:03d}.mbcr") for i in (3, 4, 5)]
        rc = main(["repair", *survivors, *argv, "--out", str(tmp_path / "r")])
        assert rc == 2
        err = capsys.readouterr().err
        assert message in err and err.count("\n") == 1
        assert not (tmp_path / "r").exists()
        assert not list(tmp_path.rglob(".mbcr-tmp-*"))

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

    def test_verify_reads_the_shipped_encoder(self, monkeypatch, capsys):
        # A coefficient layout bug: every row of codec._coeff_grid is d + r
        # long, and cell (a, b) with a >= k is stored at (a, b + r). verify's
        # rows come from codec.grid, so it must fail; a second model of F
        # beside the encoder passes all 58 checks.
        def mutant(data, params):
            k, d, r = params.k, params.d, params.r
            grid = [[0] * (d + r) for _ in range(d)]
            for (a, b), c in zip(poly.coeff_cells(k, d, r), data):
                grid[a][b + r if a >= k else b] = c
            return grid

        monkeypatch.setattr(codec, "_coeff_grid", mutant)
        subspace._unit_grids.cache_clear()
        try:
            rc = main(["verify", "-n", "5", "-k", "2", "-d", "3", "-r", "2", "--seed", "7"])
        finally:
            subspace._unit_grids.cache_clear()
        assert rc == 1
        assert "57/58 checks passed" in capsys.readouterr().out

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

    # verify over a wide GF(256) code reduces residuals of sums below full
    # rank, and of the degenerate node 1 under --inject-fault, over GF(256);
    # simulate runs over a prime field when given one.
    @pytest.mark.parametrize(
        "argv, rc",
        [(["verify", "-n", "12", "-k", "6", "-d", "8", "-r", "3", "--gf256"], 0),
         (["verify", "-n", "12", "-k", "6", "-d", "8", "-r", "3", "--gf256", "--inject-fault"], 1),
         (["simulate", "-n", "5", "-k", "2", "-d", "3", "-r", "2", "--stages", "5", "--seed", "1",
           "-q", "7"], 0)],
        ids=["verify-gf256-wide", "verify-gf256-wide-fault", "simulate-gf7"],
    )
    def test_report_command_exit_code(self, argv, rc):
        assert main(argv) == rc

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

    def test_bound_at_the_largest_prime_field_n(self, capsys):
        # n = 65521 still has a default prime field: GF(65521) itself.
        assert main(["bound", "-n", "65521", "-k", "2", "-d", "3", "-r", "2"]) == 0
        assert "bound met with equality: True" in capsys.readouterr().out

    def test_bound_with_a_file_size(self, capsys):
        # Twice the block size doubles every point: alpha = 2 * 7.
        argv = ["bound", "-n", "5", "-k", "2", "-d", "3", "-r", "2", "--file-size", "24"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "file size B = 24," in out and "MBCR point: alpha=14 " in out
        assert "bound met with equality: True" in out

    def test_bound_exits_1_when_the_bound_is_not_met(self, monkeypatch, capsys):
        real = bounds.max_file_size
        monkeypatch.setattr(bounds, "max_file_size", lambda *args: real(*args) - 1)
        assert main(["bound", "-n", "5", "-k", "2", "-d", "3", "-r", "2"]) == 1
        out = capsys.readouterr().out
        assert "cut-set max file size at MBCR point: 11" in out
        assert "bound met with equality: False" in out

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

    # simulate checks its own work each stage: a regenerated share that is
    # not the original, or a reconstruction that is not the data, exits 1
    # with one stderr line and no report.
    def test_simulate_exits_1_on_a_regenerated_share_that_differs(
        self, monkeypatch, capsys
    ):
        real = cli.run_repair

        def run_repair(shares, plan, params):
            regenerated, ledger = real(shares, plan, params)
            i = min(regenerated)
            evals = regenerated[i].evals
            regenerated[i] = codec.Share(i, (evals[0] ^ 1, *evals[1:]))
            return regenerated, ledger

        monkeypatch.setattr(cli, "run_repair", run_repair)
        argv = ["simulate", "-n", "5", "-k", "2", "-d", "3", "-r", "2", "--stages", "3"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("stage 1: regenerated share ")
        assert captured.err.endswith(" differs from original\n")
        assert captured.err.count("\n") == 1

    def test_simulate_exits_1_on_a_reconstruction_that_differs(self, monkeypatch, capsys):
        real = cli.reconstruct

        def reconstruct(shares, params):
            data = real(shares, params)
            return (data[0] ^ 1, *data[1:])

        monkeypatch.setattr(cli, "reconstruct", reconstruct)
        argv = ["simulate", "-n", "5", "-k", "2", "-d", "3", "-r", "2", "--stages", "3"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("stage 1: reconstruction from nodes [")
        assert captured.err.endswith("] failed\n")
        assert captured.err.count("\n") == 1

    def test_simulate_exits_1_when_the_ledger_is_off(self, monkeypatch, capsys):
        # One extra phase-1 symbol per stage: 3 stages send 45, not r*gamma*3 = 42.
        real = cli.run_repair

        def run_repair(shares, plan, params):
            regenerated, ledger = real(shares, plan, params)
            i = min(ledger.phase1)
            phase1 = {**ledger.phase1, i: ledger.phase1[i] + 1}
            return regenerated, repair.BandwidthLedger(phase1, ledger.phase2)

        monkeypatch.setattr(cli, "run_repair", run_repair)
        argv = ["simulate", "-n", "5", "-k", "2", "-d", "3", "-r", "2", "--stages", "3"]
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert "cumulative repair bandwidth: 45 symbols/stripe" in out
        assert "(theoretical r*gamma*stages = 42)" in out

    def test_simulate_with_no_stages(self, capsys):
        argv = ["simulate", "-n", "5", "-k", "2", "-d", "3", "-r", "2", "--stages", "0"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "0 stages complete" in out
        assert "cumulative repair bandwidth: 0 symbols/stripe" in out

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
