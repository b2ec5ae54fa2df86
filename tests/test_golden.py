"""Byte identity of the file commands against recorded SHA-256 digests.

Round-trip tests cannot see a change that is consistent between encode
and decode, such as a new share layout or new evaluation points. These
digests, recorded once, pin the exact bytes of `mbcr encode`, `repair`
and `reconstruct` on two seeded inputs, one per codec orientation.
"""

import hashlib
import random

from conftest import parameter_grid
from mbcr.cli import main

CODE = ["-n", "10", "-k", "4", "-d", "6", "-r", "3"]
SHARE_SHA256 = {
    1: "6664e81404caaf1d35aea0509fa4be990d9eddd4cbdcf996174bbdcb77ed01d4",
    2: "d2fe93d5f039473e037874eb19e82442b5ea496c1ea671c4931f9e076917d473",
    3: "e29d1b833093df98d73a80de93b2573deee94d6923765e4607a018a846d3d060",
    4: "d7d4ed7c52528f4b8344eb94b8669dcd00bb36b6a1588aa07c1f93f1df14e88a",
    5: "65bb320c4e17f6e698f37f7a674076b6dfb5354c2d7a94ea80f4a0269d49db7a",
    6: "7fab3ab3445e4d8742e15e27115ee7a7ab89fd9355e94307b4984c8e44d4727c",
    7: "cda8f8df8d1f90f797791c62972e5bb0d9215a49fb6de7b15cdb85221657b407",
    8: "d4b007bd456dcde09a93f36f3c1d822555d74a807aac3749c6ad4968b0f411c6",
    9: "4fc3fcd14bfbb71edf13179913fc1ab1c043dd0abcadfbba9c6c679c624fc601",
    10: "f7f5ccbc463ab08a366d2011537e4658b24983c514ff987d8bc4ce1ef1283c72",
}
REPAIRED_SHA256 = {
    2: "d2fe93d5f039473e037874eb19e82442b5ea496c1ea671c4931f9e076917d473",
    5: "65bb320c4e17f6e698f37f7a674076b6dfb5354c2d7a94ea80f4a0269d49db7a",
    9: "4fc3fcd14bfbb71edf13179913fc1ab1c043dd0abcadfbba9c6c679c624fc601",
}
RECONSTRUCTED_SHA256 = "10d2ec9f90b3c9aae88010806cf9dbd72a35350a82ae491dadfe3dcf4c26b454"


# One codec call per file: on a 2-stripe file at (14,10,10,4) every map runs
# packed, once per stripe (see poly._apply); on 373 stripes at (10,4,6,3)
# the maps run per element, on columns, but for a few with narrow inputs.
PER_STRIPE_CODE = ["-n", "14", "-k", "10", "-d", "10", "-r", "4"]
PER_STRIPE_SHARE_SHA256 = {
    1: "10f90d2712cf2aa35f6d258f6929de2bf3e2b9684d03f65e79acbc5dcac3f08c",
    2: "1042c1fb48920d5d8637401b1401300d70abf98ac225cb4c9a07a2f0e4ed97dd",
    3: "1463fd140e6aa418949f6a1a822545f852fb05f3fcefa11ccd3bb589f7d12e16",
    4: "09382e13a160f97b1df1a9ad3b0d205206d8e7a9ed5ea3b7d4257cd36006fbf9",
    5: "afa4a9b08871c2dcb5793fa724237ae36eef5e81913810b061538b5d822875d5",
    6: "fe1f6aa5cbc40500e1cea587ac6f127bb7a7d79dcb52ff2ebd37e9db6aa88e7e",
    7: "c764918c54ad58980572917c5dec443bd5482327f6b4e34b33f661520e200c8d",
    8: "69d38dc7c3fa7508eba983c07692a283536d06f4f75b8edc072bfb640328ed16",
    9: "72f6e1d45479d002c9ead84200f5b19553b571789c08bbcbc90daab84832ff27",
    10: "bf3c0fbed90577ebff3a2cf55407ab9861bb67e3caf9cf882874d2d7c1f5c0c0",
    11: "07bc3528565a853b508a8858d365d7d4183c38e6b436017bf44972b09e254f00",
    12: "b635a7e6be865826c1e2df394626dcd72c10a4374d4162bc51d67fc370dfacfd",
    13: "29b0164841de56a3cea328fd553555c7dce545893c65f3b23e7d8601378fed3b",
    14: "e4c0a1970770170e13af41f28b273a99a02f06ac5aec6e2d995dd490a0939839",
}
PER_STRIPE_REPAIRED = (1, 2, 13, 14)
PER_STRIPE_RECONSTRUCTED_SHA256 = (
    "b6c253af55863c539386803a17e639147d07804a3875ed084fe17cad30c59c0c"
)


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_file_commands(tmp_path, code, length, failed, seed, readers):
    """Encode a seeded input of length bytes, repair the failed shares from
    the others, and read the readers back: the digests of every file made."""
    data = bytes(random.Random(2024).randrange(256) for _ in range(length))
    src = tmp_path / "input.bin"
    src.write_bytes(data)
    shares, repaired = tmp_path / "shares", tmp_path / "repaired"
    share = lambda directory, i: directory / f"share_{i:03d}.mbcr"
    n = int(code[1])

    assert main(["encode", *code, str(src), "--out", str(shares)]) == 0
    encoded = {i: sha256(share(shares, i)) for i in range(1, n + 1)}

    survivors = [str(share(shares, i)) for i in range(1, n + 1) if i not in failed]
    rc = main(["repair", *survivors, "--failed", ",".join(map(str, failed)),
               "--seed", str(seed), "--out", str(repaired)])
    assert rc == 0
    regenerated = {i: sha256(share(repaired, i)) for i in failed}

    out = tmp_path / "rec.bin"
    assert main(["reconstruct", *(str(share(shares, i)) for i in readers),
                 "--out", str(out)]) == 0
    assert out.read_bytes() == data
    return encoded, regenerated, sha256(out)


def test_file_commands_match_recorded_digests(tmp_path):
    # 16 KiB at (10,4,6,3) is 373 stripes of 44 bytes.
    encoded, regenerated, rec = run_file_commands(
        tmp_path, CODE, 16 * 1024, (2, 5, 9), 7, (1, 4, 6, 10))
    assert encoded == SHARE_SHA256
    assert regenerated == REPAIRED_SHA256
    assert rec == RECONSTRUCTED_SHA256


def test_per_stripe_file_commands_match_recorded_digests(tmp_path):
    # 275 bytes at (14,10,10,4) is 2 stripes of 140 bytes.
    encoded, regenerated, rec = run_file_commands(
        tmp_path, PER_STRIPE_CODE, 2 * 140 - 5, PER_STRIPE_REPAIRED, 5, range(3, 13))
    assert encoded == PER_STRIPE_SHARE_SHA256
    assert regenerated == {i: PER_STRIPE_SHARE_SHA256[i] for i in PER_STRIPE_REPAIRED}
    assert rec == PER_STRIPE_RECONSTRUCTED_SHA256


# SHA-256 over (arguments, exit code, stdout) of every `mbcr verify` run
# in test_verify_report_digest, recorded before the subspace kernel
# became an incremental echelon basis.
VERIFY_REPORT_SHA256 = "6f16282f220e44b1a50bfb709deda4198fdf99e8af84c69f2dd16f86c4b54be0"


def test_verify_report_digest(capsys):
    """Pins every CHECK name, index and verdict of `mbcr verify`, passing
    and fault-injected, on the n <= 5 grid over both field families."""
    digest = hashlib.sha256()
    for n, k, d, r in parameter_grid(5):
        for field in ([], ["--gf256"]):
            for seed in (0, 1):
                for fault in ([], ["--inject-fault"]):
                    argv = ["verify", "-n", str(n), "-k", str(k), "-d", str(d),
                            "-r", str(r), *field, "--seed", str(seed), *fault]
                    rc = main(argv)
                    out = capsys.readouterr().out
                    digest.update(f"{' '.join(argv)}\n{rc}\n{out}".encode())
    assert digest.hexdigest() == VERIFY_REPORT_SHA256


# SHA-256 over (arguments, exit code, stdout) of every `mbcr verify` run
# in test_verify_report_digest_wide_slots, recorded before the subspace
# kernel packed each row into one int.
VERIFY_WIDE_SLOTS_SHA256 = "3b5647d0a9e8451f88ef2e380e4dc971831d209b38514d516f2837886f2eb272"


def test_verify_report_digest_wide_slots(capsys):
    """Pins `mbcr verify`, passing and fault-injected, on two larger codes
    over GF(65521), whose packed rows take the widest (64-bit) slots, and
    over GF(256), whose rows are byte columns reduced by Field.scale."""
    digest = hashlib.sha256()
    for n, k, d, r in ((8, 3, 5, 2), (10, 4, 6, 3)):
        for field in (["-q", "65521"], ["--gf256"]):
            for fault in ([], ["--inject-fault"]):
                argv = ["verify", "-n", str(n), "-k", str(k), "-d", str(d),
                        "-r", str(r), *field, "--seed", "0", *fault]
                rc = main(argv)
                out = capsys.readouterr().out
                digest.update(f"{' '.join(argv)}\n{rc}\n{out}".encode())
    assert digest.hexdigest() == VERIFY_WIDE_SLOTS_SHA256


# SHA-256 over (arguments, exit code, stdout) of both `mbcr verify` runs in
# test_verify_report_digest_wide_code, recorded before GF(p) rows were
# reduced by a multiply-shift.
VERIFY_WIDE_CODE_SHA256 = "abecb7e36d7b6fac95d8d9105ae41ace55481c8f16a7f81c827ec90121a4091f"


def test_verify_report_digest_wide_code(capsys):
    """Pins `mbcr verify`, passing and fault-injected, at (12,6,8,3) over
    GF(17): B = 78, so every row is 78 entries wide, wider than any code
    the two digests above run (at most 44)."""
    digest = hashlib.sha256()
    for fault in ([], ["--inject-fault"]):
        argv = ["verify", "-n", "12", "-k", "6", "-d", "8", "-r", "3",
                "-q", "17", "--seed", "1", *fault]
        rc = main(argv)
        out = capsys.readouterr().out
        digest.update(f"{' '.join(argv)}\n{rc}\n{out}".encode())
    assert digest.hexdigest() == VERIFY_WIDE_CODE_SHA256
