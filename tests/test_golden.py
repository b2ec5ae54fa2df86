"""Byte identity of the file commands against recorded SHA-256 digests.

Round-trip tests cannot see a change that is consistent between encode
and decode, such as a new share layout or new evaluation points. These
digests, recorded once, pin the exact bytes of `mbcr encode`, `repair`
and `reconstruct` on one seeded input.
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


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_file_commands_match_recorded_digests(tmp_path):
    # 16 KiB at (10,4,6,3) is 373 stripes of 44 bytes.
    data = bytes(random.Random(2024).randrange(256) for _ in range(16 * 1024))
    src = tmp_path / "input.bin"
    src.write_bytes(data)
    shares, repaired = tmp_path / "shares", tmp_path / "repaired"
    share = lambda directory, i: directory / f"share_{i:03d}.mbcr"

    assert main(["encode", *CODE, str(src), "--out", str(shares)]) == 0
    assert {i: sha256(share(shares, i)) for i in range(1, 11)} == SHARE_SHA256

    survivors = [str(share(shares, i)) for i in range(1, 11) if i not in (2, 5, 9)]
    rc = main(["repair", *survivors, "--failed", "2,5,9", "--seed", "7",
               "--out", str(repaired)])
    assert rc == 0
    assert {i: sha256(share(repaired, i)) for i in (2, 5, 9)} == REPAIRED_SHA256

    out = tmp_path / "rec.bin"
    readers = [str(share(shares, i)) for i in (1, 4, 6, 10)]
    assert main(["reconstruct", *readers, "--out", str(out)]) == 0
    assert sha256(out) == RECONSTRUCTED_SHA256


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
