"""Tests of the benchmark's output gate and tracer.

The negative controls corrupt one byte after the CLI call and before the
gate, and require the runner to count the op as failed.
"""

import workload as wk
import tracer

SMALL = wk.WORKLOADS["small"]


def _flip_byte(path):
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0x01
    path.write_bytes(bytes(blob))


def _run_small(tmp_path, count=2):
    cycles = wk.make_cycles(SMALL, seed=3, count=count)
    return wk.run_cycles(wk.import_cli(), SMALL, cycles, tmp_path)


def test_clean_run_passes_the_gate(tmp_path):
    res = _run_small(tmp_path)
    assert (res.attempted, res.failed) == (6, 0)


def test_flipped_read_byte_counts_as_failure(tmp_path, monkeypatch):
    real = wk.check_read

    def corrupt_then_check(rc, expected, out):
        _flip_byte(out)
        return real(rc, expected, out)

    monkeypatch.setattr(wk, "check_read", corrupt_then_check)
    res = _run_small(tmp_path)
    assert res.failed == 2
    assert all("read output differs" in e for e in res.errors)


def test_flipped_regenerated_share_byte_counts_as_failure(tmp_path, monkeypatch):
    real = wk.check_repair

    def corrupt_then_check(code, rc, stdout, stripes, failed, shares, repaired):
        _flip_byte(wk.share_path(repaired, failed[0]))
        return real(code, rc, stdout, stripes, failed, shares, repaired)

    monkeypatch.setattr(wk, "check_repair", corrupt_then_check)
    res = _run_small(tmp_path)
    assert res.failed == 2
    assert all("regenerated share" in e for e in res.errors)


def test_verify_gate_needs_every_check_line_counted():
    good = "CHECK a i=1 PASS\nCHECK b i=2 PASS\n2/2 checks passed\n"
    assert wk.check_verify(0, good) is None
    assert wk.check_verify(0, good.replace("2/2", "3/3")) is not None
    assert wk.check_verify(1, good) is not None


def test_seeded_inputs_repeat():
    assert wk.make_cycles(SMALL, 5, 4) == wk.make_cycles(SMALL, 5, 4)
    assert wk.make_cycles(SMALL, 5, 4) != wk.make_cycles(SMALL, 6, 4)


def test_tracer_counts_the_ledger_and_restores_the_program(tmp_path):
    cli = wk.import_cli()
    from mbcr import codec, poly

    originals = (cli.main, codec.interpolate, poly.BiPoly.__dict__["eval"])
    tr = tracer.Tracer()
    tr.install()
    try:
        res = _run_small(tmp_path, count=1)
    finally:
        tr.uninstall()
    assert res.failed == 0
    assert (cli.main, codec.interpolate, poly.BiPoly.__dict__["eval"]) == originals
    assert tr.op_kinds == ["encode", "reconstruct", "repair"]
    layers = tracer.layer_metrics(tr, SMALL.code.r, SMALL.code.alpha, (0, 0))
    assert layers["repair.ledger_symbols_per_stripe"][0] == SMALL.code.r * SMALL.code.alpha
    assert layers["repair.bandwidth_ratio"][0] == 1
    assert layers["sharefile.files_written"][0] > 0
