"""Seeded workloads of the mbcr benchmark, the runner and the output gate.

One client, one thread, closed loop: each CLI call is made in-process
through ``mbcr.cli.main(argv)`` and waits for the previous one. A run
processes a fixed, seeded sequence of cycles whose length depends only on
the workload and ``--seconds``, so two commits compared on the same seed
do identical work. A cycle is one object stored, read back from k shares
and repaired after r losses (``bulk``, ``small``), or one ``verify`` run.

This module imports no part of mbcr at import time: the set-up probe
times the first ``import mbcr`` itself.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import random
import re
import shutil
import signal
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@dataclass(frozen=True)
class Code:
    n: int
    k: int
    d: int
    r: int

    @property
    def alpha(self) -> int:
        return 2 * self.d + self.r - 1

    @property
    def block(self) -> int:
        return self.k * (2 * self.d + self.r - self.k)

    def argv(self) -> list[str]:
        return ["-n", str(self.n), "-k", str(self.k), "-d", str(self.d), "-r", str(self.r)]

    def stripes(self, size: int) -> int:
        return max(1, -(-size // self.block))


@dataclass(frozen=True)
class Workload:
    name: str
    code: Code
    # Seconds one cycle took on the reference machine at the commit that
    # defined the benchmark; only used to turn --seconds into a fixed
    # cycle count, so it must not be re-tuned when the program gets faster.
    cycle_s: float
    sizes: Optional[tuple[int, int]] = None  # object sizes lo..hi bytes; None: verify

    @property
    def kinds(self) -> tuple[str, ...]:
        return ("encode", "read", "repair") if self.sizes else ("verify",)


WORKLOADS = {
    "bulk": Workload("bulk", Code(10, 4, 6, 3), 4.0, (16384, 16384)),
    "small": Workload("small", Code(14, 10, 10, 4), 0.125, (0, 512)),
    "verify": Workload("verify", Code(8, 3, 5, 2), 1.0),
}


@dataclass(frozen=True)
class Cycle:
    data: bytes = b""
    read_ids: tuple[int, ...] = ()
    failed: tuple[int, ...] = ()
    seed: int = 0  # helper draw for repair, or the verify seed


def cycle_count(wl: Workload, seconds: float) -> int:
    return max(1, round(seconds / wl.cycle_s))


def object_sizes(wl: Workload, rng: random.Random, count: int) -> list[int]:
    """Sizes uniform on lo..hi, drawn one per equal-width stratum and
    shuffled, so every run holds the same mix of stripe counts and the
    medians do not jump between stripe counts from one seed to the next."""
    lo, hi = wl.sizes
    width = (hi - lo + 1) / count
    sizes = [lo + int((i + rng.random()) * width) for i in range(count)]
    rng.shuffle(sizes)
    return sizes


def make_cycles(wl: Workload, seed: int, count: int, warmup: bool = False) -> list[Cycle]:
    """The seeded inputs of a run; the warm-up cycle uses a one-stripe object."""
    rng = random.Random(f"mbcr-bench/{wl.name}/{seed}/{'warmup' if warmup else 'run'}")
    code = wl.code
    if not wl.sizes:
        return [Cycle(seed=rng.randrange(2**31)) for _ in range(count)]
    sizes = [code.block] if warmup else object_sizes(wl, rng, count)
    out = []
    for size in sizes:
        out.append(
            Cycle(
                data=rng.randbytes(size),
                read_ids=tuple(sorted(rng.sample(range(1, code.n + 1), code.k))),
                failed=tuple(sorted(rng.sample(range(1, code.n + 1), code.r))),
                seed=rng.randrange(2**31),
            )
        )
    return out


def import_cli():
    """Import mbcr.cli from the checkout's own src/, never from elsewhere."""
    if not (SRC / "mbcr" / "cli.py").is_file():
        raise SystemExit(f"mbcr sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from mbcr import cli

    if Path(cli.__file__).resolve().parent != (SRC / "mbcr").resolve():
        raise SystemExit(f"imported mbcr from {cli.__file__}, not from {SRC}")
    return cli


# ---------------------------------------------------------------- the gate


def share_path(directory: Path, node: int) -> Path:
    return directory / f"share_{node:03d}.mbcr"


def check_encode(code: Code, rc, shares: Path) -> Optional[str]:
    if rc != 0:
        return f"exit code {rc}"
    missing = [i for i in range(1, code.n + 1) if not share_path(shares, i).is_file()]
    return f"share files missing for nodes {missing}" if missing else None


def check_read(rc, expected: bytes, out: Path) -> Optional[str]:
    if rc != 0:
        return f"exit code {rc}"
    if not out.is_file() or out.read_bytes() != expected:
        return "read output differs from the object"
    return None


_LEDGER = re.compile(r"^system total: (\d+) symbols/stripe, (\d+) bytes across (\d+) stripes$", re.M)


def check_repair(
    code: Code, rc, stdout: str, stripes: int, failed, shares: Path, repaired: Path
) -> Optional[str]:
    if rc != 0:
        return f"exit code {rc}"
    for i in failed:
        new = share_path(repaired, i)
        if not new.is_file() or new.read_bytes() != share_path(shares, i).read_bytes():
            return f"regenerated share {i} differs from the original"
    m = _LEDGER.search(stdout)
    per_stripe = code.r * code.alpha
    if not m or tuple(map(int, m.groups())) != (per_stripe, per_stripe * stripes, stripes):
        return f"ledger line does not read {per_stripe} symbols/stripe over {stripes} stripes"
    return None


_VERIFY_TOTAL = re.compile(r"^(\d+)/(\d+) checks passed$", re.M)


def check_verify(rc, stdout: str) -> Optional[str]:
    if rc != 0:
        return f"exit code {rc}"
    lines = sum(line.startswith("CHECK ") for line in stdout.splitlines())
    m = _VERIFY_TOTAL.search(stdout)
    if not m or not (int(m.group(1)) == int(m.group(2)) == lines):
        return f"summary does not report all {lines} CHECK lines passed"
    return None


# -------------------------------------------------------------- the runner

# The host's speed for interpreter-bound code drifts between regimes up to
# twice apart that last seconds to tens of seconds, so raw times of one
# run depend on the regimes it met. A fixed reference loop, timed every
# TICK_S from a SIGALRM handler while an op runs and once before and
# after it, tracks the regime; an op's normalized time is its wall time
# (less the handler's) times the mean speed, where speed 1 is the loop
# taking REF_LOOP_S. The loop is shaped like table-driven field arithmetic
# behind method calls and type checks, which tracked the program's
# kernels within about 2% across regimes; a bare integer loop did 3.5%.
REF_LOOP_S = 0.00007
TICK_S = 0.01


class _RefField:
    __slots__ = ("order", "exp", "log")

    def __init__(self):
        self.order = 256
        self.exp = [(i * 7) & 255 for i in range(512)]
        self.log = [(i * 3) % 255 for i in range(256)]

    def _check(self, a):
        if not isinstance(a, int) or not 0 <= a < self.order:
            raise ValueError(a)
        return a

    def mul(self, a, b):
        self._check(a)
        self._check(b)
        return 0 if a == 0 or b == 0 else self.exp[self.log[a] + self.log[b]]

    def add(self, a, b):
        self._check(a)
        self._check(b)
        return a ^ b


_REF_FIELD = _RefField()


def _reference_loop() -> float:
    f, acc = _REF_FIELD, 1
    start = time.perf_counter()
    for i in range(100):
        acc = f.add(f.mul(acc, (i & 255) | 1), i & 255)
    return time.perf_counter() - start


def _speed(loops: int = 1) -> float:
    return REF_LOOP_S / statistics.median(_reference_loop() for _ in range(loops))


class SpeedSampler:
    """Samples the host's speed before, during and after a block of code."""

    def __enter__(self):
        self.speeds = [_speed(5)]
        self.spent = 0.0  # seconds spent inside the handler
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.speeds.append(_speed())
        self.spent += time.perf_counter() - start

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self.speeds.append(_speed(5))

    @property
    def speed(self) -> float:
        return statistics.fmean(self.speeds)


@dataclass
class Op:
    kind: str
    seconds: float
    norm_seconds: float
    object_bytes: int = 0
    checks: int = 0


@dataclass
class RunResult:
    cycles: list[list[Op]] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    object_bytes: int = 0
    share_file_bytes: int = 0
    digest: object = field(default_factory=hashlib.sha256)  # over all share bytes written

    @property
    def ops(self) -> list[Op]:
        return [op for cycle in self.cycles for op in cycle]

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return len(self.errors)


def invoke(cli, argv: list[str]) -> tuple[object, float, float, str]:
    """One timed CLI call: (exit code, seconds, mean speed, stdout).

    Output capture is set up outside the timed span, and the time spent
    sampling the host's speed is taken out of it.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with SpeedSampler() as sampler:
            start = time.perf_counter()
            try:
                rc = cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception as exc:  # counted as a failed op, never fatal to the run
                rc = f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - start - sampler.spent
    return rc, seconds, sampler.speed, out.getvalue()


class Runner:
    """Runs cycles through one CLI, timing and gating every op."""

    def __init__(self, cli, wl: Workload):
        self.cli, self.wl = cli, wl
        self.res = RunResult()

    def run(self, cycles: list[Cycle], workdir: Path) -> RunResult:
        for idx, cyc in enumerate(cycles):
            self.res.cycles.append([])
            if not self.wl.sizes:
                self._verify_cycle(cyc, idx)
                continue
            objdir = workdir / f"object{idx:05d}"
            objdir.mkdir(parents=True)
            try:
                self._file_cycle(cyc, objdir, idx)
            finally:
                shutil.rmtree(objdir)
        return self.res

    def _op(self, kind: str, argv: list[str], size: int = 0):
        rc, sec, speed, out = invoke(self.cli, argv)
        op = Op(kind, sec, sec * speed, size)
        self.res.cycles[-1].append(op)
        return op, rc, out

    def _gate(self, op: Op, error: Optional[str], where: str) -> None:
        if error:
            self.res.errors.append(f"{where} {op.kind}: {error}")

    def _verify_cycle(self, cyc: Cycle, idx: int) -> None:
        op, rc, out = self._op("verify", ["verify", *self.wl.code.argv(), "--seed", str(cyc.seed)])
        op.checks = sum(line.startswith("CHECK ") for line in out.splitlines())
        self._gate(op, check_verify(rc, out), f"cycle {idx}")

    def _file_cycle(self, cyc: Cycle, objdir: Path, idx: int) -> None:
        code, size, res = self.wl.code, len(cyc.data), self.res
        where = f"object {idx} ({size} B)"
        obj, shares, repaired = objdir / "object.bin", objdir / "shares", objdir / "repaired"
        obj.write_bytes(cyc.data)

        op, rc, _ = self._op("encode", ["encode", *code.argv(), str(obj), "--out", str(shares)], size)
        self._gate(op, check_encode(code, rc, shares), where)
        for i in range(1, code.n + 1):
            p = share_path(shares, i)
            if p.is_file():
                blob = p.read_bytes()
                res.share_file_bytes += len(blob)
                res.digest.update(blob)
        res.object_bytes += size

        out = objdir / "read.bin"
        argv = ["reconstruct", *(str(share_path(shares, i)) for i in cyc.read_ids), "--out", str(out)]
        op, rc, _ = self._op("read", argv, size)
        self._gate(op, check_read(rc, cyc.data, out), where)

        survivors = [str(share_path(shares, i)) for i in range(1, code.n + 1) if i not in cyc.failed]
        argv = ["repair", *survivors, "--failed", ",".join(map(str, cyc.failed)),
                "--seed", str(cyc.seed), "--out", str(repaired)]
        op, rc, stdout = self._op("repair", argv, size)
        error = check_repair(code, rc, stdout, code.stripes(size), cyc.failed, shares, repaired)
        self._gate(op, error, where)
        for i in cyc.failed:
            p = share_path(repaired, i)
            if p.is_file():
                res.digest.update(p.read_bytes())


def run_cycles(cli, wl: Workload, cycles: list[Cycle], workdir: Path) -> RunResult:
    return Runner(cli, wl).run(cycles, workdir)


# ------------------------------------------------------------- the metrics


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def end_to_end(wl: Workload, res: RunResult, setup: tuple[float, float],
               peak_rss_mb: float) -> list[tuple]:
    """Every end-to-end metric of the run as (name, value, unit, samples).

    ``setup`` is the (normalized, raw) set-up time. The ``norm_`` metrics
    and ``setup_s`` use normalized op times; the others use wall time.
    """
    ops = res.ops
    rows = [("setup_s", setup[0], "s", None), ("setup_raw_s", setup[1], "s", None)]
    cycles = [sum(op.norm_seconds for op in c) for c in res.cycles]
    rows.append(("norm_cycle_p50_ms", statistics.median(cycles) * 1e3, "ms", len(cycles)))
    rows.append(("norm_ops_per_s", len(ops) / sum(op.norm_seconds for op in ops), "1/s", len(ops)))
    rows.append(("speed_factor", sum(op.seconds for op in ops) / sum(op.norm_seconds for op in ops),
                 "ratio", len(ops)))
    rows.append(("peak_rss_MB", peak_rss_mb, "MB", None))
    for kind in wl.kinds:
        of_kind = [op for op in ops if op.kind == kind]
        secs = [op.seconds for op in of_kind]
        if kind != "verify":
            mb = sum(op.object_bytes for op in of_kind) / 1e6
            rows.append((f"{kind}_MBps", mb / sum(secs), "MB/s", len(secs)))
        rows.append((f"{kind}_p50_ms", statistics.median(secs) * 1e3, "ms", len(secs)))
        if len(secs) >= 100:
            rows.append((f"{kind}_p90_ms", percentile(secs, 0.9) * 1e3, "ms", len(secs)))
        if kind == "verify":
            checks = sum(op.checks for op in of_kind)
            rows.append(("verify_checks_per_s", checks / sum(secs), "1/s", len(secs)))
    if res.object_bytes:
        rows.append(("space_amp", res.share_file_bytes / res.object_bytes, "ratio", None))
    rows.append(("error_rate", res.failed / res.attempted, "ratio", res.attempted))
    return rows


def warm_up(cli, wl: Workload, seed: int, workdir: Path) -> RunResult:
    """One cycle of every op kind of the workload, on a one-stripe object."""
    res = run_cycles(cli, wl, make_cycles(wl, seed, 1, warmup=True), workdir)
    if res.errors:
        raise RuntimeError(f"warm-up failed: {res.errors[0]}")
    return res


def run_workload(cli, wl: Workload, seed: int, seconds: float, workdir: Path) -> RunResult:
    """The seeded cycles of a run."""
    return run_cycles(cli, wl, make_cycles(wl, seed, cycle_count(wl, seconds)), workdir)


def setup_probe(wl: Workload, seed: int, workdir: Path) -> tuple[float, float]:
    """(normalized, raw) time of the first ``import mbcr`` plus the ops of
    one warm-up cycle."""
    with SpeedSampler() as sampler:
        start = time.perf_counter()
        cli = import_cli()
        seconds = time.perf_counter() - start - sampler.spent
    res = warm_up(cli, wl, seed, workdir)
    return (seconds * sampler.speed + sum(op.norm_seconds for op in res.ops),
            seconds + sum(op.seconds for op in res.ops))


def src_lines() -> int:
    return sum(
        len(p.read_text().splitlines()) for p in sorted((SRC / "mbcr").rglob("*.py"))
    )


def new_workdir(base: Path) -> Path:
    base.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(dir=base, prefix=f"run-{os.getpid()}-"))
