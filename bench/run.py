"""mbcr benchmark: put/get/repair on bulk and small objects, plus verify.

Run from the root of a checkout; the program is imported from its src/:

  python3 bench/run.py --workload bulk|small|verify|all [--seed N]
                       [--seconds S] [--trace 0|1] [--repeat N]

Every run prints each end-to-end metric by name and unit, a SHA-256 over
all share bytes written, and, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` the run is repeated in a fresh process with span wrappers
installed and the metrics are the per-layer ones. ``--repeat N`` is the
steadiness mode: N runs on seeds seed..seed+N-1, with the median, quartiles
and spread of each end-to-end metric against its bound. The exit code is
0 only when every op of every run passed the output gate.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import re
import resource
import shutil
import statistics
import subprocess
import sys

import tracer
import workload as wk

DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
SETUP_PROBES = {"bulk": 5, "small": 5, "verify": 3}
CHILD_TIMEOUT_S = 170
WORK = wk.ROOT / ".bench_work"
OUT = wk.ROOT / ".bench_out"


def _child(argv: list[str]) -> str:
    """Run this script in a fresh interpreter; returns its standard output."""
    proc = subprocess.run([sys.executable, __file__, *argv], capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S, cwd=wk.ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{' '.join(argv)} exited with {proc.returncode}")
    return proc.stdout


def _show(workload: str, rows) -> None:
    for name, value, unit, samples in rows:
        extra = f" (n={samples})" if samples is not None else ""
        print(f"{workload} {name} = {value:.6g} {unit}{extra}")


def run_one(wl: wk.Workload, seed: int, seconds: float, trace: bool) -> int:
    cli = wk.import_cli()
    probes = [json.loads(_child(["--setup-probe", "--workload", wl.name, "--seed", str(seed)]))
              for _ in range(SETUP_PROBES[wl.name])]
    workdir = wk.new_workdir(WORK)
    try:
        wk.warm_up(cli, wl, seed, workdir / "warmup")
        res = wk.run_workload(cli, wl, seed, seconds, workdir / "run")
    finally:
        shutil.rmtree(workdir)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    setup = tuple(statistics.median(p[i] for p in probes) for i in (0, 1))
    rows = wk.end_to_end(wl, res, setup, rss_mb)
    _show(wl.name, rows)
    if res.object_bytes:
        print(f"{wl.name} share_sha256 = {res.digest.hexdigest()}")
    attempted, failed, errors = res.attempted, res.failed, list(res.errors)
    if trace:
        busy = sum(op.norm_seconds for op in res.ops)
        out = _child(["--traced-pass", "--workload", wl.name, "--seed", str(seed),
                      "--seconds", str(seconds)])
        traced = json.loads(out.strip().splitlines()[-1])
        attempted += traced["attempted"]
        failed += traced["failed"]
        errors += traced["errors"]
        layers = traced["layers"]
        layers["trace.overhead"] = [traced["busy_s"] / busy - 1, "ratio"]
        layers["src.lines"] = [wk.src_lines(), "count"]
        for name, (value, unit) in layers.items():
            print(f"{wl.name} {name} = {value:.6g} {unit}")
        print(f"{wl.name} spans written to {traced['spans']}")
        metrics = {name: {"value": layers.get(name, [0])[0], "unit": unit}
                   for name, unit in tracer.JSON_LAYERS}
    else:
        gated = {m["name"] for m in json.loads((wk.ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
        metrics = {name: {"value": value, "unit": unit}
                   for name, value, unit, _ in rows if name in gated}
    for err in errors[:20]:
        print(f"FAILED {wl.name} {err}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def traced_pass(wl: wk.Workload, seed: int, seconds: float) -> int:
    """The same run in a fresh process, with span wrappers installed after warm-up."""
    cli = wk.import_cli()
    from mbcr import poly
    from mbcr.gf import Field, smallest_prime_at_least

    workdir = wk.new_workdir(WORK)
    tr = tracer.Tracer()
    try:
        wk.warm_up(cli, wl, seed, workdir / "warmup")
        before = poly.lagrange_basis.cache_info()
        tr.install()
        try:
            res = wk.run_workload(cli, wl, seed, seconds, workdir / "run")
        finally:
            tr.uninstall()
        after = poly.lagrange_basis.cache_info()
    finally:
        shutil.rmtree(workdir)
    field = Field.gf256() if wl.sizes else Field.prime(smallest_prime_at_least(wl.code.n))
    layers = {k: (v, "ns") for k, v in tracer.gf_microbench(field, seed).items()}
    layers.update(tracer.layer_metrics(tr, wl.code.r, wl.code.alpha,
                                       (after.hits - before.hits, after.misses - before.misses)))
    spans = OUT / f"spans-{wl.name}-seed{seed}.json"
    tr.dump(spans)
    print(json.dumps({"busy_s": sum(op.norm_seconds for op in res.ops), "attempted": res.attempted,
                      "failed": res.failed, "errors": res.errors, "layers": layers,
                      "spans": str(spans.relative_to(wk.ROOT))}))
    return 0


def _workload_child(name: str, seed: int, seconds: float, trace: bool):
    """Run one workload in its own process: (passed, printed lines, result)."""
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(trace))],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=wk.ROOT)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return False, lines, None
    return proc.returncode == 0 and result["correct"], lines[:-1], result


_METRIC_LINE = re.compile(r"^\S+ (\S+) = (\S+) (\S+)")


def steadiness(names: list[str], seed: int, seconds: float, repeat: int) -> int:
    """Run each workload ``repeat`` times on successive seeds and judge the spread.

    Every printed end-to-end metric is summarised; those in BENCHMARK.json
    are judged against their bound. The last line is the summary as JSON.
    """
    bounds = {m["name"]: m["bound"]
              for m in json.loads((wk.ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    ok = True
    summary = {"seed": seed, "seconds": seconds, "repeat": repeat, "workloads": {}}
    for name in names:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        for i in range(repeat):
            passed, lines, result = _workload_child(name, seed + i, seconds, False)
            ok &= passed
            if result is None:
                print(f"{name} seed {seed + i}: no result", flush=True)
                continue
            for line in lines:
                m = _METRIC_LINE.match(line)
                if m and m.group(1) not in result["metrics"]:
                    with contextlib.suppress(ValueError):
                        values.setdefault(m.group(1), []).append(float(m.group(2)))
                        units[m.group(1)] = m.group(3)
            for metric, v in result["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
                units[metric] = v["unit"]
            print(f"{name} seed {seed + i}: " + " ".join(
                f"{m}={v['value']:.6g}" for m, v in result["metrics"].items()), flush=True)
        rows = summary["workloads"][name] = {}
        for metric, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            row = rows[metric] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                  "unit": units[metric]}
            text = (f"{name} {metric}: median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                    f"{units[metric]} spread {spread:.4f}")
            if metric in bounds:
                bound = row["bound"] = bounds[metric]
                row["fits"] = spread <= bound
                if metric != "setup_s":
                    ok &= spread <= bound
                text += f" bound {bound} " + ("steady" if spread < bound / 3 else
                                              "within bound" if spread <= bound else "TOO WIDE")
            print(text, flush=True)
    print(json.dumps(summary))
    return 0 if ok else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload on one seed, each in its own process."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in wk.WORKLOADS:
        passed, lines, result = _workload_child(name, seed, seconds, trace)
        print("\n".join(lines), flush=True)
        total["correct"] &= passed
        if result is None:
            continue
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, v in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = v
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*wk.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"workload seed (default {DEFAULT_SEED}; {HELD_OUT_SEED} is held out "
                         "for rechecking a claim on a seed it was not tuned on)")
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=0, help="steadiness mode: number of runs")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--traced-pass", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.repeat:
        names = list(wk.WORKLOADS) if args.workload == "all" else [args.workload]
        return steadiness(names, args.seed, args.seconds, args.repeat)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    wl = wk.WORKLOADS[args.workload]
    if args.setup_probe:
        workdir = wk.new_workdir(WORK)
        try:
            print(json.dumps(wk.setup_probe(wl, args.seed, workdir)))
        finally:
            shutil.rmtree(workdir)
        return 0
    if args.traced_pass:
        return traced_pass(wl, args.seed, args.seconds)
    return run_one(wl, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
