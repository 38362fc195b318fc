"""Benchmark of the hensel verifier: closed-loop CLI checks, one at a time.

    python3 perfbench/run.py --workload fl-small-p --seed 1 --seconds 30 --trace 0

With --trace 0 the run starts one `python -m hensel ...` process per check,
each after the previous one has ended (a closed loop with one client), for
as many whole rounds of the workload as bring the checking time closest to
--seconds, and reports the end-to-end metrics.  With --trace 1 it runs whole
rounds of every workload in this process with the layer boundaries wrapped
(see tracing.py), and reports the per-layer metrics.  Every payload is judged against the references in
reference.py.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

    --smoke      one check per workload, judged, no metrics
    --self-test  corrupted payloads must be rejected by the judges
    --overhead   one round of every workload in process, each check untraced and traced
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.dont_write_bytecode = True  # keep the benchmark's own directory clean
sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
IMPORT_LAUNCHES = 9
CHECK_TIMEOUT_S = 120

END_TO_END = {
    "checks_per_s": "1/s",
    "latency_p50_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["HENSEL_JOBS"] = "1"
    return env


def fill_bytecode_cache():
    """Compile the package once, as an installed copy would be."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC / "hensel")],
        env=child_env(), check=True, stdout=subprocess.DEVNULL,
    )


def setup_seconds() -> float:
    """Wall seconds of one fresh interpreter that imports hensel.cli."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import hensel.cli"], env=child_env(),
                   check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def import_seconds(launches: int) -> list:
    """In-interpreter seconds to import hensel.cli, one per fresh launch."""
    code = ("import time; t = time.perf_counter(); import hensel.cli; "
            "print(time.perf_counter() - t)")
    env, out = child_env(), []
    for _ in range(launches):
        res = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True)
        out.append(float(res.stdout))
    return out


def run_check(check) -> dict:
    """Run one check in a fresh process; wall time includes process start.
    The payload is judged later, by `judge`, outside the timed loop."""
    out_path, err_path = OUT / "check.stdout", OUT / "check.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "hensel", *check.argv],
                                stdout=out, stderr=err, env=child_env())
        timer = threading.Timer(CHECK_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "check": check,
        "argv": list(check.argv),
        "wall_s": wall,
        "rss_mib": usage.ru_maxrss / 1024,
        "returncode": proc.returncode,
        "stdout": out_path.read_text(),
        "stderr": err_path.read_text()[-2000:],
    }


def judge(records):
    """Judge every record's payload against the references, in place."""
    for rec in records:
        rec["status"], rec["problems"] = reference.judge(
            rec.pop("check"), rec["returncode"], rec.pop("stdout"))
        if rec["status"] == reference.OK:
            rec["stderr"] = ""
    return records


def summary(records) -> tuple:
    """(correct, attempted, failed) over the judged checks."""
    failed = sum(r["status"] != reference.OK for r in records)
    correct = not any(r["status"] == reference.WRONG for r in records)
    for r in records:
        if r["status"] != reference.OK:
            print(f"FAILED {' '.join(r['argv'])}: {r['problems']} {r['stderr']}",
                  file=sys.stderr)
    return correct, len(records), failed


def run_end_to_end(workload: str, seed: int, seconds: float) -> tuple:
    """Whole rounds of closed-loop checks, as many as bring the checking
    time closest to `seconds`.  A set-up launch follows every second check,
    so that the set-up samples span the run as the checks do; the wall time
    of the run, over which `checks_per_s` is taken, leaves those launches out."""
    fill_bytecode_cache()
    gen = workloads.Generator(workload, seed)
    records, setup, checking, last_round = [], [], 0.0, 0.0
    setup_wall, start = 0.0, time.perf_counter()
    while not records or checking + last_round / 2 < seconds:
        last_round = 0.0
        for i, check in enumerate(gen.next_round()):
            rec = run_check(check)
            records.append(rec)
            last_round += rec["wall_s"]
            if i % 2 == 0:
                launch = time.perf_counter()
                setup.append(setup_seconds())
                setup_wall += time.perf_counter() - launch
        checking += last_round
    wall = time.perf_counter() - start - setup_wall
    judge(records)
    metrics = {
        "checks_per_s": len(records) / wall,
        "latency_p50_s": statistics.median(r["wall_s"] for r in records),
        "setup_s": statistics.median(setup),
        "peak_rss_mib": max(r["rss_mib"] for r in records),
    }
    extra = {"rounds": gen.rounds, "checking_s": checking, "wall_s": wall,
             "setup_samples": setup}
    return records, {k: (v, END_TO_END[k]) for k, v in metrics.items()}, extra


def _traced_rounds(mods, tracer, gens) -> dict:
    """One round of each workload through hensel.cli.main; returns the
    judged records and the checks per workload."""
    done = {}
    for workload, gen in gens.items():
        tracer.workload = workload
        checks, records = gen.next_round(), []
        for check in checks:
            tracer.check = tracer.checks_run
            tracer.checks_run += 1
            code, stdout = tracing.run_in_process(mods["cli"], check.argv)
            verdict, problems = reference.judge(check, code, stdout)
            payload_window = None
            if verdict == reference.OK and check.kind == "fl-verify":
                payload_window = json.loads(stdout)["results"].get("window")
            records.append({"argv": list(check.argv), "status": verdict,
                            "problems": problems, "stderr": "",
                            "window": payload_window, "p": check.expect.get("p")})
        done[workload] = (checks, records)
    return done


def window_classes(p: int, m: int) -> int:
    """Homothety classes in the window of radius m: the tree ball of radius 2m."""
    return 1 + (p + 1) * (p ** (2 * m) - 1) // (p - 1)


def run_traced(seed: int, seconds: float) -> tuple:
    fill_bytecode_cache()
    imports = import_seconds(IMPORT_LAUNCHES)
    mods = tracing.import_package(SRC)
    tracer = tracing.Tracer()
    gens = {w: workloads.Generator(w, seed) for w in workloads.WORKLOADS}
    records, fl_small_checks, window_total, rounds = [], [], 0, 0
    tracer.install()
    start = last = time.perf_counter()
    try:
        while True:
            done = _traced_rounds(mods, tracer, gens)
            rounds += 1
            for checks, recs in done.values():
                records += recs
            fl_small_checks += done["fl-small-p"][0]
            window_total += sum(window_classes(r["p"], r["window"])
                                for r in done["fl-small-p"][1] if r["window"] is not None)
            now = time.perf_counter()
            if now - start + (now - last) / 2 >= seconds:
                break
            last = now
    finally:
        tracer.uninstall()
    from_rational_us, mul_us = tracing.padics_costs(mods["padics"], fl_small_checks)

    def per_round(workload, name, field=1):
        return tracer.total(workload, name, field) / rounds

    small, large, alg = workloads.WORKLOADS
    stable_calls = tracer.total(small, "lattices.is_stable", 0)
    n_checks = len(records)
    metrics = {
        "padics.mul_us": (mul_us, "us"),
        "padics.from_rational_us": (from_rational_us, "us"),
        "lattices.enumerate_window_s": (per_round(small, "lattices.enumerate_window"), "s/round"),
        "lattices.is_stable_us": (
            tracer.total(small, "lattices.is_stable", 1) / stable_calls * 1e6 if stable_calls else 0.0,
            "us"),
        "orbital.window_classes": (window_total / rounds, "count/round"),
    }
    for w in (small, large):
        metrics[f"orbital.count_stable_s.{w}"] = (per_round(w, "orbital.count_stable"), "s/round")
        metrics[f"orbital.verify_s.{w}"] = (per_round(w, "orbital.verify_fundamental_lemma"), "s/round")
        metrics[f"orbital.cells.{w}"] = (per_round(w, "orbital.count_stable", 0), "count/round")
    metrics.update({
        "qseries.delta_s": (per_round(alg, "qseries.delta"), "s/round"),
        "qseries.eigencheck_s": (per_round(alg, "qseries.eigencheck"), "s/round"),
        "qseries.coefficients": (per_round(alg, "qseries.delta", 3), "count/round"),
        "traceformula.all_subgroups_s": (
            per_round(alg, "traceformula.FiniteGroupTable.all_subgroups"), "s/round"),
        "traceformula.verify_s": (per_round(alg, "traceformula.verify_trace_formula"), "s/round"),
        "traceformula.pairs": (per_round(alg, "traceformula.verify_trace_formula", 0), "count/round"),
        "arith.reciprocity_s": (per_round(alg, "arith.reciprocity_check"), "s/round"),
        "arith.lseries_s": (
            per_round(alg, "arith.dirichlet_sum_partial") + per_round(alg, "arith.euler_product_partial"),
            "s/round"),
        "cli.self_s": (tracer.total(None, "cli.main", 2) / n_checks, "s/check"),
        "cli.import_s": (statistics.median(imports), "s"),
    })
    trace_file = {
        "rounds": rounds,
        "totals": [{"workload": w, "name": n, "calls": c, "inclusive_s": i, "self_s": s, "count": k}
                   for (w, n), (c, i, s, k) in sorted(tracer.totals.items())],
        "spans": [dict(zip(("id", "parent", "name", "start", "end", "check"), s))
                  for s in tracer.spans],
    }
    return records, metrics, {"rounds": rounds, "trace": trace_file}


# -- smoke and self-test -------------------------------------------------------


def smoke(seed: int) -> int:
    fill_bytecode_cache()
    records = []
    for workload in workloads.WORKLOADS:
        check = workloads.Generator(workload, seed).next_round()[0]
        rec = judge([run_check(check)])[0]
        print(f"{workload}: {rec['status']} in {rec['wall_s']:.3f} s: {' '.join(check.argv)}")
        records.append(rec)
    correct, attempted, failed = summary(records)
    return 0 if correct and not failed else 1


def _corruptions(check) -> list:
    """(name, payload -> None) edits that a sound judge must reject."""

    def res(key, fn):
        return lambda pl: pl["results"].__setitem__(key, fn(pl["results"][key]))

    common = [("verdict fail", lambda pl: pl.__setitem__("verdict", "fail"))]
    by_kind = {
        "fl-verify": [
            ("twisted total + 1", res("twisted_total", lambda v: v + 1)),
            ("untwisted total + 1", res("untwisted_total", lambda v: v + 1)),
            ("grading 1 count + 1", res("counts_by_grading", lambda c: {**c, "1": c["1"] + 1})),
        ],
        "hecke": [
            ("tau(p) + 691", res("eigenvalue", lambda v: v + 691)),
            ("tau(p) + 1", res("eigenvalue", lambda v: v + 1)),
            ("not an eigenform", res("is_eigenform", lambda v: False)),
        ],
        "trace": [
            ("missing row", res("rows", lambda rows: rows[:-1])),
            ("failed row", res("rows", lambda rows: [{**rows[0], "status": "fail"}] + rows[1:])),
            ("pair count - 1", res("pairs", lambda v: v - 1)),
        ],
        "frobenius": [
            ("one more split prime", res("tallies", lambda t: {**t, "split": t["split"] + 1})),
            ("a mismatch", res("mismatches", lambda m: m + [[3, 1, -1]])),
        ],
        "lseries": [("partial sum + 1e-3", res("partial_sum", lambda v: v + 1e-3))],
    }
    out = common + by_kind[check.kind]
    if check.kind == "fl-verify" and check.expect["val_a"] == 0:
        out.append(("not saturated", res("saturated", lambda v: False)))
    return out


def self_test(seed: int) -> int:
    """Judge real payloads of cheap checks, then corrupted copies of them."""
    fill_bytecode_cache()
    rng = random.Random(seed)
    checks = [
        workloads.make_fl(rng, 3, 0, 1, 1),
        workloads.make_fl(rng, 5, 0, 3, 0),
        workloads.make_fl(rng, 3, 1, 1, 1),
        workloads.make_hecke(rng, 200),
        workloads.make_trace(rng, "D", 6)[0],
        workloads.make_subgroup("A5", *workloads.subgroup_pool("A5")[-1]),
        workloads.make_frobenius(rng, -1),
        workloads.make_lseries(rng, "mod8"),
    ]
    bad = 0
    for check in checks:
        rec = run_check(check)
        stdout = rec["stdout"]
        judge([rec])
        ok = rec["status"] == reference.OK
        bad += not ok
        print(f"{'ok ' if ok else 'BAD'} real payload accepted: {' '.join(check.argv)} {rec['problems']}")
        if not ok:
            continue
        payload = json.loads(stdout)
        for name, corrupt in _corruptions(check):
            copy = json.loads(json.dumps(payload))
            corrupt(copy)
            status, problems = reference.judge_payload(check, 0, copy)
            caught = status != reference.OK
            bad += not caught
            print(f"{'ok ' if caught else 'BAD'}   {name}: rejected={caught} {problems[:1]}")
        status, _ = reference.judge(check, 1, "")
        caught = status == reference.ERROR
        bad += not caught
        print(f"{'ok ' if caught else 'BAD'}   no output, exit 1: counted as failed={caught}")
    print(f"self-test: {bad} problem(s)")
    return 1 if bad else 0


def overhead(seed: int) -> int:
    """Seconds for one in-process round of every workload, untraced and
    traced.  Each check runs twice in a row, untraced and traced, in an order
    that alternates from check to check, so that a drift of the host's speed
    falls on both sums alike."""
    mods = tracing.import_package(SRC)
    tracer = tracing.Tracer()
    times = [0.0, 0.0]
    for workload in workloads.WORKLOADS:
        tracer.workload = workload
        for check in workloads.Generator(workload, seed).next_round():
            tracer.check = tracer.checks_run
            tracer.checks_run += 1
            for traced in (False, True) if tracer.check % 2 else (True, False):
                if traced:
                    tracer.install()
                start = time.perf_counter()
                try:
                    tracing.run_in_process(mods["cli"], check.argv)
                finally:
                    tracer.uninstall()
                times[traced] += time.perf_counter() - start
    print(f"untraced {times[0]:.3f} s, traced {times[1]:.3f} s, "
          f"overhead {100 * (times[1] / times[0] - 1):.1f} %")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--smoke", action="store_true")
    mode.add_argument("--self-test", action="store_true")
    mode.add_argument("--overhead", action="store_true")
    args = ap.parse_args(argv)
    if not (SRC / "hensel" / "cli.py").is_file():
        print(f"perfbench: no hensel package under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.smoke:
        return smoke(args.seed)
    if args.self_test:
        return self_test(args.seed)
    if args.overhead:
        return overhead(args.seed)
    if args.workload is None:
        ap.error("--workload is required")
    if args.trace:
        records, metrics, extra = run_traced(args.seed, args.seconds)
    else:
        records, metrics, extra = run_end_to_end(args.workload, args.seed, args.seconds)
    correct, attempted, failed = summary(records)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    trace = extra.pop("trace", None)
    if trace is not None:
        (OUT / f"trace-{stem}.json").write_text(json.dumps(trace))
    (OUT / f"run-{stem}.json").write_text(
        json.dumps({**result, **extra, "checks": records}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
