"""Benchmark runner for resgp: one workload per process, closed loop, one caller.

    python3 bench/run.py --workload table2 --seed 0 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from its src/.
--trace 0 measures the end-to-end metrics for --seconds seconds. --trace 1
does the workload's fixed traced work twice, untraced then traced, and reports
the per-layer metrics plus trace_overhead. Human-readable lines come first;
the last line of stdout is one JSON object. Spans and the full report are
written under .bench_runs/ when the run ends.

Timings are in seconds at reference speed (see refspeed.py): a probe is timed
between stretches of work and scales what lies between. field is the exception
and reports raw seconds.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_runs"
SETUPS = 5  # set-ups per run; setup_s is the median import time plus their median
IMPORTS = 5  # imports of the package, each in a fresh interpreter

# end-to-end metric units; every workload reports all of them
END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "peak_rss_mb": "MB"}


def _fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_package() -> None:
    """Import resgp from this checkout's src/ and nowhere else."""
    if not (SRC / "resgp" / "__init__.py").is_file():
        _fail(f"no package source at {SRC / 'resgp'}; run from the root of a resgp checkout")
    sys.path.insert(0, str(SRC))
    import resgp
    if Path(resgp.__file__).resolve().parent != (SRC / "resgp").resolve():
        _fail(f"imported resgp from {resgp.__file__}, not from {SRC}")


def _import_time() -> float:
    """Time to import resgp in a fresh interpreter, at reference speed.

    The interpreter times the import, then runs the probe itself, since it may
    run on another core than this process.
    """
    import refspeed

    code = ("import sys, time; sys.path[:0] = sys.argv[1:]; t0 = time.perf_counter(); "
            "import resgp; t1 = time.perf_counter(); import refspeed; "
            "print(t1 - t0, refspeed.Probe().measure())")
    out = subprocess.run([sys.executable, "-c", code, str(SRC), str(Path(__file__).resolve().parent)],
                         capture_output=True, text=True, timeout=60, check=True)
    elapsed, probe = map(float, out.stdout.split()[-2:])
    return elapsed * refspeed.factor(probe, probe)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _print_report(report: dict, note: dict) -> None:
    print(f"machine: {json.dumps(note, sort_keys=True)}")
    for key, val in report.items():
        if key == "failures":
            for message in val:
                print(f"  failed: {message}")
        elif isinstance(val, list):
            print(f"  {key}: {len(val)} values (in the report file)")
        elif isinstance(val, dict) and "p50" in val:
            p90 = f"{val['p90']:.6g} {val['unit']}" if val["p90"] is not None else "refused: " + val["p90_refused"]
            print(f"  {key}_p50_s: {val['p50']:.6g} {val['unit']} (n={val['n']}) [{val['name']}]")
            print(f"  {key}_p90_s: {p90} (n={val['n']})")
            if "tail" in val and val["tail"][0] != 90:
                k, v = val["tail"]
                print(f"  {key}_p{k}_s: {v:.6g} {val['unit']} (n={val['n']}; highest percentile with 10 beyond)")
        elif isinstance(val, dict) and "value" in val:
            v = val["value"]
            shown = f"{v:.6g}" if isinstance(v, (int, float)) and v is not None else str(v)
            extra = f" [{val['what']}]" if "what" in val else ""
            extra += f" refused: {val['refused']}" if "refused" in val else ""
            print(f"  {key}: {shown} {val['unit']} (n={val.get('n')}){extra}")
        else:
            print(f"  {key}: {val}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["table2", "field", "design", "cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        _fail("--seconds must be positive")

    # the package is imported before anything else loads numpy, so that any
    # thread settings it makes at import take effect
    _import_package()
    import layers
    import refspeed
    import machine
    from spans import Tracer
    from stats import median
    from workloads import WORKLOADS

    import_s = [_import_time() for _ in range(IMPORTS)]
    probe = refspeed.Probe()
    before = probe.measure()
    tracer = Tracer()
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    wl = WORKLOADS[args.workload](args.seed, tracer, OUT / f"tmp-{os.getpid()}", probe)
    try:
        setup_s = []
        for k in range(SETUPS):
            t0 = time.perf_counter()
            wl.setup(k)
            dt = time.perf_counter() - t0
            after = probe.measure()
            setup_s.append(dt * refspeed.factor(before, after))
            before = after
        setup_total = median(import_s) + median(setup_s)
        wl.reset()

        if args.trace == 0:
            t0 = time.perf_counter()
            wl.run(t0 + args.seconds)
            timed_s = time.perf_counter() - t0
            end_to_end, report = wl.summary()
            values = {"setup_s": setup_total, **end_to_end, "peak_rss_mb": _peak_rss_mb()}
            metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
        else:
            untraced_s = wl.run()
            wl.reset()
            sites = layers.install(tracer)
            try:
                traced_s = wl.run()
            finally:
                tracer.restore()
            timed_s = untraced_s + traced_s
            end_to_end, report = wl.summary()
            values = layers.layer_metrics(tracer)
            values["trace_overhead"] = traced_s / untraced_s - 1.0
            metrics = {k: {"value": values[k], "unit": u} for k, u in layers.PER_LAYER}
            report["traced_units"] = wl.traced_units
            report["wrapped_sites"] = sites
            tracer.write(str(OUT / f"spans-{tag}.jsonl"))
    finally:
        wl.close()

    note = machine.machine_note(ROOT, SRC)
    ledger = wl.ledger
    report = {
        "workload": args.workload,
        "unit": wl.unit_name,
        "units": wl.units_done,
        "timed_s": timed_s,
        "import_s_samples": import_s,
        "setup_s_samples": setup_s,
        "speed_factors": {"value": median(wl.speed), "unit": "1", "n": len(wl.speed),
                          "what": "median factor timings were scaled by; above 1 the machine ran fast"},
        "probe_s": probe.samples,
        "error_rate": {"value": ledger.failed / ledger.attempted if ledger.attempted else None,
                       "unit": "failed/attempted", "n": ledger.attempted},
        **report,
        "failures": ledger.messages,
    }
    _print_report(report, note)
    with open(OUT / f"report-{tag}.json", "w") as fh:
        json.dump({"machine": note, "report": report, "metrics": metrics}, fh, indent=1, default=str)

    finite = all(math.isfinite(m["value"]) for m in metrics.values())
    for m in metrics.values():
        if not math.isfinite(m["value"]):
            m["value"] = None  # JSON has no NaN; the run is marked incorrect
    result = {
        "correct": ledger.failed == 0 and ledger.attempted > 0 and finite,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
