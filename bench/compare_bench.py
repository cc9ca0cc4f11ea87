#!/usr/bin/env python3
"""CI perf-regression gate over google-benchmark JSON output.

Usage:
    compare_bench.py CURRENT.json [--baseline BASELINE.json]
                     [--threshold 0.15]
                     [--min-int16-ratio 1.6]
                     [--min-int16-engine-ratio 1.55]
                     [--min-int8-engine-ratio 1.9]
                     [--min-int16-nr-ratio 1.25]
                     [--min-service-scaling 0.55]
                     [--min-harq-goodput 0.10]
                     [--min-storage-uber-exp 3.0]
                     [--min-storage-ledger 1.0]

Two independent checks:

1.  Ratio and absolute floors (machine-independent, always enforced when
    the benchmarks are present), starting with the narrow-lane
    acceptance bars:

    a.  Kernel lane density: the int16 layer kernel must deliver its
        lanes-per-vector-op advantage —
            BM_MinSumLayerKernelInt16 / BM_MinSumLayerKernelInt32
        must be >= --min-int16-ratio (default 1.6; BENCH_PR6.json
        records ~2.6x for the row kernels these cells replaced, and the
        layer cells read ~1.8-2.0x on the AVX-512 reference VM, where
        int32 x 16 and int16 x 32 lanes move the same cache line per
        edge of a whole L2-resident layer). This is the tentpole claim —
        2x lanes per vector op — measured where it is defined, on the
        kernel itself.

    b.  End-to-end engine floors: the narrow-lane stream engines must
        keep a material frames/s win over the int32 double-ingest
        engine. Since PR 8 the Int16/Int8 mixed-refill benchmarks feed
        the engines pre-quantised raw codes (core::QuantisedFrame), so
        the ratios measure the full quantised-domain ingest path —
        fused deposit, zero-copy lane aliasing, retire-fold — against
        the legacy double-LLR path:
            BM_MinSumStreamRefillMixedInt16 / BM_MinSumStreamRefillMixed
        >= --min-int16-engine-ratio (default 1.55; reference ~2.4x),
            BM_MinSumStreamRefillMixedInt8 / BM_MinSumStreamRefillMixed
        >= --min-int8-engine-ratio (default 1.9; reference ~2.9x), and
            BM_NrZ384StreamInt16 / BM_NrZ384StreamInt32
        >= --min-int16-nr-ratio (default 1.25; reference ~1.5x). The
        floors sit below the reference ratios by the cross-host spread
        observed on hosted runners; the committed BENCH_PR8.json
        records the reference machine's actual ratios.

    int16 lanes are bit-identical to int32 by rail containment, so every
    ratio above is a pure frames/sec (or rows/sec) ratio.

    c.  Live-service scaling tripwire (PR 7): the wall-clock
        DecodeService must not collapse when workers are added —
            BM_DecodeServiceW2 / BM_DecodeServiceW1
        must be >= --min-service-scaling. The floor is deliberately
        BELOW 1.0 (CI passes 0.55): hosted runners span 1..4 vCPUs,
        and on a single core a second worker can only add contention
        (measured ~0.7-0.9x there), so this is a lock-regression
        tripwire (a broken queue or a serialized farm drops the ratio
        far below the floor), not a speedup claim. Since PR 8 the
        service JSON annotates each cell with its worker count and an
        `oversubscribed` flag (workers > the producing host's
        num_cpus); when the numerator cell is oversubscribed the cell
        measured thread contention, not scaling, and this gate is
        SKIPPED rather than fed a meaningless ratio. The committed
        BENCH_PR7.json records the reference machine's absolute wall
        frames/s, which the baseline comparison gates.

    d.  HARQ link goodput floor (PR 9): the closed-loop link layer must
        deliver —
            BM_HarqLinkGoodputFading >= --min-harq-goodput
        (payload bits delivered per transmitted bit on the Rayleigh
        link, bench/harq_link.cpp). Unlike the wall-clock cells this is
        an ABSOLUTE floor, not a ratio: the HARQ loop is fully
        counter-seeded, so the number is bit-deterministic per
        (seed, sessions) and identical on every host — CI gates the
        default cell (seed 1, 64 sessions, measured 0.118 ~ 71% of the
        one-shot code rate) at 0.10. A combining, retransmission or
        channel regression drops it far below the floor.

    e.  Storage read-path floors (PR 10), absolute like the HARQ
        goodput because the NAND ladder is fully counter-seeded —
        bench/storage_read_path.cpp emits bit-deterministic cells per
        (seed, frames):
            BM_StorageUberExpDeepest >= --min-storage-uber-exp
        gates -log10(UBER) after the full read-retry ladder (clamped
        at 12 when no uncorrectable bits remain; the default run
        measures exactly 12 — every frame delivered — against a
        hard-read-only UBER of ~1.2e-1, so CI's floor of 3.0 means
        "the ladder must still buy >= 2 orders of magnitude"). And
            BM_StorageLedgerConserved >= --min-storage-ledger
        gates the retry-ladder ledger's conservation self-check (the
        bench emits 1.0 only when per-rung deliveries and read
        latency sum to the totals on every curve point AND the live
        serving path reproduced the modeled farm per (frame, rung) —
        CI floors it at 1.0, i.e. any violation fails the gate even
        if the exit code were ignored).

    Any ratio floor <= 0 skips that gate entirely (so a run that only
    produced one benchmark family — e.g. the service sweep without the
    kernel microbench — can still be gated on what it did measure).

2.  Baseline comparison (only when --baseline exists): every benchmark
    reporting items_per_second may not regress by more than --threshold
    (default 15%) against the committed baseline. Absolute rates vary
    across runner generations, so CI regenerates the baseline on the same
    job before gating when the runners are heterogeneous; the committed
    BENCH_PR5.json documents the reference machine's numbers and gates
    like-for-like reruns. A baseline name missing from the current run
    fails (renamed or dropped cell), except the deliberately deleted
    cells listed in RETIRED: those print as retired and --write-best
    drops them, so a warm baseline cache cannot resurrect them.

Exit status: 0 = pass (or baseline absent), 1 = regression / ratio floor
violated, 2 = malformed input.
"""
import argparse
import json
import sys

# Cells deleted on purpose: the lockstep engine they measured is gone; the
# two retire-stage cells priced a design choice (strided gather vs fold,
# scan unpriced) that BM_RetirePass replaced once the scan became part of
# every retiring pass; and the row-kernel cells (dispatched and per tier)
# timed an entry point the engine no longer has — one row per call —
# which the whole-layer BM_MinSumLayerKernel* / BM_MinSumLayerTier* cells
# replace. The scalar-tier refill cell pinned the scalar kernels to the
# dispatched tier's lane width, which no engine can run since the width
# follows the tier; BM_MinSumStreamRefillMixedForcedScalar runs the scalar
# tier at its own width.
RETIRED = ("BM_MinSumLockstepMixed", "BM_MinSumBatchedDecode",
           "BM_RetireGather", "BM_RetireFoldedScan",
           "BM_MinSumStreamRefillMixedScalarTier",
           "BM_MinSumRowKernelInt32", "BM_MinSumRowKernelInt16",
           "BM_MinSumRowKernelInt8") + tuple(
               f"BM_MinSumRowTier{t}_{tier}"
               for t in ("Int32", "Int16", "Int8")
               for tier in ("scalar", "sse42", "avx2", "avx512"))

INT16_KERNEL_NUM = "BM_MinSumLayerKernelInt16"
INT16_KERNEL_DEN = "BM_MinSumLayerKernelInt32"
INT16_ENGINE_NUM = "BM_MinSumStreamRefillMixedInt16"
INT16_ENGINE_DEN = "BM_MinSumStreamRefillMixed"
INT8_ENGINE_NUM = "BM_MinSumStreamRefillMixedInt8"
INT8_ENGINE_DEN = "BM_MinSumStreamRefillMixed"
INT16_NR_NUM = "BM_NrZ384StreamInt16"
INT16_NR_DEN = "BM_NrZ384StreamInt32"
SERVICE_NUM = "BM_DecodeServiceW2"
SERVICE_DEN = "BM_DecodeServiceW1"
HARQ_GOODPUT = "BM_HarqLinkGoodputFading"
STORAGE_UBER_EXP = "BM_StorageUberExpDeepest"
STORAGE_LEDGER = "BM_StorageLedgerConserved"


def ratio_floor(current, num, den, floor, what):
    """Enforce current[num]/current[den] >= floor; missing names fail hard
    (a rename would otherwise silently disarm the gate). floor <= 0
    disables the gate — the explicit way to run one benchmark family
    through the script without tripping the others' missing-name check."""
    if floor <= 0:
        print(f"{what} ratio gate disabled (floor {floor:.2f} <= 0)")
        return False
    if num in current and den in current:
        ratio = current[num] / current[den]
        ok = ratio >= floor
        print(f"{what} ratio {num} / {den} = {ratio:.2f}x "
              f"(floor {floor:.2f}x) {'OK' if ok else 'FAIL'}")
        return not ok
    print(f"compare_bench: {num} / {den} missing from the current run — "
          f"the {what}-ratio gate cannot run (renamed benchmark?) FAIL")
    return True


def absolute_floor(current, name, floor, what):
    """Enforce current[name] >= floor for a deterministic scalar cell;
    same missing-name and floor <= 0 semantics as ratio_floor."""
    if floor <= 0:
        print(f"{what} floor gate disabled (floor {floor:.2f} <= 0)")
        return False
    if name in current:
        ok = current[name] >= floor
        print(f"{what} {name} = {current[name]:.3f} "
              f"(floor {floor:.2f}) {'OK' if ok else 'FAIL'}")
        return not ok
    print(f"compare_bench: {name} missing from the current run — the "
          f"{what} gate cannot run (renamed benchmark?) FAIL")
    return True


def load_doc(path):
    """Parsed benchmark JSON: rates, oversubscription flags, context.

    Returns (rates, oversubscribed, context) where rates maps
    name -> items_per_second for plain (non-aggregate) runs,
    oversubscribed is the set of names whose producing process flagged
    workers > num_cpus on its host (stream_service annotates its service
    cells this way), and context is the producer's `context` block ({}
    when absent — google-benchmark emits one, hand-rolled JSON may not).

    Registration-time modifiers (MinTime, MinWarmUpTime, Args) are
    appended to the reported name after a '/'; they are measurement
    settings, not identity, so names are keyed on the part before it."""
    with open(path) as f:
        doc = json.load(f)
    rates = {}
    oversubscribed = set()
    for b in doc.get("benchmarks", []):
        # Skip aggregate rows (mean/median/stddev) from --benchmark_repetitions.
        if b.get("run_type") == "aggregate":
            continue
        ips = b.get("items_per_second")
        if ips:
            name = b["name"].split("/")[0]
            rates[name] = float(ips)
            if b.get("oversubscribed"):
                oversubscribed.add(name)
    return rates, oversubscribed, doc.get("context", {})


def print_context(context, path):
    """One line of measurement provenance so a gating log records which
    host produced the numbers it is judging."""
    if not context:
        return
    fields = []
    for key in ("date", "host_name", "num_cpus", "mhz_per_cpu"):
        if key in context:
            fields.append(f"{key}={context[key]}")
    if fields:
        print(f"context ({path}): {', '.join(fields)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("current", help="freshly produced benchmark JSON")
    ap.add_argument("--baseline", default=None,
                    help="committed baseline JSON (skipped when absent)")
    ap.add_argument("--threshold", type=float, default=0.15,
                    help="max fractional items/sec regression vs baseline")
    ap.add_argument("--min-int16-ratio", type=float, default=1.6,
                    help="floor for int16 / int32 row-kernel items per "
                         "second (the lane-density bar)")
    ap.add_argument("--min-int16-engine-ratio", type=float, default=1.55,
                    help="floor for int16-quantised / int32-double "
                         "stream-refill frames per second on the mixed "
                         "workload")
    ap.add_argument("--min-int8-engine-ratio", type=float, default=1.9,
                    help="floor for int8-quantised / int32-double "
                         "stream-refill frames per second on the mixed "
                         "workload")
    ap.add_argument("--min-int16-nr-ratio", type=float, default=1.25,
                    help="floor for int16 / int32 stream frames per "
                         "second on the NR z=384 workload")
    ap.add_argument("--min-service-scaling", type=float, default=0.0,
                    help="floor for 2-worker / 1-worker live-service "
                         "wall frames per second (<= 0 disables; CI "
                         "passes 0.55 as a contention-collapse tripwire "
                         "that holds even on a 1-vCPU host)")
    ap.add_argument("--min-harq-goodput", type=float, default=0.0,
                    help="absolute floor for the HARQ closed-loop fading "
                         "goodput cell (deterministic per seed/sessions; "
                         "<= 0 disables; CI passes 0.10 against the "
                         "default cell's 0.118)")
    ap.add_argument("--min-storage-uber-exp", type=float, default=0.0,
                    help="absolute floor for -log10(UBER) at the deepest "
                         "storage read-retry rung (deterministic per "
                         "seed/frames; <= 0 disables; CI passes 3.0 "
                         "against the default cell's 12.0)")
    ap.add_argument("--min-storage-ledger", type=float, default=0.0,
                    help="absolute floor for the storage ledger "
                         "conservation cell (1.0 = all self-checks held; "
                         "<= 0 disables; CI passes 1.0)")
    ap.add_argument("--write-best", default=None, metavar="PATH",
                    help="write a baseline JSON holding the per-benchmark "
                         "BEST items/sec of current and baseline (the CI "
                         "cache ratchets upward only, so a passing 14%% "
                         "regression cannot become the next run's "
                         "reference and compound)")
    args = ap.parse_args()

    try:
        current, oversubscribed, context = load_doc(args.current)
    except (OSError, json.JSONDecodeError, KeyError) as e:
        print(f"compare_bench: cannot read {args.current}: {e}")
        return 2
    if not current:
        print(f"compare_bench: no items_per_second entries in "
              f"{args.current}")
        return 2
    print_context(context, args.current)

    failed = False

    # 1. Machine-independent floors. A missing benchmark is a hard
    # failure, not a warning: renaming or dropping either side silently
    # disarms the acceptance gate otherwise (a cold baseline cache means
    # check 2 would not catch the rename either).
    failed |= ratio_floor(current, INT16_KERNEL_NUM, INT16_KERNEL_DEN,
                          args.min_int16_ratio, "int16-kernel")
    failed |= ratio_floor(current, INT16_ENGINE_NUM, INT16_ENGINE_DEN,
                          args.min_int16_engine_ratio, "int16-engine")
    failed |= ratio_floor(current, INT8_ENGINE_NUM, INT8_ENGINE_DEN,
                          args.min_int8_engine_ratio, "int8-engine")
    failed |= ratio_floor(current, INT16_NR_NUM, INT16_NR_DEN,
                          args.min_int16_nr_ratio, "int16-nr")
    if SERVICE_NUM in oversubscribed:
        # The 2-worker cell ran with more workers than the host had
        # cores — it measured contention, not scaling. Gating it would
        # fail every 1-vCPU runner on physics rather than regressions.
        print(f"service-scaling ratio gate skipped: {SERVICE_NUM} is "
              f"flagged oversubscribed (workers > num_cpus on the "
              f"producing host)")
    else:
        failed |= ratio_floor(current, SERVICE_NUM, SERVICE_DEN,
                              args.min_service_scaling, "service-scaling")
    failed |= absolute_floor(current, HARQ_GOODPUT, args.min_harq_goodput,
                             "harq-goodput")
    failed |= absolute_floor(current, STORAGE_UBER_EXP,
                             args.min_storage_uber_exp, "storage-uber")
    failed |= absolute_floor(current, STORAGE_LEDGER,
                             args.min_storage_ledger, "storage-ledger")

    # 2. Per-benchmark regression vs the committed baseline, when present.
    baseline = {}
    if args.baseline:
        try:
            baseline, _, _ = load_doc(args.baseline)
        except OSError:
            print(f"compare_bench: no baseline at {args.baseline} — "
                  f"skipping regression comparison")
        except (json.JSONDecodeError, KeyError) as e:
            print(f"compare_bench: malformed baseline {args.baseline}: {e}")
            return 2
    for name in sorted(baseline):
        if name in RETIRED:
            print(f"  {name}: retired (deleted on purpose), not compared")
            continue
        if name not in current:
            print(f"  {name}: MISSING from current run "
                  f"(renamed or dropped?) FAIL")
            failed = True
            continue
        old, new = baseline[name], current[name]
        change = (new - old) / old
        ok = change >= -args.threshold
        print(f"  {name}: {old:.3e} -> {new:.3e} items/s "
              f"({change:+.1%}) {'OK' if ok else 'FAIL'}")
        failed |= not ok

    if args.write_best:
        best = {name: max(current.get(name, 0.0), baseline.get(name, 0.0))
                for name in (set(current) | set(baseline)) - set(RETIRED)}
        with open(args.write_best, "w") as f:
            json.dump({"benchmarks": [
                {"name": n, "items_per_second": r}
                for n, r in sorted(best.items())]}, f, indent=1)
        print(f"compare_bench: wrote best-of baseline to "
              f"{args.write_best}")

    if failed:
        print(f"compare_bench: FAIL (>{args.threshold:.0%} frames/s "
              f"regression or a ratio below its floor)")
        return 1
    print("compare_bench: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
