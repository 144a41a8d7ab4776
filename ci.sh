#!/usr/bin/env bash
# Tier-1 verify line: configure, build, run every test via CTest.
#
#   ./ci.sh                   regular build + ctest (build/)
#   ./ci.sh --sanitize        ASan+UBSan build + ctest (build-asan/)
#   ./ci.sh --sanitize=thread TSan build + the concurrency-focused test
#                             subset (build-tsan/) — the OLC race job
#   ./ci.sh --bench-smoke     regular build, then a short edge_throughput
#                             run emitting BENCH_edge_throughput.json
#                             (+ the shards=4 and --trust-mode=lazy
#                             variants, each with their own gates), then
#                             the repository benchmark's smoke run
#                             (benchmark/run.sh --smoke)
#   ./ci.sh --chaos           regular build, then the chaos failover
#                             suite + two short --fault-profile bench
#                             passes (liar, lossy) with quarantine /
#                             failover gates; emits
#                             BENCH_edge_throughput_chaos.json
#   ./ci.sh --docs-check      no build: verify every local markdown link
#                             and #section-anchor in README.md, DESIGN.md
#                             and docs/ resolves (anchor-drift gate)
set -euo pipefail
cd "$(dirname "$0")"

MODE="default"
case "${1:-}" in
  --sanitize|--sanitize=address) MODE="sanitize" ;;
  --sanitize=thread) MODE="tsan" ;;
  --bench-smoke) MODE="bench-smoke" ;;
  --chaos) MODE="chaos" ;;
  --docs-check) MODE="docs-check" ;;
  "") ;;
  *) echo "usage: ci.sh [--sanitize[=address|thread]|--bench-smoke|--chaos|--docs-check]" >&2
     exit 2 ;;
esac

if [[ "$MODE" == "docs-check" ]]; then
  # Docs drift gate: every relative markdown link from the indexed docs
  # must point at an existing file, and every #fragment must match a
  # heading in the target (GitHub slug rules). Catches the classic
  # failure mode of this repo's docs split: DESIGN.md renumbers a
  # section and docs/TRUST_MODEL.md keeps citing the old anchor.
  python3 - <<'PY'
import os, re, sys

DOCS = ["README.md", "DESIGN.md"] + sorted(
    os.path.join("docs", f) for f in os.listdir("docs") if f.endswith(".md"))

def slugify(heading):
    # GitHub anchor rules: lowercase, drop punctuation, spaces -> dashes.
    s = heading.strip().lower()
    s = re.sub(r"[^\w\- ]", "", s, flags=re.UNICODE)
    return s.replace(" ", "-")

def anchors(path):
    out = set()
    counts = {}
    for line in open(path, encoding="utf-8"):
        m = re.match(r"^(#{1,6})\s+(.*)$", line)
        if not m:
            continue
        slug = slugify(m.group(2))
        n = counts.get(slug, 0)
        counts[slug] = n + 1
        out.add(slug if n == 0 else "%s-%d" % (slug, n))
    return out

errors = []
link_re = re.compile(r"\]\(([^)\s]+)\)")
for doc in DOCS:
    base = os.path.dirname(doc)
    for ln, line in enumerate(open(doc, encoding="utf-8"), 1):
        for target in link_re.findall(line):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            path, _, frag = target.partition("#")
            full = os.path.normpath(os.path.join(base, path)) if path else doc
            if not os.path.exists(full):
                errors.append("%s:%d: broken link %s" % (doc, ln, target))
                continue
            if frag and full.endswith(".md") and frag not in anchors(full):
                errors.append("%s:%d: dead anchor %s (no such heading in %s)"
                              % (doc, ln, target, full))
for e in errors:
    print("FAIL:", e)
if errors:
    sys.exit(1)
print("docs-check: %d files, all links and anchors resolve" % len(DOCS))
PY
  exit 0
fi

if [[ "$MODE" == "sanitize" ]]; then
  BUILD_DIR=build-asan
  cmake -B "$BUILD_DIR" -S . -DVBT_SANITIZE=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo
elif [[ "$MODE" == "tsan" ]]; then
  BUILD_DIR=build-tsan
  cmake -B "$BUILD_DIR" -S . -DVBT_SANITIZE=thread \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo
else
  BUILD_DIR=build
  cmake -B "$BUILD_DIR" -S .
fi

cmake --build "$BUILD_DIR" -j "$(nproc)"

if [[ "$MODE" == "bench-smoke" ]]; then
  # Short closed-loop pass; the JSON is the CI perf-trajectory artifact.
  # The committed artifact is the VO-wire-cost baseline: take it from
  # HEAD so neither the fresh run below nor a stale working-tree copy
  # can masquerade as the baseline.
  BASELINE="$(mktemp)"
  git show HEAD:BENCH_edge_throughput.json > "$BASELINE" 2>/dev/null \
    || cp BENCH_edge_throughput.json "$BASELINE" 2>/dev/null \
    || echo '{}' > "$BASELINE"
  VBT_BENCH_TUPLES="${VBT_BENCH_TUPLES:-2000}" \
    "./$BUILD_DIR/bench/edge_throughput" --json --seconds 1.5 \
    > BENCH_edge_throughput.json
  python3 -m json.tool BENCH_edge_throughput.json > /dev/null
  # Gates:
  #  * vo_bytes_per_query present and <= baseline * 1.10 (wire cost);
  #  * verify_coverage == 1.0 — the driver authenticates EVERY query, the
  #    paper's actual client contract (silent undercounting broke this
  #    once: the old driver sampled 1-in-4 and the JSON hid it);
  #  * verify_failures == 0 across all runs;
  #  * recover_calls_per_query <= baseline * 1.10 — the deterministic
  #    Cost_s gate: the fast path's whole point is paying fewer
  #    signature recoveries, and the count is workload-, not
  #    host-dependent;
  #  * verify_cost_us_per_query <= baseline * 1.25 (when the baseline
  #    carries the field — bootstrap runs only assert presence). This
  #    one is wall-clock and therefore host-sensitive: the committed
  #    baseline must be regenerated (./ci.sh --bench-smoke, commit the
  #    JSON) whenever the reference host changes. The 25% band reflects
  #    measured run-to-run variance on the reference host (single-CPU
  #    container; six identical back-to-back runs spanned 121–168 us/q,
  #    and an interleaved A/B of two builds overlapped completely —
  #    126/135/184 vs 135/164/137), so a 10% band was pure noise. The
  #    deterministic recover_calls_per_query gate above is the tight
  #    one — a real fast-path regression moves the operation count, not
  #    just the wall clock.
  python3 - "$BASELINE" <<'PY'
import json, sys
new = json.load(open("BENCH_edge_throughput.json"))
base = json.load(open(sys.argv[1]))

if "vo_bytes_per_query" not in new:
    sys.exit("FAIL: vo_bytes_per_query missing from BENCH_edge_throughput.json")
cur = float(new["vo_bytes_per_query"])
if cur <= 0:
    sys.exit("FAIL: vo_bytes_per_query is %r (no wire batches completed?)" % cur)
b = base.get("vo_bytes_per_query")
if b is None:
    print("vo_bytes_per_query=%.1f (no baseline; presence check only)" % cur)
elif cur > float(b) * 1.10:
    sys.exit("FAIL: vo_bytes_per_query regressed: %.1f vs baseline %.1f (+%.1f%%)"
             % (cur, float(b), 100.0 * (cur / float(b) - 1.0)))
else:
    print("vo_bytes_per_query=%.1f vs baseline %.1f: OK" % (cur, float(b)))

cov = new.get("verify_coverage")
if cov is None:
    sys.exit("FAIL: verify_coverage missing from BENCH_edge_throughput.json")
# Integer comparison, not the %.3f-rounded ratio: 1-in-5000 unverified
# queries would still print as 1.000.
q = sum(int(r.get("queries", 0)) for r in new.get("runs", []))
vq = sum(int(r.get("verified_queries", 0)) for r in new.get("runs", []))
if q == 0 or vq != q:
    sys.exit("FAIL: verify_coverage %d/%d (every query must be authenticated)"
             % (vq, q))
print("verify_coverage=%d/%d: OK" % (vq, q))

fails = sum(int(r.get("verify_failures", 0)) for r in new.get("runs", []))
if fails:
    sys.exit("FAIL: %d verification failures in the smoke run" % fails)

rc = new.get("recover_calls_per_query")
if rc is None:
    sys.exit("FAIL: recover_calls_per_query missing from JSON")
brc = base.get("recover_calls_per_query")
if brc is None or float(brc) <= 0:
    print("recover_calls_per_query=%.2f (no baseline; presence check only)"
          % float(rc))
elif float(rc) > float(brc) * 1.10:
    sys.exit("FAIL: recover_calls_per_query regressed: %.2f vs baseline %.2f "
             "(+%.1f%%)" % (float(rc), float(brc),
                            100.0 * (float(rc) / float(brc) - 1.0)))
else:
    print("recover_calls_per_query=%.2f vs baseline %.2f: OK"
          % (float(rc), float(brc)))

vc = new.get("verify_cost_us_per_query")
if vc is None:
    sys.exit("FAIL: verify_cost_us_per_query missing from JSON")
bvc = base.get("verify_cost_us_per_query")
if bvc is None or float(bvc) <= 0:
    print("verify_cost_us_per_query=%.1f (no baseline; presence check only)"
          % float(vc))
elif float(vc) > float(bvc) * 1.25:
    sys.exit("FAIL: verify_cost_us_per_query regressed: %.1f vs baseline %.1f "
             "(+%.1f%%)" % (float(vc), float(bvc),
                            100.0 * (float(vc) / float(bvc) - 1.0)))
else:
    print("verify_cost_us_per_query=%.1f vs baseline %.1f: OK"
          % (float(vc), float(bvc)))

# OLC scaling gate: exec_avg_us at workers=8 is the latch-contention
# signal the optimistic-lock-coupling tree exists to shrink — if a
# change re-serializes readers, execution time under a full pool moves
# long before qps does (the modeled stall hides small shifts in qps).
# 10% band: exec_avg_us is batch-work CPU time, far less noisy than the
# wall-clock verify costs above. Telemetry fields must also be present
# so the artifact keeps carrying the restart-rate trajectory.
def run_at(doc, w):
    for r in doc.get("runs", []):
        if int(r.get("workers", -1)) == w:
            return r
    return None

r8 = run_at(new, 8)
if r8 is None:
    sys.exit("FAIL: no workers=8 run in BENCH_edge_throughput.json")
for fld in ("olc_restarts_per_query", "latch_wait_avg_us", "exec_avg_us"):
    if fld not in r8:
        sys.exit("FAIL: %s missing from the workers=8 run" % fld)
cur8 = float(r8["exec_avg_us"])
b8 = run_at(base, 8)
base8 = float(b8.get("exec_avg_us", 0)) if b8 is not None else 0.0
if base8 <= 0:
    print("exec_avg_us@8=%.1f (no baseline; presence check only)" % cur8)
elif cur8 > base8 * 1.10:
    sys.exit("FAIL: exec_avg_us@workers=8 regressed: %.1f vs baseline %.1f "
             "(+%.1f%%)" % (cur8, base8, 100.0 * (cur8 / base8 - 1.0)))
else:
    print("exec_avg_us@8=%.1f vs baseline %.1f: OK (olc_restarts/q=%.4f, "
          "latch_wait=%.2fus/b)" % (cur8, base8,
                                    float(r8["olc_restarts_per_query"]),
                                    float(r8["latch_wait_avg_us"])))

# Batch tuple-fetch memo gate: the representative batch each run
# re-issues must actually walk the tree and share fetches — both
# counters sat at zero for a release because VO-cache hits skipped the
# walk and nothing noticed.
for r in new.get("runs", []):
    tf = int(r.get("tuple_fetches", 0))
    sh = int(r.get("shared_fetch_hits", 0))
    if tf <= 0 or sh <= 0:
        sys.exit("FAIL: dead batch fetch memo at workers=%s: "
                 "tuple_fetches=%d shared_fetch_hits=%d"
                 % (r.get("workers"), tf, sh))
print("batch fetch memo live in every run: OK")
PY
  rm -f "$BASELINE"
  echo "wrote BENCH_edge_throughput.json"
  # Scatter-gather smoke: the same closed loop at 4 key-range shards.
  # Gates (same host, same configuration — so the comparison is fair):
  #  * verify_failures == 0 and verify_coverage == 1.0 at shards=4 —
  #    every scattered answer authenticates per shard against the signed
  #    PartitionMap;
  #  * sharded qps >= 90% of the fresh single-shard run above (the
  #    scatter layer must not tax throughput; 10% slack absorbs
  #    closed-loop noise).
  VBT_BENCH_TUPLES="${VBT_BENCH_TUPLES:-2000}" \
    "./$BUILD_DIR/bench/edge_throughput" --json --seconds 1.5 --shards 4 \
    > BENCH_edge_throughput_shards4.json
  python3 -m json.tool BENCH_edge_throughput_shards4.json > /dev/null
  python3 - <<'PY'
import json, sys
mono = json.load(open("BENCH_edge_throughput.json"))
shard = json.load(open("BENCH_edge_throughput_shards4.json"))

if shard.get("shards") != 4:
    sys.exit("FAIL: shards-4 run did not record shards=4")
fails = sum(int(r.get("verify_failures", 0)) for r in shard.get("runs", []))
if fails:
    sys.exit("FAIL: %d verification failures in the shards=4 smoke run" % fails)
q = sum(int(r.get("queries", 0)) for r in shard.get("runs", []))
vq = sum(int(r.get("verified_queries", 0)) for r in shard.get("runs", []))
if q == 0 or vq != q:
    sys.exit("FAIL: shards=4 verify_coverage %d/%d" % (vq, q))
print("shards=4 verify: %d/%d queries authenticated, 0 failures" % (vq, q))

if "per_shard_qps" not in shard or not shard["per_shard_qps"]:
    sys.exit("FAIL: per_shard_qps missing/empty in shards-4 JSON")
if "map_verify_us_per_query" not in shard:
    sys.exit("FAIL: map_verify_us_per_query missing in shards-4 JSON")
mono_qps = max(float(r.get("qps", 0)) for r in mono.get("runs", []))
shard_qps = max(float(r.get("qps", 0)) for r in shard.get("runs", []))
if mono_qps > 0 and shard_qps < 0.90 * mono_qps:
    sys.exit("FAIL: shards=4 qps %.1f < 90%% of single-shard qps %.1f"
             % (shard_qps, mono_qps))
print("shards=4 qps %.1f vs single-shard %.1f: OK (per-shard: %s)"
      % (shard_qps, mono_qps, shard["per_shard_qps"]))

# The per-(shard,batch) fetch memo must be live under scatter-gather
# too — this exact artifact shipped with tuple_fetches=0 AND
# shared_fetch_hits=0 when the memo silently died under sharding.
for r in shard.get("runs", []):
    tf = int(r.get("tuple_fetches", 0))
    sh = int(r.get("shared_fetch_hits", 0))
    if tf <= 0 or sh <= 0:
        sys.exit("FAIL: dead sharded fetch memo at workers=%s: "
                 "tuple_fetches=%d shared_fetch_hits=%d"
                 % (r.get("workers"), tf, sh))
print("shards=4 batch fetch memo live in every run: OK")
PY
  echo "wrote BENCH_edge_throughput_shards4.json"
  # Lazy-trust smoke: the latency-vs-exposure pair. The saturated
  # closed loop above cannot show the tier's latency win on a 1-vCPU
  # host: at CPU saturation a closed loop obeys p50 ~= clients/qps
  # (Little's law) no matter where verification runs, and deferral
  # conserves total crypto work — so full-load lazy p50 equals
  # certified p50 to within noise. The tier's actual promise is lower
  # *delivery* latency at fixed load when idle cycles can absorb the
  # deferred audit, so the gate measures exactly that: a light-load
  # pair (--clients 2 --stall-us 2000, stall-dominated cycle with CPU
  # headroom), certified control immediately followed by lazy in one
  # session — same host state, same configuration, only the trust
  # mode differs. Both JSONs are committed as the curve's reference
  # points. Gates:
  #  * audit_coverage == 1.0 by INTEGER comparison (audited ==
  #    enqueued, > 0) — every deferred ticket must actually be audited;
  #  * alarms == 0 and audit_backlog_at_exit == 0 — honest run, queue
  #    drained;
  #  * batch_p50_us at workers=8 strictly below the control's — the
  #    whole point of the tier is taking the synchronous verify cost
  #    off the delivery path (measured margin on a rested host: ~14%);
  #  * recover_calls_per_query within ±20% of the control —
  #    deferral changes the crypto SCHEDULE, never the crypto WORK.
  #    The band is wider than the main artifact's ±10% because the
  #    lazy run's faster cycle completes more batches in the fixed
  #    window, so warm-up recoveries amortize over more queries
  #    (~10% drift from pace alone); the failure modes this gate
  #    defends against — skipped or duplicated verification — move
  #    the count by ~100%, far outside either band.
  VBT_BENCH_TUPLES="${VBT_BENCH_TUPLES:-2000}" \
    "./$BUILD_DIR/bench/edge_throughput" --json --seconds 1.5 \
    --clients 2 --stall-us 2000 > BENCH_edge_throughput_lazy_control.json
  VBT_BENCH_TUPLES="${VBT_BENCH_TUPLES:-2000}" \
    "./$BUILD_DIR/bench/edge_throughput" --json --seconds 1.5 \
    --clients 2 --stall-us 2000 \
    --trust-mode lazy > BENCH_edge_throughput_lazy.json
  python3 -m json.tool BENCH_edge_throughput_lazy_control.json > /dev/null
  python3 -m json.tool BENCH_edge_throughput_lazy.json > /dev/null
  python3 - <<'PY'
import json, sys
cert = json.load(open("BENCH_edge_throughput_lazy_control.json"))
lazy = json.load(open("BENCH_edge_throughput_lazy.json"))

if cert.get("trust_mode") != "certified":
    sys.exit("FAIL: lazy-control artifact did not record trust_mode=certified")
if lazy.get("trust_mode") != "lazy":
    sys.exit("FAIL: lazy artifact did not record trust_mode=lazy")

enq = sum(int(r.get("audit_enqueued_queries", 0)) for r in lazy["runs"])
aud = sum(int(r.get("audited_queries", 0)) for r in lazy["runs"])
if enq == 0 or aud != enq:
    sys.exit("FAIL: audit_coverage %d/%d (every deferred ticket must be "
             "audited)" % (aud, enq))
print("audit_coverage=%d/%d: OK" % (aud, enq))

alarms = sum(int(r.get("alarms", 0)) for r in lazy["runs"])
if alarms:
    sys.exit("FAIL: %d tamper alarms in an honest lazy run" % alarms)
backlog = sum(int(r.get("audit_backlog_at_exit", 0)) for r in lazy["runs"])
if backlog:
    sys.exit("FAIL: %d tickets left in the audit queue at exit" % backlog)
print("alarms=0, audit backlog drained: OK")

def run_at(doc, w):
    for r in doc.get("runs", []):
        if int(r.get("workers", -1)) == w:
            return r
    return None

c8, l8 = run_at(cert, 8), run_at(lazy, 8)
if c8 is None or l8 is None:
    sys.exit("FAIL: missing workers=8 run in lazy control or lazy artifact")
cp50, lp50 = float(c8["batch_p50_us"]), float(l8["batch_p50_us"])
if lp50 >= cp50:
    sys.exit("FAIL: lazy batch_p50_us %.0f >= certified control %.0f — "
             "deferral is not taking verification off the delivery path"
             % (lp50, cp50))
print("batch_p50_us lazy %.0f < certified control %.0f (-%.1f%%), audit_lag "
      "p50/p99=%.0f/%.0fus: OK"
      % (lp50, cp50, 100.0 * (1.0 - lp50 / cp50),
         float(lazy.get("audit_lag_p50_us", 0)),
         float(lazy.get("audit_lag_p99_us", 0))))

crc = float(cert.get("recover_calls_per_query", 0))
lrc = float(lazy.get("recover_calls_per_query", 0))
if crc <= 0 or lrc <= 0:
    sys.exit("FAIL: recover_calls_per_query missing/zero (cert %.2f lazy %.2f)"
             % (crc, lrc))
if not (0.80 * crc <= lrc <= 1.20 * crc):
    sys.exit("FAIL: lazy recover_calls_per_query %.2f outside ±20%% of "
             "control %.2f — deferral must not change the crypto work"
             % (lrc, crc))
print("recover_calls_per_query lazy %.2f vs control %.2f: OK" % (lrc, crc))
PY
  echo "wrote BENCH_edge_throughput_lazy.json (+ _lazy_control.json)"
  # Write-mix smoke: the per-shard signing pipeline under a Zipf insert
  # storm, as TWO runs because the gated counters need different
  # layouts to be trustworthy:
  #  1. Fixed layout (no auto-split) -> _writemix_fixed.json. With the
  #     shard set pinned, sign_calls_per_insert is exact (three
  #     back-to-back runs: 24.012/24.013/24.012 while wall-clock qps
  #     swung 13%), so it gets the tight ±10% band — a batching
  #     regression or a naive O(rows) split resign sneaking back into
  #     any DML path moves it far outside. Under auto-split the same
  #     counter is schedule-shaped (WHEN splits land decides how many
  #     inserts pay the taller pre-split trees; rested runs spanned
  #     7.2–14.9) and therefore ungateable.
  #  2. Auto-split armed -> _writemix.json, the rebalance-loop gates:
  #     * splits_triggered >= 1 — under zipf 0.99 the contention
  #       policy must actually fire; a silent policy-thread death
  #       shows up here;
  #     * qps_skew_late <= 2.0 OR < qps_skew_early — the ROADMAP
  #       convergence target (hot shard within ~2x of the mean after
  #       rebalance) with an escape hatch for partially-converged
  #       short runs: max/mean gets STRICTER as splits multiply the
  #       shard count (mean falls), so a run where the policy is
  #       mid-flight can sit just above 2.0 while clearly improving.
  #       A policy that fires but makes skew worse fails both arms;
  #     * verify_failures == 0 with verified_queries > 0 — the
  #       post-storm read-back authenticates lineage shards end to end
  #       (binding signatures included), so a split that breaks
  #       verification cannot pass the smoke;
  #     * sync_ok — the hub converged on the post-split layout
  #       (auto-split children are discovered mid-run).
  # The strictly deterministic o(rows) split-cost bound is
  # counter-gated in split_pipeline_test, independent of any timing.
  WM_BASELINE="$(mktemp)"
  git show HEAD:BENCH_edge_throughput_writemix_fixed.json > "$WM_BASELINE" \
    2>/dev/null \
    || cp BENCH_edge_throughput_writemix_fixed.json "$WM_BASELINE" \
         2>/dev/null \
    || echo '{}' > "$WM_BASELINE"
  VBT_BENCH_TUPLES="${VBT_BENCH_TUPLES:-2000}" \
    "./$BUILD_DIR/bench/edge_throughput" --json --write-mix --seconds 1.5 \
    --shards 4 --writers 4 \
    > BENCH_edge_throughput_writemix_fixed.json
  VBT_BENCH_TUPLES="${VBT_BENCH_TUPLES:-2000}" \
    "./$BUILD_DIR/bench/edge_throughput" --json --write-mix --seconds 1.5 \
    --shards 4 --writers 4 --auto-split \
    > BENCH_edge_throughput_writemix.json
  python3 -m json.tool BENCH_edge_throughput_writemix_fixed.json > /dev/null
  python3 -m json.tool BENCH_edge_throughput_writemix.json > /dev/null
  python3 - "$WM_BASELINE" <<'PY'
import json, sys
fixed = json.load(open("BENCH_edge_throughput_writemix_fixed.json"))
auto = json.load(open("BENCH_edge_throughput_writemix.json"))
base = json.load(open(sys.argv[1]))

for name, run in (("fixed", fixed), ("auto", auto)):
    if run.get("mode") != "write_mix":
        sys.exit("FAIL: %s write-mix artifact did not record mode=write_mix"
                 % name)
    if not run.get("sync_ok"):
        sys.exit("FAIL: hub did not converge after the %s write storm" % name)
    vq = int(run.get("verified_queries", 0))
    vf = int(run.get("verify_failures", 0))
    if vq <= 0:
        sys.exit("FAIL: %s write-mix read-back verified 0 queries" % name)
    if vf:
        sys.exit("FAIL: %d verification failures reading back the %s "
                 "write-mix layout" % (vf, name))

if int(fixed.get("splits_triggered", -1)) != 0:
    sys.exit("FAIL: fixed-layout run split anyway (splits_triggered=%s) — "
             "the spi gate needs a pinned shard set"
             % fixed.get("splits_triggered"))
spi = float(fixed.get("sign_calls_per_insert", 0))
if spi <= 0:
    sys.exit("FAIL: sign_calls_per_insert is %r (signer counters dead?)" % spi)
bspi = base.get("sign_calls_per_insert")
if bspi is None or float(bspi) <= 0:
    print("sign_calls_per_insert=%.3f (no baseline; presence check only)" % spi)
elif not (0.90 * float(bspi) <= spi <= 1.10 * float(bspi)):
    sys.exit("FAIL: sign_calls_per_insert %.3f outside ±10%% of baseline "
             "%.3f — signing work per DML moved" % (spi, float(bspi)))
else:
    print("sign_calls_per_insert=%.3f vs baseline %.3f: OK"
          % (spi, float(bspi)))

splits = int(auto.get("splits_triggered", 0))
if splits < 1:
    sys.exit("FAIL: splits_triggered=%d — auto-split never fired under "
             "zipf %.2f" % (splits, float(auto.get("zipf", 0))))
skew_early = float(auto.get("qps_skew_early", 0))
skew_late = float(auto.get("qps_skew_late", 99))
if skew_late > 2.0 and skew_late >= skew_early:
    sys.exit("FAIL: qps_skew_late=%.2f (early %.2f) — auto-split fired %d "
             "times but the late-window hot shard is still >2x the mean AND "
             "no better than the early window" %
             (skew_late, skew_early, splits))
print("splits_triggered=%d (shards %d -> %d, lineage=%d, "
      "skew %.2f -> %.2f): OK"
      % (splits, int(auto.get("shards_before", 0)),
         int(auto.get("shards_after", 0)), int(auto.get("lineage_shards", 0)),
         float(auto.get("qps_skew_early", 0)), skew_late))
print("write-mix read-back: %d+%d queries authenticated, 0 failures"
      % (int(fixed.get("verified_queries", 0)),
         int(auto.get("verified_queries", 0))))
PY
  rm -f "$WM_BASELINE"
  echo "wrote BENCH_edge_throughput_writemix.json (+ _writemix_fixed.json)"
  # Crypto fast-path microbench: Recover-vs-cache throughput on this
  # host. Uploaded as a CI artifact (not committed, not gated — the
  # ratios are host-dependent).
  "./$BUILD_DIR/bench/crypto_bench" --json > BENCH_crypto.json
  python3 -m json.tool BENCH_crypto.json > /dev/null
  echo "wrote BENCH_crypto.json"
  # Repository benchmark smoke: builds benchmark/vbt_bench.cc against
  # this tree (nothing else compiles it, and it reads public types the
  # library must keep), then runs every workload untraced and traced
  # with 1 s phases. Each run must pass its oracle and print every
  # metric BENCHMARK.json declares, finite and in its unit.
  bash benchmark/run.sh --smoke
  exit 0
fi

if [[ "$MODE" == "chaos" ]]; then
  # Chaos smoke. Three stages, each with its own gate:
  #  1. chaos_failover_test — the functional contract: under seeded
  #     drop/duplicate/partition faults plus one lying edge, no
  #     unverified row is ever delivered, the liar lands in quarantine,
  #     degraded answers are explicitly flagged, and a healed edge is
  #     probed back in.
  #  2. --fault-profile liar bench pass (the committed chaos artifact):
  #     the tampering edge must be quarantined and traffic must fail
  #     over, while the bench's own exit gate proves the fleet kept
  #     answering authenticated queries. Counter gates only — the
  #     wall-clock fields in the artifact are informational.
  #  3. --fault-profile lossy bench pass (not committed): the injector
  #     must actually fire and every run must keep a positive qps —
  #     "the service degrades, it does not stop".
  (cd "$BUILD_DIR" && ctest --output-on-failure -R "chaos_failover")
  VBT_BENCH_TUPLES="${VBT_BENCH_TUPLES:-2000}" \
    "./$BUILD_DIR/bench/edge_throughput" --json --seconds 1.5 \
    --fault-profile liar > BENCH_edge_throughput_chaos.json
  python3 -m json.tool BENCH_edge_throughput_chaos.json > /dev/null
  LOSSY_JSON="$(mktemp)"
  VBT_BENCH_TUPLES="${VBT_BENCH_TUPLES:-2000}" \
    "./$BUILD_DIR/bench/edge_throughput" --json --seconds 1.5 \
    --fault-profile lossy > "$LOSSY_JSON"
  python3 -m json.tool "$LOSSY_JSON" > /dev/null
  python3 - "$LOSSY_JSON" <<'PY'
import json, sys
liar = json.load(open("BENCH_edge_throughput_chaos.json"))
lossy = json.load(open(sys.argv[1]))

if liar.get("fault_profile") != "liar":
    sys.exit("FAIL: chaos artifact did not record fault_profile=liar")
if int(liar.get("quarantines", 0)) < 1:
    sys.exit("FAIL: the tampering edge was never quarantined")
if int(liar.get("failovers", 0)) < 1:
    sys.exit("FAIL: no failovers recorded under the liar profile")
q = sum(int(r.get("queries", 0)) for r in liar.get("runs", []))
if q <= 0:
    sys.exit("FAIL: liar-profile run answered no queries")
vf = sum(int(r.get("verify_failures", 0)) for r in liar.get("runs", []))
if vf:
    sys.exit("FAIL: %d final verification failures under the liar profile — "
             "failover must carry a tampered batch to a verified answer"
             % vf)
dead = [r.get("workers") for r in liar.get("runs", [])
        if float(r.get("qps", 0)) <= 0]
if dead:
    sys.exit("FAIL: qps hit zero under the liar profile at workers=%s" % dead)
print("liar: quarantines=%d failovers=%d degraded=%d over %d queries, "
      "0 unverified answers: OK"
      % (int(liar.get("quarantines", 0)), int(liar.get("failovers", 0)),
         int(liar.get("degraded_answers", 0)), q))

if lossy.get("fault_profile") != "lossy":
    sys.exit("FAIL: lossy run did not record fault_profile=lossy")
inj = sum(int(r.get("injected_dropped", 0)) +
          int(r.get("injected_duplicated", 0)) +
          int(r.get("injected_reordered", 0))
          for r in lossy.get("runs", []))
if inj <= 0:
    sys.exit("FAIL: the fault injector never fired in the lossy run")
if "retries_per_query" not in lossy:
    sys.exit("FAIL: retries_per_query missing from the lossy JSON")
dead = [r.get("workers") for r in lossy.get("runs", [])
        if float(r.get("qps", 0)) <= 0]
if dead:
    sys.exit("FAIL: qps hit zero under the lossy profile at workers=%s"
             % dead)
print("lossy: %d injections, retries/query=%.3f, qps stayed positive: OK"
      % (inj, float(lossy.get("retries_per_query", 0))))
PY
  rm -f "$LOSSY_JSON"
  echo "wrote BENCH_edge_throughput_chaos.json"
  exit 0
fi

cd "$BUILD_DIR"
if [[ "$MODE" == "sanitize" ]]; then
  # halt_on_error keeps a sanitizer hit from hiding behind a pass;
  # detect_leaks stays on by default where supported.
  export ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1:strict_string_checks=1}"
  export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}"
fi
if [[ "$MODE" == "tsan" ]]; then
  # The TSan job runs the concurrency-heavy subset: the worker-pool
  # service suite, the scatter-gather equivalence suite (now including
  # the DML-pipeline storm tests: pipelined-vs-serial equivalence,
  # cross-shard deletes racing inserts, splits mid-write-storm), the
  # OLC stress suite (readers racing splits, forced restarts, snapshot
  # installs), the lazy-trust suite (client threads racing the
  # background auditor over the shared digest cache and bounded ticket
  # queue), the split-pipeline suite (auto-split policy thread racing
  # writer threads), and the chaos failover suite (client threads
  # failing over through the director while the fault injector holds,
  # duplicates and re-releases messages across threads). The full suite
  # under TSan is prohibitively slow on the single-CPU CI runner and
  # adds no interleavings these don't hit.
  export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1:second_deadlock_stack=1}"
  ctest --output-on-failure -j "$(nproc)" \
        -R "query_service|shard_equivalence|olc_stress|lazy_trust|split_pipeline|chaos_failover"
else
  ctest --output-on-failure -j "$(nproc)"
fi
