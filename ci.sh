#!/usr/bin/env bash
# Tier-1 verify line: configure, build, run every test via CTest.
#
#   ./ci.sh                   regular build + ctest (build/)
#   ./ci.sh --sanitize        ASan+UBSan build + ctest (build-asan/)
#   ./ci.sh --sanitize=thread TSan build + the concurrency-focused test
#                             subset (build-tsan/) — the OLC race job
#   ./ci.sh --bench-smoke     regular build, then crypto_bench (writes
#                             BENCH_crypto.json, ungated) and the
#                             repository benchmark's smoke run
#                             (benchmark/run.sh --smoke)
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
  --docs-check) MODE="docs-check" ;;
  "") ;;
  *) echo "usage: ci.sh [--sanitize[=address|thread]|--bench-smoke|--docs-check]" >&2
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
  # Same warning wall as the CI build-test matrix: a warning fails here
  # before it fails there.
  BUILD_DIR=build
  cmake -B "$BUILD_DIR" -S . -DVBT_WERROR=ON
fi

cmake --build "$BUILD_DIR" -j "$(nproc)"

if [[ "$MODE" == "bench-smoke" ]]; then
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
