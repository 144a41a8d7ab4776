// Microbenchmark for the client verification fast path: what one
// signature recovery costs through each layer — raw Recover (SimSigner
// AES and real RSA), a RecoveredDigestCache hit, a pooled once-per-batch
// recovery consumed by index — and what the exponent-folded commutative
// combine buys over the chained form. The Recover-vs-cache ratio is the
// whole justification for the RecoveredDigestCache; this bench pins the
// number on the host CI runs on.
//
// Plain executable (no google-benchmark dependency), like the fig*
// harnesses. `--json` emits BENCH_crypto.json, which CI uploads as an
// ungated artifact.
//
//   ./build/bench/crypto_bench --json > BENCH_crypto.json
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/random.h"
#include "crypto/commutative_hash.h"
#include "crypto/hash.h"
#include "crypto/recovered_digest_cache.h"
#include "crypto/rsa_signer.h"
#include "crypto/sim_signer.h"

using namespace vbtree;
using vbtree::bench::Timer;

namespace {

Digest RandomDigest(Rng* rng) {
  Digest d;
  for (auto& b : d.bytes) b = static_cast<uint8_t>(rng->Next());
  return d;
}

/// Runs `fn` until ~`min_ms` of wall time has elapsed (at least
/// `min_iters`), returning nanoseconds per call.
template <typename Fn>
double NsPerOp(Fn&& fn, size_t batch = 1024, double min_ms = 80.0,
               size_t min_iters = 4096) {
  // Warm-up pass keeps one-time setup (EVP fetches, cache fills) out of
  // the measurement.
  for (size_t i = 0; i < batch; ++i) fn();
  Timer t;
  size_t iters = 0;
  while (t.ElapsedMs() < min_ms || iters < min_iters) {
    for (size_t i = 0; i < batch; ++i) fn();
    iters += batch;
  }
  return t.ElapsedMs() * 1e6 / static_cast<double>(iters);
}

struct Measurement {
  std::string name;
  double ns_per_op = 0;
};

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--json") json = true;
  }

  Rng rng(7);
  std::vector<Measurement> ms;

  // --- Cost_h: one attribute digest ---------------------------------------
  {
    std::string preimage = rng.NextString(60);
    ms.push_back({"attr_hash_sha256",
                  NsPerOp([&] {
                    Digest d = HashToDigest(HashAlgorithm::kSha256,
                                            Slice(preimage));
                    (void)d;
                  })});
  }

  // --- Cost_s: raw recovery, sim (AES) and real (RSA) ---------------------
  SimSigner signer(2024);
  SimRecoverer recoverer(signer.key_material());
  std::vector<Signature> sigs;
  const size_t kSigs = 4096;
  sigs.reserve(kSigs);
  for (size_t i = 0; i < kSigs; ++i) {
    sigs.push_back(signer.Sign(RandomDigest(&rng)).ValueOrDie());
  }
  {
    size_t i = 0;
    ms.push_back({"sim_recover",
                  NsPerOp([&] {
                    auto d = recoverer.Recover(sigs[i++ % kSigs]);
                    (void)d;
                  })});
  }
  {
    auto rsa_signer = RsaSigner::Generate(1024).MoveValueUnsafe();
    auto rsa_rec = rsa_signer->MakeRecoverer().MoveValueUnsafe();
    Signature rsa_sig =
        rsa_signer->Sign(RandomDigest(&rng)).ValueOrDie();
    ms.push_back({"rsa1024_recover",
                  NsPerOp(
                      [&] {
                        auto d = rsa_rec->Recover(rsa_sig);
                        (void)d;
                      },
                      /*batch=*/64, /*min_ms=*/120.0, /*min_iters=*/256)});
  }

  // --- cache hit: what a memoized recovery costs --------------------------
  RecoveredDigestCache cache;
  for (const Signature& s : sigs) {
    cache.Insert(1, s, recoverer.Recover(s).ValueOrDie());
  }
  {
    size_t i = 0;
    Digest d;
    ms.push_back({"digest_cache_hit",
                  NsPerOp([&] {
                    bool hit = cache.Lookup(1, sigs[i++ % kSigs], &d);
                    (void)hit;
                  })});
  }

  // --- Cost_k: chained vs exponent-folded combine -------------------------
  CommutativeHash g;
  for (size_t m : {4u, 16u, 64u}) {
    std::vector<Digest> set;
    for (size_t i = 0; i < m; ++i) set.push_back(RandomDigest(&rng));
    ms.push_back({"combine_chained_m" + std::to_string(m),
                  NsPerOp([&] {
                    Digest acc = g.Identity();
                    for (const Digest& d : set) acc = g.Extend(acc, d);
                    (void)acc;
                  })});
    ms.push_back({"combine_folded_m" + std::to_string(m),
                  NsPerOp([&] {
                    Digest d = g.Combine(set);
                    (void)d;
                  })});
  }

  // --- derived ratios ------------------------------------------------------
  auto find = [&](const std::string& name) -> double {
    for (const Measurement& m : ms) {
      if (m.name == name) return m.ns_per_op;
    }
    return 0;
  };
  const double recover_ns = find("sim_recover");
  const double hit_ns = find("digest_cache_hit");
  const double recover_vs_cache =
      hit_ns > 0 ? recover_ns / hit_ns : 0;
  const double fold_speedup_m16 =
      find("combine_folded_m16") > 0
          ? find("combine_chained_m16") / find("combine_folded_m16")
          : 0;

  if (json) {
    std::printf("{\n  \"bench\": \"crypto_bench\",\n");
    for (const Measurement& m : ms) {
      std::printf("  \"%s_ns\": %.1f,\n", m.name.c_str(), m.ns_per_op);
    }
    std::printf("  \"recover_vs_cache_hit\": %.1f,\n", recover_vs_cache);
    std::printf("  \"combine_fold_speedup_m16\": %.2f\n", fold_speedup_m16);
    std::printf("}\n");
  } else {
    vbtree::bench::PrintHeader(
        "crypto_bench: verification fast-path primitives",
        "per-op cost of recovery, cache hits, and digest recombination");
    for (const Measurement& m : ms) {
      std::printf("%-24s %10.1f ns/op\n", m.name.c_str(), m.ns_per_op);
    }
    std::printf("recover / cache-hit ratio: %.1fx\n", recover_vs_cache);
    std::printf("combine fold speedup (m=16): %.2fx\n", fold_speedup_m16);
  }
  return 0;
}
