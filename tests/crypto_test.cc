#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "common/random.h"
#include "crypto/commutative_hash.h"
#include "crypto/counting_recoverer.h"
#include "crypto/hash.h"
#include "crypto/key_manager.h"
#include "crypto/rsa_signer.h"
#include "crypto/sim_signer.h"

namespace vbtree {
namespace {

Digest RandomDigest(Rng* rng) {
  Digest d;
  for (auto& b : d.bytes) b = static_cast<uint8_t>(rng->Next());
  return d;
}

TEST(Uint128Test, MulWrapMatchesSmallProducts) {
  Uint128 a(7), b(9);
  EXPECT_EQ(a.MulWrap(b).lo(), 63u);
  EXPECT_EQ(a.MulWrap(b).hi(), 0u);
}

TEST(Uint128Test, MulWrapCrossesWordBoundary) {
  Uint128 a = Uint128::FromParts(0, ~0ull);  // 2^64 - 1
  Uint128 r = a.MulWrap(a);                  // (2^64-1)^2 = 2^128 - 2^65 + 1
  EXPECT_EQ(r.lo(), 1u);
  EXPECT_EQ(r.hi(), ~0ull - 1);
}

TEST(Uint128Test, MaskDropsHighBits) {
  Uint128 v = Uint128::FromParts(~0ull, ~0ull);
  EXPECT_EQ(v.Mask(64).hi(), 0u);
  EXPECT_EQ(v.Mask(64).lo(), ~0ull);
  EXPECT_EQ(v.Mask(8).lo(), 0xFFu);
  EXPECT_EQ(v.Mask(128).hi(), ~0ull);
}

TEST(Uint128Test, DigestRoundTrip) {
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    Digest d = RandomDigest(&rng);
    EXPECT_EQ(Digest::FromUint128(d.ToUint128()), d);
  }
}

TEST(HashTest, Sha256KnownVector) {
  // SHA-256("abc") = ba7816bf 8f01cfea ...
  auto h = Sha256(Slice("abc", 3));
  EXPECT_EQ(h[0], 0xba);
  EXPECT_EQ(h[1], 0x78);
  EXPECT_EQ(h[2], 0x16);
  EXPECT_EQ(h[3], 0xbf);
}

TEST(HashTest, TruncatedDigestMatchesPrefix) {
  Digest d = HashToDigest(HashAlgorithm::kSha256, Slice("abc", 3));
  auto full = Sha256(Slice("abc", 3));
  EXPECT_TRUE(std::equal(d.bytes.begin(), d.bytes.end(), full.begin()));
}

TEST(HashTest, AlgorithmsDiffer) {
  Slice in("same input", 10);
  EXPECT_NE(HashToDigest(HashAlgorithm::kSha256, in),
            HashToDigest(HashAlgorithm::kSha1, in));
  EXPECT_NE(HashToDigest(HashAlgorithm::kSha256, in),
            HashToDigest(HashAlgorithm::kMd5, in));
}

TEST(HashTest, InputSensitivity) {
  EXPECT_NE(HashToDigest(HashAlgorithm::kSha256, Slice("a", 1)),
            HashToDigest(HashAlgorithm::kSha256, Slice("b", 1)));
}

TEST(CommutativeHashTest, IdentityIsOdd) {
  CommutativeHash g;
  EXPECT_TRUE(g.Identity().ToUint128().IsOdd());
}

TEST(CommutativeHashTest, ResultsAlwaysOdd) {
  // Units mod 2^k are closed under the group operation; digests must stay
  // odd so they remain units.
  CommutativeHash g;
  Rng rng(3);
  Digest acc = g.Identity();
  for (int i = 0; i < 50; ++i) {
    acc = g.Extend(acc, RandomDigest(&rng));
    EXPECT_TRUE(acc.ToUint128().IsOdd());
  }
}

TEST(CommutativeHashTest, PairCommutes) {
  CommutativeHash g;
  Rng rng(4);
  for (int i = 0; i < 50; ++i) {
    Digest a = RandomDigest(&rng), b = RandomDigest(&rng);
    Digest ab = g.Extend(g.Extend(g.Identity(), a), b);
    Digest ba = g.Extend(g.Extend(g.Identity(), b), a);
    EXPECT_EQ(ab, ba);
  }
}

TEST(CommutativeHashTest, ExtendEqualsCombineOfUnion) {
  // Extend(Combine(S), d) == Combine(S + {d}) — the property §3.4's
  // incremental insert relies on.
  CommutativeHash g;
  Rng rng(5);
  std::vector<Digest> set;
  for (int i = 0; i < 10; ++i) set.push_back(RandomDigest(&rng));
  Digest base = g.Combine(set);
  Digest extra = RandomDigest(&rng);
  std::vector<Digest> bigger = set;
  bigger.push_back(extra);
  EXPECT_EQ(g.Extend(base, extra), g.Combine(bigger));
}

TEST(CommutativeHashTest, ModExpMatchesRepeatedMultiplication) {
  CommutativeHash g(32);
  Uint128 base(3);
  uint64_t mask32 = 0xFFFFFFFFull;
  uint64_t expect = 1;
  for (int e = 0; e < 20; ++e) {
    EXPECT_EQ(g.ModExp(base, Uint128(static_cast<uint64_t>(e))).lo(), expect);
    expect = (expect * 3) & mask32;
  }
}

TEST(CommutativeHashTest, SmallerModulusMasksResults) {
  CommutativeHash g(16);
  Rng rng(6);
  for (int i = 0; i < 20; ++i) {
    Digest d = g.Extend(g.Identity(), RandomDigest(&rng));
    EXPECT_EQ(d.ToUint128().Mask(16), d.ToUint128());
  }
}

TEST(CommutativeHashTest, ZeroExponentMapsToOne) {
  CommutativeHash g;
  Digest zero{};  // all-zero digest
  Digest r = g.Extend(g.Identity(), zero);
  // Mapped deterministically to exponent 1 => returns the identity (G^1).
  EXPECT_EQ(r, g.Identity());
}

TEST(CommutativeHashTest, CountsCombineOps) {
  CryptoCounters counters;
  CommutativeHash g(128, &counters);
  Rng rng(7);
  std::vector<Digest> set;
  for (int i = 0; i < 5; ++i) set.push_back(RandomDigest(&rng));
  g.Combine(set);
  EXPECT_EQ(counters.combine_ops, 5u);
}

/// The paper's chained recombination: a left fold of Extend from
/// Identity(), one exponentiation per digest.
Digest ChainedFold(const CommutativeHash& g, const std::vector<Digest>& set) {
  Digest acc = g.Identity();
  for (const Digest& d : set) acc = g.Extend(acc, d);
  return acc;
}

TEST(CommutativeHashTest, CombineViaExponentMatchesChained) {
  // Combine folds the exponent product and exponentiates once; the
  // verifier and every central recompute rely on it equalling §3.3's
  // chained fold bit for bit.
  CommutativeHash g;
  Rng rng(2);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<Digest> set;
    size_t n = rng.Uniform(20);
    for (size_t i = 0; i < n; ++i) set.push_back(RandomDigest(&rng));
    EXPECT_EQ(g.Combine(set), ChainedFold(g, set)) << "n=" << n;
  }
}

TEST(CommutativeHashTest, CombineViaExponentMatchesChainedSmallModulus) {
  CommutativeHash g(64);
  Rng rng(3);
  std::vector<Digest> set;
  for (int i = 0; i < 8; ++i) set.push_back(RandomDigest(&rng));
  EXPECT_EQ(g.Combine(set), ChainedFold(g, set));
}

TEST(CommutativeHashTest, ZeroDigestFactorIsOne) {
  // The all-zero digest contributes exponent 1 to both forms: it leaves
  // any accumulator and any combined set unchanged.
  CommutativeHash g;
  Digest zero{};
  EXPECT_EQ(g.Combine(std::vector<Digest>{zero}), g.Identity());
  Rng rng(9);
  Digest d = RandomDigest(&rng);
  EXPECT_EQ(g.Combine(std::vector<Digest>{d, zero}),
            g.Combine(std::vector<Digest>{d}));
  Digest acc = g.Extend(g.Identity(), d);
  EXPECT_EQ(g.Extend(acc, zero), acc);
}

/// Property sweep: any permutation of any subset combines to the same
/// digest (the foundation of the paper's "VO is just a set" claim).
class CommutativitySweep : public ::testing::TestWithParam<int> {};

TEST_P(CommutativitySweep, PermutationInvariance) {
  CommutativeHash g;
  Rng rng(100 + GetParam());
  size_t n = 2 + rng.Uniform(12);
  std::vector<Digest> set;
  for (size_t i = 0; i < n; ++i) set.push_back(RandomDigest(&rng));
  Digest reference = g.Combine(set);
  std::mt19937 shuffler(GetParam());
  for (int trial = 0; trial < 5; ++trial) {
    std::shuffle(set.begin(), set.end(), shuffler);
    EXPECT_EQ(g.Combine(set), reference);
  }
}

TEST_P(CommutativitySweep, DifferentSetsCollideRarely) {
  CommutativeHash g;
  Rng rng(200 + GetParam());
  std::vector<Digest> a, b;
  for (int i = 0; i < 6; ++i) a.push_back(RandomDigest(&rng));
  b = a;
  b[3] = RandomDigest(&rng);  // perturb one element
  EXPECT_NE(g.Combine(a), g.Combine(b));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CommutativitySweep, ::testing::Range(0, 16));

TEST(ChainedHashTest, OrderDependent) {
  ChainedHash chained;
  Rng rng(8);
  std::vector<Digest> set{RandomDigest(&rng), RandomDigest(&rng)};
  Digest ab = chained.Combine(set);
  std::swap(set[0], set[1]);
  Digest ba = chained.Combine(set);
  EXPECT_NE(ab, ba);  // unlike the commutative hash
}

TEST(SimSignerTest, SignRecoverRoundTrip) {
  SimSigner signer(42);
  SimRecoverer rec(signer.key_material());
  Rng rng(9);
  for (int i = 0; i < 20; ++i) {
    Digest d = RandomDigest(&rng);
    auto sig = signer.Sign(d);
    ASSERT_TRUE(sig.ok());
    EXPECT_EQ(sig->size(), kDigestLen);
    auto back = rec.Recover(*sig);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, d);
  }
}

TEST(SimSignerTest, DifferentKeysProduceDifferentSignatures) {
  SimSigner a(1), b(2);
  Digest d = HashToDigest(HashAlgorithm::kSha256, Slice("x", 1));
  EXPECT_NE(*a.Sign(d), *b.Sign(d));
}

TEST(SimSignerTest, WrongKeyRecoversGarbage) {
  SimSigner signer(1);
  SimRecoverer wrong(SimSigner(2).key_material());
  Digest d = HashToDigest(HashAlgorithm::kSha256, Slice("x", 1));
  auto sig = signer.Sign(d);
  ASSERT_TRUE(sig.ok());
  auto back = wrong.Recover(*sig);
  ASSERT_TRUE(back.ok());           // decrypts unconditionally...
  EXPECT_NE(*back, d);              // ...but to the wrong digest
}

TEST(SimSignerTest, BadLengthRejected) {
  SimRecoverer rec(SimSigner(1).key_material());
  Signature bad(7, 0x00);
  EXPECT_TRUE(rec.Recover(bad).status().IsVerificationFailure());
}

TEST(SimSignerTest, WorkFactorRoundTrips) {
  SimSigner signer(42, nullptr, /*work_factor=*/10);
  SimRecoverer rec(signer.key_material(), nullptr, /*work_factor=*/10);
  Digest d = HashToDigest(HashAlgorithm::kSha256, Slice("y", 1));
  auto sig = signer.Sign(d);
  ASSERT_TRUE(sig.ok());
  EXPECT_EQ(*rec.Recover(*sig), d);
}

TEST(SimSignerTest, CountsOps) {
  CryptoCounters counters;
  SimSigner signer(42, &counters);
  SimRecoverer rec(signer.key_material(), &counters);
  Digest d{};
  auto sig = signer.Sign(d);
  ASSERT_TRUE(sig.ok());
  ASSERT_TRUE(rec.Recover(*sig).ok());
  EXPECT_EQ(counters.signs, 1u);
  EXPECT_EQ(counters.recovers, 1u);
}

TEST(RsaSignerTest, SignRecoverRoundTrip) {
  auto signer_or = RsaSigner::Generate(1024);
  ASSERT_TRUE(signer_or.ok());
  RsaSigner& signer = **signer_or;
  auto rec_or = signer.MakeRecoverer();
  ASSERT_TRUE(rec_or.ok());
  Rng rng(10);
  for (int i = 0; i < 5; ++i) {
    Digest d = RandomDigest(&rng);
    auto sig = signer.Sign(d);
    ASSERT_TRUE(sig.ok());
    EXPECT_EQ(sig->size(), 128u);  // 1024-bit modulus
    EXPECT_EQ(*(*rec_or)->Recover(*sig), d);
  }
}

TEST(RsaSignerTest, PublicKeyDerRoundTrip) {
  auto signer_or = RsaSigner::Generate(1024);
  ASSERT_TRUE(signer_or.ok());
  auto der = (*signer_or)->ExportPublicKey();
  ASSERT_TRUE(der.ok());
  auto rec_or = RsaRecoverer::FromPublicKeyDer(*der);
  ASSERT_TRUE(rec_or.ok());
  Digest d = HashToDigest(HashAlgorithm::kSha256, Slice("z", 1));
  auto sig = (*signer_or)->Sign(d);
  ASSERT_TRUE(sig.ok());
  EXPECT_EQ(*(*rec_or)->Recover(*sig), d);
}

TEST(RsaSignerTest, ForgedSignatureRejected) {
  auto signer_or = RsaSigner::Generate(1024);
  ASSERT_TRUE(signer_or.ok());
  auto rec_or = (*signer_or)->MakeRecoverer();
  ASSERT_TRUE(rec_or.ok());
  Signature forged(128, 0x41);
  // PKCS#1 padding check fails for random bytes with overwhelming
  // probability.
  EXPECT_FALSE((*rec_or)->Recover(forged).ok());
}

TEST(RsaSignerTest, WrongKeyRejected) {
  auto a = RsaSigner::Generate(1024);
  auto b = RsaSigner::Generate(1024);
  ASSERT_TRUE(a.ok() && b.ok());
  auto rec_b = (*b)->MakeRecoverer();
  ASSERT_TRUE(rec_b.ok());
  Digest d = HashToDigest(HashAlgorithm::kSha256, Slice("w", 1));
  auto sig = (*a)->Sign(d);
  ASSERT_TRUE(sig.ok());
  auto back = (*rec_b)->Recover(*sig);
  // Either padding fails or a wrong digest comes back; never the original.
  if (back.ok()) {
    EXPECT_NE(*back, d);
  }
}

TEST(CountingRecovererTest, TicksOwnCounters) {
  SimSigner signer(42);
  SimRecoverer inner(signer.key_material());
  CryptoCounters mine;
  CountingRecoverer counting(&inner, &mine);
  Digest d{};
  auto sig = signer.Sign(d);
  ASSERT_TRUE(sig.ok());
  ASSERT_TRUE(counting.Recover(*sig).ok());
  ASSERT_TRUE(counting.Recover(*sig).ok());
  EXPECT_EQ(mine.recovers, 2u);
}

TEST(KeyDirectoryTest, ValidVersionResolves) {
  KeyDirectory dir;
  SimSigner signer(1);
  dir.Publish(KeyVersionInfo{1, 0, 100},
              std::make_shared<SimRecoverer>(signer.key_material()));
  EXPECT_TRUE(dir.RecovererFor(1, 50).ok());
  EXPECT_TRUE(dir.RecovererFor(1, 0).ok());
  EXPECT_TRUE(dir.RecovererFor(1, 100).ok());
}

TEST(KeyDirectoryTest, ExpiredOrUnknownVersionRejected) {
  KeyDirectory dir;
  SimSigner signer(1);
  dir.Publish(KeyVersionInfo{1, 10, 100},
              std::make_shared<SimRecoverer>(signer.key_material()));
  EXPECT_TRUE(dir.RecovererFor(1, 101).status().IsVerificationFailure());
  EXPECT_TRUE(dir.RecovererFor(1, 9).status().IsVerificationFailure());
  EXPECT_TRUE(dir.RecovererFor(2, 50).status().IsVerificationFailure());
}

TEST(KeyDirectoryTest, ExpireTruncatesValidity) {
  KeyDirectory dir;
  SimSigner signer(1);
  dir.Publish(KeyVersionInfo{1, 0, 1000},
              std::make_shared<SimRecoverer>(signer.key_material()));
  ASSERT_TRUE(dir.Expire(1, 500).ok());
  EXPECT_TRUE(dir.RecovererFor(1, 499).ok());
  EXPECT_FALSE(dir.RecovererFor(1, 500).ok());
}

TEST(KeyDirectoryTest, LatestVersionTracksPublishes) {
  KeyDirectory dir;
  EXPECT_EQ(dir.LatestVersion(), 0u);
  SimSigner signer(1);
  auto rec = std::make_shared<SimRecoverer>(signer.key_material());
  dir.Publish(KeyVersionInfo{1, 0, 10}, rec);
  dir.Publish(KeyVersionInfo{3, 0, 10}, rec);
  dir.Publish(KeyVersionInfo{2, 0, 10}, rec);
  EXPECT_EQ(dir.LatestVersion(), 3u);
}

TEST(CryptoCountersTest, CostUnitsWeighting) {
  CryptoCounters c;
  c.attr_hashes = 10;
  c.combine_ops = 4;
  c.recovers = 2;
  // 10*1 + 4*0.5 + 2*100 = 212
  EXPECT_DOUBLE_EQ(c.CostUnits(0.5, 100), 212.0);
}

}  // namespace
}  // namespace vbtree
