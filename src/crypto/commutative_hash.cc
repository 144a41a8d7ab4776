#include "crypto/commutative_hash.h"

#include <vector>

#include "common/logging.h"
#include "common/serde.h"
#include "crypto/hash.h"

namespace vbtree {

Digest CommutativeHash::Identity() const {
  // G must be odd (a unit mod 2^k) so every combined digest stays a unit.
  Uint128 g = Uint128::FromParts(0x6A09E667F3BCC908ULL, kDefaultGeneratorLo);
  return Digest::FromUint128(g.Mask(bits_));
}

Uint128 CommutativeHash::ModExp(Uint128 base, Uint128 exp) const {
  // Square-and-multiply, reducing (masking) after every multiplication —
  // the "4 multiplications and 4 modulo reductions" scheme of §3.2.
  Uint128 result(1);
  Uint128 b = base.Mask(bits_);
  for (int i = 0; i < bits_; ++i) {
    if (exp.Bit(i)) {
      result = result.MulWrap(b).Mask(bits_);
    }
    b = b.MulWrap(b).Mask(bits_);
  }
  return result;
}

Digest CommutativeHash::Extend(const Digest& acc, const Digest& d) const {
  if (counters_ != nullptr) CryptoCounters::Tick(counters_->combine_ops);
  // Exponent 0 would collapse the accumulator to 1 for every input; a
  // 16-byte hash output is zero with probability 2^-128, but map it to 1
  // deterministically so the function is total.
  Uint128 e = d.ToUint128();
  if (e.IsZero()) e = Uint128(1);
  return Digest::FromUint128(ModExp(acc.ToUint128(), e));
}

Digest CommutativeHash::Combine(std::span<const Digest> digests) const {
  // Fold the exponent product first (one 128-bit multiply per digest),
  // then pay a single exponentiation: G^(d1·...·dm) directly, instead of
  // the chained ((G^d1)^d2)... which costs one full square-and-multiply
  // per digest. Bit-identical by (G^a)^b = G^(ab) — the same algebra the
  // server's kRecomputeProduct strategy uses, and property-tested against
  // the chained form. This is the client-verification recombination hot
  // path: every VO node digest is one Combine over its parts.
  if (counters_ != nullptr) CryptoCounters::Tick(counters_->combine_ops, digests.size());
  return FromExponent(ExponentProduct(digests));
}

Uint128 InverseOdd128(Uint128 x) {
  VBT_CHECK(x.IsOdd());
  // y = x is a correct inverse mod 2^3 for odd x; each Newton-Hensel step
  // y <- y(2 - xy) doubles the valid low bits: 3 -> 6 -> ... -> 192 > 128.
  Uint128 y = x;
  for (int i = 0; i < 6; ++i) {
    Uint128 xy = x.MulWrap(y);
    unsigned __int128 raw =
        static_cast<unsigned __int128>(2) -
        ((static_cast<unsigned __int128>(xy.hi()) << 64) | xy.lo());
    Uint128 two_minus_xy = Uint128::FromParts(
        static_cast<uint64_t>(raw >> 64), static_cast<uint64_t>(raw));
    y = y.MulWrap(two_minus_xy);
  }
  VBT_CHECK(x.MulWrap(y) == Uint128(1));
  return y;
}

Uint128 CommutativeHash::ExponentProduct(
    std::span<const Digest> digests) const {
  Uint128 e(1);
  for (const Digest& d : digests) {
    e = e.MulWrap(ExponentFactor(d)).Mask(bits_);
  }
  return e;
}

Digest CommutativeHash::FromExponent(Uint128 exponent) const {
  Uint128 g = Identity().ToUint128();
  return Digest::FromUint128(ModExp(g, exponent));
}

Uint128 CommutativeHash::UpdateExponent(Uint128 exponent, const Digest& d_old,
                                        const Digest& d_new) const {
  if (counters_ != nullptr) CryptoCounters::Tick(counters_->combine_ops);
  Uint128 inv = InverseOdd128(ExponentFactor(d_old));
  return exponent.MulWrap(inv).MulWrap(ExponentFactor(d_new)).Mask(bits_);
}

Digest ChainedHash::Combine(std::span<const Digest> digests) const {
  ByteWriter w(digests.size() * kDigestLen);
  for (const Digest& d : digests) {
    w.PutBytes(d.AsSlice());
    if (counters_ != nullptr) CryptoCounters::Tick(counters_->combine_ops);
  }
  return HashToDigest(HashAlgorithm::kSha256, Slice(w.buffer()));
}

}  // namespace vbtree
