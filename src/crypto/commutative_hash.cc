#include "crypto/commutative_hash.h"

#include <vector>

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
  return Digest::FromUint128(ModExp(acc.ToUint128(), ExponentFactor(d)));
}

Digest CommutativeHash::Combine(std::span<const Digest> digests) const {
  // Fold the exponent product first (one 128-bit multiply per digest),
  // then pay a single exponentiation: G^(d1·...·dm) directly, instead of
  // the chained ((G^d1)^d2)... which costs one full square-and-multiply
  // per digest. Bit-identical by (G^a)^b = G^(ab), and tested against the
  // chained form. Every node digest the central server recomputes and
  // every VO node digest the client verifies is one Combine.
  if (counters_ != nullptr) CryptoCounters::Tick(counters_->combine_ops, digests.size());
  return FromExponent(ExponentProduct(digests));
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

Digest ChainedHash::Combine(std::span<const Digest> digests) const {
  ByteWriter w(digests.size() * kDigestLen);
  for (const Digest& d : digests) {
    w.PutBytes(d.AsSlice());
    if (counters_ != nullptr) CryptoCounters::Tick(counters_->combine_ops);
  }
  return HashToDigest(HashAlgorithm::kSha256, Slice(w.buffer()));
}

}  // namespace vbtree
