#ifndef VBTREE_CRYPTO_COMMUTATIVE_HASH_H_
#define VBTREE_CRYPTO_COMMUTATIVE_HASH_H_

#include <cstdint>
#include <span>

#include "crypto/counters.h"
#include "crypto/digest.h"

namespace vbtree {

/// The paper's commutative one-way hash g (§3.2):
///
///     g(d1, ..., dm) = G^(d1 * d2 * ... * dm)  mod n,   n = 2^k
///
/// realized incrementally as repeated modular exponentiation,
///
///     acc_0 = G;   acc_i = acc_{i-1} ^ d_i  mod 2^k
///
/// which is order independent because (G^a)^b = (G^b)^a = G^(ab). The
/// modulus n = 2^k is chosen "to optimize the modulo operation" (the
/// paper's own optimization): with k = 128, reduction is free 128-bit
/// wrap-around; exponentiation uses square-and-multiply with reduction
/// after every step, exactly the 4-multiplications example in §3.2.
///
/// Properties relied on elsewhere (and property-tested):
///  * Commutativity / order independence of Combine.
///  * Incremental extension: Extend(Combine(S), d) == Combine(S ∪ {d}),
///    which lets a leaf fold in an inserted tuple digest (§3.4).
///  * Results are always odd (G odd => units mod 2^k), hence never zero.
///
/// Security note: this mirrors the paper's construction. Discrete log
/// modulo 2^k is not hard in the modern sense; a production deployment
/// would swap in a hash over a group with hard DL. The class isolates
/// that choice behind Combine/Extend so the swap is local.
class CommutativeHash {
 public:
  /// Default generator: odd 128-bit constant (low 64 bits of SHA-256("vbtree-g")
  /// forced odd). Any odd G works; fixed so digests are reproducible.
  static constexpr uint64_t kDefaultGeneratorLo = 0x9E3779B97F4A7C15ULL | 1ULL;

  /// @param modulus_bits k in n = 2^k; must be in [8, 128].
  /// @param counters optional sink for Cost_k accounting (one tick per
  ///   digest folded into an accumulator).
  explicit CommutativeHash(int modulus_bits = 128,
                           CryptoCounters* counters = nullptr)
      : bits_(modulus_bits), counters_(counters) {}

  void set_counters(CryptoCounters* counters) { counters_ = counters; }

  /// g({}) = G: the empty combination is the generator itself.
  Digest Identity() const;

  /// Folds one digest into an accumulated hash value: acc^d mod 2^k.
  Digest Extend(const Digest& acc, const Digest& d) const;

  /// g(d1, ..., dm) for the whole set. Every combined digest is
  /// G^(d1 * d2 * ... * dm) mod 2^k, and the multiplicative order of G
  /// divides 2^k, so the exponent product can itself be taken mod 2^k:
  /// one multiplication per digest plus a single exponentiation, instead
  /// of one exponentiation per digest. Bit-identical to a left fold of
  /// Extend from Identity(), the paper's chained procedure (tested).
  Digest Combine(std::span<const Digest> digests) const;

  /// Modular exponentiation base^exp mod 2^bits via square-and-multiply
  /// with reduction after every multiplication.
  Uint128 ModExp(Uint128 base, Uint128 exp) const;

 private:
  /// The exponent factor a digest contributes. Exponent 0 would collapse
  /// every accumulator to 1; a 16-byte hash output is zero with
  /// probability 2^-128, but it maps to 1 so Extend and Combine are total.
  static Uint128 ExponentFactor(const Digest& d) {
    Uint128 e = d.ToUint128();
    return e.IsZero() ? Uint128(1) : e;
  }

  /// Product of the digests' exponent factors, mod 2^bits.
  Uint128 ExponentProduct(std::span<const Digest> digests) const;

  /// G^exponent.
  Digest FromExponent(Uint128 exponent) const;

  int bits_;
  CryptoCounters* counters_;
};

/// Order-*dependent* combiner used only by the ablation benchmark: chains
/// SHA-256 over the concatenation. Cheaper per op than modular
/// exponentiation but forfeits the three advantages of §3.2 (arbitrary
/// order, edge-side projection, incremental insert).
class ChainedHash {
 public:
  explicit ChainedHash(CryptoCounters* counters = nullptr)
      : counters_(counters) {}

  Digest Combine(std::span<const Digest> digests) const;

 private:
  CryptoCounters* counters_;
};

}  // namespace vbtree

#endif  // VBTREE_CRYPTO_COMMUTATIVE_HASH_H_
