// The verification fold engine: random-linear-combination (RLC) batch
// verification over members of ANY keys and schemes that share a pairing
// group, with bisection to attribute a failed fold.
//
// Each member describes its verification equation(s) as FoldTerms
// (G1 point, prepared G2 base, equation index): the member is valid iff,
// for every equation index e, the product of e(point, *base) over its terms
// with eq == e is one. The fold draws an independent 128-bit coefficient
// c_{m,e} per (member, equation) after every member is added and checks
//   prod_B e(sum_{terms t on base B} c_{m(t),e(t)} * t.point, B) == 1,
// one MSM per distinct base pointer and one multi-pairing with a single
// final exponentiation. In a prime-order group (BN254's G1 has cofactor 1
// and every registered key is validated into the G2 subgroup), a fold with
// any invalid member passes with probability at most ~2^-128 per check
// (Ferrara-Green-Hohenberger-Pedersen, CT-RSA 2009), whichever keys the
// members belong to. Bases that are system generators (g^_z, g^_r, ...)
// come from the scheme's shared tables, so a flush over K RO keys pays
// 2 + 2K Miller terms instead of 4K. Merging by pointer is only an
// optimisation: equal G2 points behind distinct pointers stay separate
// terms, and the verdict is the same.
//
// A failed fold is attributed by bisection (Law-Matt, IMA C&C 2007), which
// reuses every member's hashed and decoded points and its coefficients:
// evaluate the left half; if it holds, the right half must fail (the fold
// is a product of the halves), so recurse into it without evaluating it.
// Single-member leaves take the member's exact verify. f invalid members
// among n cost O(f log n) sub-folds.
#pragma once

#include <functional>
#include <span>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "pairing/pairing.hpp"

namespace bnr::threshold {

/// One pairing term of a member's verification equations: e(point, *base)
/// in the member's equation number `eq` (a member's equations are numbered
/// 0, 1, ... without gaps). `base` is non-owning; whoever describes the term
/// keeps it alive for the fold.
struct FoldTerm {
  G1Affine point;
  const G2Prepared* base = nullptr;
  uint8_t eq = 0;
};

/// The exact check of one member's terms: every equation's product is one.
/// Cached verifiers derive `verify` from their `fold_terms` through this, so
/// the equation a fold checks and the one a single verify checks are the
/// same description.
bool terms_hold(std::span<const FoldTerm> terms);

class RlcFold {
 public:
  /// Adds one member whose terms `describe(std::vector<FoldTerm>&)` appends.
  /// When it returns false the member is not added (whatever it appended is
  /// dropped) and add returns false: the caller rejects it unfolded.
  template <class Describe>
  bool add(Describe&& describe) {
    const size_t mark = terms_.size();
    if (!describe(terms_)) {
      terms_.resize(mark);
      return false;
    }
    begin_.push_back(terms_.size());
    return true;
  }

  size_t size() const { return begin_.size() - 1; }

  /// Draws the coefficients: one per (member, equation), the very first
  /// pinned to 1 so a fold of one costs an exact verify. Call once, after
  /// the last add — coefficients must not exist while members can change.
  void seal(Rng& rng);

  /// The folded pairing product of members [lo, hi): one term per distinct
  /// base, its G1 side the base's MSM. Callers with their own evaluator
  /// (a thread pool) take this; everyone else calls holds().
  std::vector<PreparedTerm> product(size_t lo, size_t hi) const;

  /// Evaluates the fold restricted to members [lo, hi). Always true when
  /// every member in range is valid.
  bool holds(size_t lo, size_t hi) const {
    return pairing_product_is_one(product(lo, hi));
  }

  /// One verdict per member: the whole fold, then bisection when it fails.
  /// `exact(i)` is member i's exact verify, run at single-member leaves.
  /// `failed`, when given, reports whether the whole fold failed.
  std::vector<bool> verdicts(const std::function<bool(size_t)>& exact,
                             bool* failed = nullptr) const;

 private:
  bool settle(size_t lo, size_t hi, const std::function<bool(size_t)>& exact,
              std::vector<bool>& ok, bool known_bad) const;

  std::vector<FoldTerm> terms_;
  std::vector<Fr> scalars_;        // per term, set by seal()
  std::vector<size_t> begin_{0};   // member i: terms_[begin_[i], begin_[i+1])
};

/// Combine's share selection, shared by every scheme and path: drops
/// partials whose index is outside [1, n], checks the first t+1 candidates
/// with one fold (`head_holds`), and only when that fails scans every
/// candidate in input order with `valid` until t+1 pass, appending the
/// indices of bad partials it inspected to `cheaters` when given. Returns
/// the first t+1 valid partials in input order; throws std::runtime_error
/// if fewer remain.
template <class Part, class HeadHolds, class Valid>
std::vector<Part> select_shares(std::span<const Part> parts, size_t n,
                                size_t t, HeadHolds&& head_holds,
                                Valid&& valid,
                                std::vector<uint32_t>* cheaters) {
  std::vector<Part> candidates;
  candidates.reserve(parts.size());
  for (const auto& p : parts)
    if (p.index >= 1 && p.index <= n) candidates.push_back(p);
  if (candidates.size() >= t + 1) {
    // Happy path: one fold over exactly the t+1 partials the sequential
    // scan would have verified.
    std::span<const Part> head(candidates.data(), t + 1);
    if (head_holds(head)) return {head.begin(), head.end()};
  }
  std::vector<Part> out;
  for (const auto& p : candidates) {
    if (out.size() == t + 1) break;
    if (valid(p))
      out.push_back(p);
    else if (cheaters)
      cheaters->push_back(p.index);
  }
  if (out.size() < t + 1)
    throw std::runtime_error("combine: fewer than t+1 valid shares");
  return out;
}

}  // namespace bnr::threshold
