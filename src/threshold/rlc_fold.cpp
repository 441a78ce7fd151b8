#include "threshold/rlc_fold.hpp"

#include <stdexcept>
#include <unordered_map>

#include "threshold/params.hpp"
#include "threshold/scheme_api.hpp"

namespace bnr::threshold {

bool terms_hold(std::span<const FoldTerm> terms) {
  std::vector<PreparedTerm> product;
  for (uint8_t e = 0;; ++e) {
    product.clear();
    for (const FoldTerm& t : terms)
      if (t.eq == e) product.push_back({t.point, t.base});
    if (product.empty()) return true;
    if (!pairing_product_is_one(product)) return false;
  }
}

void RlcFold::seal(Rng& rng) {
  scalars_.assign(terms_.size(), Fr{});
  std::vector<Fr> coeff;  // the current member's, per equation index
  for (size_t m = 0; m < size(); ++m) {
    coeff.clear();
    for (size_t i = begin_[m]; i < begin_[m + 1]; ++i) {
      while (coeff.size() <= terms_[i].eq)
        coeff.push_back(m == 0 && coeff.empty() ? Fr::one()
                                                : random_rlc_coefficient(rng));
      scalars_[i] = coeff[terms_[i].eq];
    }
  }
}

std::vector<PreparedTerm> RlcFold::product(size_t lo, size_t hi) const {
  // Terms grouped by base pointer, bases in order of first appearance.
  std::vector<const G2Prepared*> bases;
  std::vector<std::vector<size_t>> groups;
  std::unordered_map<const G2Prepared*, size_t> slot;
  for (size_t i = begin_[lo]; i < begin_[hi]; ++i) {
    auto [it, fresh] = slot.try_emplace(terms_[i].base, bases.size());
    if (fresh) {
      bases.push_back(terms_[i].base);
      groups.emplace_back();
    }
    groups[it->second].push_back(i);
  }
  std::vector<G1> sums;
  sums.reserve(bases.size());
  std::vector<G1> points;
  std::vector<Fr> scalars;
  for (const auto& group : groups) {
    points.clear();
    scalars.clear();
    for (size_t i : group) {
      points.push_back(G1::from_affine(terms_[i].point));
      scalars.push_back(scalars_[i]);
    }
    sums.push_back(group.size() == 1 && scalars[0] == Fr::one()
                       ? points[0]
                       : msm<G1>(points, scalars));
  }
  std::vector<G1Affine> affine = G1::batch_to_affine(sums);
  std::vector<PreparedTerm> product;
  product.reserve(bases.size());
  for (size_t b = 0; b < bases.size(); ++b)
    product.push_back({affine[b], bases[b]});
  return product;
}

std::vector<bool> RlcFold::verdicts(const std::function<bool(size_t)>& exact,
                                    bool* failed) const {
  std::vector<bool> ok(size(), true);
  const bool whole = size() == 0 || holds(0, size());
  if (failed) *failed = !whole;
  if (!whole) settle(0, size(), exact, ok, /*known_bad=*/true);
  return ok;
}

// Decides [lo, hi); true iff every member in it is valid. `known_bad` says
// the range is already known to fail, so its fold is not evaluated again.
bool RlcFold::settle(size_t lo, size_t hi,
                     const std::function<bool(size_t)>& exact,
                     std::vector<bool>& ok, bool known_bad) const {
  if (hi - lo == 1) return ok[lo] = exact(lo);
  if (!known_bad && holds(lo, hi)) return true;
  // The halves multiply to this range's fold, which fails: when the left
  // half holds, the right one is known to fail.
  const size_t mid = lo + (hi - lo) / 2;
  settle(mid, hi, exact, ok, settle(lo, mid, exact, ok, false));
  return false;
}

bool PreparedVerifier::batch_verify(std::span<const Bytes> msgs,
                                    std::span<const SigHandle> sigs,
                                    Rng& rng) const {
  if (msgs.size() != sigs.size())
    throw std::invalid_argument("batch_verify: size mismatch");
  RlcFold fold;
  for (size_t j = 0; j < msgs.size(); ++j)
    if (!fold.add([&](std::vector<FoldTerm>& out) {
          return fold_terms(msgs[j], sigs[j], out);
        }))
      return false;
  fold.seal(rng);
  return fold.holds(0, fold.size());
}

}  // namespace bnr::threshold
