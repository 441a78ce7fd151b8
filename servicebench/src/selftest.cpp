// Self-test of the benchmark's correctness oracles: each oracle must pass
// the right answer and flag every deliberately wrong one (a flipped verdict,
// an altered signature byte, a wrong cheater index, an accepted hostile
// key), so an oracle that checks nothing cannot pass as clean.
//
//   servicebench_selftest      (exit 0 when every case holds)
#include <cstdio>

#include "oracles.hpp"

namespace {

using namespace sb;
using bnr::threshold::PartialSignature;
using bnr::threshold::SystemParams;

int g_failures = 0;

void expect(bool cond, const char* what) {
  printf("%s  %s\n", cond ? "ok  " : "FAIL", what);
  if (!cond) ++g_failures;
}
void passes(const std::string& reason, const char* what) {
  if (!reason.empty()) printf("      reason: %s\n", reason.c_str());
  expect(reason.empty(), what);
}
void flags(const std::string& reason, const char* what) {
  expect(!reason.empty(), what);
}

bnr::rpc::CombineResult honest_result(const RoScheme& scheme,
                                      const KeyMaterial& km,
                                      const CombineRound& round) {
  std::vector<PartialSignature> parts;
  for (size_t p = 0; p < round.signers.size(); ++p)
    if (int(p) != round.corrupt_pos)
      parts.push_back(scheme.share_sign(km.shares[round.signers[p] - 1], round.msg));
  parts.resize(km.t + 1);
  bnr::rpc::CombineResult r;
  r.sig = scheme.combine_unchecked(km.t, parts).serialize();
  if (round.corrupt_pos >= 0)
    r.cheaters.push_back(round.signers[size_t(round.corrupt_pos)]);
  return r;
}

}  // namespace

int main() {
  RoScheme scheme(SystemParams::derive("servicebench/selftest"));

  // verify-stream
  VerifyInputs in = make_verify_inputs(scheme, 7);
  const VerifyItem* valid = nullptr;
  const VerifyItem* forged = nullptr;
  for (const auto& it : in.stream) {
    if (it.expect && !valid) valid = &it;
    if (!it.expect && !forged) forged = &it;
  }
  expect(valid && forged, "verify-stream inputs hold valid requests and forgeries");
  if (!valid || !forged) return 1;
  passes(check_verdict(*valid, true), "verdict: valid signature accepted");
  passes(check_verdict(*forged, false), "verdict: forgery rejected");
  flags(check_verdict(*valid, false), "verdict: flipped verdict on a valid signature");
  flags(check_verdict(*forged, true), "verdict: flipped verdict on a forgery");
  passes(check_expected_verdict(scheme, in, *valid), "uncached verify confirms a valid item");
  passes(check_expected_verdict(scheme, in, *forged), "uncached verify confirms a forgery");
  VerifyItem flipped = *forged;
  flipped.expect = true;
  flags(check_expected_verdict(scheme, in, flipped),
        "uncached verify flags a forgery expected to pass");

  // sign-combine
  KeyMaterial km = make_committee(scheme, 7, "committee", CombineShape::kN,
                                  CombineShape::kT);
  CombineRound honest = make_combine_round(7, 0);
  CombineRound cheat = make_combine_round(7, CombineShape::kCheaterEvery - 1);
  expect(honest.corrupt_pos < 0 && cheat.corrupt_pos >= 0,
         "rounds: one in eight carries a corrupted partial");
  auto good = honest_result(scheme, km, honest);
  passes(check_combine(scheme, km, honest, good), "combine: honest round accepted");
  auto good_cheat = honest_result(scheme, km, cheat);
  passes(check_combine(scheme, km, cheat, good_cheat),
         "combine: cheater round with the cheater attributed accepted");
  auto altered = good;
  altered.sig[10] ^= 0x01;
  flags(check_combine(scheme, km, honest, altered), "combine: altered signature byte");
  auto other_msg = honest_result(scheme, km, make_combine_round(7, 1));
  other_msg.cheaters.clear();
  flags(check_combine(scheme, km, honest, other_msg),
        "combine: valid signature on another message");
  auto wrong_cheater = good_cheat;
  wrong_cheater.cheaters[0] = wrong_cheater.cheaters[0] % uint32_t(km.n) + 1;
  flags(check_combine(scheme, km, cheat, wrong_cheater), "combine: wrong cheater index");
  auto missing = good_cheat;
  missing.cheaters.clear();
  flags(check_combine(scheme, km, cheat, missing), "combine: cheater not reported");
  auto extra = good;
  extra.cheaters.push_back(honest.signers[0]);
  flags(check_combine(scheme, km, honest, extra), "combine: honest player reported");

  // committee-onboard
  KeyMaterial fresh = make_committee(scheme, 7, "onboard/0", OnboardShape::kN,
                                     OnboardShape::kT);
  OnboardOp op = make_onboard_op(7, 0);
  CombineRound as_round;
  as_round.msg = op.msg;
  as_round.signers = op.signers;
  Bytes sig = honest_result(scheme, fresh, as_round).sig;
  passes(check_onboard_signature(scheme, fresh, op, sig), "onboard: combined signature verifies");
  Bytes bad = sig;
  bad[20] ^= 0x01;
  flags(check_onboard_signature(scheme, fresh, op, bad), "onboard: altered signature byte");
  OnboardOp other = make_onboard_op(7, 1);
  flags(check_onboard_signature(scheme, fresh, other, sig),
        "onboard: signature checked against another message");
  expect(make_onboard_op(7, OnboardShape::kRound - 1).hostile != Hostile::kNone,
         "onboard: one operation in ten is a hostile registration");
  passes(check_hostile_key(hostile_public_key(scheme, Hostile::kOutsideSubgroup)),
         "hostile: key outside the subgroup confirmed hostile");
  passes(check_hostile_key(hostile_public_key(scheme, Hostile::kIdentity)),
         "hostile: identity key confirmed hostile");
  flags(check_hostile_key(fresh.pk.serialize()), "hostile: honest key is not hostile");
  passes(check_hostile_refused(true), "hostile: refused registration accepted");
  flags(check_hostile_refused(false), "hostile: accepted hostile key");

  printf("%s: %d failure(s)\n", g_failures ? "FAILED" : "PASSED", g_failures);
  return g_failures ? 1 : 0;
}
