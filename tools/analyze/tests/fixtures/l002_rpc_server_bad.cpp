// Fixture: BNR-L002 violation — pairing-grade and blocking work inline on
// the IO loop (the filename contains "rpc_server" so the rule applies).
#include <chrono>
#include <thread>

namespace fixture {

struct Scheme {
  int parse_signature(int x) const { return x; }
  int canonical_public_key(int x) const { return x; }
};

void handle_frame(const Scheme& scheme, int payload) {
  int sig = scheme.parse_signature(payload);  // EXPECT: BNR-L002
  (void)sig;
  // REGISTER's key parse (curve + subgroup checks) is pool work too.
  int pk = scheme.canonical_public_key(payload);  // EXPECT: BNR-L002
  (void)pk;
  std::this_thread::sleep_for(std::chrono::milliseconds(1));  // EXPECT: BNR-L002
}

}  // namespace fixture
