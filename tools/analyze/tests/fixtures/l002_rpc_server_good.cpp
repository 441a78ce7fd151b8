// Fixture: clean twin of l002_rpc_server_bad — the parses run inside
// offload(...) / dispatch(...) regions, so the IO loop goes straight back to
// its sockets.
#include <functional>
#include <utility>

namespace fixture {

struct Scheme {
  int parse_signature(int x) const { return x; }
  int canonical_public_key(int x) const { return x; }
};

void offload(std::function<void()> task);
void dispatch(int id, std::function<void(int)> work);

void handle_frame(const Scheme& scheme, int payload) {
  // A comment naming parse_signature( must not trigger the rule.
  offload([&scheme, payload]() {
    int sig = scheme.parse_signature(payload);
    (void)sig;
  });
  offload([&scheme, payload]() {
    int pk = scheme.canonical_public_key(payload);
    (void)pk;
  });
  // dispatch()'s work closure runs on the pool as well.
  dispatch(payload, [&scheme](int blob) {
    int pk = scheme.canonical_public_key(blob);
    (void)pk;
  });
}

}  // namespace fixture
