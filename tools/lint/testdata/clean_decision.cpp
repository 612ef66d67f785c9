// lint-test-path: src/shed/clean_decision.cpp
//
// Fixture: idiomatic decision-path code produces ZERO findings — injected
// rt::Clock time, explicitly seeded randomness, one-way obs:: writes, and
// ordered iteration only. Never compiled — consumed by
// shedmon_lint.py --self-test.
#include <cstdint>
#include <map>
#include <random>
#include <vector>

// lint: allow(layering) stub declarations standing in for the obs headers
namespace obs {
class Counter;
}

namespace shedmon::shed {

class Controller {
 public:
  // Time arrives through the injectable clock, never read ambiently.
  void Tick(uint64_t now_us, obs::Counter& decisions) {
    last_tick_us_ = now_us;
    double total = 0.0;
    for (const auto& [bin, load] : load_by_bin_) {
      total += load;
    }
    for (const double sample : history_) {
      total += sample;
    }
    (void)decisions;  // one-way writes only; values are never read back
    (void)total;
  }

  // Randomness is fine when the seed is explicit and recorded.
  uint32_t Jitter(uint64_t seed) {
    std::mt19937 rng(static_cast<uint32_t>(seed));
    return rng();
  }

 private:
  uint64_t last_tick_us_ = 0;
  std::map<uint32_t, double> load_by_bin_;
  std::vector<double> history_;
};

}  // namespace shedmon::shed
