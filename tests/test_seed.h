// The test seed: FLASHDB_TEST_SEED, which the CI and nightly fault matrices
// set to re-run a suite over other workloads, cut points and error
// decisions. Unset -> 0, the canonical deterministic run.

#ifndef FLASHDB_TESTS_TEST_SEED_H_
#define FLASHDB_TESTS_TEST_SEED_H_

#include <cstdint>
#include <cstdlib>

namespace flashdb {

/// FLASHDB_TEST_SEED's value, 0 when unset.
inline uint64_t EnvSeed() {
  const char* s = std::getenv("FLASHDB_TEST_SEED");
  return s != nullptr ? std::strtoull(s, nullptr, 10) : 0;
}

/// `base` shifted by a large odd multiple of EnvSeed(), so every seed moves
/// every stream a suite derives from its own base.
inline uint64_t TestSeed(uint64_t base) {
  return base + EnvSeed() * 1000003ULL;
}

}  // namespace flashdb

#endif  // FLASHDB_TESTS_TEST_SEED_H_
