// Shared helpers for the unicon test suite.  The implementations moved to
// the library's testing subsystem (src/testing) so that the fuzz driver and
// the unit tests share one set of generators and oracles; this header keeps
// the historical unicon::testutil spelling alive for the tests.
#pragma once

#include <cstdlib>
#include <optional>
#include <string>

#include "testing/generate.hpp"
#include "testing/oracle.hpp"

namespace unicon::testutil {

using testing::RandomImcConfig;
using testing::ctmc_from_deterministic_ctmdp;
using testing::induced_ctmc;
using testing::random_goal;
using testing::random_uniform_imc;

/// Sets UNICON_BACKEND (unsets it for nullptr) for one scope and restores
/// the caller's value afterwards: CI exports it for whole-suite runs.
class ScopedBackendEnv {
 public:
  explicit ScopedBackendEnv(const char* value) {
    if (const char* old = std::getenv("UNICON_BACKEND")) saved_ = old;
    if (value == nullptr) {
      unsetenv("UNICON_BACKEND");
    } else {
      setenv("UNICON_BACKEND", value, 1);
    }
  }
  ~ScopedBackendEnv() {
    if (saved_) {
      setenv("UNICON_BACKEND", saved_->c_str(), 1);
    } else {
      unsetenv("UNICON_BACKEND");
    }
  }
  ScopedBackendEnv(const ScopedBackendEnv&) = delete;
  ScopedBackendEnv& operator=(const ScopedBackendEnv&) = delete;

 private:
  std::optional<std::string> saved_;
};

}  // namespace unicon::testutil
