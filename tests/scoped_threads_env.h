#ifndef PGIVM_TESTS_SCOPED_THREADS_ENV_H_
#define PGIVM_TESTS_SCOPED_THREADS_ENV_H_

#include <cstdlib>
#include <string>

namespace pgivm {

/// Scoped PGIVM_THREADS manipulation. The env override wins over
/// programmatic executor configuration for every engine-created network,
/// and the TSAN CI job exports PGIVM_THREADS=8 for whole test binaries —
/// so any test that *relies* on a specific executor (serial reference
/// engines for bit-identity checks, option-threading asserts) must pin the
/// variable for the engine constructions it cares about. The override is
/// read at engine/catalog construction time, so guarding the constructor
/// call is sufficient.
class ScopedThreadsEnv {
 public:
  /// nullptr unsets the variable (programmatic options apply untouched);
  /// any other value is exported verbatim.
  explicit ScopedThreadsEnv(const char* value) {
    const char* old = getenv("PGIVM_THREADS");
    had_ = old != nullptr;
    if (had_) saved_ = old;
    if (value == nullptr) {
      unsetenv("PGIVM_THREADS");
    } else {
      setenv("PGIVM_THREADS", value, 1);
    }
  }
  ~ScopedThreadsEnv() {
    if (had_) {
      setenv("PGIVM_THREADS", saved_.c_str(), 1);
    } else {
      unsetenv("PGIVM_THREADS");
    }
  }

  ScopedThreadsEnv(const ScopedThreadsEnv&) = delete;
  ScopedThreadsEnv& operator=(const ScopedThreadsEnv&) = delete;

 private:
  std::string saved_;
  bool had_ = false;
};

/// Same save/override/restore dance for any PGIVM_* variable (PGIVM_REPRO,
/// PGIVM_PROFILE), exactly like executor tests pin PGIVM_THREADS.
class ScopedEnvVar {
 public:
  /// nullptr unsets the variable; any other value is exported verbatim.
  ScopedEnvVar(const char* name, const char* value) : name_(name) {
    const char* old = getenv(name);
    had_ = old != nullptr;
    if (had_) saved_ = old;
    if (value == nullptr) {
      unsetenv(name);
    } else {
      setenv(name, value, 1);
    }
  }
  ~ScopedEnvVar() {
    if (had_) {
      setenv(name_.c_str(), saved_.c_str(), 1);
    } else {
      unsetenv(name_.c_str());
    }
  }

  ScopedEnvVar(const ScopedEnvVar&) = delete;
  ScopedEnvVar& operator=(const ScopedEnvVar&) = delete;

 private:
  std::string name_;
  std::string saved_;
  bool had_ = false;
};

}  // namespace pgivm

#endif  // PGIVM_TESTS_SCOPED_THREADS_ENV_H_
