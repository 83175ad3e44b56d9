#ifndef PGIVM_TESTS_SCOPED_ENV_VAR_H_
#define PGIVM_TESTS_SCOPED_ENV_VAR_H_

#include <cstdlib>
#include <string>

namespace pgivm {

/// Scoped save/override/restore of one PGIVM_* environment variable for
/// the lifetime of the guard. PGIVM_THREADS wins over the programmatic
/// thread count of every engine-created network, and the TSAN CI job
/// exports PGIVM_THREADS=8 for whole test binaries — so any test that
/// *relies* on a specific thread count (serial reference engines for
/// bit-identity checks, option-threading asserts) pins the variable for
/// the engine constructions it cares about. The PGIVM_* variables are
/// read at engine construction, so guarding the constructor call is
/// sufficient. PGIVM_REPRO and PGIVM_PROFILE tests use the same guard.
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

#endif  // PGIVM_TESTS_SCOPED_ENV_VAR_H_
