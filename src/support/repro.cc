#include "support/repro.h"

#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "support/string_util.h"

namespace pgivm {

std::string ReproSpec::Format() const {
  std::ostringstream os;
  os << "seed=" << seed << ",threads=" << threads
     << ",morsel=" << (morsel ? 1 : 0) << ",step=" << step;
  return os.str();
}

std::string ReproSpec::EnvLine() const {
  return StrCat("PGIVM_REPRO=\"", Format(), "\"");
}

bool ReproSpec::SameCase(const ReproSpec& other) const {
  return seed == other.seed && threads == other.threads &&
         morsel == other.morsel;
}

Result<ReproSpec> ReproSpec::Parse(const std::string& text) {
  ReproSpec spec;
  bool have_seed = false, have_threads = false, have_morsel = false;
  std::stringstream stream(text);
  std::string field;
  while (std::getline(stream, field, ',')) {
    size_t eq = field.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument(
          StrCat("PGIVM_REPRO field without '=': '", field, "'"));
    }
    std::string key = field.substr(0, eq);
    if (key != "seed" && key != "threads" && key != "morsel" &&
        key != "step") {
      return Status::InvalidArgument(
          StrCat("PGIVM_REPRO unknown key '", key, "'"));
    }
    int64_t number = 0;
    switch (ParseInt64(field.substr(eq + 1), &number)) {
      case ParseIntResult::kOk:
        break;
      case ParseIntResult::kMalformed:
        return Status::InvalidArgument(
            StrCat("PGIVM_REPRO malformed number in '", field, "'"));
      case ParseIntResult::kOutOfRange:
        return Status::InvalidArgument(
            StrCat("PGIVM_REPRO number out of range in '", field, "'"));
    }
    if (key == "seed") {
      spec.seed = static_cast<uint64_t>(number);
      have_seed = true;
    } else if (key == "threads") {
      spec.threads = static_cast<int>(number);
      have_threads = true;
    } else if (key == "morsel") {
      spec.morsel = number != 0;
      have_morsel = true;
    } else {
      spec.step = number;
    }
  }
  if (!have_seed || !have_threads || !have_morsel) {
    return Status::InvalidArgument(
        "PGIVM_REPRO requires seed=, threads= and morsel=");
  }
  return spec;
}

std::optional<ReproSpec> ReproSpec::FromEnv() {
  const char* raw = std::getenv("PGIVM_REPRO");
  if (raw == nullptr) return std::nullopt;
  // Tolerate the quotes EnvLine() prints, so the recipe is copy-paste-able
  // into shells that keep them.
  std::string text(raw);
  if (text.size() >= 2 && text.front() == '"' && text.back() == '"') {
    text = text.substr(1, text.size() - 2);
  }
  Result<ReproSpec> parsed = Parse(text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "pgivm: ignoring PGIVM_REPRO: %s\n",
                 parsed.status().message().c_str());
    return std::nullopt;
  }
  return parsed.value();
}

}  // namespace pgivm
