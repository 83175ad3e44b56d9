#include "support/string_util.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace pgivm {

ParseIntResult ParseInt64(std::string_view text, int64_t* out) {
  std::string buffer(text);  // strtoll needs a terminator
  errno = 0;
  char* end = nullptr;
  long long value = std::strtoll(buffer.c_str(), &end, 10);
  if (end == buffer.c_str() || end != buffer.c_str() + buffer.size()) {
    return ParseIntResult::kMalformed;
  }
  if (errno == ERANGE) return ParseIntResult::kOutOfRange;
  *out = static_cast<int64_t>(value);
  return ParseIntResult::kOk;
}

bool ParseEnvInt(const char* name, const char* value, int max, int* out) {
  if (value == nullptr || *value == '\0') return false;
  int64_t number = 0;
  ParseIntResult result = ParseInt64(value, &number);
  if (result == ParseIntResult::kMalformed) {
    std::fprintf(stderr, "pgivm: ignoring %s=\"%s\" (not an integer)\n",
                 name, value);
    return false;
  }
  if (result == ParseIntResult::kOutOfRange || number > max ||
      number < std::numeric_limits<int>::min()) {
    std::fprintf(stderr, "pgivm: ignoring %s=\"%s\" (out of range)\n", name,
                 value);
    return false;
  }
  *out = static_cast<int>(number);
  return true;
}

std::string StrJoin(const std::vector<std::string>& parts,
                    std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

bool Contains(std::string_view s, std::string_view needle) {
  return s.find(needle) != std::string_view::npos;
}

std::string AsciiLower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

}  // namespace pgivm
