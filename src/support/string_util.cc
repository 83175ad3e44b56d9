#include "support/string_util.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>

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
