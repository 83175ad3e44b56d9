#ifndef PGIVM_SUPPORT_STRING_UTIL_H_
#define PGIVM_SUPPORT_STRING_UTIL_H_

#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace pgivm {

/// Outcome of a strict integer parse; callers word their own errors.
enum class ParseIntResult { kOk, kMalformed, kOutOfRange };

/// Parses all of `text` as a base-10 int64 with strtoll's grammar
/// (leading whitespace, optional sign), but no trailing characters. An
/// empty or partly numeric string is kMalformed; a number beyond int64 is
/// kOutOfRange and never saturates. `*out` is written only on kOk.
ParseIntResult ParseInt64(std::string_view text, int64_t* out);

/// Strict parse of an integer environment variable: `value` (the
/// variable's content, null when unset) must be entirely an integer in
/// [INT_MIN, max]. Unset or empty returns false silently; anything else
/// that does not parse returns false with a stderr warning naming `name` —
/// a malformed value must not silently resolve to some other setting
/// ("8abc" is not 8; 99999999999 is not whatever it truncates to in int).
/// `*out` is written only on success.
bool ParseEnvInt(const char* name, const char* value, int max, int* out);

/// Concatenates the streamable arguments into one string.
template <typename... Args>
std::string StrCat(const Args&... args) {
  std::ostringstream os;
  (os << ... << args);
  return os.str();
}

/// Joins `parts` with `sep` ("a", "b" -> "a,b").
std::string StrJoin(const std::vector<std::string>& parts,
                    std::string_view sep);

/// True iff `s` starts with / ends with / contains `affix`.
bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);
bool Contains(std::string_view s, std::string_view needle);

/// ASCII-lowercases a copy of `s`.
std::string AsciiLower(std::string_view s);

/// Combines a hash value into a running seed (boost::hash_combine recipe).
inline void HashCombine(size_t& seed, size_t value) {
  seed ^= value + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2);
}

}  // namespace pgivm

#endif  // PGIVM_SUPPORT_STRING_UTIL_H_
