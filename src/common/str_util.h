// Small string helpers (no std::format in libstdc++ 12).
#ifndef RUMOR_COMMON_STR_UTIL_H_
#define RUMOR_COMMON_STR_UTIL_H_

#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace rumor {

// Concatenates the stream renderings of all arguments.
template <typename... Args>
std::string StrCat(const Args&... args) {
  std::ostringstream os;
  (os << ... << args);
  return os.str();
}

// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts,
                 const std::string& sep);

// True if `s` starts with `prefix`.
bool StartsWith(const std::string& s, const std::string& prefix);

// Lowercase ASCII copy.
std::string ToLower(const std::string& s);

// ASCII case-insensitive equality (ToLower(a) == ToLower(b), without the
// copies).
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

// Copy of `s` with leading/trailing ASCII whitespace removed.
std::string Trim(const std::string& s);

}  // namespace rumor

#endif  // RUMOR_COMMON_STR_UTIL_H_
