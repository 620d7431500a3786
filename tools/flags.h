// Strict parsing of the numeric command-line flags shared by the tools
// (viptree_build, viptree_query, viptree_router). A count, port or rate
// must be a plain decimal number that fits its type: a sign, leading
// blanks, trailing characters or overflow is a usage error that names the
// flag. (atol/atoi would turn "-5" into a huge count and "12x" into 12.)

#ifndef VIPTREE_TOOLS_FLAGS_H_
#define VIPTREE_TOOLS_FLAGS_H_

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

namespace viptree {
namespace tools {

inline bool BadFlagValue(const char* prog, const std::string& flag,
                         const char* text, const char* want) {
  std::fprintf(stderr, "%s: %s wants %s, got '%s'\n", prog, flag.c_str(),
               want, text);
  return false;
}

// Parses `text` as an unsigned decimal integer no larger than `max` (nor
// than T can hold) into *out. On failure prints a usage error naming
// `flag` and leaves *out untouched.
template <typename T>
bool ParseUnsignedFlag(const char* prog, const std::string& flag,
                       const char* text, T* out,
                       uint64_t max = std::numeric_limits<T>::max()) {
  const char* want = "a non-negative integer";
  if (*text == '\0') return BadFlagValue(prog, flag, text, want);
  for (const char* c = text; *c != '\0'; ++c) {
    if (*c < '0' || *c > '9') return BadFlagValue(prog, flag, text, want);
  }
  errno = 0;
  const unsigned long long value = std::strtoull(text, nullptr, 10);
  if (errno == ERANGE || value > max) {
    return BadFlagValue(prog, flag, text, "a smaller integer");
  }
  *out = static_cast<T>(value);
  return true;
}

// Parses `text` as a finite, non-negative decimal number into *out.
inline bool ParseNonNegativeFlag(const char* prog, const std::string& flag,
                                 const char* text, double* out) {
  const char* want = "a non-negative number";
  if (!((*text >= '0' && *text <= '9') || *text == '.')) {
    return BadFlagValue(prog, flag, text, want);
  }
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (*end != '\0' || errno == ERANGE || !std::isfinite(value)) {
    return BadFlagValue(prog, flag, text, want);
  }
  *out = value;
  return true;
}

}  // namespace tools
}  // namespace viptree

#endif  // VIPTREE_TOOLS_FLAGS_H_
