// The command-line flag table shared by the tools (viptree_build,
// viptree_query, viptree_router). Each tool declares its flags once, as a
// table of name -> target plus parser, and ParseFlags walks argv against
// it. Numeric flags are strict: a count, port or rate must be a plain
// decimal number that fits its type; a sign, leading blanks, trailing
// characters or overflow is a usage error that names the flag. (atol/atoi
// would turn "-5" into a huge count and "12x" into 12.)

#ifndef VIPTREE_TOOLS_FLAGS_H_
#define VIPTREE_TOOLS_FLAGS_H_

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

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

// One row of a tool's flag table. A switch takes no value; every other
// flag consumes the next argument and stores it through `store`, which
// prints a usage error and returns false when the value is bad.
struct Flag {
  std::string name;
  bool takes_value = true;
  std::function<bool(const char* prog, const char* text)> store;
};

inline Flag SwitchFlag(std::string name, bool* target) {
  return {std::move(name), false, [target](const char*, const char*) {
            *target = true;
            return true;
          }};
}

inline Flag StringFlag(std::string name, std::string* target) {
  return {std::move(name), true, [target](const char*, const char* text) {
            *target = text;
            return true;
          }};
}

// `implies`, when set, is switched on by naming this flag (e.g. a
// coalesce window implies coalescing).
template <typename T>
Flag UnsignedFlag(std::string name, T* target,
                  uint64_t max = std::numeric_limits<T>::max(),
                  bool* implies = nullptr) {
  Flag flag{std::move(name), true, nullptr};
  flag.store = [name = flag.name, target, max, implies](const char* prog,
                                                        const char* text) {
    if (!ParseUnsignedFlag(prog, name, text, target, max)) return false;
    if (implies != nullptr) *implies = true;
    return true;
  };
  return flag;
}

inline Flag NonNegativeFlag(std::string name, double* target) {
  Flag flag{std::move(name), true, nullptr};
  flag.store = [name = flag.name, target](const char* prog, const char* text) {
    return ParseNonNegativeFlag(prog, name, text, target);
  };
  return flag;
}

// Stores every argument of argv[1..] through `table`. Returns false after
// printing why on --help/-h (usage), an unknown flag (message and usage),
// a flag missing its value, or a bad value. Checks across flags stay with
// each tool.
inline bool ParseFlags(int argc, char** argv, const std::vector<Flag>& table,
                       void (*usage)(const char* argv0)) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return false;
    }
    const Flag* flag = nullptr;
    for (const Flag& row : table) {
      if (row.name == arg) {
        flag = &row;
        break;
      }
    }
    if (flag == nullptr) {
      std::fprintf(stderr, "%s: unknown flag %s\n", argv[0], arg.c_str());
      usage(argv[0]);
      return false;
    }
    const char* text = nullptr;
    if (flag->takes_value) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: missing value for %s\n", argv[0],
                     arg.c_str());
        return false;
      }
      text = argv[++i];
    }
    if (!flag->store(argv[0], text)) return false;
  }
  return true;
}

}  // namespace tools
}  // namespace viptree

#endif  // VIPTREE_TOOLS_FLAGS_H_
