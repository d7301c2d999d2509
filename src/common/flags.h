#ifndef CULINARYLAB_COMMON_FLAGS_H_
#define CULINARYLAB_COMMON_FLAGS_H_

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace culinary::flags {

/// One row of a binary's flag table. Build rows with the factories below;
/// each records its target's value at that moment as the default the usage
/// prints, so build the table after the targets hold their defaults.
struct Flag {
  std::string name;        ///< spelled `--name` on the command line
  std::string value_name;  ///< "N", "X", "FILE"...; empty for a presence flag
  std::string help;        ///< the usage line, bounds and default included
  /// Parses a value (empty for a presence flag) into the target.
  std::function<Status(std::string_view)> set;
};

/// `--name` sets `*target` to `value`.
Flag Presence(std::string name, bool* target, std::string help,
              bool value = true);

/// `--name=VALUE` stores VALUE, which may be empty.
Flag String(std::string name, std::string* target, std::string value_name,
            std::string help);

namespace detail {
Flag Unsigned(std::string name, uint64_t current, std::string help,
              uint64_t min, uint64_t max, std::function<void(uint64_t)> store);
}  // namespace detail

/// `--name=N` with N a whole unsigned decimal in [min, max]: no sign, space
/// or suffix, and nothing past the target type's range.
template <std::unsigned_integral T>
  requires(!std::same_as<T, bool>)
Flag Unsigned(std::string name, T* target, std::string help, uint64_t min = 0,
              uint64_t max = std::numeric_limits<T>::max()) {
  return detail::Unsigned(
      std::move(name), *target, std::move(help), min,
      std::min<uint64_t>(max, std::numeric_limits<T>::max()),
      [target](uint64_t value) { *target = static_cast<T>(value); });
}

/// `--name=X` with X a decimal number in [min, max]. NaN, and numbers past
/// the range of a double, are refused.
Flag Double(std::string name, double* target, std::string help, double min,
            double max);

/// The positional arguments a binary takes: between `min` and `max`,
/// appended to `*values` (which must be set when `max` > 0).
struct Positionals {
  std::string usage;  ///< how the synopsis shows them, e.g. "<in> <out>"
  size_t min = 0;
  size_t max = 0;
  std::vector<std::string>* values = nullptr;
};

/// Applies `args` (argv without the program name) to `table`. An argument
/// that starts with "--" is a flag, `--name` for a presence flag and
/// `--name=value` for any other; every other argument is a positional.
/// Returns InvalidArgument naming the argument on an unknown or repeated
/// flag, a value that does not parse whole or lies outside its bounds, a
/// value on a presence flag, a value flag without "=", or a positional
/// count outside [positionals.min, positionals.max].
Status Parse(const std::vector<std::string_view>& args,
             const std::vector<Flag>& table,
             const Positionals& positionals = {});

/// The usage text generated from the table: a synopsis line, then one line
/// per flag. `program` may be a path; only its last component is shown.
std::string Usage(std::string_view program, const std::vector<Flag>& table,
                  const Positionals& positionals = {});

/// Parses argv[1..]. On failure prints the error and the usage to stderr
/// and returns false, so `main` returns 2 before it builds anything.
bool ParseCommandLine(int argc, char** argv, const std::vector<Flag>& table,
                      const Positionals& positionals = {});

}  // namespace culinary::flags

#endif  // CULINARYLAB_COMMON_FLAGS_H_
