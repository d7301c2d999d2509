#ifndef CULINARYLAB_COMMON_STRING_UTIL_H_
#define CULINARYLAB_COMMON_STRING_UTIL_H_

#include <iterator>
#include <string>
#include <string_view>
#include <vector>

namespace culinary {

/// The parts of `input` between occurrences of the single character `sep`,
/// as views into `input` for a range-for; nothing is allocated. Empty parts
/// are kept: "a,,b" on ',' gives "a", "", "b", and an empty input gives one
/// empty part, matching Python's `str.split(sep)`. The range is its own
/// iterator.
class SplitParts {
 public:
  SplitParts(std::string_view input, char sep) : rest_(input), sep_(sep) {}

  SplitParts begin() const { return *this; }
  std::default_sentinel_t end() const { return {}; }
  std::string_view operator*() const { return rest_.substr(0, end_); }
  SplitParts& operator++() {
    done_ = end_ == rest_.npos;
    if (!done_) {
      rest_.remove_prefix(end_ + 1);
      end_ = rest_.find(sep_);
    }
    return *this;
  }
  bool operator==(std::default_sentinel_t) const { return done_; }

 private:
  std::string_view rest_;  // the current part and everything after it
  char sep_;
  size_t end_ = rest_.find(sep_);  // the current part's end; npos if last
  bool done_ = false;
};

/// Splits `input` on any run of ASCII whitespace; empty fields are dropped,
/// matching Python's `str.split()` with no arguments.
std::vector<std::string> SplitWhitespace(std::string_view input);

/// Joins `parts` with `sep` between consecutive elements.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view input);

/// ASCII lowercases / uppercases a copy of `input`.
std::string ToLower(std::string_view input);
std::string ToUpper(std::string_view input);

/// Prefix / suffix / substring predicates.
bool StartsWith(std::string_view input, std::string_view prefix);
bool EndsWith(std::string_view input, std::string_view suffix);
bool Contains(std::string_view haystack, std::string_view needle);

/// Replaces every occurrence of `from` (must be non-empty) with `to`.
std::string ReplaceAll(std::string_view input, std::string_view from,
                       std::string_view to);

/// True iff every character is an ASCII digit (and input is non-empty).
bool IsDigits(std::string_view input);

/// Formats `value` with exactly `precision` digits after the decimal point.
std::string FormatDouble(double value, int precision);

/// Pads `input` with spaces on the right (`PadRight`) or left (`PadLeft`) to
/// at least `width` characters.
std::string PadRight(std::string_view input, size_t width);
std::string PadLeft(std::string_view input, size_t width);

}  // namespace culinary

#endif  // CULINARYLAB_COMMON_STRING_UTIL_H_
