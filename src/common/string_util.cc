#include "common/string_util.h"

#include <cctype>
#include <cstdio>

namespace culinary {

namespace {

bool IsAsciiSpace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' ||
         c == '\v';
}

}  // namespace

std::vector<std::string> SplitWhitespace(std::string_view input) {
  std::vector<std::string> out;
  size_t i = 0;
  const size_t n = input.size();
  while (i < n) {
    while (i < n && IsAsciiSpace(input[i])) ++i;
    size_t start = i;
    while (i < n && !IsAsciiSpace(input[i])) ++i;
    if (i > start) out.emplace_back(input.substr(start, i - start));
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::string_view Trim(std::string_view input) {
  size_t begin = 0;
  size_t end = input.size();
  while (begin < end && IsAsciiSpace(input[begin])) ++begin;
  while (end > begin && IsAsciiSpace(input[end - 1])) --end;
  return input.substr(begin, end - begin);
}

std::string ToLower(std::string_view input) {
  std::string out(input);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

std::string ToUpper(std::string_view input) {
  std::string out(input);
  for (char& c : out) {
    c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  }
  return out;
}

bool StartsWith(std::string_view input, std::string_view prefix) {
  return input.size() >= prefix.size() &&
         input.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view input, std::string_view suffix) {
  return input.size() >= suffix.size() &&
         input.substr(input.size() - suffix.size()) == suffix;
}

bool Contains(std::string_view haystack, std::string_view needle) {
  return haystack.find(needle) != std::string_view::npos;
}

std::string ReplaceAll(std::string_view input, std::string_view from,
                       std::string_view to) {
  if (from.empty()) return std::string(input);
  std::string out;
  out.reserve(input.size());
  size_t start = 0;
  while (true) {
    size_t pos = input.find(from, start);
    if (pos == std::string_view::npos) {
      out.append(input.substr(start));
      break;
    }
    out.append(input.substr(start, pos - start));
    out.append(to);
    start = pos + from.size();
  }
  return out;
}

bool IsDigits(std::string_view input) {
  if (input.empty()) return false;
  for (char c : input) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

std::string FormatDouble(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return std::string(buf);
}

std::string PadRight(std::string_view input, size_t width) {
  std::string out(input);
  if (out.size() < width) out.append(width - out.size(), ' ');
  return out;
}

std::string PadLeft(std::string_view input, size_t width) {
  std::string out;
  if (input.size() < width) out.append(width - input.size(), ' ');
  out.append(input);
  return out;
}

}  // namespace culinary
