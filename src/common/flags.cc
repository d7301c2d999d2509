#include "common/flags.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <system_error>

namespace culinary::flags {

namespace {

std::string FormatDouble(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", value);
  return buf;
}

/// "at least 2", "at most 256", "in [0, 1]", or "" when unbounded.
std::string BoundsText(const std::string& min, bool has_min,
                       const std::string& max, bool has_max) {
  if (has_min && has_max) return "in [" + min + ", " + max + "]";
  if (has_min) return "at least " + min;
  if (has_max) return "at most " + max;
  return "";
}

std::string HelpLine(std::string help, const std::string& bounds,
                     const std::string& current) {
  if (!bounds.empty()) help += ", " + bounds;
  if (!current.empty()) help += " (default " + current + ")";
  return help;
}

std::string_view Basename(std::string_view path) {
  return path.substr(path.rfind('/') + 1);
}

}  // namespace

Flag Presence(std::string name, bool* target, std::string help,
              bool value) {
  return {std::move(name), "", std::move(help),
          [target, value](std::string_view) {
            *target = value;
            return Status::OK();
          }};
}

Flag String(std::string name, std::string* target, std::string value_name,
            std::string help) {
  std::string line = HelpLine(std::move(help), "", *target);
  return {std::move(name), std::move(value_name), std::move(line),
          [target](std::string_view value) {
            target->assign(value);
            return Status::OK();
          }};
}

Flag detail::Unsigned(std::string name, uint64_t current, std::string help,
                      uint64_t min, uint64_t max,
                      std::function<void(uint64_t)> store) {
  const std::string bounds =
      BoundsText(std::to_string(min), min > 0, std::to_string(max),
                 max < std::numeric_limits<uint64_t>::max());
  std::string line =
      HelpLine(std::move(help), bounds, std::to_string(current));
  return {std::move(name), "N", std::move(line),
          [min, max, bounds, store = std::move(store)](std::string_view text) {
            uint64_t value = 0;
            const char* end = text.data() + text.size();
            const auto [ptr, ec] = std::from_chars(text.data(), end, value);
            if (ec == std::errc::result_out_of_range) {
              return Status::InvalidArgument("past 2^64 - 1");
            }
            if (ec != std::errc() || ptr != end) {
              return Status::InvalidArgument("not a whole unsigned decimal");
            }
            if (value < min || value > max) {
              return Status::InvalidArgument("must be " + bounds);
            }
            store(value);
            return Status::OK();
          }};
}

Flag Double(std::string name, double* target, std::string help, double min,
            double max) {
  const std::string bounds = BoundsText(FormatDouble(min), true,
                                        FormatDouble(max), std::isfinite(max));
  std::string line = HelpLine(std::move(help), bounds, FormatDouble(*target));
  return {std::move(name), "X", std::move(line),
          [target, min, max, bounds](std::string_view text) {
            double value = 0.0;
            const char* end = text.data() + text.size();
            const auto [ptr, ec] = std::from_chars(text.data(), end, value);
            if (ec == std::errc::result_out_of_range) {
              return Status::InvalidArgument("past the range of a double");
            }
            if (ec != std::errc() || ptr != end) {
              return Status::InvalidArgument("not a decimal number");
            }
            if (!(value >= min && value <= max)) {  // NaN fails too
              return Status::InvalidArgument("must be " + bounds);
            }
            *target = value;
            return Status::OK();
          }};
}

Status Parse(const std::vector<std::string_view>& args,
             const std::vector<Flag>& table, const Positionals& positionals) {
  std::vector<bool> seen(table.size(), false);
  size_t num_positionals = 0;
  for (std::string_view arg : args) {
    if (arg.substr(0, 2) != "--") {
      if (++num_positionals > positionals.max) {
        return Status::InvalidArgument("unexpected argument " +
                                       std::string(arg));
      }
      positionals.values->emplace_back(arg);
      continue;
    }
    const size_t eq = arg.find('=');
    const std::string_view name =
        arg.substr(2, eq == std::string_view::npos ? eq : eq - 2);
    const auto it =
        std::find_if(table.begin(), table.end(),
                     [name](const Flag& flag) { return flag.name == name; });
    if (it == table.end()) {
      return Status::InvalidArgument("unknown flag " + std::string(arg));
    }
    const std::string flag = "--" + it->name;
    const auto index = static_cast<size_t>(it - table.begin());
    if (seen[index]) return Status::InvalidArgument("repeated flag " + flag);
    seen[index] = true;
    const bool has_value = eq != std::string_view::npos;
    if (it->value_name.empty() && has_value) {
      return Status::InvalidArgument(std::string(arg) + ": " + flag +
                                     " takes no value");
    }
    if (!it->value_name.empty() && !has_value) {
      return Status::InvalidArgument(flag + " needs a value: " + flag + "=" +
                                     it->value_name);
    }
    Status status = it->set(has_value ? arg.substr(eq + 1) : "");
    if (!status.ok()) {
      return Status::InvalidArgument("bad value in " + std::string(arg) +
                                     ": " + status.message());
    }
  }
  if (num_positionals < positionals.min) {
    return Status::InvalidArgument("missing arguments: expected " +
                                   positionals.usage);
  }
  return Status::OK();
}

std::string Usage(std::string_view program, const std::vector<Flag>& table,
                  const Positionals& positionals) {
  std::string out = "usage: " + std::string(Basename(program));
  if (!positionals.usage.empty()) out += " " + positionals.usage;
  out += " [flags]\n";
  std::vector<std::string> spellings;
  size_t width = 0;
  for (const Flag& flag : table) {
    spellings.push_back("--" + flag.name +
                        (flag.value_name.empty() ? "" : "=" + flag.value_name));
    width = std::max(width, spellings.back().size());
  }
  for (size_t i = 0; i < table.size(); ++i) {
    spellings[i].resize(width + 2, ' ');
    out += "  " + spellings[i] + table[i].help + "\n";
  }
  return out;
}

bool ParseCommandLine(int argc, char** argv, const std::vector<Flag>& table,
                      const Positionals& positionals) {
  // A process can be started with no argv[0] at all (argc == 0).
  const std::string_view program = argc > 0 ? argv[0] : "";
  const std::vector<std::string_view> args(argv + std::min(argc, 1),
                                           argv + argc);
  const Status status = Parse(args, table, positionals);
  if (status.ok()) return true;
  std::fprintf(stderr, "%s: %s\n%s", std::string(Basename(program)).c_str(),
               status.message().c_str(),
               Usage(program, table, positionals).c_str());
  return false;
}

}  // namespace culinary::flags
