#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "datagen/spec.h"

namespace perfbench {

uint64_t EffectiveWorldSeed(uint64_t world_seed) {
  return world_seed != 0 ? world_seed
                         : culinary::datagen::WorldSpec::Default().seed;
}

CpuTicks ReadCpuTicks() {
  CpuTicks ticks;
  std::ifstream stat("/proc/stat");
  std::string label;
  if (!(stat >> label) || label != "cpu") return ticks;
  // user nice system idle iowait irq softirq steal: steal is the 8th field.
  for (int field = 1; field <= 8; ++field) {
    uint64_t value = 0;
    if (!(stat >> value)) return CpuTicks{};
    ticks.total += value;
    if (field == 8) ticks.steal = value;
  }
  return ticks;
}

double StealFrac(const CpuTicks& before, const CpuTicks& after) {
  if (after.total <= before.total) return 0.0;
  return static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

Quantile NearestRank(std::vector<double>& samples, double q) {
  Quantile out;
  out.count = samples.size();
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  // Nearest rank: the smallest sample with at least q of the samples at or
  // below it (1-based rank ceil(q * n)).
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(out.count)));
  rank = std::clamp<size_t>(rank, 1, out.count);
  out.value = samples[rank - 1];
  out.beyond = out.count - rank;
  return out;
}

double Median(std::vector<double> values) {
  return NearestRank(values, 0.5).value;
}

std::string JsonNumber(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back(Entry{name, value, unit});
}

Quantile Report::NoteQuantile(const std::string& name,
                              std::vector<double>& samples, double q,
                              const std::string& unit) {
  const Quantile quantile = NearestRank(samples, q);
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "percentile %s = %.3f %s (samples=%zu, beyond=%zu)",
                name.c_str(), quantile.value, unit.c_str(), quantile.count,
                quantile.beyond);
  Note(buf);
  return quantile;
}

bool Report::AddQuantile(const std::string& name,
                         std::vector<double>& samples, double q,
                         const std::string& unit) {
  const Quantile quantile = NoteQuantile(name, samples, q, unit);
  if (quantile.count == 0 ||
      (q > 0.5 && quantile.beyond < kMinTailSupport)) {
    std::fprintf(stderr,
                 "perfbench: refusing %s: %zu samples beyond it, need %zu\n",
                 name.c_str(), quantile.beyond, kMinTailSupport);
    return false;
  }
  Add(name, quantile.value, unit);
  return true;
}

void Report::Note(const std::string& text) {
  std::string line = text;
  std::replace(line.begin(), line.end(), '\n', ' ');
  std::printf("# %s\n", line.c_str());
  std::fflush(stdout);
}

bool Report::Has(const std::string& name) const {
  return std::any_of(metrics_.begin(), metrics_.end(),
                     [&](const Entry& e) { return e.name == name; });
}

std::string Report::ResultLine(bool correct, uint64_t attempted,
                               uint64_t failed) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics_[i].name + "\": {\"value\": " +
           JsonNumber(metrics_[i].value) + ", \"unit\": \"" +
           metrics_[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

bool SpanLog::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  for (const Span& span : spans_) {
    out << "{\"name\":\"" << span.name << "\",\"id\":" << span.id
        << ",\"parent\":" << span.parent << ",\"start_ns\":" << span.start_ns
        << ",\"end_ns\":" << span.end_ns << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
