#include "obs/trace.h"

#include <atomic>
#include <cstdio>

#include "common/json.h"

namespace culinary::obs {

namespace {

std::chrono::steady_clock::time_point TraceEpoch() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return epoch;
}

uint32_t DenseThreadId() {
  static std::atomic<uint32_t> next{0};
  thread_local const uint32_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

uint64_t ToMicros(std::chrono::steady_clock::time_point t) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(t - TraceEpoch())
          .count());
}

}  // namespace

TraceSink::TraceSink(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

TraceSink& TraceSink::Default() {
  // Leaked, like MetricsRegistry::Default(): spans in static destructors
  // must find a live sink.
  static TraceSink* sink = new TraceSink();
  return *sink;
}

uint64_t TraceSink::NowMicros() {
  return ToMicros(std::chrono::steady_clock::now());
}

void TraceSink::Record(TraceEvent event) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(event));
  } else {
    ring_[next_ % capacity_] = std::move(event);
  }
  ++next_;
  ++recorded_;
}

std::vector<TraceEvent> TraceSink::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  if (ring_.size() < capacity_) {
    out = ring_;
    return out;
  }
  // Full ring: oldest surviving event sits at the next overwrite slot.
  for (size_t i = 0; i < capacity_; ++i) {
    out.push_back(ring_[(next_ + i) % capacity_]);
  }
  return out;
}

uint64_t TraceSink::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return recorded_ > capacity_ ? recorded_ - capacity_ : 0;
}

void TraceSink::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  ring_.clear();
  next_ = 0;
  recorded_ = 0;
}

TraceSpan::TraceSpan(std::string_view name, std::string_view category) {
  if (!Enabled()) return;
  name_.assign(name);
  category_.assign(category);
  start_ = std::chrono::steady_clock::now();
  active_ = true;
}

TraceSpan::~TraceSpan() { End(); }

void TraceSpan::End() {
  if (!active_) return;
  active_ = false;
  const auto end = std::chrono::steady_clock::now();
  TraceEvent event;
  event.name = std::move(name_);
  event.category = std::move(category_);
  event.start_us = ToMicros(start_);
  event.duration_us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(end - start_)
          .count());
  event.thread_id = DenseThreadId();
  TraceSink::Default().Record(std::move(event));
}

double TraceSpan::ElapsedMs() const {
  if (!active_) return 0.0;
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start_)
      .count();
}

std::string TraceToChromeJson(const std::vector<TraceEvent>& events) {
  // Complete events ("ph": "X") with microsecond timestamps — the format
  // chrome://tracing and Perfetto load directly.
  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  for (size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    out += i == 0 ? "\n  {\"name\": \"" : ",\n  {\"name\": \"";
    json::AppendEscaped(out, e.name);
    out += "\", \"cat\": \"";
    json::AppendEscaped(out, e.category);
    out += "\", \"ph\": \"X\", \"ts\": ";
    json::AppendNumber(out, e.start_us);
    out += ", \"dur\": ";
    json::AppendNumber(out, e.duration_us);
    out += ", \"pid\": 1, \"tid\": ";
    json::AppendNumber(out, e.thread_id);
    out += '}';
  }
  out += events.empty() ? "" : "\n";
  out += "]}\n";
  return out;
}

bool WriteTraceJsonFile(const TraceSink& sink, const std::string& path,
                        std::string* error) {
  const std::string json = TraceToChromeJson(sink.Snapshot());
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    if (error != nullptr) *error = "cannot open " + path + " for writing";
    return false;
  }
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const bool ok = written == json.size() && std::fclose(f) == 0;
  if (!ok && error != nullptr) *error = "short write to " + path;
  return ok;
}

}  // namespace culinary::obs
