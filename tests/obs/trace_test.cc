#include "obs/trace.h"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"

namespace culinary::obs {
namespace {

class ScopedEnabled {
 public:
  explicit ScopedEnabled(bool on) : prev_(Enabled()) { SetEnabled(on); }
  ~ScopedEnabled() { SetEnabled(prev_); }

 private:
  bool prev_;
};

TraceEvent MakeEvent(const std::string& name, uint64_t start) {
  TraceEvent e;
  e.name = name;
  e.category = "test";
  e.start_us = start;
  e.duration_us = 10;
  return e;
}

TEST(TraceSinkTest, RecordsInOrder) {
  TraceSink sink(8);
  sink.Record(MakeEvent("first", 1));
  sink.Record(MakeEvent("second", 2));
  std::vector<TraceEvent> events = sink.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "first");
  EXPECT_EQ(events[1].name, "second");
  EXPECT_EQ(sink.dropped(), 0u);
}

TEST(TraceSinkTest, RingOverwritesOldest) {
  TraceSink sink(3);
  for (int i = 0; i < 5; ++i) {
    sink.Record(MakeEvent("e" + std::to_string(i), static_cast<uint64_t>(i)));
  }
  std::vector<TraceEvent> events = sink.Snapshot();
  // e0 and e1 were overwritten; e2..e4 survive, oldest first.
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].name, "e2");
  EXPECT_EQ(events[1].name, "e3");
  EXPECT_EQ(events[2].name, "e4");
  EXPECT_EQ(sink.dropped(), 2u);
}

TEST(TraceSinkTest, ClearResets) {
  TraceSink sink(2);
  sink.Record(MakeEvent("a", 1));
  sink.Record(MakeEvent("b", 2));
  sink.Record(MakeEvent("c", 3));
  sink.Clear();
  EXPECT_TRUE(sink.Snapshot().empty());
  EXPECT_EQ(sink.dropped(), 0u);
}

TEST(TraceSinkTest, ZeroCapacityClampsToOne) {
  TraceSink sink(0);
  EXPECT_EQ(sink.capacity(), 1u);
  sink.Record(MakeEvent("only", 1));
  sink.Record(MakeEvent("newer", 2));
  std::vector<TraceEvent> events = sink.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "newer");
}

TEST(TraceSinkTest, ConcurrentRecordsAllLand) {
  TraceSink sink(100000);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&sink]() {
      for (int i = 0; i < kPerThread; ++i) sink.Record(MakeEvent("e", 0));
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(sink.Snapshot().size(),
            static_cast<size_t>(kThreads) * kPerThread);
  EXPECT_EQ(sink.dropped(), 0u);
}

TEST(TraceSpanTest, RecordsIntoDefaultSinkWhenEnabled) {
  ScopedEnabled on(true);
  TraceSink::Default().Clear();
  {
    TraceSpan span("test.span", "unit");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::vector<TraceEvent> events = TraceSink::Default().Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "test.span");
  EXPECT_EQ(events[0].category, "unit");
  EXPECT_GE(events[0].duration_us, 1000u);
  TraceSink::Default().Clear();
}

TEST(TraceSpanTest, InactiveWhenDisabled) {
  ScopedEnabled off(false);
  TraceSink::Default().Clear();
  {
    TraceSpan span("test.disabled", "unit");
    EXPECT_EQ(span.ElapsedMs(), 0.0);
  }
  EXPECT_TRUE(TraceSink::Default().Snapshot().empty());
}

TEST(TraceSpanTest, EndIsIdempotent) {
  ScopedEnabled on(true);
  TraceSink::Default().Clear();
  {
    TraceSpan span("test.end", "unit");
    span.End();
    span.End();  // second call must not double-record
  }  // destructor must not record a third time
  EXPECT_EQ(TraceSink::Default().Snapshot().size(), 1u);
  TraceSink::Default().Clear();
}

TEST(TraceSpanTest, ElapsedGrowsWhileActive) {
  ScopedEnabled on(true);
  TraceSink::Default().Clear();
  TraceSpan span("test.elapsed", "unit");
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_GT(span.ElapsedMs(), 0.0);
  span.End();
  EXPECT_EQ(span.ElapsedMs(), 0.0);  // inactive after End
  TraceSink::Default().Clear();
}

TEST(ChromeJsonTest, EmitsCompleteEvents) {
  std::vector<TraceEvent> events;
  TraceEvent e = MakeEvent("phase.one", 42);
  e.thread_id = 3;
  events.push_back(e);
  std::string json = TraceToChromeJson(events);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"phase.one\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\": 42"), std::string::npos);
  EXPECT_NE(json.find("\"dur\": 10"), std::string::npos);
  EXPECT_NE(json.find("\"tid\": 3"), std::string::npos);
}

TEST(ChromeJsonTest, EmptyTraceIsValid) {
  std::string json = TraceToChromeJson({});
  EXPECT_NE(json.find("\"traceEvents\": []"), std::string::npos);
}

TEST(ChromeJsonTest, EscapesNames) {
  std::vector<TraceEvent> events{MakeEvent("with\"quote", 0),
                                 MakeEvent("tab\tcr\rsoh\x01", 1)};
  std::string json = TraceToChromeJson(events);
  EXPECT_NE(json.find("with\\\"quote"), std::string::npos);
  EXPECT_NE(json.find("tab\\tcr\\rsoh\\u0001"), std::string::npos);
}

TEST(ChromeJsonFileTest, WritesAndReportsErrors) {
  TraceSink sink(4);
  sink.Record(MakeEvent("file.span", 5));
  const std::string path = ::testing::TempDir() + "/obs_trace_test.json";
  std::string error;
  ASSERT_TRUE(WriteTraceJsonFile(sink, path, &error)) << error;
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_NE(buf.str().find("file.span"), std::string::npos);
  std::remove(path.c_str());

  EXPECT_FALSE(
      WriteTraceJsonFile(sink, "/nonexistent-dir/obs_trace_test.json", &error));
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace culinary::obs
