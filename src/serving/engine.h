#ifndef CULINARYLAB_SERVING_ENGINE_H_
#define CULINARYLAB_SERVING_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <variant>
#include <vector>

#include "common/cancellation.h"
#include "common/status.h"
#include "serving/health.h"
#include "serving/queries.h"
#include "serving/snapshot.h"

namespace culinary::obs {
class SloMonitor;
}  // namespace culinary::obs

namespace culinary::serving {

// Endpoint / Request / Payload / Response live in serving/queries.h (shared
// with the pure batch evaluator); this header re-exports them.

struct QueryEngineOptions {
  /// Worker threads draining the admission queue (clamped to >= 1).
  size_t num_threads = 4;
  /// Admission-queue bound: a `Submit` beyond this many waiting requests is
  /// shed with `kUnavailable` instead of queueing without limit.
  size_t queue_capacity = 256;

  /// Watchdog thread: flags a worker as stalled when one request has kept
  /// it busy for `QueryEngine::kStallThresholdMs` (counter
  /// `serving.worker_stalled`, gauge `serving.stalled_workers`,
  /// `Stats::worker_stalls`).
  bool enable_watchdog = true;

  /// Optional SLO monitor: every evaluated request records (endpoint,
  /// latency, ok) into it, timestamped on a steady clock. Not owned; must
  /// outlive the engine.
  obs::SloMonitor* slo = nullptr;
};

/// Resident query engine: answers concurrent point queries against an
/// immutable `ServingSnapshot`, swapped RCU-style on reload.
///
/// Publication is one `std::shared_ptr<const PublishedWorld>` swap, where
/// `PublishedWorld` pairs the snapshot with its generation so a query
/// observes a consistent (snapshot, generation) or the previous one — never
/// a half-published state. A query copies the pointer under a mutex held
/// only for the copy, then pins it for its whole evaluation; a concurrent
/// `Reload` retires the old world only when the last in-flight query drops
/// its pin. No query ever blocks on — or observes — a partially ingested
/// world: `ServingSnapshot::Build` runs entirely before `Reload` is called.
///
/// `Stop` and `Reload` are serialized by a lifecycle mutex: a reload racing
/// shutdown either publishes before the engine stops or is rejected with
/// `kFailedPrecondition` — it can never publish into a stopped (or
/// destructing) engine. `Stop` is idempotent and drains queued requests
/// (their futures complete with real answers) before joining the workers.
class QueryEngine {
 public:
  /// Opportunistic coalescing bound: a worker that dequeues a request also
  /// drains up to this many consecutive same-endpoint waiting requests into
  /// one unit of work, pinning the snapshot once — the size of one wire
  /// batch line.
  static constexpr size_t kBatchMax = 16;
  /// The watchdog wakes every `kWatchdogIntervalMs` and flags a worker busy
  /// on one unit of work for at least `kStallThresholdMs`.
  static constexpr int64_t kStallThresholdMs = 1000;
  static constexpr int64_t kWatchdogIntervalMs = 100;

  /// Starts `options.num_threads` workers serving `snapshot` (non-null) as
  /// generation 1.
  explicit QueryEngine(std::shared_ptr<const ServingSnapshot> snapshot,
                       const QueryEngineOptions& options = {});
  ~QueryEngine();

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// Atomically publishes `snapshot` (non-null) as the next generation and
  /// returns health to `kServing` (also from `kDegraded` — a clean reload is
  /// the recovery path). In-flight queries keep answering from the
  /// generation they pinned. Returns kFailedPrecondition once the engine
  /// has stopped or is draining, and kInvalidArgument for a null snapshot
  /// (nothing is published either way).
  culinary::Status Reload(std::shared_ptr<const ServingSnapshot> snapshot);

  /// Current lifecycle health. Any thread, any time.
  HealthState health() const {
    return health_.load(std::memory_order_acquire);
  }

  /// Records that the engine is serving stale data (a reload failed): moves
  /// `kStarting`/`kServing` to `kDegraded`. No-op while draining/stopped —
  /// shutdown outranks degradation. Called by the reload manager; queries
  /// keep being answered from the last good snapshot either way.
  void MarkDegraded();

  /// Enters `kDraining`: admission closes (`Submit` sheds with
  /// `kUnavailable`), queued and in-flight requests still complete, and
  /// direct `Execute` keeps working so the drain can be observed. Reloads
  /// are rejected from here on. Idempotent; no-op once stopped.
  void BeginDrain();

  /// The currently published snapshot / generation. Any thread, any time.
  std::shared_ptr<const ServingSnapshot> snapshot() const;
  uint64_t generation() const;

  /// Evaluates `request` synchronously on the calling thread: `ExecuteBatch`
  /// over a batch of one, without copying the request. Thread-safe; usable
  /// alongside `Submit`.
  Response Execute(const Request& request) const;

  /// Evaluates a batch synchronously on the calling thread against ONE
  /// pinned snapshot: the RCU pointer is loaded once, every response carries
  /// the same generation, and `EvaluateBatch` answers every request under
  /// its own deadline and cancellation token (bit-identical to evaluating
  /// each alone, see queries.h). The engine's only evaluation path: workers
  /// run every unit of work through it, coalesced or not. Records the
  /// per-endpoint latency, request counters and admission estimates for the
  /// unit; each request's latency is the batch wall time, the latency a
  /// coalesced caller actually observed.
  std::vector<Response> ExecuteBatch(std::span<const Request> requests) const;

  /// Queued submission through the bounded admission queue. The returned
  /// future is immediately ready with `kUnavailable` (explicit shed;
  /// retryable) when the queue is full, the engine is draining or stopped,
  /// or the request's deadline is already shorter than its estimated queue
  /// wait. That estimate (deadline-aware admission) is the EWMA of observed
  /// per-unit service times, scaled by the work ahead of the request and
  /// divided by the observed mean batch size, since a coalescing worker
  /// retires several queue slots per unit of work. Requests without a
  /// deadline are never shed by the estimate.
  std::future<Response> Submit(Request request);

  /// Stops admission, drains queued requests, joins workers. Idempotent;
  /// concurrent calls serialize and all return after shutdown completes.
  void Stop();

  bool stopped() const { return stopped_.load(std::memory_order_acquire); }

  struct Stats {
    uint64_t accepted = 0;       ///< requests admitted to the queue
    uint64_t shed = 0;           ///< requests refused with kUnavailable
    uint64_t deadline_shed = 0;  ///< subset of `shed`: deadline-aware rejects
    uint64_t executed = 0;       ///< requests evaluated (queued + direct)
    uint64_t batches = 0;        ///< units of work evaluated (1 per Execute
                                 ///< or ExecuteBatch call)
    uint64_t coalesced = 0;      ///< requests that rode along in a batch of
                                 ///< >= 2 (batch size minus one, summed)
    uint64_t reloads = 0;        ///< successful snapshot swaps
    uint64_t worker_stalls = 0;  ///< watchdog stall detections
  };
  /// A consistent point-in-time snapshot: `accepted`, `shed`,
  /// `deadline_shed` and `executed` are read together under the queue mutex
  /// so the triple can never be observed mid-update (e.g. `executed` >
  /// `accepted` + direct calls).
  Stats stats() const;

  /// Test hook: the batch-size EWMA currently dividing the admission wait
  /// estimate (1.0 until a batch of >= 2 has been observed).
  double admission_batch_estimate() const {
    std::lock_guard<std::mutex> lock(queue_mu_);
    return ewma_batch_size_;
  }

 private:
  /// Snapshot + generation, published as one unit so they can never be
  /// observed out of step.
  struct PublishedWorld {
    std::shared_ptr<const ServingSnapshot> snapshot;
    uint64_t generation = 0;
  };

  struct PendingRequest {
    Request request;
    std::promise<Response> promise;
  };

  /// Per-worker heartbeat, read by the watchdog. Heap-allocated (one cache
  /// line each) so worker stores never false-share.
  struct alignas(64) WorkerBeat {
    /// Steady-clock ms when the current request started; -1 = idle.
    std::atomic<int64_t> busy_since_ms{-1};
    /// Watchdog-private: already counted as stalled for this request.
    bool flagged = false;
  };

  void WorkerLoop(size_t worker_index);
  void WatchdogLoop();
  /// A copy of `published_`, taken under `publish_mu_`.
  std::shared_ptr<const PublishedWorld> Published() const;

  /// Guards `published_`, held only to copy or swap it. Not a
  /// `std::atomic<std::shared_ptr>`: libstdc++ 12's `load` unlocks with
  /// relaxed order, so ThreadSanitizer saw every Reload race a query.
  mutable std::mutex publish_mu_;
  std::shared_ptr<const PublishedWorld> published_;

  /// Serializes Reload against Stop/BeginDrain (satellite: a reload racing
  /// shutdown must not publish into a destroyed engine).
  std::mutex lifecycle_mu_;
  std::atomic<bool> stopped_{false};
  std::atomic<HealthState> health_{HealthState::kStarting};

  QueryEngineOptions options_;
  size_t num_workers_ = 1;

  /// Guards the queue, the busy-worker count, the service-time EWMA and the
  /// admission counters; `ExecuteBatch` is const yet updates the EWMA and
  /// `executed_`, hence mutable.
  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<PendingRequest> queue_;
  std::vector<std::thread> workers_;
  std::vector<std::unique_ptr<WorkerBeat>> beats_;
  size_t queue_capacity_ = 0;

  // All guarded by queue_mu_ so `stats()` returns a consistent snapshot.
  mutable uint64_t accepted_ = 0;
  mutable uint64_t shed_ = 0;
  mutable uint64_t deadline_shed_ = 0;
  mutable uint64_t executed_ = 0;
  mutable uint64_t batches_ = 0;
  mutable uint64_t coalesced_ = 0;
  mutable size_t busy_workers_ = 0;
  /// Service time per *unit of work* (one `ExecuteBatch` call).
  mutable double ewma_service_us_ = 0.0;
  /// Observed mean batch size; the admission estimate divides by it so a
  /// coalescing engine does not over-shed (each unit retires ~this many
  /// queue slots).
  mutable double ewma_batch_size_ = 1.0;

  std::atomic<uint64_t> reloads_{0};
  std::atomic<uint64_t> worker_stalls_{0};

  std::thread watchdog_;
  std::mutex watchdog_mu_;
  std::condition_variable watchdog_cv_;
  bool watchdog_stop_ = false;  // guarded by watchdog_mu_
};

}  // namespace culinary::serving

#endif  // CULINARYLAB_SERVING_ENGINE_H_
