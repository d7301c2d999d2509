#include "serving/engine.h"

#include <chrono>
#include <string>
#include <utility>

#include "obs/obs.h"
#include "obs/slo.h"
#include "robustness/fault_injector.h"

namespace culinary::serving {

namespace {

/// Per-endpoint latency histograms. The obs macros cache their metric
/// handle in a function-local static keyed by call site, so each endpoint
/// needs its own literal-name call site.
void RecordLatencyUs(Endpoint endpoint, uint64_t us) {
  switch (endpoint) {
    case Endpoint::kPing:
      CULINARY_OBS_OBSERVE_U64("serving.ping_latency_us", us);
      break;
    case Endpoint::kScore:
      CULINARY_OBS_OBSERVE_U64("serving.score_latency_us", us);
      break;
    case Endpoint::kSuggest:
      CULINARY_OBS_OBSERVE_U64("serving.suggest_latency_us", us);
      break;
    case Endpoint::kFingerprint:
      CULINARY_OBS_OBSERVE_U64("serving.fingerprint_latency_us", us);
      break;
    case Endpoint::kSimilar:
      CULINARY_OBS_OBSERVE_U64("serving.similar_latency_us", us);
      break;
  }
}

int64_t SteadyNowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Smoothing factor for the service-time and batch-size EWMAs: heavy enough
/// that a few slow requests move the estimate, light enough that one outlier
/// does not swing admission.
constexpr double kServiceEwmaAlpha = 0.2;

}  // namespace

QueryEngine::QueryEngine(std::shared_ptr<const ServingSnapshot> snapshot,
                         const QueryEngineOptions& options)
    : published_(std::make_shared<const PublishedWorld>(
          PublishedWorld{std::move(snapshot), 1})),
      options_(options),
      queue_capacity_(options.queue_capacity) {
  num_workers_ = options.num_threads == 0 ? 1 : options.num_threads;
  beats_.reserve(num_workers_);
  for (size_t i = 0; i < num_workers_; ++i) {
    beats_.push_back(std::make_unique<WorkerBeat>());
  }
  workers_.reserve(num_workers_);
  for (size_t i = 0; i < num_workers_; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
  if (options_.enable_watchdog) {
    watchdog_ = std::thread([this] { WatchdogLoop(); });
  }
  health_.store(HealthState::kServing, std::memory_order_release);
}

QueryEngine::~QueryEngine() { Stop(); }

culinary::Status QueryEngine::Reload(
    std::shared_ptr<const ServingSnapshot> snapshot) {
  if (snapshot == nullptr) {
    return culinary::Status::InvalidArgument("cannot publish a null snapshot");
  }
  // The lifecycle mutex is what makes Reload-vs-Stop safe: Stop holds it
  // for the whole shutdown (including worker joins), so by the time a
  // destructor can run, no Reload can be between the stopped_ check and the
  // publish below.
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (stopped_.load(std::memory_order_acquire)) {
    return culinary::Status::FailedPrecondition(
        "engine stopped; reload rejected");
  }
  if (health_.load(std::memory_order_acquire) == HealthState::kDraining) {
    return culinary::Status::FailedPrecondition(
        "engine draining; reload rejected");
  }
  std::shared_ptr<const PublishedWorld> world =
      std::make_shared<const PublishedWorld>(
          PublishedWorld{std::move(snapshot), generation() + 1});
  {
    std::lock_guard<std::mutex> publish(publish_mu_);
    published_.swap(world);
  }
  // `world` now holds the retired generation, freed here outside the lock
  // unless an in-flight query still pins it.
  // A clean publish is the recovery edge of the health machine: degraded
  // (or still-starting) engines return to serving. Draining/stopped were
  // rejected above, so this store cannot resurrect a shutdown.
  health_.store(HealthState::kServing, std::memory_order_release);
  reloads_.fetch_add(1, std::memory_order_relaxed);
  CULINARY_OBS_COUNT("serving.reloads", 1);
  return culinary::Status::OK();
}

void QueryEngine::MarkDegraded() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  HealthState h = health_.load(std::memory_order_acquire);
  if (h == HealthState::kStarting || h == HealthState::kServing) {
    health_.store(HealthState::kDegraded, std::memory_order_release);
    CULINARY_OBS_COUNT("serving.degraded", 1);
  }
}

void QueryEngine::BeginDrain() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  const HealthState h = health_.load(std::memory_order_acquire);
  if (h == HealthState::kStopped || h == HealthState::kDraining) return;
  {
    // Under queue_mu_ so a Submit holding the lock either admitted before
    // the drain or observes it; nothing slips in "between" states.
    std::lock_guard<std::mutex> qlock(queue_mu_);
    health_.store(HealthState::kDraining, std::memory_order_release);
  }
  CULINARY_OBS_COUNT("serving.drains", 1);
}

std::shared_ptr<const QueryEngine::PublishedWorld> QueryEngine::Published()
    const {
  std::lock_guard<std::mutex> lock(publish_mu_);
  return published_;
}

std::shared_ptr<const ServingSnapshot> QueryEngine::snapshot() const {
  const auto world = Published();
  return world == nullptr ? nullptr : world->snapshot;
}

uint64_t QueryEngine::generation() const {
  const auto world = Published();
  return world == nullptr ? 0 : world->generation;
}

Response QueryEngine::Execute(const Request& request) const {
  return std::move(ExecuteBatch({&request, 1}).front());
}

std::vector<Response> QueryEngine::ExecuteBatch(
    std::span<const Request> requests) const {
  std::vector<Response> responses;
  if (requests.empty()) return responses;
  const auto start = std::chrono::steady_clock::now();

  // One chaos check and one RCU pin for the whole batch. The pinned
  // shared_ptr keeps this snapshot alive across a concurrent Reload, so every
  // response reports the same generation. A DelayMs fault plan here makes a
  // worker look stalled to the watchdog.
  culinary::Status injected =
      robustness::FaultInjector::Global().Check(robustness::kFaultServingExecute);
  const std::shared_ptr<const PublishedWorld> world = Published();
  if (world == nullptr || world->snapshot == nullptr) {
    responses.resize(requests.size());
    for (size_t i = 0; i < requests.size(); ++i) {
      responses[i].endpoint = requests[i].endpoint;
      responses[i].status =
          culinary::Status::FailedPrecondition("no snapshot published");
    }
    return responses;
  }
  if (!injected.ok()) {
    responses.resize(requests.size());
    for (size_t i = 0; i < requests.size(); ++i) {
      responses[i].endpoint = requests[i].endpoint;
      responses[i].generation = world->generation;
      responses[i].status = injected;
    }
  } else {
    responses = EvaluateBatch(*world->snapshot, requests);
    for (Response& response : responses) {
      response.generation = world->generation;
    }
  }

  const uint64_t us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  const double batch = static_cast<double>(requests.size());
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    executed_ += requests.size();
    ++batches_;
    if (requests.size() > 1) coalesced_ += requests.size() - 1;
    // Feed the admission estimator. A unit of one pulls the batch estimate
    // back toward 1, so the admission divisor tracks what workers actually
    // retire per unit, not a historical best case.
    if (ewma_service_us_ <= 0.0) {
      ewma_service_us_ = static_cast<double>(us);
    } else {
      ewma_service_us_ += kServiceEwmaAlpha *
                          (static_cast<double>(us) - ewma_service_us_);
    }
    ewma_batch_size_ += kServiceEwmaAlpha * (batch - ewma_batch_size_);
  }
  // Per-request latency is the batch wall time: that is what each coalesced
  // caller waited for its answer.
  size_t errors = 0;
  const int64_t t_s = SteadyNowMs() / 1000;
  for (size_t i = 0; i < requests.size(); ++i) {
    RecordLatencyUs(requests[i].endpoint, us);
    if (!responses[i].status.ok()) ++errors;
    if (options_.slo != nullptr) {
      options_.slo->Record(EndpointName(requests[i].endpoint),
                           static_cast<double>(us),
                           responses[i].status.ok(), t_s);
    }
  }
  CULINARY_OBS_OBSERVE_U64("serving.batch_size",
                           static_cast<uint64_t>(requests.size()));
  CULINARY_OBS_COUNT("serving.requests", static_cast<int64_t>(requests.size()));
  if (requests.size() > 1) {
    CULINARY_OBS_COUNT("serving.coalesced",
                       static_cast<int64_t>(requests.size() - 1));
  }
  if (errors > 0) {
    CULINARY_OBS_COUNT("serving.errors", static_cast<int64_t>(errors));
  }
  return responses;
}

std::future<Response> QueryEngine::Submit(Request request) {
  PendingRequest item;
  item.request = std::move(request);
  std::future<Response> future = item.promise.get_future();

  // Chaos hook for the admission path itself (delay or refuse at the door).
  culinary::Status admit =
      robustness::FaultInjector::Global().Check(robustness::kFaultServingAdmit);

  culinary::Status shed_status;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (!admit.ok()) {
      shed_status = admit.IsTransient()
                        ? admit
                        : culinary::Status::Unavailable(admit.message());
    } else if (stopped_.load(std::memory_order_acquire)) {
      shed_status = culinary::Status::Unavailable("engine stopped");
    } else if (health_.load(std::memory_order_acquire) ==
               HealthState::kDraining) {
      shed_status = culinary::Status::Unavailable("draining; admission closed");
    } else if (queue_.size() >= queue_capacity_) {
      shed_status = culinary::Status::Unavailable("admission queue full");
    } else {
      // Deadline-aware shed: estimate how long this request would wait
      // behind the queue plus the requests already on workers. If it cannot
      // start (and finish) inside its own deadline, refusing now is strictly
      // better than admitting it to time out inside evaluation. The EWMA
      // measures one *unit of work*, and a coalescing worker retires
      // ~ewma_batch_size_ queue slots per unit, so the per-slot wait divides
      // by the observed mean batch size — without it, shedding over-fires
      // the moment coalescing kicks in.
      const double deadline_ms = item.request.deadline_ms;
      if (deadline_ms >= 0.0 && ewma_service_us_ > 0.0) {
        const double batch_divisor =
            ewma_batch_size_ < 1.0 ? 1.0 : ewma_batch_size_;
        const double est_wait_us =
            static_cast<double>(queue_.size() + busy_workers_ + 1) *
            ewma_service_us_ /
            (static_cast<double>(num_workers_) * batch_divisor);
        if (est_wait_us > deadline_ms * 1000.0) {
          shed_status = culinary::Status::Unavailable(
              "deadline-aware shed: estimated wait " +
              std::to_string(static_cast<int64_t>(est_wait_us)) +
              "us exceeds deadline " +
              std::to_string(static_cast<int64_t>(deadline_ms)) + "ms");
          ++deadline_shed_;
        }
      }
      if (shed_status.ok()) {
        queue_.push_back(std::move(item));
        ++accepted_;
        queue_cv_.notify_one();
        return future;
      }
    }
    // Every refusal path lands here with queue_mu_ still held, so the shed
    // counter moves in the same critical section the decision was made in.
    ++shed_;
  }
  CULINARY_OBS_COUNT("serving.shed", 1);
  Response response;
  response.endpoint = item.request.endpoint;
  response.generation = generation();
  response.status = std::move(shed_status);
  item.promise.set_value(std::move(response));
  return future;
}

void QueryEngine::WorkerLoop(size_t worker_index) {
  WorkerBeat& beat = *beats_[worker_index];
  std::vector<PendingRequest> unit;
  for (;;) {
    unit.clear();
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] {
        return stopped_.load(std::memory_order_acquire) || !queue_.empty();
      });
      if (queue_.empty()) return;  // stopped and fully drained
      // Opportunistic coalescing: drain consecutive same-endpoint requests
      // into one unit of work. Draining stops at the first other endpoint
      // (never skips past it), so completion order stays FIFO per endpoint.
      // Queue wait never times a request out: its deadline clock starts at
      // evaluation (`MakeContext`).
      const Endpoint endpoint = queue_.front().request.endpoint;
      while (unit.size() < kBatchMax && !queue_.empty() &&
             queue_.front().request.endpoint == endpoint) {
        unit.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      ++busy_workers_;
    }
    beat.busy_since_ms.store(SteadyNowMs(), std::memory_order_release);
    std::vector<Request> requests;
    requests.reserve(unit.size());
    for (PendingRequest& pending : unit) {
      requests.push_back(std::move(pending.request));
    }
    std::vector<Response> responses = ExecuteBatch(requests);
    for (size_t i = 0; i < unit.size(); ++i) {
      unit[i].promise.set_value(std::move(responses[i]));
    }
    beat.busy_since_ms.store(-1, std::memory_order_release);
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      --busy_workers_;
    }
  }
}

void QueryEngine::WatchdogLoop() {
  std::unique_lock<std::mutex> lock(watchdog_mu_);
  for (;;) {
    watchdog_cv_.wait_for(lock, std::chrono::milliseconds(kWatchdogIntervalMs),
                          [this] { return watchdog_stop_; });
    if (watchdog_stop_) return;
    const int64_t now_ms = SteadyNowMs();
    size_t stalled = 0;
    for (const auto& beat : beats_) {
      const int64_t since = beat->busy_since_ms.load(std::memory_order_acquire);
      if (since >= 0 && now_ms - since >= kStallThresholdMs) {
        ++stalled;
        if (!beat->flagged) {
          // Count each stall once per request: the flag clears when the
          // worker's heartbeat goes idle or a new request starts on time.
          beat->flagged = true;
          worker_stalls_.fetch_add(1, std::memory_order_relaxed);
          CULINARY_OBS_COUNT("serving.worker_stalled", 1);
        }
      } else {
        beat->flagged = false;
      }
    }
    CULINARY_OBS_GAUGE_SET("serving.stalled_workers",
                           static_cast<double>(stalled));
  }
}

void QueryEngine::Stop() {
  // Held across the joins so a concurrent Stop (or ~QueryEngine) blocks
  // until shutdown completes, and a concurrent Reload is rejected rather
  // than publishing into a dying engine.
  std::lock_guard<std::mutex> lifecycle(lifecycle_mu_);
  if (stopped_.load(std::memory_order_acquire)) return;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    stopped_.store(true, std::memory_order_release);
    queue_cv_.notify_all();
  }
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  {
    std::lock_guard<std::mutex> wlock(watchdog_mu_);
    watchdog_stop_ = true;
    watchdog_cv_.notify_all();
  }
  if (watchdog_.joinable()) watchdog_.join();
  health_.store(HealthState::kStopped, std::memory_order_release);
}

QueryEngine::Stats QueryEngine::stats() const {
  Stats stats;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    stats.accepted = accepted_;
    stats.shed = shed_;
    stats.deadline_shed = deadline_shed_;
    stats.executed = executed_;
    stats.batches = batches_;
    stats.coalesced = coalesced_;
  }
  stats.reloads = reloads_.load(std::memory_order_relaxed);
  stats.worker_stalls = worker_stalls_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace culinary::serving
