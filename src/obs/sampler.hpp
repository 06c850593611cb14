// Background metrics sampling: a thread that polls one engine's metrics() at
// a fixed interval and keeps a bounded time series — the "metrics over the
// run" view a monitoring UI or a post-hoc analysis wants, without the caller
// having to thread a poller through its processing loop.
//
// The sampler only ever calls Engine::metrics(), which the coherence
// contract (engine_api.hpp) makes safe from any thread, including while the
// caller processes and after a fault poisons the engine. The engine must
// outlive the sampler.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "runtime/engine_api.hpp"

namespace perfq::obs {

/// One timestamped EngineMetrics from a MetricsSampler.
struct MetricsSample {
  std::uint64_t elapsed_ns = 0;  ///< since the sampler started
  runtime::EngineMetrics metrics;
};

class MetricsSampler {
 public:
  /// Samples engine.metrics() every `interval` into a ring of at most
  /// `capacity` samples (oldest dropped). ConfigError on a non-positive
  /// interval or a zero capacity.
  MetricsSampler(const runtime::Engine& engine,
                 std::chrono::milliseconds interval, std::size_t capacity = 256);
  MetricsSampler(const MetricsSampler&) = delete;
  MetricsSampler& operator=(const MetricsSampler&) = delete;
  ~MetricsSampler();

  /// The collected time series so far (oldest first). Thread-safe.
  [[nodiscard]] std::vector<MetricsSample> series() const;

 private:
  void sampler_loop();

  const runtime::Engine* engine_;
  std::chrono::milliseconds interval_;
  std::size_t capacity_;
  std::chrono::steady_clock::time_point start_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::deque<MetricsSample> series_;
  std::thread thread_;  ///< last member: starts after everything is ready
};

}  // namespace perfq::obs
