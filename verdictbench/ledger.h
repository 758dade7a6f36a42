// The traced run's instruments: spans recorded from the benchmark's own
// calls into each module's public entry points, and the per-layer ledger
// that turns those spans plus the result structs' per-phase counters into
// the named per-layer metrics.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "dist/dist_sim.h"
#include "incr/engine.h"
#include "sweep/sweep.h"

namespace verdictbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// In-memory span log. Thread-safe: sweep properties record from worker
// threads. Written out once, when the benchmark ends.
class SpanRecorder {
 public:
  using Clock = std::chrono::steady_clock;

  struct Record {
    std::string name;
    uint64_t id = 0;
    uint64_t parent = 0;   // 0 = root.
    uint64_t request = 0;  // Spans of one request share it.
    double startSeconds = 0;  // Since the recorder was made.
    double endSeconds = 0;
    size_t thread = 0;
  };

  class Span {
   public:
    Span(SpanRecorder& recorder, std::string name, uint64_t parent, uint64_t request);
    ~Span() { finish(); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    uint64_t id() const { return id_; }
    // Records the span (first call only) and returns its duration.
    double finish();

   private:
    SpanRecorder& recorder_;
    std::string name_;
    uint64_t id_, parent_, request_;
    Clock::time_point start_;
    double seconds_ = -1;
  };

  SpanRecorder() : origin_(Clock::now()) {}

  std::vector<Record> records() const;
  // Summed duration and count of the spans called `name`.
  double totalSeconds(const std::string& name) const;
  size_t count(const std::string& name) const;
  // {"spans": [{name, id, parent, request, start_s, end_s, thread}, ...]}
  std::string toJson() const;

 private:
  Clock::time_point origin_;
  std::atomic<uint64_t> nextId_{1};
  mutable std::mutex mutex_;  // Guards records_.
  std::vector<Record> records_;
};

// Per-layer totals over the traced requests. Seconds come from the spans
// (`finish` reads them); everything else from the public result structs.
// Means are per request unless the metric says otherwise; every ratio names
// its base in ledger.cc and in README.md.
class Ledger {
 public:
  explicit Ledger(size_t workers) : workers_(workers) {}

  void addRequest() { ++requests_; }
  void addCommandErrors(size_t count) { commandErrors_ += count; }
  void addRoute(const hoyan::DistRouteResult& routes);
  void addTraffic(const hoyan::DistTrafficResult& traffic);
  void addImpact(bool allDirty);
  void addRibAssembly(const hoyan::incr::RibAssemblyStats& stats);
  void addGlobalRibRows(size_t rows);
  void addSweep(const hoyan::sweep::SweepStats& stats);
  // Incremental-cache counters over the traced pass (metrics-registry
  // deltas) and the residency when it ended.
  void setCache(uint64_t hits, uint64_t misses, uint64_t evictions, size_t bytes);

  // Every per-layer metric, in a fixed order, plus the two the caller
  // measures itself.
  std::vector<Metric> finish(const SpanRecorder& spans, double errorRate,
                             double traceOverheadFrac) const;

 private:
  size_t workers_;
  size_t requests_ = 0;
  size_t commandErrors_ = 0;

  hoyan::RouteSimStats routeStats_;  // Summed over requests.
  double routeSplit_ = 0, routeMerge_ = 0, routeElapsed_ = 0;
  double routeSubtaskSeconds_ = 0;  // Executed (not cached) subtasks only.

  hoyan::TrafficSimStats trafficStats_;
  double trafficSplit_ = 0, trafficElapsed_ = 0;
  double trafficSubtaskSeconds_ = 0;
  // Traffic phases that executed every subtask: only there do the replayed
  // stats of cache hits not mix into the ec/forward seconds.
  size_t fullTrafficPhases_ = 0;
  double fullTrafficLoad_ = 0;
  size_t ribFilesLoaded_ = 0, ribFilesTotal_ = 0;
  size_t storeBytesRead_ = 0;
  size_t retries_ = 0, failedSubtasks_ = 0;

  size_t impacts_ = 0, allDirty_ = 0;
  size_t rowsReused_ = 0, rowsRendered_ = 0;
  size_t fragmentHits_ = 0, fragmentMisses_ = 0;
  uint64_t cacheHits_ = 0, cacheMisses_ = 0, cacheEvictions_ = 0;
  size_t cacheBytes_ = 0;
  size_t globalRibs_ = 0, globalRibRows_ = 0;

  hoyan::sweep::SweepStats sweepStats_;  // Summed; peak bytes is the max.
};

}  // namespace verdictbench
