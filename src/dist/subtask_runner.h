// The subtask execution loop of the distributed framework (§3.2), shared by
// the route and traffic phases of `DistributedSimulator` and by the k-failure
// sweep.
//
// The master registers its subtasks in order (`add`), serves each from its
// result cache (`cacheHit`) or queues it (`cacheMiss`, `enqueue`), then
// `run`s a body over the queued ones on min(workers, queued) threads, while
// the master thread itself may do one piece of the caller's own work. A
// crash — injected per (id, attempt, seed), or thrown by the body — re-queues
// the subtask until it has made `maxAttempts` attempts. Workers report each
// outcome back to the master thread, which alone writes the subtask table,
// so the caller can merge in subtask order once `run` returns. Every
// subtask-lifecycle emission (journal, RunRegistry, metrics, one span per
// attempt) is made here.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "dist/message_queue.h"
#include "obs/metrics.h"
#include "obs/run_registry.h"
#include "obs/telemetry.h"

namespace hoyan {

enum class SubtaskOutcome : uint8_t {
  kPending,    // Not resolved: queued and then cancelled, or never queued.
  kSucceeded,  // Ran to completion, or was served from the result cache.
  kExhausted,  // Crashed on every one of its maxAttempts attempts.
};

// One row of the master's subtask table.
struct SubtaskMetric {
  std::string id;
  double seconds = 0;         // Wall time of the attempt that succeeded.
  int attempts = 1;           // Attempts made; 0 for cache hits.
  size_t ribFilesLoaded = 0;  // Traffic subtasks only (Fig. 5(d)).
  size_t ribFilesTotal = 0;
  bool fromCache = false;     // Served from the result cache, never queued.
  SubtaskOutcome outcome = SubtaskOutcome::kSucceeded;
};

// Where a phase publishes its subtask lifecycle. The metrics are resolved by
// the caller so each phase keeps its published names; all are required.
struct SubtaskEmission {
  std::string phase;     // Journal phase, e.g. "route" or "fault_sweep".
  std::string span;      // Per-attempt span; log events are "<span>.retry" etc.
  std::string category;  // Span category.
  obs::Gauge* queueDepth = nullptr;
  obs::Histogram* queueWait = nullptr;
  obs::Counter* retries = nullptr;
  obs::Counter* completed = nullptr;
  obs::Counter* crashed = nullptr;
  obs::Counter* exhausted = nullptr;
  obs::Histogram* seconds = nullptr;
  obs::Histogram* durationMs = nullptr;
};

// Bucket upper bounds for the per-subtask duration histograms: 0.1ms .. 30s,
// log-spaced.
std::vector<double> subtaskDurationBoundsMs();

struct SubtaskRunnerOptions {
  size_t workers = 1;
  int maxAttempts = 3;
  // Fault injection: probability that a worker crashes mid-subtask.
  double failureProbability = 0;
  uint64_t failureSeed = 0;
  obs::Telemetry* telemetry = nullptr;    // Null = the disabled sink.
  obs::RunRegistry* registry = nullptr;   // Null = no status publication.
  SubtaskEmission emission;
};

class SubtaskRunner {
 public:
  // Runs subtask `index` on worker `worker`; a throw is a crashed attempt.
  using Body = std::function<void(size_t index, int worker)>;
  // Master-side check after each resolution; true = the caller needs no more.
  using Settled = std::function<bool()>;
  // Caller work for the master thread while the workers run.
  using MasterWork = std::function<void()>;

  explicit SubtaskRunner(SubtaskRunnerOptions options);

  // --- master, before run() ---------------------------------------------------
  // Appends a pending row and returns its index.
  size_t add(std::string id);
  // Marks the row served from the cache under `key`.
  void cacheHit(size_t index, const std::string& key);
  // Records the cache lookup that missed; the caller then enqueues.
  void cacheMiss(size_t index, const std::string& key);
  void enqueue(size_t index);

  // Runs every queued subtask and returns once all workers have exited.
  // `settled` is consulted before the first start and after each
  // resolution. Once it returns true, `cancel` drops the subtasks still
  // queued (they never start); otherwise they drain.
  // `onMaster` runs exactly once on the calling thread: after the workers
  // start and before their reports are collected, or on its own when no
  // worker starts. If it throws, the phase still finishes and every worker
  // is joined before the exception propagates.
  void run(const Body& body, const Settled& settled = {}, bool cancel = false,
           const MasterWork& onMaster = {});

  // --- master, after run() ----------------------------------------------------
  const std::vector<SubtaskMetric>& rows() const { return rows_; }
  size_t queued() const { return queued_; }
  // Worker threads the last run() started: min(workers, queued), 0 if none.
  size_t threadsStarted() const { return threadsStarted_; }
  size_t retries() const { return retries_.load(); }
  // Ids of exhausted subtasks, in index order.
  std::vector<std::string> failedIds() const;
  bool succeeded() const { return failedIds().empty(); }

 private:
  struct Attempt {
    size_t index = 0;
    int attempt = 1;
  };
  struct Report {
    size_t index = 0;
    SubtaskOutcome outcome = SubtaskOutcome::kPending;
    int attempts = 0;
    double seconds = 0;
  };

  void workerLoop(const Body& body, int worker);
  void apply(const Report& report);

  SubtaskRunnerOptions options_;
  obs::Telemetry& tel_;
  std::vector<SubtaskMetric> rows_;
  MessageQueue<Attempt> queue_;
  MessageQueue<Report> reports_;
  size_t queued_ = 0;
  size_t threadsStarted_ = 0;
  std::atomic<size_t> retries_{0};
  std::atomic<bool> cancelled_{false};
};

}  // namespace hoyan
