#include "dist/subtask_runner.h"

#include <algorithm>
#include <exception>
#include <random>
#include <thread>

namespace hoyan {
namespace {

// Deterministic per-(subtask, attempt) crash decision for fault injection.
bool injectCrash(const SubtaskRunnerOptions& options, const std::string& id,
                 int attempt) {
  if (options.failureProbability <= 0) return false;
  const size_t h = std::hash<std::string>{}(id) ^ (attempt * 0x9e3779b97f4a7c15ULL) ^
                   options.failureSeed;
  std::mt19937_64 rng(h);
  std::uniform_real_distribution<double> dist(0.0, 1.0);
  return dist(rng) < options.failureProbability;
}

}  // namespace

std::vector<double> subtaskDurationBoundsMs() {
  return {0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500,
          1000, 2500, 5000, 10000, 30000};
}

SubtaskRunner::SubtaskRunner(SubtaskRunnerOptions options)
    : options_(std::move(options)), tel_(obs::Telemetry::orDisabled(options_.telemetry)) {
  if (options_.workers == 0) options_.workers = 1;
  queue_.bindTelemetry(options_.emission.queueDepth, options_.emission.queueWait);
}

size_t SubtaskRunner::add(std::string id) {
  rows_.push_back(SubtaskMetric{std::move(id), 0, 0, 0, 0, false, SubtaskOutcome::kPending});
  return rows_.size() - 1;
}

void SubtaskRunner::cacheHit(size_t index, const std::string& key) {
  SubtaskMetric& row = rows_[index];
  row.fromCache = true;
  row.outcome = SubtaskOutcome::kSucceeded;
  tel_.journal().cacheHit(options_.emission.phase, row.id, key);
  if (options_.registry) {
    options_.registry->cacheHit();
    options_.registry->subtaskCached();
  }
}

void SubtaskRunner::cacheMiss(size_t index, const std::string& key) {
  tel_.journal().cacheMiss(options_.emission.phase, rows_[index].id, key);
  if (options_.registry) options_.registry->cacheMiss();
}

void SubtaskRunner::enqueue(size_t index) {
  queue_.push(Attempt{index, 1});
  ++queued_;
  tel_.journal().subtaskEnqueue(options_.emission.phase, rows_[index].id);
  if (options_.registry) options_.registry->subtaskEnqueued();
}

std::vector<std::string> SubtaskRunner::failedIds() const {
  std::vector<std::string> ids;
  for (const SubtaskMetric& row : rows_)
    if (row.outcome == SubtaskOutcome::kExhausted) ids.push_back(row.id);
  return ids;
}

void SubtaskRunner::apply(const Report& report) {
  SubtaskMetric& row = rows_[report.index];
  row.outcome = report.outcome;
  row.attempts = report.attempts;
  row.seconds = report.seconds;
}

void SubtaskRunner::run(const Body& body, const Settled& settled, bool cancel,
                        const MasterWork& onMaster) {
  std::exception_ptr masterError;
  const auto runOnMaster = [&] {
    if (!onMaster) return;
    try {
      onMaster();
    } catch (...) {
      masterError = std::current_exception();
    }
  };
  bool done = settled && settled();
  if (!(done && cancel) && queued_ > 0) {
    std::vector<std::thread> workers;
    threadsStarted_ = std::min(options_.workers, queued_);
    workers.reserve(threadsStarted_);
    for (size_t w = 0; w < threadsStarted_; ++w)
      workers.emplace_back(&SubtaskRunner::workerLoop, this, std::cref(body),
                           static_cast<int>(w));
    runOnMaster();
    // Retries go back onto the queue, so it stays open until every subtask
    // has resolved, or until the caller has settled and cancels the rest.
    for (size_t pending = queued_; pending > 0 && !(done && cancel); --pending) {
      apply(*reports_.pop());
      if (!done && settled) done = settled();
    }
    if (done && cancel) cancelled_ = true;
    queue_.close();
    for (std::thread& worker : workers) worker.join();
  } else {
    runOnMaster();
  }
  // Attempts that finished after the caller settled.
  while (const std::optional<Report> report = reports_.tryPop()) apply(*report);
  if (masterError) std::rethrow_exception(masterError);
}

void SubtaskRunner::workerLoop(const Body& body, int worker) {
  const SubtaskEmission& emit = options_.emission;
  obs::RunJournal& journal = tel_.journal();
  obs::RunRegistry* registry = options_.registry;
  while (const std::optional<Attempt> message = queue_.pop()) {
    if (cancelled_.load(std::memory_order_relaxed)) continue;
    const std::string& id = rows_[message->index].id;
    obs::Span span = tel_.tracer().span(emit.span, emit.category);
    span.arg("id", id);
    span.arg("attempt", std::to_string(message->attempt));
    journal.subtaskStart(emit.phase, id, message->attempt, worker);
    if (registry) registry->subtaskStarted(worker, id);
    // The working server may die mid-subtask (§3.2): injected, or thrown.
    bool crashed = injectCrash(options_, id, message->attempt);
    if (!crashed) {
      try {
        body(message->index, worker);
      } catch (const std::exception& e) {
        tel_.log().warn(emit.span + ".crashed", {{"id", id}, {"error", e.what()}});
        crashed = true;
      } catch (...) {
        tel_.log().warn(emit.span + ".crashed", {{"id", id}});
        crashed = true;
      }
    }
    if (crashed) {
      span.arg("outcome", "crashed");
      emit.crashed->add(1);
      if (registry) registry->subtaskCrashed(worker);
      if (message->attempt >= options_.maxAttempts) {
        tel_.log().error(emit.span + ".exhausted", {{"id", id}});
        emit.exhausted->add(1);
        journal.subtaskExhaust(emit.phase, id, message->attempt);
        if (registry) registry->subtaskExhausted();
        reports_.push(Report{message->index, SubtaskOutcome::kExhausted, message->attempt});
      } else {
        tel_.log().warn(emit.span + ".retry",
                        {{"id", id}, {"attempt", std::to_string(message->attempt)}});
        retries_.fetch_add(1);
        emit.retries->add(1);
        journal.subtaskRetry(emit.phase, id, message->attempt);
        if (registry) registry->subtaskRetried();
        queue_.push(Attempt{message->index, message->attempt + 1});
      }
      continue;
    }
    span.finish();
    emit.seconds->observe(span.seconds());
    emit.durationMs->observe(span.seconds() * 1e3);
    journal.subtaskFinish(emit.phase, id, message->attempt, worker, span.seconds());
    if (registry) registry->subtaskFinished(worker, span.seconds());
    emit.completed->add(1);
    reports_.push(Report{message->index, SubtaskOutcome::kSucceeded, message->attempt,
                         span.seconds()});
  }
}

}  // namespace hoyan
