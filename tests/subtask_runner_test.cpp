// Tests of the shared subtask runner (src/dist/subtask_runner.h): retry
// accounting across worker counts, exhaustion, thrown bodies, settling with
// and without cancellation, cache hits, the zero-work path, and the master
// thread's own work (`onMaster`).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>

#include "dist/subtask_runner.h"
#include "obs/telemetry.h"

namespace hoyan {
namespace {

SubtaskRunnerOptions runnerOptions(obs::Telemetry& tel, size_t workers) {
  obs::MetricsRegistry& metrics = tel.metrics();
  SubtaskRunnerOptions options;
  options.workers = workers;
  options.telemetry = &tel;
  options.emission = {"test",
                      "test.subtask",
                      "test",
                      &metrics.gauge("test.queue.depth"),
                      &metrics.histogram("test.queue.wait_seconds"),
                      &metrics.counter("test.retries"),
                      &metrics.counter("test.completed"),
                      &metrics.counter("test.crashed"),
                      &metrics.counter("test.exhausted"),
                      &metrics.histogram("test.seconds"),
                      &metrics.histogram("test.duration_ms", subtaskDurationBoundsMs())};
  return options;
}

void enqueueAll(SubtaskRunner& runner, size_t count) {
  for (size_t i = 0; i < count; ++i) runner.enqueue(runner.add("t-" + std::to_string(i)));
}

TEST(SubtaskRunnerTest, RetriesEqualExtraAttemptsAtEveryWorkerCount) {
  std::set<size_t> retriesSeen;
  for (const size_t workers : {1u, 3u, 6u}) {
    obs::Telemetry tel;
    SubtaskRunnerOptions options = runnerOptions(tel, workers);
    options.failureProbability = 0.35;
    options.failureSeed = 11;
    options.maxAttempts = 30;  // Retries fire; nothing exhausts.
    SubtaskRunner runner(options);
    enqueueAll(runner, 40);
    std::atomic<size_t> ran{0};
    runner.run([&](size_t, int) { ++ran; });
    ASSERT_TRUE(runner.succeeded()) << workers;
    EXPECT_EQ(ran.load(), 40u) << workers;
    size_t extraAttempts = 0;
    for (const SubtaskMetric& row : runner.rows()) {
      EXPECT_EQ(row.outcome, SubtaskOutcome::kSucceeded) << row.id;
      ASSERT_GE(row.attempts, 1) << row.id;
      extraAttempts += static_cast<size_t>(row.attempts - 1);
    }
    EXPECT_GT(runner.retries(), 0u) << "fault injection never fired";
    EXPECT_EQ(runner.retries(), extraAttempts) << workers;
    EXPECT_EQ(tel.metrics().counter("test.retries").value(), extraAttempts) << workers;
    EXPECT_EQ(tel.metrics().counter("test.completed").value(), 40u) << workers;
    retriesSeen.insert(runner.retries());
  }
  // Crashes are a function of (id, attempt, seed), not of scheduling.
  EXPECT_EQ(retriesSeen.size(), 1u);
}

TEST(SubtaskRunnerTest, ExhaustedSubtaskIsListedInFailedIds) {
  obs::Telemetry tel;
  SubtaskRunnerOptions options = runnerOptions(tel, 2);
  options.failureProbability = 1.0;  // Always crash.
  options.maxAttempts = 2;
  SubtaskRunner runner(options);
  enqueueAll(runner, 3);
  runner.run([](size_t, int) { FAIL() << "a crashed attempt ran its body"; });
  EXPECT_FALSE(runner.succeeded());
  EXPECT_EQ(runner.failedIds(), (std::vector<std::string>{"t-0", "t-1", "t-2"}));
  for (const SubtaskMetric& row : runner.rows()) {
    EXPECT_EQ(row.outcome, SubtaskOutcome::kExhausted) << row.id;
    EXPECT_EQ(row.attempts, 2) << row.id;
  }
  EXPECT_EQ(runner.retries(), 3u);
  EXPECT_EQ(tel.metrics().counter("test.exhausted").value(), 3u);
}

TEST(SubtaskRunnerTest, ThrowingBodyIsRetried) {
  obs::Telemetry tel;
  SubtaskRunner runner(runnerOptions(tel, 3));
  enqueueAll(runner, 5);
  std::mutex mutex;
  std::set<size_t> thrown;
  runner.run([&](size_t index, int) {
    std::lock_guard lock(mutex);
    if (thrown.insert(index).second) throw std::runtime_error("first attempt fails");
  });
  EXPECT_TRUE(runner.succeeded());
  EXPECT_EQ(runner.retries(), 5u);
  for (const SubtaskMetric& row : runner.rows()) {
    EXPECT_EQ(row.outcome, SubtaskOutcome::kSucceeded) << row.id;
    EXPECT_EQ(row.attempts, 2) << row.id;
  }
  EXPECT_EQ(tel.metrics().counter("test.crashed").value(), 5u);
}

TEST(SubtaskRunnerTest, SettledBeforeStartCancelsOrDrains) {
  for (const bool cancel : {true, false}) {
    obs::Telemetry tel;
    SubtaskRunner runner(runnerOptions(tel, 3));
    enqueueAll(runner, 6);
    std::atomic<size_t> ran{0};
    size_t settledCalls = 0;
    runner.run([&](size_t, int) { ++ran; },
               [&] {
                 ++settledCalls;
                 return true;
               },
               cancel);
    // Once settled, the callback is not consulted again.
    EXPECT_EQ(settledCalls, 1u) << cancel;
    if (cancel) {
      EXPECT_EQ(ran.load(), 0u);
      EXPECT_EQ(runner.threadsStarted(), 0u);
      for (const SubtaskMetric& row : runner.rows()) {
        EXPECT_EQ(row.outcome, SubtaskOutcome::kPending) << row.id;
        EXPECT_EQ(row.attempts, 0) << row.id;
      }
    } else {
      EXPECT_EQ(ran.load(), 6u);
      for (const SubtaskMetric& row : runner.rows())
        EXPECT_EQ(row.outcome, SubtaskOutcome::kSucceeded) << row.id;
    }
  }
}

TEST(SubtaskRunnerTest, SettledMidRunDropsQueuedSubtasksOnlyWhenCancelling) {
  constexpr size_t kSubtasks = 20;
  for (const bool cancel : {true, false}) {
    obs::Telemetry tel;
    SubtaskRunner runner(runnerOptions(tel, 1));
    enqueueAll(runner, kSubtasks);
    std::mutex mutex;
    std::vector<size_t> started;
    runner.run(
        [&](size_t index, int) {
          {
            std::lock_guard lock(mutex);
            started.push_back(index);
          }
          if (index > 0) std::this_thread::sleep_for(std::chrono::milliseconds(20));
        },
        [&] { return runner.rows()[0].outcome == SubtaskOutcome::kSucceeded; }, cancel);
    EXPECT_EQ(runner.rows()[0].outcome, SubtaskOutcome::kSucceeded);
    if (cancel) {
      // At most the subtask the worker had already claimed runs on; the
      // queued tail never starts.
      EXPECT_LT(started.size(), kSubtasks);
      EXPECT_EQ(runner.rows().back().outcome, SubtaskOutcome::kPending);
      EXPECT_EQ(runner.rows().back().attempts, 0);
    } else {
      EXPECT_EQ(started.size(), kSubtasks);
      for (const SubtaskMetric& row : runner.rows())
        EXPECT_EQ(row.outcome, SubtaskOutcome::kSucceeded) << row.id;
    }
  }
}

TEST(SubtaskRunnerTest, CacheHitsNeverRun) {
  obs::Telemetry tel;
  SubtaskRunner runner(runnerOptions(tel, 6));
  for (size_t i = 0; i < 5; ++i) {
    const size_t index = runner.add("t-" + std::to_string(i));
    if (i % 2 == 0)
      runner.cacheHit(index, "key-" + std::to_string(i));
    else
      runner.enqueue(index);
  }
  std::mutex mutex;
  std::set<size_t> ran;
  std::set<int> workers;
  runner.run([&](size_t index, int worker) {
    std::lock_guard lock(mutex);
    ran.insert(index);
    workers.insert(worker);
  });
  EXPECT_EQ(ran, (std::set<size_t>{1, 3}));
  EXPECT_EQ(runner.queued(), 2u);
  // Threads are capped by the queued subtasks, not the configured workers.
  EXPECT_EQ(runner.threadsStarted(), 2u);
  for (const int worker : workers) EXPECT_LT(worker, 2);
  for (const size_t i : {0u, 2u, 4u}) {
    const SubtaskMetric& row = runner.rows()[i];
    EXPECT_TRUE(row.fromCache) << row.id;
    EXPECT_EQ(row.outcome, SubtaskOutcome::kSucceeded) << row.id;
    EXPECT_EQ(row.attempts, 0) << row.id;
  }
  for (const size_t i : {1u, 3u}) EXPECT_FALSE(runner.rows()[i].fromCache);
}

TEST(SubtaskRunnerTest, NothingEnqueuedStartsNoThreads) {
  obs::Telemetry tel;
  SubtaskRunner runner(runnerOptions(tel, 4));
  runner.cacheHit(runner.add("t-0"), "key-0");
  size_t settledCalls = 0;
  runner.run([](size_t, int) { FAIL() << "nothing was queued"; },
             [&] {
               ++settledCalls;
               return false;
             });
  EXPECT_EQ(runner.threadsStarted(), 0u);
  EXPECT_EQ(settledCalls, 1u);
  EXPECT_TRUE(runner.succeeded());
}

// Waits up to `limit` for `ready`, under `mutex`; true when it became true.
bool waitFor(std::mutex& mutex, std::condition_variable& changed,
             const std::function<bool()>& ready,
             std::chrono::seconds limit = std::chrono::seconds(10)) {
  std::unique_lock lock(mutex);
  return changed.wait_for(lock, limit, ready);
}

TEST(SubtaskRunnerTest, MasterWorkRunsOnceOnTheCallerWhileWorkersRun) {
  for (const size_t workers : {1u, 3u, 6u}) {
    obs::Telemetry tel;
    SubtaskRunner runner(runnerOptions(tel, workers));
    enqueueAll(runner, 12);
    std::mutex mutex;
    std::condition_variable changed;
    size_t started = 0;
    bool masterDone = false;
    size_t bodiesSawMasterDone = 0;
    size_t masterCalls = 0;
    std::thread::id masterThread;
    // The master work waits for a worker to start, and every body waits for
    // the master work to finish. Both can only hold when the work runs after
    // the workers start and before the master collects their reports.
    runner.run(
        [&](size_t, int) {
          {
            std::lock_guard lock(mutex);
            ++started;
          }
          changed.notify_all();
          if (waitFor(mutex, changed, [&] { return masterDone; })) {
            std::lock_guard lock(mutex);
            ++bodiesSawMasterDone;
          }
        },
        {}, false,
        [&] {
          ++masterCalls;
          masterThread = std::this_thread::get_id();
          EXPECT_TRUE(waitFor(mutex, changed, [&] { return started > 0; })) << workers;
          {
            std::lock_guard lock(mutex);
            masterDone = true;
          }
          changed.notify_all();
        });
    EXPECT_EQ(masterCalls, 1u) << workers;
    EXPECT_EQ(masterThread, std::this_thread::get_id()) << workers;
    EXPECT_EQ(bodiesSawMasterDone, 12u) << workers;
    EXPECT_TRUE(runner.succeeded()) << workers;
  }
}

TEST(SubtaskRunnerTest, MasterWorkRunsWhenNothingIsQueued) {
  // Every subtask a cache hit, or the caller settled and cancelled before
  // the start: no worker starts, and the master work still runs once.
  for (const bool settledFirst : {false, true}) {
    obs::Telemetry tel;
    SubtaskRunner runner(runnerOptions(tel, 4));
    runner.cacheHit(runner.add("t-0"), "key-0");
    if (settledFirst) runner.enqueue(runner.add("t-1"));
    size_t masterCalls = 0;
    std::thread::id masterThread;
    runner.run([](size_t, int) { FAIL() << "no subtask may run"; },
               [&] { return settledFirst; }, /*cancel=*/true,
               [&] {
                 ++masterCalls;
                 masterThread = std::this_thread::get_id();
               });
    EXPECT_EQ(runner.threadsStarted(), 0u) << settledFirst;
    EXPECT_EQ(masterCalls, 1u) << settledFirst;
    EXPECT_EQ(masterThread, std::this_thread::get_id()) << settledFirst;
  }
}

TEST(SubtaskRunnerTest, ThrowingMasterWorkFinishesThePhaseThenPropagates) {
  constexpr size_t kSubtasks = 16;
  for (const size_t workers : {1u, 3u, 6u}) {
    obs::Telemetry tel;
    SubtaskRunner runner(runnerOptions(tel, workers));
    enqueueAll(runner, kSubtasks);
    std::atomic<size_t> finished{0};
    EXPECT_THROW(runner.run(
                     [&](size_t, int) {
                       std::this_thread::sleep_for(std::chrono::milliseconds(2));
                       ++finished;
                     },
                     {}, false, [] { throw std::runtime_error("render failed"); }),
                 std::runtime_error);
    // Every subtask ran and was reported back before the exception left
    // run(); an unjoined worker thread would have terminated the process.
    EXPECT_EQ(finished.load(), kSubtasks) << workers;
    for (const SubtaskMetric& row : runner.rows())
      EXPECT_EQ(row.outcome, SubtaskOutcome::kSucceeded) << row.id;
    EXPECT_EQ(tel.metrics().counter("test.completed").value(), kSubtasks) << workers;
  }
}

}  // namespace
}  // namespace hoyan
