// Tests of the distributed simulation framework: queue/store primitives,
// distributed == centralized result equivalence, failure retry, the ordering
// heuristic's dependency pruning, and the random-split comparison.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "dist/dist_sim.h"
#include "dist/message_queue.h"
#include "dist/object_store.h"
#include "gen/wan_gen.h"
#include "gen/workload_gen.h"
#include "obs/telemetry.h"

namespace hoyan {
namespace {

TEST(MessageQueueTest, FifoAndClose) {
  MessageQueue<int> queue;
  queue.push(1);
  queue.push(2);
  EXPECT_EQ(queue.pop(), 1);
  EXPECT_EQ(queue.pop(), 2);
  queue.close();
  EXPECT_FALSE(queue.pop().has_value());
}

TEST(MessageQueueTest, BlockingPopWakesOnPush) {
  MessageQueue<int> queue;
  std::atomic<int> got{0};
  std::thread consumer([&] { got = queue.pop().value_or(-1); });
  queue.push(42);
  consumer.join();
  EXPECT_EQ(got.load(), 42);
}

TEST(MessageQueueTest, CloseWakesAllConsumers) {
  MessageQueue<int> queue;
  std::vector<std::thread> consumers;
  std::atomic<int> finished{0};
  for (int i = 0; i < 4; ++i)
    consumers.emplace_back([&] {
      while (queue.pop().has_value()) {
      }
      ++finished;
    });
  queue.close();
  for (auto& t : consumers) t.join();
  EXPECT_EQ(finished.load(), 4);
}

TEST(ObjectStoreTest, TypedPutGetAndAccounting) {
  ObjectStore store;
  store.put("k", std::vector<int>{1, 2, 3}, 12);
  EXPECT_TRUE(store.contains("k"));
  const auto blob = store.get<std::vector<int>>("k");
  EXPECT_EQ(blob->size(), 3u);
  EXPECT_EQ(store.bytesWritten(), 12u);
  EXPECT_EQ(store.bytesRead(), 12u);
  EXPECT_EQ(store.readCount(), 1u);
  EXPECT_THROW(store.get<std::vector<int>>("missing"), std::out_of_range);
  store.erase("k");
  EXPECT_FALSE(store.contains("k"));
}

class DistSimTest : public ::testing::Test {
 protected:
  void SetUp() override {
    WanSpec spec;
    spec.regions = 3;
    wan_ = generateWan(spec);
    model_ = std::make_unique<NetworkModel>(wan_.buildModel());
    WorkloadSpec workload;
    workload.prefixesPerIsp = 24;
    workload.prefixesPerDc = 12;
    workload.v6Share = 0;
    inputs_ = generateInputRoutes(wan_, workload);
    flows_ = generateFlows(wan_, workload, 600);
  }

  GeneratedWan wan_;
  std::unique_ptr<NetworkModel> model_;
  std::vector<InputRoute> inputs_;
  std::vector<Flow> flows_;
};

TEST_F(DistSimTest, DistributedEqualsCentralizedRouteSimulation) {
  // Centralized reference.
  RouteSimOptions central;
  central.includeLocalRoutes = true;
  RouteSimResult reference = simulateRoutes(*model_, inputs_, central);

  DistSimOptions options;
  options.workers = 4;
  options.routeSubtasks = 16;
  DistributedSimulator sim(*model_, options);
  DistRouteResult distributed = sim.runRouteSimulation(inputs_);
  ASSERT_TRUE(distributed.succeeded);
  EXPECT_EQ(distributed.ribs.routeCount(), reference.ribs.routeCount());

  // Every best route agrees (spot check through all devices/prefixes).
  reference.ribs.buildForwardingIndex();
  for (const auto& [deviceId, deviceRib] : reference.ribs.devices()) {
    const DeviceRib* other = distributed.ribs.findDevice(deviceId);
    ASSERT_NE(other, nullptr);
    for (const auto& [vrfId, vrfRib] : deviceRib.vrfs()) {
      const VrfRib* otherVrf = other->findVrf(vrfId);
      ASSERT_NE(otherVrf, nullptr) << Names::str(deviceId);
      ASSERT_EQ(otherVrf->prefixCount(), vrfRib.prefixCount()) << Names::str(deviceId);
      for (const auto& [prefix, routes] : vrfRib.routes()) {
        const auto* otherRoutes = otherVrf->find(prefix);
        ASSERT_NE(otherRoutes, nullptr) << prefix.str();
        ASSERT_EQ(otherRoutes->size(), routes.size()) << prefix.str();
        // Best routes must be identical.
        EXPECT_TRUE(otherRoutes->front() == routes.front())
            << Names::str(deviceId) << " " << prefix.str() << "\n  ref:  "
            << routes.front().str() << "\n  dist: " << otherRoutes->front().str();
      }
    }
  }
}

TEST_F(DistSimTest, DistributedTrafficMatchesCentralized) {
  RouteSimOptions central;
  central.includeLocalRoutes = true;
  RouteSimResult reference = simulateRoutes(*model_, inputs_, central);
  reference.ribs.buildForwardingIndex();
  const TrafficSimResult referenceTraffic =
      simulateTraffic(*model_, reference.ribs, flows_);

  DistSimOptions options;
  options.workers = 4;
  options.routeSubtasks = 16;
  options.trafficSubtasks = 8;
  DistributedSimulator sim(*model_, options);
  ASSERT_TRUE(sim.runRouteSimulation(inputs_).succeeded);
  const DistTrafficResult distributed = sim.runTrafficSimulation(flows_);
  ASSERT_TRUE(distributed.succeeded);
  EXPECT_EQ(distributed.stats.inputFlows, flows_.size());
  // Per-link loads agree with the centralized run.
  for (const auto& entry : referenceTraffic.linkLoads.entries()) {
    EXPECT_NEAR(distributed.linkLoads.get(entry.from, entry.to), entry.bps,
                entry.bps * 1e-6 + 1e-6)
        << Names::str(entry.from) << "->" << Names::str(entry.to);
  }
}

TEST_F(DistSimTest, WorkerCrashesAreRetried) {
  DistSimOptions options;
  options.workers = 4;
  options.routeSubtasks = 12;
  options.workerFailureProbability = 0.4;
  options.failureSeed = 3;
  options.maxAttempts = 10;
  DistributedSimulator sim(*model_, options);
  const DistRouteResult result = sim.runRouteSimulation(inputs_);
  EXPECT_TRUE(result.succeeded);
  EXPECT_GT(result.retries, 0u);
  // Retried subtasks recorded multiple attempts in the subtask table.
  bool sawRetriedRecord = false;
  for (const SubtaskMetric& metric : result.subtasks)
    if (metric.attempts > 1) sawRetriedRecord = true;
  EXPECT_TRUE(sawRetriedRecord);
  // And the result still matches the centralized reference count.
  RouteSimOptions central;
  central.includeLocalRoutes = true;
  EXPECT_EQ(result.ribs.routeCount(), simulateRoutes(*model_, inputs_, central).ribs.routeCount());
}

TEST_F(DistSimTest, ExhaustedRetriesFailTheTask) {
  DistSimOptions options;
  options.workers = 2;
  options.routeSubtasks = 4;
  options.workerFailureProbability = 1.0;  // Always crash.
  options.maxAttempts = 2;
  DistributedSimulator sim(*model_, options);
  const DistRouteResult result = sim.runRouteSimulation(inputs_);
  EXPECT_FALSE(result.succeeded);
}

TEST_F(DistSimTest, OrderingHeuristicPrunesRibFileLoads) {
  DistSimOptions ordering;
  ordering.workers = 4;
  ordering.routeSubtasks = 16;
  ordering.trafficSubtasks = 8;
  ordering.strategy = SplitStrategy::kOrdering;
  DistributedSimulator orderingSim(*model_, ordering);
  ASSERT_TRUE(orderingSim.runRouteSimulation(inputs_).succeeded);
  const DistTrafficResult orderingResult = orderingSim.runTrafficSimulation(flows_);

  DistSimOptions random = ordering;
  random.strategy = SplitStrategy::kRandom;
  DistributedSimulator randomSim(*model_, random);
  ASSERT_TRUE(randomSim.runRouteSimulation(inputs_).succeeded);
  const DistTrafficResult randomResult = randomSim.runTrafficSimulation(flows_);

  const auto averageLoadedFraction = [](const DistTrafficResult& result) {
    double sum = 0;
    for (const SubtaskMetric& metric : result.subtasks)
      sum += static_cast<double>(metric.ribFilesLoaded) /
             static_cast<double>(metric.ribFilesTotal);
    return sum / static_cast<double>(result.subtasks.size());
  };
  const double orderingFraction = averageLoadedFraction(orderingResult);
  const double randomFraction = averageLoadedFraction(randomResult);
  // Ordering loads a strict subset; random needs (nearly) everything.
  EXPECT_LT(orderingFraction, randomFraction);
  EXPECT_GT(randomFraction, 0.9);
  // Both strategies still compute identical loads.
  for (const auto& entry : orderingResult.linkLoads.entries())
    EXPECT_NEAR(randomResult.linkLoads.get(entry.from, entry.to), entry.bps,
                entry.bps * 1e-6 + 1e-6);
}

TEST_F(DistSimTest, LoadAllBaselineReadsMoreBytes) {
  DistSimOptions pruned;
  pruned.workers = 2;
  pruned.routeSubtasks = 16;
  pruned.trafficSubtasks = 8;
  DistributedSimulator prunedSim(*model_, pruned);
  ASSERT_TRUE(prunedSim.runRouteSimulation(inputs_).succeeded);
  const DistTrafficResult prunedResult = prunedSim.runTrafficSimulation(flows_);

  DistSimOptions baseline = pruned;
  baseline.loadAllRibs = true;
  DistributedSimulator baselineSim(*model_, baseline);
  ASSERT_TRUE(baselineSim.runRouteSimulation(inputs_).succeeded);
  const DistTrafficResult baselineResult = baselineSim.runTrafficSimulation(flows_);

  EXPECT_LT(prunedResult.storeBytesRead, baselineResult.storeBytesRead);
}

TEST_F(DistSimTest, SpansCoverEverySubtaskAttemptIncludingRetries) {
  // Under fault injection, every attempt — the completed ones *and* the
  // crashed-then-retried ones — must show up as a subtask span, and the
  // retry counter must agree with the task results.
  obs::TelemetryOptions telemetryOptions;
  telemetryOptions.tracing = true;
  obs::Telemetry telemetry(telemetryOptions);

  DistSimOptions options;
  options.workers = 4;
  options.routeSubtasks = 12;
  options.trafficSubtasks = 8;
  options.workerFailureProbability = 0.4;
  options.failureSeed = 3;
  options.maxAttempts = 10;
  options.telemetry = &telemetry;
  DistributedSimulator sim(*model_, options);
  const DistRouteResult route = sim.runRouteSimulation(inputs_);
  ASSERT_TRUE(route.succeeded);
  const DistTrafficResult traffic = sim.runTrafficSimulation(flows_);
  ASSERT_TRUE(traffic.succeeded);
  EXPECT_GT(route.retries + traffic.retries, 0u) << "fault injection never fired";

  const auto countSpans = [&](const std::string& name) {
    size_t n = 0;
    for (const obs::TraceEvent& event : telemetry.tracer().events())
      if (event.name == name) ++n;
    return n;
  };
  EXPECT_EQ(countSpans("route.subtask"), route.subtasks.size() + route.retries);
  EXPECT_EQ(countSpans("traffic.subtask"), traffic.subtasks.size() + traffic.retries);
  // Successful attempts additionally record an execute phase; crashed ones
  // die before reaching it.
  EXPECT_EQ(countSpans("route.subtask.execute"), route.subtasks.size());
  EXPECT_EQ(countSpans("traffic.subtask.execute"), traffic.subtasks.size());
  EXPECT_EQ(countSpans("route.task"), 1u);
  EXPECT_EQ(countSpans("route.split"), 1u);
  EXPECT_EQ(countSpans("route.merge"), 1u);

  obs::MetricsRegistry& metrics = telemetry.metrics();
  EXPECT_EQ(metrics.counter("dist.retries").value(), route.retries + traffic.retries);
  EXPECT_EQ(metrics.counter("dist.subtasks.completed").value(),
            route.subtasks.size() + traffic.subtasks.size());
}

TEST_F(DistSimTest, SubtaskRuntimesAreRecorded) {
  DistSimOptions options;
  options.workers = 2;
  options.routeSubtasks = 8;
  DistributedSimulator sim(*model_, options);
  const DistRouteResult result = sim.runRouteSimulation(inputs_);
  ASSERT_TRUE(result.succeeded);
  EXPECT_GE(result.subtasks.size(), 8u);
  for (const SubtaskMetric& metric : result.subtasks) EXPECT_GE(metric.seconds, 0.0);
}

TEST(ObjectStoreTest, ByteAccountingRoundTripsToZero) {
  ObjectStore store;
  store.put("run1/a", std::string("aa"), 100);
  store.put("run1/b", std::string("bb"), 200);
  store.put("cas/r/x", std::string("xx"), 300);
  EXPECT_EQ(store.liveBytes(), 600u);
  EXPECT_EQ(store.blobCount(), 3u);
  // Overwrite replaces the old blob's bytes instead of double-counting.
  store.put("cas/r/x", std::string("yy"), 50);
  EXPECT_EQ(store.liveBytes(), 350u);
  EXPECT_EQ(store.blobCount(), 3u);

  EXPECT_FALSE(store.erase("missing"));
  EXPECT_TRUE(store.erase("cas/r/x"));
  EXPECT_EQ(store.liveBytes(), 300u);
  EXPECT_EQ(store.erasePrefix("run1/"), 2u);
  EXPECT_EQ(store.liveBytes(), 0u);
  EXPECT_EQ(store.blobCount(), 0u);

  // Cumulative traffic counters survive deletion; clear() resets residency
  // only.
  const size_t written = store.bytesWritten();
  EXPECT_GT(written, 0u);
  store.put("again", std::string("zz"), 10);
  store.clear();
  EXPECT_EQ(store.liveBytes(), 0u);
  EXPECT_EQ(store.blobCount(), 0u);
  EXPECT_EQ(store.bytesWritten(), written + 10);
}

TEST_F(DistSimTest, ExhaustedSubtasksAreSurfacedWithCounter) {
  obs::Telemetry telemetry{{}};
  DistSimOptions options;
  options.workers = 2;
  options.routeSubtasks = 4;
  options.workerFailureProbability = 1.0;  // Always crash.
  options.maxAttempts = 2;
  options.telemetry = &telemetry;
  DistributedSimulator sim(*model_, options);
  const DistRouteResult result = sim.runRouteSimulation(inputs_);
  EXPECT_FALSE(result.succeeded);
  ASSERT_FALSE(result.failedSubtasks.empty());
  EXPECT_EQ(result.failedSubtasks.size(),
            telemetry.metrics().counter("dist.subtask_exhausted").value());
  // Every surfaced id names a subtask that exhausted its attempts.
  for (const std::string& id : result.failedSubtasks) {
    const auto record =
        std::find_if(result.subtasks.begin(), result.subtasks.end(),
                     [&](const SubtaskMetric& metric) { return metric.id == id; });
    ASSERT_NE(record, result.subtasks.end()) << id;
    EXPECT_EQ(record->outcome, SubtaskOutcome::kExhausted) << id;
    EXPECT_EQ(record->attempts, options.maxAttempts) << id;
  }
}

TEST_F(DistSimTest, ExhaustedTrafficSubtasksAreSurfaced) {
  // Route phase runs clean into a shared store; a second simulator with
  // certain crashes then runs only the traffic phase against it.
  ObjectStore shared;
  DistSimOptions clean;
  clean.workers = 2;
  clean.routeSubtasks = 8;
  clean.store = &shared;
  DistributedSimulator routeSim(*model_, clean);
  ASSERT_TRUE(routeSim.runRouteSimulation(inputs_).succeeded);

  DistSimOptions crashing = clean;
  crashing.trafficSubtasks = 4;
  crashing.workerFailureProbability = 1.0;
  crashing.maxAttempts = 2;
  DistributedSimulator trafficSim(*model_, crashing);
  const DistTrafficResult result = trafficSim.runTrafficSimulation(flows_);
  EXPECT_FALSE(result.succeeded);
  EXPECT_FALSE(result.failedSubtasks.empty());
}

TEST_F(DistSimTest, RetriesEqualExtraAttemptsAtEveryWorkerCount) {
  // Invariant linking the result-level retry count to per-subtask attempts:
  // every retry re-queued exactly one subtask, so
  //   retries == sum over ran subtasks of (attempts - 1),
  // with exhausted subtasks contributing maxAttempts - 1.
  for (const size_t workers : {1u, 3u, 6u}) {
    DistSimOptions options;
    options.workers = workers;
    options.routeSubtasks = 10;
    options.trafficSubtasks = 6;
    options.workerFailureProbability = 0.35;
    options.failureSeed = 11;
    options.maxAttempts = 8;
    DistributedSimulator sim(*model_, options);
    const DistRouteResult route = sim.runRouteSimulation(inputs_);
    ASSERT_TRUE(route.succeeded) << workers;
    const DistTrafficResult traffic = sim.runTrafficSimulation(flows_);
    ASSERT_TRUE(traffic.succeeded) << workers;
    size_t extraAttempts = 0;
    for (const auto* phase : {&route.subtasks, &traffic.subtasks}) {
      for (const SubtaskMetric& record : *phase) {
        ASSERT_GE(record.attempts, 1) << record.id;
        extraAttempts += static_cast<size_t>(record.attempts - 1);
      }
    }
    EXPECT_EQ(route.retries + traffic.retries, extraAttempts) << workers;
    // The same per-subtask attempts surface through the result metrics.
    size_t metricExtra = 0;
    for (const SubtaskMetric& metric : route.subtasks)
      metricExtra += static_cast<size_t>(metric.attempts - 1);
    EXPECT_EQ(route.retries, metricExtra) << workers;
  }
}

TEST_F(DistSimTest, ThrowingMasterWorkClosesTheTrafficPhase) {
  // A throw from the master-thread work leaves runTrafficSimulation only
  // after every worker joined and the traffic.exec phase was closed.
  obs::TelemetryOptions telemetryOptions;
  telemetryOptions.journal = true;
  obs::Telemetry telemetry(telemetryOptions);

  DistSimOptions options;
  options.workers = 3;
  options.routeSubtasks = 8;
  options.trafficSubtasks = 6;
  options.telemetry = &telemetry;
  DistributedSimulator sim(*model_, options);
  ASSERT_TRUE(sim.runRouteSimulation(inputs_).succeeded);
  EXPECT_THROW(sim.runTrafficSimulation(
                   flows_, [] { throw std::runtime_error("render failed"); }),
               std::runtime_error);

  const std::string journal = telemetry.journal().toJsonl();
  const auto count = [&](const std::string& event) {
    size_t n = 0;
    std::istringstream lines(journal);
    for (std::string line; std::getline(lines, line);)
      if (line.find("\"ev\":\"" + event + "\"") != std::string::npos &&
          line.find("\"phase\":\"traffic.exec\"") != std::string::npos)
        ++n;
    return n;
  };
  EXPECT_EQ(count("phase_begin"), 1u) << journal;
  EXPECT_EQ(count("phase_end"), 1u) << journal;
}

}  // namespace
}  // namespace hoyan
