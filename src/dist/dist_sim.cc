#include "dist/dist_sim.h"

#include "obs/provenance.h"
#include "sim/local_routes.h"

#include <algorithm>
#include <chrono>
#include <random>

namespace hoyan {
namespace {

size_t approxRouteBytes(size_t routes) { return routes * 96; }
size_t approxRibBytes(const NetworkRibs& ribs) { return ribs.routeCount() * 96; }
size_t approxFlowBytes(size_t flows) { return flows * 48; }

// The split order of one phase's inputs: sorted under the ordering strategy,
// shuffled (seeded per run) under the random one.
template <typename T, typename Less>
std::shared_ptr<const std::vector<T>> orderInputs(std::span<const T> inputs,
                                                  SplitStrategy strategy,
                                                  uint64_t shuffleSeed, Less less) {
  std::vector<T> ordered(inputs.begin(), inputs.end());
  if (strategy == SplitStrategy::kOrdering) {
    std::stable_sort(ordered.begin(), ordered.end(), less);
  } else {
    std::mt19937_64 rng(shuffleSeed);
    std::shuffle(ordered.begin(), ordered.end(), rng);
  }
  return std::make_shared<const std::vector<T>>(std::move(ordered));
}

// The runner for one phase, publishing under the dist metric names.
SubtaskRunnerOptions runnerOptions(const DistSimOptions& options, obs::Telemetry& tel,
                                   obs::RunRegistry* registry, const std::string& phase) {
  obs::MetricsRegistry& metrics = tel.metrics();
  return {
      .workers = options.workers,
      .maxAttempts = options.maxAttempts,
      .failureProbability = options.workerFailureProbability,
      .failureSeed = options.failureSeed,
      .telemetry = &tel,
      .registry = registry,
      .emission = {phase, phase + ".subtask", "dist",
                   &metrics.gauge("mq.depth", "Subtask messages queued, not yet claimed."),
                   &metrics.histogram("mq.wait_seconds", {},
                                      "Seconds a subtask message waited in the queue."),
                   &metrics.counter("dist.retries",
                                    "Subtask attempts re-enqueued after a worker crash."),
                   &metrics.counter("dist.subtasks.completed"),
                   &metrics.counter("dist.subtasks.crashed"),
                   &metrics.counter("dist.subtask_exhausted"),
                   &metrics.histogram("dist.subtask_seconds"),
                   &metrics.histogram("dist.subtask_duration_ms." + phase,
                                      subtaskDurationBoundsMs())},
  };
}

void addRouteStats(RouteSimStats& into, const RouteSimStats& stats) {
  into.simulatedInputs += stats.simulatedInputs;
  into.messagesProcessed += stats.messagesProcessed;
  into.rounds = std::max(into.rounds, stats.rounds);
  into.converged = into.converged && stats.converged;
  into.ec.inputRoutes += stats.ec.inputRoutes;
  into.ec.classes += stats.ec.classes;
  into.ec.prefixClasses += stats.ec.prefixClasses;
  into.ecSeconds += stats.ecSeconds;
  into.propagateSeconds += stats.propagateSeconds;
  into.materializeSeconds += stats.materializeSeconds;
  into.policy.add(stats.policy);
}

double secondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

}  // namespace

DistributedSimulator::DistributedSimulator(const NetworkModel& model,
                                           DistSimOptions options)
    : model_(model), options_(std::move(options)) {
  if (options_.workers == 0) options_.workers = 1;
  if (options_.routeSubtasks == 0) options_.routeSubtasks = 1;
  if (options_.trafficSubtasks == 0) options_.trafficSubtasks = 1;
  telemetry_ = options_.telemetry ? options_.telemetry : obs::Telemetry::global();
  if (!telemetry_) telemetry_ = &obs::Telemetry::disabled();
  registry_ = options_.runRegistry ? options_.runRegistry : obs::RunRegistry::global();
  store_ = options_.store ? options_.store : &ownStore_;
  obs::MetricsRegistry& metrics = telemetry_->metrics();
  store_->bindTelemetry(
      &metrics.gauge("store.blobs", "Live blobs in the object store."),
      &metrics.gauge("store.live_bytes", "Bytes held by live object-store blobs."),
      &metrics.counter("store.bytes_read", "Bytes read from the object store."),
      &metrics.counter("store.bytes_written", "Bytes written to the object store."));
}

std::vector<std::string> DistributedSimulator::routeResultKeys() const {
  std::vector<std::string> keys;
  keys.reserve(routeFiles_.size());
  for (const RouteFile& file : routeFiles_) keys.push_back(file.resultKey);
  return keys;
}

DistRouteResult DistributedSimulator::runRouteSimulation(
    std::span<const InputRoute> inputs) {
  obs::Telemetry& tel = *telemetry_;
  obs::Span taskSpan = tel.tracer().span("route.task", "dist");
  taskSpan.arg("inputs", std::to_string(inputs.size()));
  tel.log().info("route.task.start", {{"inputs", std::to_string(inputs.size())},
                                      {"workers", std::to_string(options_.workers)}});
  DistRouteResult result;
  routeFiles_.clear();
  // Master-side provenance sink (same resolution as the engine: explicit
  // option, else the process-global --explain hook). Subtasks record into
  // private recorders; the master appends them in subtask order below, so the
  // merged event log is identical for every worker count.
  obs::ProvenanceRecorder* prov = options_.routeOptions.provenance
                                      ? options_.routeOptions.provenance
                                      : obs::ProvenanceRecorder::global();
  if (prov && !prov->enabled()) prov = nullptr;
  // Result cache: recording runs participate too. Every executed subtask
  // stores its compressed event log under `<result key>#prov`, so a later
  // hit *replays* the original execution's events at merge time. A hit is
  // only served when a blob recorded under the same filter/caps is resident;
  // otherwise the subtask re-runs (never replaying mismatched events).
  SubtaskResultCache* cache = options_.cache;
  obs::RunJournal& journal = tel.journal();
  const uint64_t provFp =
      prov ? obs::provenanceOptionsFingerprint(prov->options()) : 0;
  // True when serving a hit on `resultKey` would not lose or corrupt this
  // run's provenance. A missing *result* blob is a plain miss, not a bypass.
  const auto provReplayable = [&](const std::string& resultKey) {
    if (!prov) return true;
    if (!store_->contains(resultKey)) return true;
    const std::string provKey = resultKey + "#prov";
    return store_->contains(provKey) &&
           store_->get<obs::CompressedRouteEvents>(provKey)->filterFp == provFp;
  };

  // --- master: prepare subtasks -------------------------------------------
  journal.phaseBegin("route.split");
  if (registry_) registry_->phase("route.split");
  obs::Span splitSpan = tel.tracer().span("route.split", "dist");
  // The sorted order is a pure function of the input set, so an unchanged set
  // reuses the previous run's copy instead of re-sorting (ordering strategy
  // only — the random shuffle is seeded per run).
  SplitPlanCache* splitCache =
      options_.strategy == SplitStrategy::kOrdering ? options_.splitCache : nullptr;
  std::shared_ptr<const std::vector<InputRoute>> orderedShared =
      splitCache ? splitCache->cachedRouteOrder(inputs) : nullptr;
  if (!orderedShared) {
    // Order by the last IP address of the prefix; keep same-prefix routes
    // adjacent (§3.2 — done offline by the input-route building service).
    orderedShared = orderInputs(inputs, options_.strategy, options_.failureSeed * 7919 + 13,
                                [](const InputRoute& a, const InputRoute& b) {
                                  const IpAddress lastA = a.route.prefix.lastAddress();
                                  const IpAddress lastB = b.route.prefix.lastAddress();
                                  if (!(lastA == lastB)) return lastA < lastB;
                                  return a.route.prefix < b.route.prefix;
                                });
    if (splitCache) splitCache->storeRouteOrder(orderedShared);
  }
  const std::span<const InputRoute> ordered(*orderedShared);

  SubtaskRunner runner(runnerOptions(options_, tel, registry_, "route"));
  // Per-subtask plan, indexed like the runner's rows. An empty chunk marks
  // the dedicated local-routes subtask (direct/static/IS-IS).
  struct RouteSubtask {
    RouteFile file;
    std::string inputKey;
    RouteSimStats stats;  // Written by the subtask's worker.
  };
  std::vector<RouteSubtask> subtasks;
  const auto addSubtask = [&](const std::string& id, std::span<const InputRoute> chunk) {
    const size_t index = runner.add(id);
    RouteSubtask& sub = subtasks.emplace_back();
    sub.file.isLocal = chunk.empty();
    sub.inputKey = options_.keyPrefix + id + "/input";
    if (!sub.file.isLocal) {
      // Record the address range the subtask's routes cover (§3.2).
      IpRange range{chunk.front().route.prefix.firstAddress(),
                    chunk.front().route.prefix.lastAddress()};
      for (const InputRoute& input : chunk) range.extend(input.route.prefix);
      sub.file.coverage = range;
    }
    sub.file.resultKey = !cache ? options_.keyPrefix + id + "/result"
                         : sub.file.isLocal
                             ? cache->localRoutesResultKey()
                             : cache->routeResultKey(chunk, sub.file.coverage);
    const std::string& key = sub.file.resultKey;
    if (cache) {
      const bool provOk = provReplayable(key);
      if (!provOk) {
        cache->noteBypass();
        journal.cacheBypass("prov_filter_mismatch", id, key);
        if (registry_) registry_->cacheBypass();
      }
      if (provOk && cache->lookup(key)) {
        // Served from the store at merge time — a cache read, not sim work.
        // The chunk is never materialized: nobody will load its inputs.
        runner.cacheHit(index, key);
        ++result.cacheHits;
        return;
      }
      if (provOk) runner.cacheMiss(index, key);
    }
    if (!chunk.empty())
      store_->put(sub.inputKey,
                  std::vector<InputRoute>(chunk.begin(), chunk.end()),
                  approxRouteBytes(chunk.size()));
    runner.enqueue(index);
  };
  const size_t subtaskCount = std::min(options_.routeSubtasks,
                                       std::max<size_t>(ordered.size(), 1));
  size_t cursor = 0;
  for (size_t i = 0; i < subtaskCount; ++i) {
    const size_t begin = cursor;
    size_t end = std::max(begin, ordered.size() * (i + 1) / subtaskCount);
    if (i + 1 == subtaskCount) end = ordered.size();
    // Keep routes with the same prefix in the same subtask.
    while (end > begin && end < ordered.size() &&
           ordered[end].route.prefix == ordered[end - 1].route.prefix)
      ++end;
    cursor = end;
    if (begin >= end) continue;
    addSubtask("route-" + std::to_string(subtasks.size()),
               ordered.subspan(begin, end - begin));
  }
  addSubtask("route-local", {});
  splitSpan.arg("subtasks", std::to_string(subtasks.size()));
  splitSpan.finish();
  result.splitSeconds = splitSpan.seconds();
  journal.phaseEnd("route.split", splitSpan.seconds());
  tel.metrics().counter("dist.route.subtasks").add(subtasks.size());

  // --- workers --------------------------------------------------------------
  const auto body = [&](size_t index, int) {
    RouteSubtask& sub = subtasks[index];
    obs::Span executeSpan = tel.tracer().span("route.subtask.execute", "dist");
    NetworkRibs ribs;
    RouteSimStats stats;
    // Private per-subtask recorder (same filter/caps as the master's):
    // concurrent subtasks must not interleave events in a shared sink.
    obs::ProvenanceRecorder subProv(prov ? prov->options() : obs::ProvenanceOptions{});
    if (sub.file.isLocal) {
      installLocalRoutes(model_, ribs, prov ? &subProv : nullptr);
    } else {
      const auto chunk = store_->get<std::vector<InputRoute>>(sub.inputKey);
      RouteSimOptions subOptions = options_.routeOptions;
      subOptions.includeLocalRoutes = false;
      subOptions.telemetry = telemetry_;
      subOptions.provenance = prov ? &subProv : nullptr;
      // Subtask-local selection is provisional (the master re-selects after
      // merging); selection events come from the merged RIBs below.
      subOptions.provenanceSelectionEvents = false;
      RouteSimResult subResult = simulateRoutes(model_, *chunk, subOptions);
      ribs = std::move(subResult.ribs);
      stats = subResult.stats;
    }
    executeSpan.finish();
    obs::Span uploadSpan = tel.tracer().span("route.subtask.upload", "dist");
    const std::string& resultKey = sub.file.resultKey;
    const size_t resultBytes = approxRibBytes(ribs);
    store_->put(resultKey, std::move(ribs), resultBytes);
    size_t provBytes = 0;
    if (prov) {
      // Compressed event log rides along under `<result key>#prov` so a
      // future recording run's hit replays these exact events.
      const std::vector<obs::RouteEvent> events = subProv.snapshot();
      obs::CompressedRouteEvents blob;
      blob.filterFp = provFp;
      blob.eventCount = events.size();
      blob.bytes = obs::compressRouteEvents(events);
      provBytes = blob.bytes.size() + 32;
      store_->put(resultKey + "#prov", std::move(blob), provBytes);
    }
    if (cache) {
      // Replayable stats ride along so a future hit merges identically.
      constexpr size_t kStatsBytes = 128;
      store_->put(resultKey + "#stats", stats, kStatsBytes);
      cache->stored(resultKey, resultBytes + kStatsBytes + provBytes);
    }
    sub.stats = stats;
  };
  journal.phaseBegin("route.exec");
  if (registry_) registry_->phase("route.exec");
  const auto execStart = std::chrono::steady_clock::now();
  runner.run(body);
  journal.phaseEnd("route.exec", secondsSince(execStart));
  result.retries = runner.retries();
  result.succeeded = runner.succeeded();
  result.failedSubtasks = runner.failedIds();

  // --- master: merge in subtask order ---------------------------------------
  journal.phaseBegin("route.merge");
  if (registry_) registry_->phase("route.merge");
  obs::Span mergeSpan = tel.tracer().span("route.merge", "dist");
  result.subtasks = runner.rows();
  for (size_t i = 0; i < subtasks.size(); ++i) {
    const SubtaskMetric& row = runner.rows()[i];
    const RouteSubtask& sub = subtasks[i];
    if (row.outcome != SubtaskOutcome::kSucceeded) continue;
    const std::string& resultKey = sub.file.resultKey;
    result.ribs.merge(*store_->get<NetworkRibs>(resultKey));
    // A cache hit replays the stats the original execution stored.
    const std::string statsKey = resultKey + "#stats";
    if (!row.fromCache)
      addRouteStats(result.stats, sub.stats);
    else if (store_->contains(statsKey))
      addRouteStats(result.stats, *store_->get<RouteSimStats>(statsKey));
    // Ordered provenance merge: append each subtask's event log in subtask
    // order (not worker completion order). Cache hits replay the blob their
    // original execution stored.
    const std::string provKey = resultKey + "#prov";
    if (prov && store_->contains(provKey)) {
      const auto blob = store_->get<obs::CompressedRouteEvents>(provKey);
      prov->append(obs::decompressRouteEvents(blob->bytes));
    }
    routeFiles_.push_back(sub.file);
  }
  dedupeRoutes(result.ribs);
  reselectAll(result.ribs);
  // Authoritative selection events from the merged, re-selected RIBs.
  if (prov) recordSelectionEvents(result.ribs, prov);
  result.ribs.buildForwardingIndex();
  // One master-side kernel event per route phase: per-subtask sums are
  // deterministic (L1-level regex accounting), so the aggregate — and the
  // canonical journal — is byte-identical for any worker count. Cache-served
  // subtasks replay the stats their original execution stored.
  journal.policyKernel("route", result.stats.policy.memoHits,
                       result.stats.policy.memoMisses,
                       result.stats.policy.regexCacheHits,
                       result.stats.policy.regexCacheMisses);
  mergeSpan.finish();
  result.mergeSeconds = mergeSpan.seconds();
  journal.phaseEnd("route.merge", mergeSpan.seconds());
  result.stats.installedRoutes = result.ribs.routeCount();
  result.stats.inputRoutes = inputs.size();
  taskSpan.finish();
  result.elapsedSeconds = taskSpan.seconds();
  tel.log().info("route.task.done",
                 {{"seconds", std::to_string(result.elapsedSeconds)},
                  {"routes", std::to_string(result.stats.installedRoutes)},
                  {"retries", std::to_string(result.retries)},
                  {"succeeded", result.succeeded ? "true" : "false"}});
  return result;
}

DistTrafficResult DistributedSimulator::runTrafficSimulation(
    std::span<const Flow> flows, const SubtaskRunner::MasterWork& onMaster) {
  obs::Telemetry& tel = *telemetry_;
  obs::Span taskSpan = tel.tracer().span("traffic.task", "dist");
  taskSpan.arg("flows", std::to_string(flows.size()));
  tel.log().info("traffic.task.start", {{"flows", std::to_string(flows.size())},
                                        {"workers", std::to_string(options_.workers)}});
  DistTrafficResult result;
  const size_t storeReadsBefore = store_->bytesRead();
  // Result cache: traffic subtasks record no provenance events, and with the
  // route phase keeping its content keys under recording (events replay from
  // `#prov` blobs), traffic content keys stay stable too — no bypass needed.
  SubtaskResultCache* cache = options_.cache;
  obs::RunJournal& journal = tel.journal();

  // Dependency pruning (§3.2): a route result file is needed when its
  // recorded coverage overlaps the subtask's destination range. The
  // local-routes file is always needed (nexthop/loopback routes).
  const auto ribNeeded = [&](const RouteFile& file,
                             const std::optional<IpRange>& dstRange) {
    return options_.loadAllRibs || file.isLocal || !file.coverage || !dstRange ||
           dstRange->overlaps(*file.coverage);
  };

  // --- master: prepare subtasks ----------------------------------------------
  journal.phaseBegin("traffic.split");
  if (registry_) registry_->phase("traffic.split");
  obs::Span splitSpan = tel.tracer().span("traffic.split", "dist");
  SplitPlanCache* splitCache =
      options_.strategy == SplitStrategy::kOrdering ? options_.splitCache : nullptr;
  std::shared_ptr<const std::vector<Flow>> orderedShared =
      splitCache ? splitCache->cachedFlowOrder(flows) : nullptr;
  if (!orderedShared) {
    // Order by destination address (§3.2 — done offline by the input-flow
    // building service).
    orderedShared = orderInputs(flows, options_.strategy, options_.failureSeed * 104729 + 41,
                                [](const Flow& a, const Flow& b) { return a.dst < b.dst; });
    if (splitCache) splitCache->storeFlowOrder(orderedShared);
  }
  const std::span<const Flow> ordered(*orderedShared);

  SubtaskRunner runner(runnerOptions(options_, tel, registry_, "traffic"));
  // Per-subtask plan and output, indexed like the runner's rows. Outputs are
  // merged by the master in subtask order after the workers join: float
  // addition is not associative, so merging in worker *completion* order
  // would make link loads depend on the worker count.
  struct TrafficSubtask {
    std::string inputKey;
    std::string resultKey;
    std::optional<IpRange> dstRange;
    TrafficSubtaskResult output;  // Cached blob, or written by the worker.
  };
  std::vector<TrafficSubtask> subtasks;
  const size_t subtaskCount =
      std::min(options_.trafficSubtasks, std::max<size_t>(ordered.size(), 1));
  for (size_t i = 0; i < subtaskCount; ++i) {
    const size_t begin = ordered.size() * i / subtaskCount;
    const size_t end = ordered.size() * (i + 1) / subtaskCount;
    if (begin >= end) continue;
    const std::span<const Flow> slice = ordered.subspan(begin, end - begin);
    const std::string id = "traffic-" + std::to_string(subtasks.size());
    const size_t index = runner.add(id);
    TrafficSubtask& sub = subtasks.emplace_back();
    sub.inputKey = options_.keyPrefix + id + "/input";
    sub.resultKey = options_.keyPrefix + id + "/result";
    for (const Flow& flow : slice) {
      if (!sub.dstRange)
        sub.dstRange = IpRange{flow.dst, flow.dst};
      else
        sub.dstRange->extend(flow.dst);
    }
    if (cache) {
      // The content key names exactly the route result files the subtask
      // would load, so route dirtiness composes into traffic keys.
      std::vector<std::string> ribKeys;
      for (const RouteFile& file : routeFiles_)
        if (ribNeeded(file, sub.dstRange)) ribKeys.push_back(file.resultKey);
      sub.resultKey = cache->trafficResultKey(slice, ribKeys);
      if (cache->lookup(sub.resultKey)) {
        runner.cacheHit(index, sub.resultKey);
        sub.output = *store_->get<TrafficSubtaskResult>(sub.resultKey);
        ++result.cacheHits;
        continue;
      }
      runner.cacheMiss(index, sub.resultKey);
    }
    store_->put(sub.inputKey, std::vector<Flow>(slice.begin(), slice.end()),
                approxFlowBytes(slice.size()));
    runner.enqueue(index);
  }
  splitSpan.arg("subtasks", std::to_string(subtasks.size()));
  splitSpan.finish();
  result.splitSeconds = splitSpan.seconds();
  journal.phaseEnd("traffic.split", splitSpan.seconds());
  tel.metrics().counter("dist.traffic.subtasks").add(subtasks.size());

  // --- workers -----------------------------------------------------------------
  obs::Counter& ribFilesLoaded = tel.metrics().counter("dist.traffic.rib_files_loaded");
  obs::Counter& ribFilesSkipped = tel.metrics().counter("dist.traffic.rib_files_skipped");
  const auto body = [&](size_t index, int) {
    TrafficSubtask& sub = subtasks[index];
    const auto chunk = store_->get<std::vector<Flow>>(sub.inputKey);
    obs::Span loadSpan = tel.tracer().span("traffic.subtask.load_ribs", "dist");
    NetworkRibs ribs;
    size_t loaded = 0;
    for (const RouteFile& file : routeFiles_) {
      if (!ribNeeded(file, sub.dstRange)) continue;
      ribs.merge(*store_->get<NetworkRibs>(file.resultKey));
      ++loaded;
    }
    dedupeRoutes(ribs);
    reselectAll(ribs);
    ribs.buildForwardingIndex();
    loadSpan.arg("loaded", std::to_string(loaded));
    loadSpan.finish();
    ribFilesLoaded.add(loaded);
    ribFilesSkipped.add(routeFiles_.size() - loaded);
    obs::Span executeSpan = tel.tracer().span("traffic.subtask.execute", "dist");
    TrafficSimOptions subOptions = options_.trafficOptions;
    subOptions.telemetry = telemetry_;
    const TrafficSimResult subResult = simulateTraffic(model_, ribs, *chunk, subOptions);
    executeSpan.finish();
    obs::Span uploadSpan = tel.tracer().span("traffic.subtask.upload", "dist");
    TrafficSubtaskResult output{subResult.linkLoads, subResult.stats, loaded,
                                routeFiles_.size()};
    const size_t resultBytes = subResult.linkLoads.size() * 24 + 128;
    store_->put(sub.resultKey, output, resultBytes);
    if (cache) cache->stored(sub.resultKey, resultBytes);
    sub.output = std::move(output);
  };
  journal.phaseBegin("traffic.exec");
  if (registry_) registry_->phase("traffic.exec");
  const auto execStart = std::chrono::steady_clock::now();
  try {
    runner.run(body, {}, false, onMaster);
  } catch (...) {
    // A throwing onMaster: the runner has joined every worker; close the
    // phase before the exception leaves.
    journal.phaseEnd("traffic.exec", secondsSince(execStart));
    throw;
  }
  journal.phaseEnd("traffic.exec", secondsSince(execStart));
  result.retries = runner.retries();
  result.succeeded = runner.succeeded();
  result.failedSubtasks = runner.failedIds();

  // --- master: merge in fixed subtask order (determinism) -------------------
  journal.phaseBegin("traffic.merge");
  if (registry_) registry_->phase("traffic.merge");
  obs::Span mergeSpan = tel.tracer().span("traffic.merge", "dist");
  result.subtasks = runner.rows();
  for (size_t i = 0; i < subtasks.size(); ++i) {
    const TrafficSubtaskResult& output = subtasks[i].output;
    result.subtasks[i].ribFilesLoaded = output.ribFilesLoaded;
    result.subtasks[i].ribFilesTotal = output.ribFilesTotal;
    if (runner.rows()[i].outcome != SubtaskOutcome::kSucceeded) continue;
    result.linkLoads.merge(output.linkLoads);
    result.stats.inputFlows += output.stats.inputFlows;
    result.stats.simulatedFlows += output.stats.simulatedFlows;
    result.stats.delivered += output.stats.delivered;
    result.stats.exited += output.stats.exited;
    result.stats.blackholed += output.stats.blackholed;
    result.stats.looped += output.stats.looped;
    result.stats.deniedAcl += output.stats.deniedAcl;
    result.stats.ec.inputFlows += output.stats.ec.inputFlows;
    result.stats.ec.classes += output.stats.ec.classes;
    result.stats.ecSeconds += output.stats.ecSeconds;
    result.stats.forwardSeconds += output.stats.forwardSeconds;
  }
  mergeSpan.finish();
  journal.phaseEnd("traffic.merge", mergeSpan.seconds());
  result.storeBytesRead = store_->bytesRead() - storeReadsBefore;
  taskSpan.finish();
  result.elapsedSeconds = taskSpan.seconds();
  tel.log().info("traffic.task.done",
                 {{"seconds", std::to_string(result.elapsedSeconds)},
                  {"links", std::to_string(result.linkLoads.size())},
                  {"retries", std::to_string(result.retries)},
                  {"succeeded", result.succeeded ? "true" : "false"}});
  return result;
}

}  // namespace hoyan
