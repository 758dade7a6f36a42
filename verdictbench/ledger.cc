#include "ledger.h"

#include <algorithm>
#include <functional>
#include <thread>

#include "json.h"
#include "stats.h"

namespace verdictbench {

SpanRecorder::Span::Span(SpanRecorder& recorder, std::string name, uint64_t parent,
                         uint64_t request)
    : recorder_(recorder),
      name_(std::move(name)),
      id_(recorder.nextId_.fetch_add(1, std::memory_order_relaxed)),
      parent_(parent),
      request_(request),
      start_(Clock::now()) {}

double SpanRecorder::Span::finish() {
  if (seconds_ >= 0) return seconds_;
  const Clock::time_point end = Clock::now();
  seconds_ = std::chrono::duration<double>(end - start_).count();
  Record record;
  record.name = std::move(name_);
  record.id = id_;
  record.parent = parent_;
  record.request = request_;
  record.startSeconds =
      std::chrono::duration<double>(start_ - recorder_.origin_).count();
  record.endSeconds = std::chrono::duration<double>(end - recorder_.origin_).count();
  record.thread = std::hash<std::thread::id>{}(std::this_thread::get_id());
  std::lock_guard lock(recorder_.mutex_);
  recorder_.records_.push_back(std::move(record));
  return seconds_;
}

std::vector<SpanRecorder::Record> SpanRecorder::records() const {
  std::lock_guard lock(mutex_);
  return records_;
}

double SpanRecorder::totalSeconds(const std::string& name) const {
  std::lock_guard lock(mutex_);
  double total = 0;
  for (const Record& record : records_)
    if (record.name == name) total += record.endSeconds - record.startSeconds;
  return total;
}

size_t SpanRecorder::count(const std::string& name) const {
  std::lock_guard lock(mutex_);
  return static_cast<size_t>(std::count_if(
      records_.begin(), records_.end(),
      [&](const Record& record) { return record.name == name; }));
}

std::string SpanRecorder::toJson() const {
  std::vector<Record> sorted = records();
  std::sort(sorted.begin(), sorted.end(),
            [](const Record& a, const Record& b) { return a.id < b.id; });
  std::string out = "{\"spans\": [";
  for (size_t i = 0; i < sorted.size(); ++i) {
    const Record& record = sorted[i];
    out += i == 0 ? "\n" : ",\n";
    out += "{\"name\": ";
    appendJsonString(out, record.name);
    out += ", \"id\": " + std::to_string(record.id) +
           ", \"parent\": " + std::to_string(record.parent) +
           ", \"request\": " + std::to_string(record.request) +
           ", \"start_s\": " + jsonNumber(record.startSeconds) +
           ", \"end_s\": " + jsonNumber(record.endSeconds) +
           ", \"thread\": " + std::to_string(record.thread) + "}";
  }
  out += "\n]}\n";
  return out;
}

void Ledger::addRoute(const hoyan::DistRouteResult& routes) {
  const hoyan::RouteSimStats& stats = routes.stats;
  routeStats_.simulatedInputs += stats.simulatedInputs;
  routeStats_.messagesProcessed += stats.messagesProcessed;
  routeStats_.rounds += stats.rounds;
  routeStats_.ec.inputRoutes += stats.ec.inputRoutes;
  routeStats_.ecSeconds += stats.ecSeconds;
  routeStats_.propagateSeconds += stats.propagateSeconds;
  routeStats_.materializeSeconds += stats.materializeSeconds;
  routeStats_.policy.add(stats.policy);
  routeSplit_ += routes.splitSeconds;
  routeMerge_ += routes.mergeSeconds;
  routeElapsed_ += routes.elapsedSeconds;
  for (const hoyan::SubtaskMetric& subtask : routes.subtasks)
    if (!subtask.fromCache) routeSubtaskSeconds_ += subtask.seconds;
  retries_ += routes.retries;
  failedSubtasks_ += routes.failedSubtasks.size();
}

void Ledger::addTraffic(const hoyan::DistTrafficResult& traffic) {
  const hoyan::TrafficSimStats& stats = traffic.stats;
  trafficStats_.inputFlows += stats.inputFlows;
  trafficStats_.simulatedFlows += stats.simulatedFlows;
  trafficStats_.ecSeconds += stats.ecSeconds;
  trafficStats_.forwardSeconds += stats.forwardSeconds;
  trafficSplit_ += traffic.splitSeconds;
  trafficElapsed_ += traffic.elapsedSeconds;
  double executed = 0;
  for (const hoyan::SubtaskMetric& subtask : traffic.subtasks) {
    if (subtask.fromCache) continue;
    executed += subtask.seconds;
    ribFilesLoaded_ += subtask.ribFilesLoaded;
    ribFilesTotal_ += subtask.ribFilesTotal;
  }
  trafficSubtaskSeconds_ += executed;
  if (traffic.cacheHits == 0) {
    ++fullTrafficPhases_;
    fullTrafficLoad_ += executed - (stats.ecSeconds + stats.forwardSeconds);
  }
  storeBytesRead_ += traffic.storeBytesRead;
  retries_ += traffic.retries;
  failedSubtasks_ += traffic.failedSubtasks.size();
}

void Ledger::addImpact(bool allDirty) {
  ++impacts_;
  if (allDirty) ++allDirty_;
}

void Ledger::addRibAssembly(const hoyan::incr::RibAssemblyStats& stats) {
  rowsReused_ += stats.rowsReused;
  rowsRendered_ += stats.rowsRendered;
  fragmentHits_ += stats.fragmentHits;
  fragmentMisses_ += stats.fragmentMisses;
}

void Ledger::addGlobalRibRows(size_t rows) {
  ++globalRibs_;
  globalRibRows_ += rows;
}

void Ledger::addSweep(const hoyan::sweep::SweepStats& stats) {
  sweepStats_.enumerated += stats.enumerated;
  sweepStats_.pruned += stats.pruned;
  sweepStats_.deduped += stats.deduped;
  sweepStats_.evaluated += stats.evaluated;
  sweepStats_.retries += stats.retries;
  sweepStats_.workerModelPeakBytes =
      std::max(sweepStats_.workerModelPeakBytes, stats.workerModelPeakBytes);
}

void Ledger::setCache(uint64_t hits, uint64_t misses, uint64_t evictions, size_t bytes) {
  cacheHits_ = hits;
  cacheMisses_ = misses;
  cacheEvictions_ = evictions;
  cacheBytes_ = bytes;
}

std::vector<Metric> Ledger::finish(const SpanRecorder& spans, double errorRate,
                                   double traceOverheadFrac) const {
  const double n = static_cast<double>(requests_);
  const auto perRequest = [&](double total) { return ratio(total, n); };
  const auto spanPerRequest = [&](const char* name) {
    return perRequest(spans.totalSeconds(name));
  };
  const auto d = [](auto value) { return static_cast<double>(value); };
  const hoyan::PolicyKernelStats& policy = routeStats_.policy;
  const double memoLookups = d(policy.memoHits + policy.memoMisses);
  const double cacheLookups = d(cacheHits_ + cacheMisses_);
  const double enumerated = d(sweepStats_.enumerated);
  const double subtaskSeconds = routeSubtaskSeconds_ + trafficSubtaskSeconds_;
  return {
      {"config.apply_s", spanPerRequest("config.apply"), "s"},
      {"config.command_errors", d(commandErrors_), "count"},
      // Mean over the set-up's model builds, not per request.
      {"proto.build_s", ratio(spans.totalSeconds("proto.build"), d(spans.count("proto.build"))), "s"},
      {"proto.rebuild_derived_s", spanPerRequest("proto.rebuild_derived"), "s"},
      // Base: memo lookups (hits + misses).
      {"proto.policy_memo_hit_rate", ratio(d(policy.memoHits), memoLookups), "ratio"},
      {"proto.policy_memo_lookups", perRequest(memoLookups), "count"},
      {"proto.attr_classes", perRequest(d(policy.attrClasses)), "count"},
      {"sim.route_ec_s", perRequest(routeStats_.ecSeconds), "s"},
      {"sim.route_propagate_s", perRequest(routeStats_.propagateSeconds), "s"},
      {"sim.route_materialize_s", perRequest(routeStats_.materializeSeconds), "s"},
      {"sim.route_messages", perRequest(d(routeStats_.messagesProcessed)), "count"},
      {"sim.route_rounds", perRequest(d(routeStats_.rounds)), "count"},
      // Base: input routes; the value is simulated (representative) routes.
      {"sim.route_ec_ratio", ratio(d(routeStats_.simulatedInputs), d(routeStats_.ec.inputRoutes)), "ratio"},
      {"sim.traffic_ec_s", perRequest(trafficStats_.ecSeconds), "s"},
      {"sim.traffic_forward_s", perRequest(trafficStats_.forwardSeconds), "s"},
      // Base: input flows; the value is simulated (representative) flows.
      {"sim.flow_ec_ratio", ratio(d(trafficStats_.simulatedFlows), d(trafficStats_.inputFlows)), "ratio"},
      {"dist.route_split_s", perRequest(routeSplit_), "s"},
      {"dist.route_merge_s", perRequest(routeMerge_), "s"},
      {"dist.traffic_split_s", perRequest(trafficSplit_), "s"},
      {"dist.route_subtask_s", perRequest(routeSubtaskSeconds_), "s"},
      {"dist.traffic_subtask_s", perRequest(trafficSubtaskSeconds_), "s"},
      // Mean over traffic phases that executed every subtask.
      {"dist.traffic_load_s", ratio(fullTrafficLoad_, d(fullTrafficPhases_)), "s"},
      // Base: route result files the executed traffic subtasks could load.
      {"dist.rib_files_loaded_frac", ratio(d(ribFilesLoaded_), d(ribFilesTotal_)), "ratio"},
      {"dist.store_bytes_read", perRequest(d(storeBytesRead_)), "bytes"},
      // Base: workers x wall time of the route and traffic phases.
      {"dist.worker_util", ratio(subtaskSeconds, d(workers_) * (routeElapsed_ + trafficElapsed_)), "ratio"},
      {"dist.retries", d(retries_), "count"},
      {"dist.failed_subtasks", d(failedSubtasks_), "count"},
      {"incr.begin_run_s", spanPerRequest("incr.begin_run"), "s"},
      // Base: requests that ran through the incremental engine.
      {"incr.all_dirty_frac", ratio(d(allDirty_), d(impacts_)), "ratio"},
      // Base: subtask cache lookups (hits + misses).
      {"incr.cache_hit_rate", ratio(d(cacheHits_), cacheLookups), "ratio"},
      {"incr.cache_lookups", perRequest(cacheLookups), "count"},
      // Base: GlobalRib rows the engine assembled (reused + rendered). The
      // engine counts rows copied out of fragments as reused, also when it
      // built the fragment in this run; the fragment hit rate shows those.
      {"incr.rib_rows_reused_frac", ratio(d(rowsReused_), d(rowsReused_ + rowsRendered_)), "ratio"},
      // Base: fragment lookups (hits + misses).
      {"incr.rib_fragment_hit_rate", ratio(d(fragmentHits_), d(fragmentHits_ + fragmentMisses_)), "ratio"},
      {"incr.cache_bytes", d(cacheBytes_), "bytes"},
      {"incr.cache_evictions", d(cacheEvictions_), "count"},
      {"rcl.global_rib_s", spanPerRequest("rcl.global_rib"), "s"},
      // Mean over the GlobalRibs built.
      {"rcl.global_rib_rows", ratio(d(globalRibRows_), d(globalRibs_)), "count"},
      {"rcl.check_s", spanPerRequest("rcl.check"), "s"},
      {"verify.load_check_s", spanPerRequest("verify.load_check"), "s"},
      {"sweep.hints_s", spanPerRequest("sweep.hints"), "s"},
      // Base: scenarios enumerated.
      {"sweep.prune_rate", ratio(d(sweepStats_.pruned), enumerated), "ratio"},
      {"sweep.dedupe_rate", ratio(d(sweepStats_.deduped), enumerated), "ratio"},
      {"sweep.jobs_evaluated", perRequest(d(sweepStats_.evaluated)), "count"},
      {"sweep.worker_model_peak_bytes", d(sweepStats_.workerModelPeakBytes), "bytes"},
      {"sweep.retries", d(sweepStats_.retries), "count"},
      {"error_rate", errorRate, "ratio"},
      {"trace_overhead_frac", traceOverheadFrac, "ratio"},
  };
}

}  // namespace verdictbench
