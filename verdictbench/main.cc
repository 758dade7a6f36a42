// Time to verdict for Hoyan's two operator requests: verifying a change plan
// (cold-change, warm-change) and a daily k=2 fault-tolerance check
// (fault-sweep). One closed-loop client keeps one request in flight, drives
// only the public Hoyan API on seeded generated inputs, and checks every
// verdict against an answer known from how the input was built (change
// plans) or against the serial reference checker (sweeps).
//
//   verdictbench --workload <cold-change|warm-change|fault-sweep> --seed <n>
//                --seconds <n> --trace <0|1> [--trace-out <file>]
//
// --trace 0 prints the end-to-end metrics; --trace 1 re-drives the same
// requests through each module's entry points with spans around every call
// and prints the per-layer ledger. The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <exception>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/hoyan.h"
#include "json.h"
#include "ledger.h"
#include "obs/telemetry.h"
#include "rcl/parser.h"
#include "rcl/verify.h"
#include "stats.h"
#include "workloads.h"

using namespace hoyan;
using namespace verdictbench;

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// setup_s is the median of at least this many timed set-up builds, taking
// about this share of the timed loop's time.
constexpr size_t kSetupMin = 7;
constexpr double kSetupShare = 0.1;
// Warm-up requests run and are checked but not timed: at least one full plan
// cycle (every plan kind once) or one sweep of every intent, and on
// warm-change as many more as it takes to fill the incremental cache to its
// budget. A long-lived service runs with a full cache that evicts, and a run
// whose cache filled part-way through would time two regimes in a mix that
// shifts with the host's speed.
constexpr size_t kWarmupRequests = 4;
constexpr double kCacheFullShare = 0.9;
// A cache that has not filled by then is timed as it is.
constexpr double kMaxWarmupSeconds = 60;
// The tail rule needs 10 samples beyond the percentile, so at least 20; the
// change workloads need more so the tail lands inside the broad plans.
constexpr size_t kMinTimedChange = 100;
constexpr size_t kMinTimedSweep = 20;
// A traced run times each request twice, untraced and traced.
constexpr size_t kMinTracedChange = 24;
constexpr size_t kMinTracedSweep = 8;
// No run may outlast this, however slow the host.
constexpr double kHardLimitSeconds = 150;

struct Args {
  Workload workload = Workload::kColdChange;
  uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  std::string traceOut;
};

bool parseUnsigned(const std::string& text, uint64_t* out) {
  if (text.empty() || text.size() > 20) return false;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

// Returns an error message, or "" on success.
std::string parseArgs(int argc, char** argv, Args* args) {
  std::map<std::string, std::string> values;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag != "--workload" && flag != "--seed" && flag != "--seconds" &&
        flag != "--trace" && flag != "--trace-out")
      return "unknown argument '" + flag + "'";
    if (i + 1 >= argc) return flag + " needs a value";
    if (!values.emplace(flag, argv[++i]).second) return flag + " given twice";
  }
  for (const char* required : {"--workload", "--seed", "--seconds", "--trace"})
    if (!values.contains(required)) return std::string("missing ") + required;
  if (!parseWorkload(values["--workload"], &args->workload))
    return "unknown workload '" + values["--workload"] +
           "' (cold-change, warm-change, fault-sweep)";
  if (!parseUnsigned(values["--seed"], &args->seed))
    return "malformed --seed '" + values["--seed"] + "' (a non-negative integer)";
  uint64_t seconds = 0;
  if (!parseUnsigned(values["--seconds"], &seconds) || seconds < 1 || seconds > 120)
    return "malformed --seconds '" + values["--seconds"] + "' (an integer in 1..120)";
  args->seconds = static_cast<int>(seconds);
  const std::string& trace = values["--trace"];
  if (trace != "0" && trace != "1") return "malformed --trace '" + trace + "' (0 or 1)";
  args->trace = trace == "1";
  args->traceOut = values["--trace-out"];
  return "";
}

double peakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

// At most three workers, and one core left to the rest of the host, so that
// a burst of load elsewhere does not stall a worker on the critical path.
size_t workerCount() {
  const unsigned cores = std::thread::hardware_concurrency();
  return std::clamp<size_t>(cores > 1 ? cores - 1 : 1, 1, 3);
}

// One request's outcome. A change plan's `verdicts` hold each RCL intent's
// verdict and then the load intent's; a sweep's result is rendered in `sweep`.
struct Outcome {
  size_t index = 0;
  double seconds = 0;
  bool error = false;
  std::string why;
  std::vector<bool> verdicts;
  std::string sweep;
  size_t ribRows = 0;
  size_t scenarios = 0;
};

struct Tally {
  size_t attempted = 0;
  size_t failed = 0;
  std::string firstError;

  void add(const Outcome& outcome) {
    ++attempted;
    if (!outcome.error) return;
    ++failed;
    if (firstError.empty())
      firstError = "request " + std::to_string(outcome.index) + ": " + outcome.why;
  }
  void fail(const std::string& why) {
    ++failed;
    if (firstError.empty()) firstError = why;
  }
};

void judge(const LabeledPlan& labeled, const std::vector<ParseError>& commandErrors,
           const std::vector<bool>& rclVerdicts, bool loadOk, Outcome* outcome) {
  outcome->verdicts = rclVerdicts;
  outcome->verdicts.push_back(loadOk);
  outcome->why = judgeChange(labeled, commandErrors, rclVerdicts, loadOk);
  outcome->error = !outcome->why.empty();
}

// Everything a run reports, before it is printed.
struct Report {
  Tally tally;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  // Printed above the result line.
};

std::string resultLine(const Report& report) {
  std::string out = "{\"correct\": ";
  out += report.tally.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.tally.attempted);
  out += ", \"failed\": " + std::to_string(report.tally.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& metric = report.metrics[i];
    if (i > 0) out += ", ";
    appendJsonString(out, metric.name);
    out += ": {\"value\": " + jsonNumber(metric.value) + ", \"unit\": ";
    appendJsonString(out, metric.unit);
    out += "}";
  }
  out += "}}";
  return out;
}

// ---------------------------------------------------------------------------
// The closed-loop client both kinds of request share.

class Bench {
 public:
  explicit Bench(const Args& args) : args_(args) {}
  virtual ~Bench() = default;
  Bench(const Bench&) = delete;
  Bench& operator=(const Bench&) = delete;

  Report run();
  Report runTraced(SpanRecorder& spans);

 protected:
  // The generated network, and the inputs and options a Hoyan over it gets
  // before preprocess.
  virtual const GeneratedWan& wan() const = 0;
  virtual void configure(Hoyan& hoyan) const = 0;
  // One request as users make it, timed around the one public call.
  virtual Outcome request(Hoyan& hoyan, size_t index) = 0;
  // The same request re-driven through the module entry points with spans.
  virtual Outcome requestTraced(Hoyan& hoyan, size_t index, SpanRecorder& spans,
                                Ledger& ledger) = 0;
  // Checks that need work outside every timed region.
  virtual void checkAfter(Hoyan&, std::vector<Outcome>&) {}
  virtual std::string describe() const = 0;
  virtual std::string kindOf(size_t index) const = 0;
  virtual bool broad(size_t) const { return false; }
  // Whether requests leave state behind (the incremental cache), so a traced
  // twin must replay the same history on its own instance.
  virtual bool stateful() const { return false; }
  // Whether that state has reached its steady size.
  virtual bool filled(Hoyan&) const { return true; }
  virtual size_t minTimed() const = 0;
  virtual size_t minTraced() const = 0;

  const Args& args_;
  size_t workers_ = workerCount();
  // Metrics only (no tracing, journal or logging): the incremental-cache and
  // subtask-exhaustion counters are read from it. A traced twin gets its own.
  obs::Telemetry telemetry_;

 private:
  // A preprocessed Hoyan: constructor (base model) + preprocess (base
  // simulation and GlobalRib). With `spans`, the model build is also timed
  // on its own.
  std::unique_ptr<Hoyan> build(SpanRecorder* spans, obs::Telemetry* telemetry) {
    if (spans) {
      SpanRecorder::Span model(*spans, "proto.build", 0, 0);
      NetworkModel::build(wan().topology, wan().configs);
    }
    auto hoyan = std::make_unique<Hoyan>(wan().topology, wan().configs);
    hoyan->setTelemetry(telemetry ? telemetry : &telemetry_);
    configure(*hoyan);
    hoyan->preprocess();
    return hoyan;
  }
  // Runs the warm-up requests; returns the index of the first timed one.
  size_t warmUp(Hoyan& hoyan, std::vector<Outcome>& outcomes) {
    const Clock::time_point start = Clock::now();
    size_t i = 0;
    while (i < kWarmupRequests || (!filled(hoyan) && since(start) < kMaxWarmupSeconds))
      outcomes.push_back(request(hoyan, i++));
    return i;
  }
  // Replaces `*hoyan` with a fresh pipeline and returns the build's seconds.
  // The old one is freed first, so the two never coexist.
  double timedBuild(std::unique_ptr<Hoyan>* hoyan) {
    hoyan->reset();
    const Clock::time_point start = Clock::now();
    *hoyan = build(nullptr, nullptr);
    return since(start);
  }
  // One of a stateful pipeline's two blocks of back-to-back set-up samples.
  void setupBlock(std::unique_ptr<Hoyan>* hoyan, std::vector<double>* setups) {
    double spent = 0;
    for (size_t n = 0; n < (kSetupMin + 1) / 2 || spent < kSetupShare / 2 * args_.seconds;
         ++n) {
      setups->push_back(timedBuild(hoyan));
      spent += setups->back();
    }
  }
  std::vector<std::string> latencyNotes(const std::vector<Outcome>& timed,
                                        size_t warmup, const TailPercentile& tail) const;
};

Report Bench::run() {
  const Clock::time_point runStart = Clock::now();
  Report report;
  // Untimed: the first build also interns every name.
  std::unique_ptr<Hoyan> hoyan = build(nullptr, nullptr);
  // A set-up build never overlaps the request pipeline, so the peak RSS holds
  // one pipeline, as a user's process does. A stateless pipeline is rebuilt
  // in the timed loop, each rebuild a set-up sample, taking about a tenth of
  // the loop, so a burst of load on a shared host skews few of them. A
  // stateful one cannot be rebuilt without losing its cache, so its samples
  // are taken back to back in two blocks, before it is built and after it is
  // freed, so one burst skews at most half of them.
  std::vector<double> setups;
  double setupSpent = 0;
  if (stateful()) setupBlock(&hoyan, &setups);
  std::vector<Outcome> outcomes;
  const size_t first = warmUp(*hoyan, outcomes);
  std::vector<Outcome> timed;
  const Clock::time_point start = Clock::now();
  for (size_t i = first;
       (since(start) < args_.seconds || timed.size() < minTimed()) &&
       since(runStart) < kHardLimitSeconds;
       ++i) {
    timed.push_back(request(*hoyan, i));
    if (!stateful() && setupSpent < kSetupShare * since(start)) {
      setups.push_back(timedBuild(&hoyan));
      setupSpent += setups.back();
    }
  }
  const double peak = peakRssMiB();
  std::string cacheNote;
  if (incr::IncrementalEngine* engine = hoyan->incremental())
    cacheNote = "incremental cache working set " +
                jsonNumber(static_cast<double>(engine->cache().totalBytes()) / (1 << 20)) +
                " MiB of the 512 MiB default budget";
  if (stateful()) setupBlock(&hoyan, &setups);
  while (setups.size() < kSetupMin) setups.push_back(timedBuild(&hoyan));
  outcomes.insert(outcomes.end(), timed.begin(), timed.end());
  checkAfter(*hoyan, outcomes);
  for (const Outcome& outcome : outcomes) report.tally.add(outcome);

  std::vector<double> latencies;
  double total = 0, scenarios = 0;
  for (const Outcome& outcome : timed) {
    latencies.push_back(outcome.seconds);
    total += outcome.seconds;
    scenarios += static_cast<double>(outcome.scenarios);
  }
  const TailPercentile tail = tailPercentile(latencies);
  if (!tail.ok) report.tally.fail("too few timed requests for the tail rule");
  report.notes.push_back(describe());
  for (const std::string& note : latencyNotes(timed, first, tail))
    report.notes.push_back(note);
  report.notes.push_back("set-up: median of " + std::to_string(setups.size()) + " builds");
  if (!cacheNote.empty()) report.notes.push_back(cacheNote);
  report.notes.push_back("error_rate " +
                         jsonNumber(ratio(static_cast<double>(report.tally.failed),
                                          static_cast<double>(report.tally.attempted))) +
                         " ratio");
  report.metrics = {
      {"setup_s", median(setups), "s"},
      {"verdict_p50_s", median(latencies), "s"},
      {"verdict_tail_s", tail.value, "s"},
      {"scenarios_per_s", ratio(scenarios, total), "1/s"},
      {"peak_rss_mb", peak, "MiB"},
  };
  return report;
}

std::vector<std::string> Bench::latencyNotes(const std::vector<Outcome>& timed,
                                             size_t warmup,
                                             const TailPercentile& tail) const {
  std::map<std::string, std::vector<double>> byKind;
  std::vector<std::pair<double, bool>> ranked;
  for (const Outcome& outcome : timed) {
    byKind[kindOf(outcome.index)].push_back(outcome.seconds);
    ranked.emplace_back(outcome.seconds, broad(outcome.index));
  }
  std::sort(ranked.begin(), ranked.end());
  size_t broadTotal = 0, broadBelow = 0;
  for (size_t r = 0; r < ranked.size(); ++r) {
    if (!ranked[r].second) continue;
    ++broadTotal;
    if (r + 1 < tail.rank) ++broadBelow;
  }
  std::string summary = "timed " + std::to_string(timed.size()) + " requests after " +
                        std::to_string(warmup) + " warm-up; tail = p" +
                        std::to_string(tail.percentile) + " (rank " +
                        std::to_string(tail.rank) + ", " + std::to_string(tail.beyond) +
                        " samples beyond)";
  if (broadTotal > 0)
    summary += "; " + std::to_string(broadBelow) + " of " + std::to_string(broadTotal) +
               " broad plans rank below it";
  std::vector<std::string> notes = {summary};
  for (const auto& [kind, samples] : byKind)
    notes.push_back("  " + std::to_string(samples.size()) + " x median " +
                    jsonNumber(median(samples)) + " s: " + kind);
  return notes;
}

Report Bench::runTraced(SpanRecorder& spans) {
  const Clock::time_point runStart = Clock::now();
  Report report;
  for (size_t i = 0; i <= kSetupMin; ++i) build(&spans, nullptr);
  // Each request runs untraced and traced back to back, in alternating
  // order, so neither pass gains from running second. A stateless pipeline
  // serves both; a stateful one gets a twin with the same request history.
  std::unique_ptr<Hoyan> plain = build(nullptr, nullptr);
  obs::Telemetry twinTelemetry;
  std::unique_ptr<Hoyan> twin = stateful() ? build(nullptr, &twinTelemetry) : nullptr;
  Hoyan& traced = twin ? *twin : *plain;
  std::vector<Outcome> outcomes;
  const size_t first = warmUp(*plain, outcomes);
  if (twin)
    for (size_t i = 0; i < first; ++i) outcomes.push_back(request(*twin, i));
  Ledger ledger(workers_);
  obs::MetricsRegistry& metrics = traced.telemetry()->metrics();
  const uint64_t hits0 = metrics.counter("incr.cache.hits").value();
  const uint64_t misses0 = metrics.counter("incr.cache.misses").value();
  const uint64_t evictions0 = metrics.counter("incr.cache.evictions").value();
  double plainTotal = 0, tracedTotal = 0;
  size_t pairs = 0;
  const Clock::time_point start = Clock::now();
  for (size_t i = first;
       (since(start) < args_.seconds || pairs < minTraced()) &&
       since(runStart) < kHardLimitSeconds;
       ++i, ++pairs) {
    Outcome a, b;
    if (i % 2 == 0) {
      a = request(*plain, i);
      b = requestTraced(traced, i, spans, ledger);
    } else {
      b = requestTraced(traced, i, spans, ledger);
      a = request(*plain, i);
    }
    if (!a.error && !b.error &&
        (a.verdicts != b.verdicts || a.sweep != b.sweep || a.ribRows != b.ribRows)) {
      b.error = true;
      b.why = "the traced request's verdicts differ from the untraced one's";
    }
    plainTotal += a.seconds;
    tracedTotal += b.seconds;
    outcomes.push_back(std::move(a));
    outcomes.push_back(std::move(b));
  }
  incr::IncrementalEngine* engine = traced.incremental();
  ledger.setCache(metrics.counter("incr.cache.hits").value() - hits0,
                  metrics.counter("incr.cache.misses").value() - misses0,
                  metrics.counter("incr.cache.evictions").value() - evictions0,
                  engine ? engine->cache().totalBytes() : 0);
  checkAfter(*plain, outcomes);
  for (const Outcome& outcome : outcomes) report.tally.add(outcome);
  report.notes.push_back(describe());
  report.notes.push_back("traced " + std::to_string(pairs) + " requests: untraced " +
                         jsonNumber(plainTotal) + " s, traced " + jsonNumber(tracedTotal) +
                         " s");
  report.metrics = ledger.finish(
      spans,
      ratio(static_cast<double>(report.tally.failed),
            static_cast<double>(report.tally.attempted)),
      ratio(tracedTotal, plainTotal) - 1);
  return report;
}

// ---------------------------------------------------------------------------
// Change plans: cold-change and warm-change

class ChangeBench final : public Bench {
 public:
  explicit ChangeBench(const Args& args)
      : Bench(args),
        incremental_(args.workload == Workload::kWarmChange),
        network_(makeChangeNetwork(args.seed)) {
    options_.workers = workers_;
    options_.routeSubtasks = 32;
    options_.trafficSubtasks = 32;
  }

 private:
  const GeneratedWan& wan() const override { return network_.wan; }
  void configure(Hoyan& hoyan) const override {
    hoyan.setInputRoutes(network_.inputs);
    hoyan.setInputFlows(network_.flows);
    hoyan.setSimulationOptions(options_);
    if (incremental_) hoyan.enableIncremental();
  }

  LabeledPlan plan(size_t index) const { return makePlan(network_, args_.seed, index); }

  Outcome request(Hoyan& hoyan, size_t index) override {
    const LabeledPlan labeled = plan(index);
    const IntentSet intents = labeled.intents();
    Outcome outcome;
    outcome.index = index;
    outcome.scenarios = 1;
    const uint64_t exhaustedBefore = exhausted(hoyan);
    try {
      const Clock::time_point start = Clock::now();
      const ChangeVerificationResult result = hoyan.verifyChange(labeled.plan, intents);
      outcome.seconds = since(start);
      std::vector<bool> rcl;
      for (const RclOutcome& rclOutcome : result.rclOutcomes)
        rcl.push_back(rclOutcome.result.satisfied);
      judge(labeled, result.commandErrors, rcl, result.loadViolations.empty(), &outcome);
      outcome.ribRows = result.updatedRibs.routeCount();
    } catch (const std::exception& error) {
      outcome.error = true;
      outcome.why = std::string("threw: ") + error.what();
    }
    if (!outcome.error && exhausted(hoyan) != exhaustedBefore) {
      outcome.error = true;
      outcome.why = "a subtask exhausted its retries";
    }
    return outcome;
  }

  // The same request re-driven through the entry points verifyChange calls,
  // in its order, with a span around each call. Like verifyChange, the
  // request's working state is freed inside the timed region and only the
  // post-change RIBs and loads outlive it.
  Outcome requestTraced(Hoyan& hoyan, size_t index, SpanRecorder& spans,
                        Ledger& ledger) override {
    const LabeledPlan labeled = plan(index);
    const ChangePlan& plan = labeled.plan;
    Outcome outcome;
    outcome.index = index;
    outcome.scenarios = 1;
    const uint64_t request = index + 1;
    try {
      NetworkRibs keptRibs;
      LinkLoadMap keptLoads;
      std::vector<ParseError> errors;
      std::vector<bool> rcl;
      bool loadsOk = false, exhausted = false;
      SpanRecorder::Span root(spans, "request", 0, request);
      {
        const auto span = [&](const char* name) {
          return std::make_unique<SpanRecorder::Span>(spans, name, root.id(), request);
        };
        ledger.addRequest();
        NetworkModel updated;
        {
          auto s = span("config.apply");
          updated.topology = hoyan.baseModel().topology;
          updated.configs = hoyan.baseModel().configs;
          plan.topologyChange.applyTo(updated.topology);
          errors = applyChangeCommands(updated.topology, updated.configs, plan.commands);
        }
        ledger.addCommandErrors(errors.size());
        {
          auto s = span("proto.rebuild_derived");
          updated.rebuildDerived();
        }
        std::vector<InputRoute> inputs = hoyan.inputRoutes();
        for (const Prefix& withdrawn : plan.withdrawnPrefixes)
          std::erase_if(inputs, [&](const InputRoute& input) {
            return input.route.prefix == withdrawn;
          });
        for (const auto& [device, withdrawn] : plan.withdrawnInputs)
          std::erase_if(inputs, [&, device = device](const InputRoute& input) {
            return input.device == device && input.route.prefix == withdrawn;
          });
        inputs.insert(inputs.end(), plan.newInputRoutes.begin(), plan.newInputRoutes.end());

        DistSimOptions runOptions = options_;
        runOptions.telemetry = hoyan.telemetry();
        incr::IncrementalEngine* engine = hoyan.incremental();
        if (engine) {
          auto s = span("incr.begin_run");
          ledger.addImpact(engine->beginRun(updated, runOptions).allDirty);
        }
        DistributedSimulator simulator(updated, runOptions);
        DistRouteResult routes;
        {
          auto s = span("dist.route");
          routes = simulator.runRouteSimulation(inputs);
        }
        ledger.addRoute(routes);
        keptRibs = std::move(routes.ribs);
        {
          auto s = span("sim.forwarding_index");
          keptRibs.buildForwardingIndex();
        }
        DistTrafficResult traffic;
        {
          auto s = span("dist.traffic");
          traffic = simulator.runTrafficSimulation(hoyan.inputFlows());
        }
        ledger.addTraffic(traffic);
        exhausted = !routes.failedSubtasks.empty() || !traffic.failedSubtasks.empty();
        std::shared_ptr<const rcl::GlobalRib> global;
        {
          auto s = span("rcl.global_rib");
          global = engine ? engine->buildGlobalRib(keptRibs, simulator.routeResultKeys())
                          : std::make_shared<const rcl::GlobalRib>(
                                rcl::GlobalRib::fromNetworkRibs(keptRibs));
        }
        ledger.addGlobalRibRows(global->size());
        if (engine) ledger.addRibAssembly(engine->lastRibAssembly());
        for (const LabeledIntent& intent : labeled.rcl) {
          auto s = span("rcl.check");
          rcl.push_back(
              rcl::checkIntentText(intent.specification, hoyan.baseGlobalRib(), *global)
                  .satisfied);
        }
        {
          auto s = span("verify.load_check");
          loadsOk = checkLinkLoads(updated.topology, traffic.linkLoads,
                                   labeled.maxLinkUtilization)
                        .empty();
        }
        if (engine) {
          auto s = span("incr.end_run");
          engine->endRun();
        }
        keptLoads = std::move(traffic.linkLoads);
      }
      outcome.seconds = root.finish();
      judge(labeled, errors, rcl, loadsOk, &outcome);
      outcome.ribRows = keptRibs.routeCount();
      if (!outcome.error && exhausted) {
        outcome.error = true;
        outcome.why = "a subtask exhausted its retries";
      }
    } catch (const std::exception& error) {
      outcome.error = true;
      outcome.why = std::string("threw: ") + error.what();
    }
    return outcome;
  }


  std::string describe() const override {
    return std::string("workload ") + workloadName(args_.workload) + " seed " +
           std::to_string(args_.seed) + ": " +
           std::to_string(network_.wan.topology.devices().size()) + " devices, " +
           std::to_string(network_.inputs.size()) + " input routes, " +
           std::to_string(network_.flows.size()) + " flows, " +
           std::to_string(workers_) + " workers, incremental " +
           (incremental_ ? "on" : "off");
  }
  std::string kindOf(size_t index) const override { return planKindName(plan(index).kind); }
  bool broad(size_t index) const override { return plan(index).broad; }
  bool stateful() const override { return incremental_; }
  bool filled(Hoyan& hoyan) const override {
    incr::IncrementalEngine* engine = hoyan.incremental();
    return !engine || static_cast<double>(engine->cache().totalBytes()) >=
                          kCacheFullShare * kCacheBudgetBytes;
  }
  size_t minTimed() const override { return kMinTimedChange; }
  size_t minTraced() const override { return kMinTracedChange; }

  static uint64_t exhausted(Hoyan& hoyan) {
    return hoyan.telemetry()->metrics().counter("dist.subtask_exhausted").value();
  }

  static constexpr size_t kCacheBudgetBytes = incr::IncrementalOptions{}.cacheBudgetBytes;

  const bool incremental_;
  const ChangeNetwork network_;
  DistSimOptions options_;
};

// ---------------------------------------------------------------------------
// Fault sweeps

class SweepBench final : public Bench {
 public:
  explicit SweepBench(const Args& args) : Bench(args), network_(makeFaultNetwork(args.seed)) {
    options_.workers = workers_;
  }

 private:
  const GeneratedWan& wan() const override { return network_.wan; }
  // No incremental engine: the cas/k verdict cache needs one, so every
  // sweep simulates its scenarios.
  void configure(Hoyan& hoyan) const override {
    hoyan.setInputRoutes(network_.inputs);
    hoyan.setSimulationOptions(options_);
  }

  const std::string& intent(size_t index) const {
    return network_.intents[index % network_.intents.size()];
  }

  Outcome request(Hoyan& hoyan, size_t index) override {
    Outcome outcome;
    outcome.index = index;
    try {
      const Clock::time_point start = Clock::now();
      const sweep::SweepResult result =
          hoyan.sweepIntentFaultTolerance(intent(index), network_.failure);
      outcome.seconds = since(start);
      outcome.sweep = renderSweepResult(result.result);
      outcome.scenarios = result.result.scenariosChecked;
    } catch (const std::exception& error) {
      outcome.error = true;
      outcome.why = std::string("threw: ") + error.what();
    }
    return outcome;
  }

  Outcome requestTraced(Hoyan& hoyan, size_t index, SpanRecorder& spans,
                        Ledger& ledger) override {
    Outcome outcome;
    outcome.index = index;
    const uint64_t request = index + 1;
    try {
      SpanRecorder::Span root(spans, "request", 0, request);
      ledger.addRequest();
      sweep::DeriveResult derived;
      {
        SpanRecorder::Span s(spans, "sweep.hints", root.id(), request);
        derived = hoyan.deriveSweepHints(intent(index));
      }
      const rcl::ParseOutcome parsed = rcl::parseIntent(intent(index));
      if (!parsed.ok()) throw std::invalid_argument(parsed.error);
      const rcl::IntentPtr parsedIntent = parsed.intent;
      std::mutex rowsMutex;
      std::vector<size_t> rows;
      const uint64_t parent = root.id();
      // sweepIntentFaultTolerance's property, with spans; it runs on the
      // sweep's worker threads.
      const NetworkProperty property = [&](const NetworkModel&, const NetworkRibs& ribs) {
        SpanRecorder::Span build(spans, "rcl.global_rib", parent, request);
        const rcl::GlobalRib rib = rcl::GlobalRib::fromNetworkRibs(ribs);
        build.finish();
        {
          std::lock_guard lock(rowsMutex);
          rows.push_back(rib.size());
        }
        SpanRecorder::Span check(spans, "rcl.check", parent, request);
        return rcl::checkIntent(*parsedIntent, rib, rib).satisfied;
      };
      sweep::SweepResult result;
      {
        SpanRecorder::Span s(spans, "sweep.run", root.id(), request);
        result = hoyan.sweepFaultTolerance(property, network_.failure, derived.hints);
      }
      outcome.seconds = root.finish();
      ledger.addSweep(result.stats);
      for (const size_t count : rows) ledger.addGlobalRibRows(count);
      outcome.sweep = renderSweepResult(result.result);
      outcome.scenarios = result.result.scenariosChecked;
    } catch (const std::exception& error) {
      outcome.error = true;
      outcome.why = std::string("threw: ") + error.what();
    }
    return outcome;
  }

  // Compares every sweep with the serial reference checker, computed once
  // per distinct intent and outside every timed region.
  void checkAfter(Hoyan& hoyan, std::vector<Outcome>& outcomes) override {
    std::map<std::string, std::string> serial;
    for (Outcome& outcome : outcomes) {
      if (outcome.error) continue;
      const std::string& spec = intent(outcome.index);
      auto it = serial.find(spec);
      if (it == serial.end())
        it = serial
                 .emplace(spec, renderSweepResult(hoyan.checkFaultToleranceSerial(
                                    intentProperty(spec), network_.failure)))
                 .first;
      if (outcome.sweep != it->second) {
        outcome.error = true;
        outcome.why = "sweep of '" + spec + "' differs from the serial checker";
      }
    }
  }

  std::string describe() const override {
    return std::string("workload ") + workloadName(args_.workload) + " seed " +
           std::to_string(args_.seed) + ": " +
           std::to_string(network_.wan.topology.devices().size()) + " devices, " +
           std::to_string(network_.wan.topology.links().size()) + " links, k = " +
           std::to_string(network_.failure.k) + ", " +
           std::to_string(network_.intents.size()) + " intents, " +
           std::to_string(workers_) + " workers";
  }
  std::string kindOf(size_t index) const override { return intent(index); }
  size_t minTimed() const override { return kMinTimedSweep; }
  size_t minTraced() const override { return kMinTracedSweep; }

  const FaultNetwork network_;
  DistSimOptions options_;
};

}  // namespace

int main(int argc, char** argv) {
  Args args;
  const std::string error = parseArgs(argc, argv, &args);
  if (!error.empty()) {
    std::fprintf(stderr, "verdictbench: %s\n", error.c_str());
    return 2;
  }
  try {
    std::unique_ptr<Bench> bench;
    if (args.workload == Workload::kFaultSweep)
      bench = std::make_unique<SweepBench>(args);
    else
      bench = std::make_unique<ChangeBench>(args);
    SpanRecorder spans;
    const Report report = args.trace ? bench->runTraced(spans) : bench->run();
    for (const std::string& note : report.notes) std::printf("%s\n", note.c_str());
    if (!report.tally.firstError.empty())
      std::printf("first error: %s\n", report.tally.firstError.c_str());
    if (args.trace && !args.traceOut.empty()) {
      if (obs::writeFile(args.traceOut, spans.toJson()))
        std::printf("spans -> %s\n", args.traceOut.c_str());
      else
        std::fprintf(stderr, "verdictbench: cannot write %s\n", args.traceOut.c_str());
    }
    for (const Metric& metric : report.metrics)
      std::printf("%-32s %.6g %s\n", metric.name.c_str(), metric.value,
                  metric.unit.c_str());
    std::printf("%s\n", resultLine(report).c_str());
    std::fflush(stdout);
  } catch (const std::exception& failure) {
    std::fprintf(stderr, "verdictbench: %s\n", failure.what());
    return 1;
  }
  return 0;
}
