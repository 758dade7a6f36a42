// The benchmark's own checks: the verdict labels on a small seed, the tail
// percentile rule, the base of every ratio in the ledger, and the JSON
// escaper. Exits nonzero on the first failed check.
//
//   verdictbench_selftest            run every check
//   verdictbench_selftest --escapes  print {"names": [...]} with every control
//                                    character escaped, for a JSON parser to
//                                    read back (test_verdictbench.py does)
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/hoyan.h"
#include "json.h"
#include "ledger.h"
#include "stats.h"
#include "workloads.h"

using namespace hoyan;
using namespace verdictbench;

namespace {

int failures = 0;

void expect(bool condition, const std::string& what) {
  if (condition) return;
  ++failures;
  std::fprintf(stderr, "FAIL: %s\n", what.c_str());
}

bool near(double a, double b) { return std::fabs(a - b) <= 1e-12 * std::max(1.0, std::fabs(b)); }

// Names with every control character, quotes, backslashes and UTF-8.
std::vector<std::string> escapeCases() {
  std::vector<std::string> names = {"plain", "line\nbreak", "tab\there",
                                    "quote\"and\\slash", "caf\xc3\xa9"};
  std::string all;
  for (int c = 0; c < 0x20; ++c) all += static_cast<char>(c);
  names.push_back(all);
  names.push_back(std::string("nul\0inside", 10));
  return names;
}

void checkJson() {
  expect(jsonString("a\nb\tc") == "\"a\\nb\\tc\"", "newline and tab escapes");
  expect(jsonString(std::string("\x01\x1f", 2)) == "\"\\u0001\\u001f\"",
         "other control characters escape as \\u00XX");
  expect(jsonString("\"\\") == "\"\\\"\\\\\"", "quote and backslash escapes");
  for (const std::string& name : escapeCases())
    for (const char c : jsonString(name))
      expect(static_cast<unsigned char>(c) >= 0x20, "no raw control byte in output");
  expect(jsonNumber(0.1) == "0.10000000000000001", "numbers keep all digits");
  bool threw = false;
  try {
    jsonNumber(std::nan(""));
  } catch (const std::domain_error&) {
    threw = true;
  }
  expect(threw, "NaN is refused");
}

void checkTailRule() {
  expect(!tailPercentile({}).ok, "empty sample has no tail");
  for (size_t n = 1; n <= 400; ++n) {
    std::vector<double> samples;
    for (size_t i = n; i > 0; --i) samples.push_back(static_cast<double>(i));
    const TailPercentile tail = tailPercentile(samples);
    const std::string at = " (n=" + std::to_string(n) + ")";
    if (n < 20) {
      expect(!tail.ok, "fewer than 20 samples leave no percentile" + at);
      continue;
    }
    expect(tail.ok, "a tail exists" + at);
    expect(tail.beyond >= 10 && tail.beyond == n - tail.rank, "10 samples beyond" + at);
    expect(tail.value == static_cast<double>(tail.rank), "nearest-rank value" + at);
    if (tail.percentile < 99) {
      const size_t nextRank = (static_cast<size_t>(tail.percentile + 1) * n + 99) / 100;
      expect(n - nextRank < 10, "the next percentile up has fewer beyond" + at);
    }
  }
  expect(tailPercentile(std::vector<double>(100, 1.0)).percentile == 90, "n=100 -> p90");
  expect(tailPercentile(std::vector<double>(120, 1.0)).percentile == 91, "n=120 -> p91");
  expect(tailPercentile(std::vector<double>(20, 1.0)).percentile == 50, "n=20 -> p50");
  expect(median({3, 1, 2}) == 2 && median({4, 1, 2, 3}) == 2.5, "median");
  expect(ratio(1, 0) == 0 && ratio(1, 4) == 0.25, "ratio with an empty base is 0");
}

double metric(const std::vector<Metric>& metrics, const std::string& name) {
  for (const Metric& m : metrics)
    if (m.name == name) return m.value;
  expect(false, "metric " + name + " missing");
  return -1;
}

void checkLedgerBases() {
  Ledger ledger(4);
  SpanRecorder spans;
  for (int request = 0; request < 2; ++request) {
    ledger.addRequest();
    DistRouteResult routes;
    routes.stats.simulatedInputs = 30;
    routes.stats.ec.inputRoutes = 120;
    routes.stats.policy.memoHits = 9;
    routes.stats.policy.memoMisses = 1;
    routes.elapsedSeconds = 1.0;
    routes.subtasks = {{"route-0", 2.0, 1, 0, 0, false}, {"route-1", 5.0, 1, 0, 0, true}};
    ledger.addRoute(routes);
    DistTrafficResult traffic;
    traffic.stats.inputFlows = 100;
    traffic.stats.simulatedFlows = 10;
    traffic.stats.ecSeconds = 0.25;
    traffic.stats.forwardSeconds = 0.25;
    traffic.elapsedSeconds = 1.0;
    // Only executed subtasks count toward files loaded and busy seconds.
    traffic.subtasks = {{"traffic-0", 1.0, 1, 1, 4, false},
                        {"traffic-1", 9.0, 1, 4, 4, true}};
    traffic.cacheHits = request == 0 ? 0 : 1;
    ledger.addTraffic(traffic);
    ledger.addImpact(request == 0);
    incr::RibAssemblyStats assembly;
    assembly.rowsReused = 3;
    assembly.rowsRendered = 1;
    assembly.fragmentHits = 1;
    assembly.fragmentMisses = 3;
    ledger.addRibAssembly(assembly);
    ledger.addGlobalRibRows(10 + 10 * request);
    sweep::SweepStats sweepStats;
    sweepStats.enumerated = 50;
    sweepStats.pruned = 10;
    sweepStats.deduped = 5;
    sweepStats.workerModelPeakBytes = 100 * (request + 1);
    ledger.addSweep(sweepStats);
  }
  ledger.setCache(3, 1, 2, 4096);
  const std::vector<Metric> metrics = ledger.finish(spans, 0.5, 0.25);
  expect(near(metric(metrics, "proto.policy_memo_hit_rate"), 0.9), "memo hits / lookups");
  expect(near(metric(metrics, "proto.policy_memo_lookups"), 10), "memo lookups per request");
  expect(near(metric(metrics, "sim.route_ec_ratio"), 0.25), "simulated / input routes");
  expect(near(metric(metrics, "sim.flow_ec_ratio"), 0.1), "simulated / input flows");
  expect(near(metric(metrics, "dist.route_subtask_s"), 2.0), "executed route subtasks only");
  expect(near(metric(metrics, "dist.traffic_subtask_s"), 1.0), "executed traffic subtasks only");
  expect(near(metric(metrics, "dist.traffic_load_s"), 0.5),
         "load = executed subtask s - ec - forward, over all-executed phases");
  expect(near(metric(metrics, "dist.rib_files_loaded_frac"), 0.25),
         "files loaded / loadable, executed subtasks");
  expect(near(metric(metrics, "dist.worker_util"), 6.0 / (4 * 4.0)),
         "subtask s / (workers x phase wall)");
  expect(near(metric(metrics, "incr.all_dirty_frac"), 0.5), "all-dirty / engine runs");
  expect(near(metric(metrics, "incr.cache_hit_rate"), 0.75), "cache hits / lookups");
  expect(near(metric(metrics, "incr.cache_lookups"), 2), "cache lookups per request");
  expect(near(metric(metrics, "incr.rib_rows_reused_frac"), 0.75), "reused / assembled rows");
  expect(near(metric(metrics, "incr.rib_fragment_hit_rate"), 0.25), "fragment hits / lookups");
  expect(near(metric(metrics, "rcl.global_rib_rows"), 15), "rows per GlobalRib");
  expect(near(metric(metrics, "sweep.prune_rate"), 0.2), "pruned / enumerated");
  expect(near(metric(metrics, "sweep.dedupe_rate"), 0.1), "deduped / enumerated");
  expect(near(metric(metrics, "sweep.worker_model_peak_bytes"), 200), "peak is a max");
  expect(near(metric(metrics, "error_rate"), 0.5) &&
             near(metric(metrics, "trace_overhead_frac"), 0.25),
         "caller-measured metrics pass through");

  // An idle layer reads 0, never NaN.
  for (const Metric& m : Ledger(4).finish(spans, 0, 0))
    expect(m.value == 0, m.name + " is 0 with no requests");
}

// Runs the first two plan cycles of a small seed through a cold and a warm
// pipeline: every verdict matches its label, broad plans are all-dirty for
// the impact analysis, and scoped edits are not.
void checkLabels(uint64_t seed) {
  const ChangeNetwork network = makeChangeNetwork(seed);
  DistSimOptions options;
  options.workers = 2;
  options.routeSubtasks = 32;
  options.trafficSubtasks = 32;
  for (const bool incremental : {false, true}) {
    Hoyan hoyan(network.wan.topology, network.wan.configs);
    hoyan.setInputRoutes(network.inputs);
    hoyan.setInputFlows(network.flows);
    hoyan.setSimulationOptions(options);
    if (incremental) hoyan.enableIncremental();
    hoyan.preprocess();
    for (size_t index = 0; index < 8; ++index) {
      const LabeledPlan labeled = makePlan(network, seed, index);
      const ChangeVerificationResult result =
          hoyan.verifyChange(labeled.plan, labeled.intents());
      std::vector<bool> verdicts;
      for (const RclOutcome& outcome : result.rclOutcomes)
        verdicts.push_back(outcome.result.satisfied);
      const std::string at = " (seed " + std::to_string(seed) + ", plan " +
                             std::to_string(index) + ", " +
                             planKindName(labeled.kind) + ")";
      const std::string mismatch = judgeChange(labeled, result.commandErrors, verdicts,
                                               result.loadViolations.empty());
      expect(mismatch.empty(), "label: " + mismatch + at);
      if (incremental && labeled.kind != PlanKind::kWithdrawal)
        expect(hoyan.incremental()->lastImpact().allDirty == labeled.broad,
               "all-dirty exactly for broad plans" + at);
    }
  }
}

// The link-removal labels rest on every redundant link leaving the IGP
// connected.
void checkRedundantLinks() {
  const ChangeNetwork network = makeChangeNetwork(1);
  const std::vector<NameId> internal = network.wan.internalDevices();
  expect(!network.redundantLinks.empty(), "redundant links exist");
  for (const auto& [a, b] : network.redundantLinks) {
    TopologyChange change;
    change.removeLinks = {{a, b}};
    Topology topology = network.wan.topology;
    change.applyTo(topology);
    const NetworkModel model = NetworkModel::build(topology, network.wan.configs);
    bool connected = true;
    for (const NameId from : internal)
      for (const NameId to : internal)
        if (from != to && !model.igp.path(from, to).reachable()) connected = false;
    expect(connected, "IGP stays connected without " + Names::str(a) + "-" + Names::str(b));
  }
}

void checkSweepIntents(uint64_t seed) {
  const FaultNetwork network = makeFaultNetwork(seed);
  Hoyan hoyan(network.wan.topology, network.wan.configs);
  hoyan.setInputRoutes(network.inputs);
  hoyan.preprocess();
  for (const std::string& intent : network.intents)
    expect(hoyan.deriveSweepHints(intent).scoped, "sweep intent is prefix-scoped: " + intent);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::string(argv[1]) == "--escapes") {
    std::string out = "{\"names\": [";
    const std::vector<std::string> names = escapeCases();
    for (size_t i = 0; i < names.size(); ++i) {
      if (i > 0) out += ", ";
      appendJsonString(out, names[i]);
    }
    std::printf("%s]}\n", out.c_str());
    return 0;
  }
  if (argc != 1) {
    std::fprintf(stderr, "usage: verdictbench_selftest [--escapes]\n");
    return 2;
  }
  checkJson();
  checkTailRule();
  checkLedgerBases();
  checkRedundantLinks();
  checkLabels(1);
  checkLabels(2);
  checkSweepIntents(1);
  if (failures > 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("all checks passed\n");
  return 0;
}
