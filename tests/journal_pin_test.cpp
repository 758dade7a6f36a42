// Pinned end-to-end run record.
//
// One fixed generated WAN goes through preprocess, a change verification and
// an intent fault-tolerance sweep at 3 workers with worker crashes injected,
// so the subtask retry path is part of what is pinned. Each pin hashes the
// canonical run journal (volatile fields stripped, lines sorted), the
// post-change link loads (sorted, exact bits) and the post-change route
// count. Refactors of the subtask machinery must leave these hashes alone:
// a changed pin means the run did different work or produced a different
// answer.
//
//  * Pin 1: incremental engine off.
//  * Pin 2: the same run with enableIncremental(), so the journal also
//    carries the cache decisions and their content keys.
//
// The pins are process-stable, not ABI-stable: NameIds are interned in
// generation order and the sweep's scenario keys hash them, so this test runs
// as its own binary with exactly one TEST. Re-pin by running the binary and
// copying the printed values.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "core/hoyan.h"
#include "gen/wan_gen.h"
#include "gen/workload_gen.h"
#include "incr/fingerprint.h"

namespace hoyan {
namespace {

struct PinnedRun {
  std::string hash;
  size_t journalLines = 0;
  size_t routes = 0;
};

PinnedRun runPipeline(const GeneratedWan& wan, const std::vector<InputRoute>& inputs,
                      const std::vector<Flow>& flows, bool incremental) {
  obs::TelemetryOptions telemetryOptions;
  telemetryOptions.journal = true;
  obs::Telemetry telemetry(telemetryOptions);
  Hoyan hoyan(wan.topology, wan.configs);
  hoyan.setInputRoutes(inputs);
  hoyan.setInputFlows(flows);
  DistSimOptions options;
  options.workers = 3;
  options.routeSubtasks = 24;
  options.trafficSubtasks = 12;
  options.workerFailureProbability = 0.3;
  options.failureSeed = 5;
  options.maxAttempts = 8;  // Retries fire; nothing exhausts.
  hoyan.setSimulationOptions(options);
  hoyan.setTelemetry(&telemetry);
  if (incremental) hoyan.enableIncremental();
  hoyan.preprocess();

  ChangePlan plan;
  plan.name = "pinned";
  plan.commands =
      "device BR-0-0\n"
      "ip-prefix LP-PIN index 10 permit 100.0.3.0/24\n"
      "route-policy ISP-IN-0 node 800 permit\n"
      " match ip-prefix LP-PIN\n"
      " apply local-pref 150\n";
  IntentSet intents;
  intents.rclIntents = {"not prefix = 100.0.3.0/24 => PRE = POST"};
  intents.maxLinkUtilization = 2.0;
  const ChangeVerificationResult verified = hoyan.verifyChange(plan, intents);
  EXPECT_TRUE(verified.commandErrors.empty());

  KFailureOptions failure;
  failure.k = 1;
  failure.maxCounterexamples = 50;  // Never reached: every scenario commits.
  hoyan.sweepIntentFaultTolerance("prefix = 100.0.3.0/24 => POST |> count() >= 1",
                                  failure);

  std::vector<std::string> loads;
  for (const auto& entry : verified.updatedLinkLoads.entries()) {
    char bps[64];
    std::snprintf(bps, sizeof(bps), "%a", entry.bps);
    loads.push_back(Names::str(entry.from) + ">" + Names::str(entry.to) + "=" + bps);
  }
  std::sort(loads.begin(), loads.end());

  const std::string journal = telemetry.journal().canonicalJsonl();
  incr::Fnv1a hash;
  hash.mix(journal).mix(static_cast<uint64_t>(loads.size()));
  for (const std::string& load : loads) hash.mix(load);
  PinnedRun run;
  run.routes = verified.updatedRibs.routeCount();
  hash.mix(static_cast<uint64_t>(run.routes));
  run.hash = incr::fingerprintHex(hash.digest());
  run.journalLines = static_cast<size_t>(std::count(journal.begin(), journal.end(), '\n'));
  return run;
}

TEST(JournalPinTest, FixedRunRecordIsStable) {
  WanSpec spec;
  spec.regions = 2;
  const GeneratedWan wan = generateWan(spec);
  WorkloadSpec workload;
  workload.prefixesPerIsp = 8;
  workload.prefixesPerDc = 4;
  workload.v6Share = 0;
  const std::vector<InputRoute> inputs = generateInputRoutes(wan, workload);
  const std::vector<Flow> flows = generateFlows(wan, workload, 200);

  const PinnedRun cold = runPipeline(wan, inputs, flows, /*incremental=*/false);
  const PinnedRun warm = runPipeline(wan, inputs, flows, /*incremental=*/true);

  EXPECT_EQ(cold.hash, "9a6b3d72e816cd6b") << "pin 1 (incremental off) changed";
  EXPECT_EQ(warm.hash, "c871212fdbd47890") << "pin 2 (incremental on) changed";
  if (::testing::Test::HasFailure()) {
    std::printf("actual pins:\n");
    std::printf("  pin 1  %s  (%zu journal lines, %zu routes)\n", cold.hash.c_str(),
                cold.journalLines, cold.routes);
    std::printf("  pin 2  %s  (%zu journal lines, %zu routes)\n", warm.hash.c_str(),
                warm.journalLines, warm.routes);
  }
}

}  // namespace
}  // namespace hoyan
