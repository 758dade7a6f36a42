// Seeded inputs for the verdict benchmark: the generated networks, the change
// plan stream with the verdict each intent must get, and the fault-sweep
// intents. Everything here is a pure function of the seed, so two runs with
// one seed drive the program with identical inputs.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/hoyan.h"
#include "gen/wan_gen.h"
#include "gen/workload_gen.h"

namespace verdictbench {

enum class Workload { kColdChange, kWarmChange, kFaultSweep };

// Parses a workload name; returns false on an unknown name.
bool parseWorkload(const std::string& name, Workload* out);
const char* workloadName(Workload workload);

// The network the change workloads verify plans against.
struct ChangeNetwork {
  hoyan::GeneratedWan wan;
  std::vector<hoyan::InputRoute> inputs;
  std::vector<hoyan::Flow> flows;
  // Distinct ISP-announced prefixes, sorted; each plan picks its target here.
  std::vector<hoyan::Prefix> ispPrefixes;
  // A maxLinkUtilization no link can exceed: the sum of all flow volumes over
  // the smallest interface bandwidth (a loop-free path crosses a link once).
  double loadBound = 0;
  // Links between two of our own devices. The generator builds region
  // triangles (two cores and the route reflector), dual-homes every border
  // and DC gateway, and joins regions in a ring, so removing any one of them
  // keeps the IGP graph connected.
  std::vector<std::pair<hoyan::NameId, hoyan::NameId>> redundantLinks;
};

ChangeNetwork makeChangeNetwork(uint64_t seed);

enum class PlanKind { kScopedEdit, kWithdrawal, kDeadNode, kLinkRemoval };
const char* planKindName(PlanKind kind);

struct LabeledIntent {
  std::string specification;
  bool expectSatisfied = true;
};

struct LabeledPlan {
  hoyan::ChangePlan plan;
  PlanKind kind = PlanKind::kScopedEdit;
  // All-dirty for the incremental engine's impact analysis.
  bool broad = false;
  std::vector<LabeledIntent> rcl;
  double maxLinkUtilization = 0;  // Always satisfied (ChangeNetwork::loadBound).

  hoyan::IntentSet intents() const;
};

// Plan `index` of the stream for `seed`. Every fourth plan is broad
// (alternating a dead policy node and a link removal); the rest are
// prefix-scoped policy edits and prefix withdrawals. No two broad plans of a
// run are the same change, so each one misses the incremental cache.
LabeledPlan makePlan(const ChangeNetwork& network, uint64_t seed, size_t index);

// Compares a change verification with the plan's labels: "" when every
// verdict matches and no command failed, else the first mismatch.
std::string judgeChange(const LabeledPlan& labeled,
                        const std::vector<hoyan::ParseError>& commandErrors,
                        const std::vector<bool>& rclVerdicts, bool loadOk);

// The network and intents the fault-sweep workload checks.
struct FaultNetwork {
  hoyan::GeneratedWan wan;
  std::vector<hoyan::InputRoute> inputs;
  std::vector<std::string> intents;  // Prefix-scoped RCL intents.
  hoyan::KFailureOptions failure;    // k = 2 link failures.
};

FaultNetwork makeFaultNetwork(uint64_t seed);

// The property sweepIntentFaultTolerance checks on each degraded network:
// the intent with PRE and POST both bound to that network's global RIB.
hoyan::NetworkProperty intentProperty(const std::string& specification);

// A sweep result rendered for byte comparison: scenario count plus every
// counterexample in commit order.
std::string renderSweepResult(const hoyan::KFailureResult& result);

}  // namespace verdictbench
