// Randomized differential soundness harness for derived-hints sweep pruning
// (ISSUE 9 satellite a). For every seed: generate a small WAN + workload +
// an RCL corpus intent, then require the k-failure sweep with hints *derived
// from the intent* to be byte-identical — scenariosChecked and the ordered
// counterexample list — to both the serial oracle (checkKFailures) and an
// unpruned sweep, at 1, 3, and 6 workers. The same holds for the derived
// sweep run with sweep::intentProperty, which renders only the rows of the
// relevant prefixes, against the oracle's full-table render. Each seed also
// checks a test-local intent that reads two relevant prefixes on one device,
// which the corpus never does. A divergence prints the seed, the intent, the
// derived hints, and the smallest differing scenario so the case can be
// replayed and minimized.
//
// Seed count knob (CI sanitizer runs use a reduced set):
//   --seeds=N                     (test binary flag)
//   HOYAN_SWEEP_PROP_SEEDS=N      (environment; the flag wins)
// Default: 100 (seeds 1..100).
#include <gtest/gtest.h>

#include <cstdlib>
#include <iostream>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "gen/rcl_corpus.h"
#include "gen/wan_gen.h"
#include "gen/workload_gen.h"
#include "rcl/global_rib.h"
#include "rcl/parser.h"
#include "rcl/verify.h"
#include "sweep/derive_hints.h"
#include "sweep/sweep.h"
#include "verify/properties.h"

namespace hoyan {

size_t propSeedCount = 100;  // Overridden by main() below.

namespace {

std::string describeHints(const sweep::DeriveResult& derived) {
  std::string out = derived.scoped ? "scoped" : ("fallback: " + derived.reason);
  out += " | prefixes={";
  for (const Prefix& p : derived.hints.relevantPrefixes) out += p.str() + " ";
  out += "} devices={";
  for (const NameId d : derived.hints.relevantDevices) out += Names::str(d) + " ";
  out += "}";
  return out;
}

// Returns a divergence description, or nullopt when the results are
// byte-identical. The "minimized scenario" is the smallest failure set among
// the positions where the ordered counterexample lists disagree — the
// cheapest witness to replay.
std::optional<std::string> diverges(const KFailureResult& expected,
                                    const KFailureResult& actual) {
  std::string out;
  if (expected.scenariosChecked != actual.scenariosChecked)
    out += "scenariosChecked " + std::to_string(expected.scenariosChecked) +
           " vs " + std::to_string(actual.scenariosChecked) + "; ";
  const size_t common =
      std::min(expected.counterexamples.size(), actual.counterexamples.size());
  const FailureSet* minimized = nullptr;
  const auto size = [](const FailureSet& f) {
    return f.failedLinks.size() + f.failedDevices.size();
  };
  for (size_t i = 0; i < common; ++i) {
    const FailureSet& e = expected.counterexamples[i];
    const FailureSet& a = actual.counterexamples[i];
    if (e.failedLinks == a.failedLinks && e.failedDevices == a.failedDevices)
      continue;
    if (!minimized || size(e) < size(*minimized)) minimized = &e;
    if (size(a) < size(*minimized)) minimized = &a;
  }
  for (size_t i = common; i < expected.counterexamples.size(); ++i)
    if (!minimized || size(expected.counterexamples[i]) < size(*minimized))
      minimized = &expected.counterexamples[i];
  for (size_t i = common; i < actual.counterexamples.size(); ++i)
    if (!minimized || size(actual.counterexamples[i]) < size(*minimized))
      minimized = &actual.counterexamples[i];
  if (expected.counterexamples.size() != actual.counterexamples.size())
    out += "counterexamples " + std::to_string(expected.counterexamples.size()) +
           " vs " + std::to_string(actual.counterexamples.size()) + "; ";
  if (minimized) out += "minimized scenario: " + minimized->str();
  if (out.empty() && expected.counterexamples.size() == actual.counterexamples.size())
    return std::nullopt;
  if (out.empty()) out = "counterexample lists differ";
  return out;
}

struct SeedCase {
  WanSpec wan;
  WorkloadSpec workload;
  KFailureOptions failure;
  std::string spec;       // The corpus intent under test.
  GeneratedWan generated;
};

SeedCase buildCase(unsigned seed) {
  SeedCase c;
  c.wan.regions = 1 + (seed % 2);
  c.wan.coresPerRegion = 2;
  c.wan.bordersPerRegion = 1;
  c.wan.dcsPerRegion = 1;
  c.wan.ispsPerBorder = (seed % 3 == 0) ? 2 : 1;
  c.wan.dcnCoresPerDc = (seed % 4 == 0) ? 1 : 0;
  c.wan.seed = 1000 + seed;

  c.workload.prefixesPerIsp = 8;  // Covers the corpus's 100.<isp>.<0..7>.0/24.
  c.workload.prefixesPerDc = 4;   // Covers the corpus's 20.<dc>.<0..3>.0/24.
  c.workload.attrGroupSize = 4;
  c.workload.prefixesPerDcnCore = 2;
  // Mostly v4 so intents usually hit announced prefixes; a v6 share on some
  // seeds exercises v6 rows and the no-matching-prefix fallback.
  c.workload.v6Share = (seed % 6 == 0) ? 0.3 : 0.0;
  c.workload.seed = seed;

  c.failure.k = (seed % 5 == 0) ? 2 : 1;
  c.failure.includeDeviceFailures = (seed % 3 == 0);
  c.failure.maxCounterexamples = (seed % 2 == 0) ? 4 : 50;

  c.generated = generateWan(c.wan);
  const std::vector<std::string> corpus = generateRclCorpus(c.generated, 10, seed);
  c.spec = corpus[seed % corpus.size()];
  return c;
}

// Reads two announced ISP prefixes on one internal device. The corpus's
// scoped templates whose verdict can change under a failure each read a
// single prefix, so without this intent a scoped render that kept only one
// relevant prefix would pass every seed. Kept out of generateRclCorpus, which
// Fig. 8 and core_test share.
std::string multiPrefixIntent(const GeneratedWan& wan, const std::vector<InputRoute>& inputs,
                              unsigned seed) {
  const Prefix isp = *Prefix::parse("100.0.0.0/8");
  std::set<Prefix> announced;
  for (const InputRoute& input : inputs)
    if (isp.contains(input.route.prefix)) announced.insert(input.route.prefix);
  const std::vector<Prefix> prefixes(announced.begin(), announced.end());
  const std::vector<NameId> routers = wan.internalDevices();
  if (prefixes.size() < 2 || routers.empty()) return "";
  const size_t first = seed % prefixes.size();
  const size_t second = (first + 1 + seed % (prefixes.size() - 1)) % prefixes.size();
  return "prefix = " + prefixes[first].str() + " or prefix = " + prefixes[second].str() +
         " => POST || device = " + Names::str(routers[seed % routers.size()]) +
         " |> distCnt(prefix) = 2";
}

TEST(SweepPropTest, DerivedHintsSweepMatchesSerialOracleOnRandomCases) {
  size_t scopedSeeds = 0;
  size_t fallbackSeeds = 0;
  size_t prunedScenarios = 0;
  size_t multiPrefixPassingSeeds = 0;

  for (unsigned seed = 1; seed <= propSeedCount; ++seed) {
    const SeedCase c = buildCase(seed);
    const std::string context =
        "seed=" + std::to_string(seed) + " spec=\"" + c.spec + "\" k=" +
        std::to_string(c.failure.k) +
        (c.failure.includeDeviceFailures ? " +devices" : "");

    const NetworkModel model = c.generated.buildModel();
    const std::vector<InputRoute> inputs = generateInputRoutes(c.generated, c.workload);

    const rcl::ParseOutcome outcome = rcl::parseIntent(c.spec);
    ASSERT_TRUE(outcome.ok()) << context << " parse error: " << outcome.error;
    const rcl::IntentPtr intent = outcome.intent;
    const NetworkProperty property = [intent](const NetworkModel&,
                                              const NetworkRibs& ribs) {
      rcl::GlobalRib rib = rcl::GlobalRib::fromNetworkRibs(ribs);
      return rcl::checkIntent(*intent, rib, rib).satisfied;
    };

    const KFailureResult serial = checkKFailures(model, inputs, property, c.failure);

    const sweep::DeriveResult derived = sweep::deriveHints(*intent, model, inputs);
    (derived.scoped ? scopedSeeds : fallbackSeeds) += 1;
    const std::string hintNote = describeHints(derived);

    // Unpruned reference sweep: no relevance at all.
    {
      sweep::SweepOptions options;
      options.failure = c.failure;
      options.workers = 3;
      const sweep::SweepResult unpruned =
          sweep::sweepKFailures(model, inputs, property, options);
      const auto diff = diverges(serial, unpruned.result);
      EXPECT_FALSE(diff.has_value())
          << context << " [unpruned workers=3] " << *diff;
      EXPECT_EQ(unpruned.stats.pruned, 0u) << context;
    }

    // The facade's property: renders only the relevant prefixes' rows when
    // the intent is scoped, the full table when it falls back.
    const NetworkProperty scopedProperty = sweep::intentProperty(intent, derived);

    // Derived-hints sweeps at every worker count.
    for (const size_t workers : {1u, 3u, 6u}) {
      sweep::SweepOptions options;
      options.failure = c.failure;
      options.workers = workers;
      const sweep::SweepResult swept =
          sweep::sweepKFailures(model, inputs, property, options, derived.hints);
      const auto diff = diverges(serial, swept.result);
      EXPECT_FALSE(diff.has_value())
          << context << " [derived workers=" << workers << "] " << hintNote
          << " :: " << *diff;
      // Every enumerated scenario is scheduled, pruned, or deduped; pruning
      // adds the one shared base-network job the pruned scenarios inherit.
      EXPECT_EQ(swept.stats.scheduled + swept.stats.pruned + swept.stats.deduped,
                swept.stats.enumerated + (swept.stats.pruned > 0 ? 1 : 0))
          << context;
      if (!derived.scoped) {
        EXPECT_EQ(swept.stats.pruned, 0u) << context;
      }
      if (swept.stats.evaluated > 0) {
        // CoW accounting: a worker never materializes a full deep copy.
        EXPECT_GT(swept.stats.workerModelPeakBytes, 0u) << context;
        EXPECT_LT(swept.stats.workerModelPeakBytes,
                  swept.stats.workerModelDeepBytes)
            << context;
      }
      if (workers == 3) prunedScenarios += swept.stats.pruned;

      const sweep::SweepResult scopedSwept =
          sweep::sweepKFailures(model, inputs, scopedProperty, options, derived.hints);
      const auto scopedDiff = diverges(serial, scopedSwept.result);
      EXPECT_FALSE(scopedDiff.has_value())
          << context << " [intentProperty workers=" << workers << "] " << hintNote
          << " :: " << *scopedDiff;
    }

    // The two-prefix intent, through the facade's property only.
    {
      const std::string multiSpec = multiPrefixIntent(c.generated, inputs, seed);
      ASSERT_FALSE(multiSpec.empty()) << context << " announces fewer than two ISP prefixes";
      const std::string multiContext = context + " multi=\"" + multiSpec + "\"";
      const rcl::ParseOutcome multi = rcl::parseIntent(multiSpec);
      ASSERT_TRUE(multi.ok()) << multiContext << " parse error: " << multi.error;
      const rcl::IntentPtr multiIntent = multi.intent;
      const KFailureResult multiSerial = checkKFailures(
          model, inputs,
          [multiIntent](const NetworkModel&, const NetworkRibs& ribs) {
            rcl::GlobalRib rib = rcl::GlobalRib::fromNetworkRibs(ribs);
            return rcl::checkIntent(*multiIntent, rib, rib).satisfied;
          },
          c.failure);
      // A scenario that passes needs both prefixes' rows on the device.
      if (multiSerial.scenariosChecked > multiSerial.counterexamples.size())
        ++multiPrefixPassingSeeds;
      const sweep::DeriveResult multiDerived =
          sweep::deriveHints(*multiIntent, model, inputs);
      ASSERT_TRUE(multiDerived.scoped) << multiContext << " " << multiDerived.reason;
      EXPECT_GE(multiDerived.hints.relevantPrefixes.size(), 2u) << multiContext;
      const NetworkProperty multiProperty =
          sweep::intentProperty(multiIntent, multiDerived);
      for (const size_t workers : {1u, 3u, 6u}) {
        sweep::SweepOptions options;
        options.failure = c.failure;
        options.workers = workers;
        const sweep::SweepResult swept = sweep::sweepKFailures(
            model, inputs, multiProperty, options, multiDerived.hints);
        const auto diff = diverges(multiSerial, swept.result);
        EXPECT_FALSE(diff.has_value())
            << multiContext << " [intentProperty workers=" << workers << "] "
            << describeHints(multiDerived) << " :: " << *diff;
      }
    }

    if (::testing::Test::HasFailure()) {
      // One divergence is enough: later seeds would bury the report.
      FAIL() << "divergence at " << context << " | " << hintNote;
    }
  }

  // The corpus mix must exercise both paths (templates 0/2/7/8 scope; 3/4/5/
  // 6/9 fall back) once enough seeds run.
  if (propSeedCount >= 10) {
    EXPECT_GT(scopedSeeds, 0u);
    EXPECT_GT(fallbackSeeds, 0u);
    EXPECT_GT(multiPrefixPassingSeeds, 0u);
  }
  std::cout << "[sweep-prop] seeds=" << propSeedCount << " scoped=" << scopedSeeds
            << " fallback=" << fallbackSeeds
            << " pruned-scenarios=" << prunedScenarios
            << " multi-prefix-passing=" << multiPrefixPassingSeeds << "\n";
}

}  // namespace
}  // namespace hoyan

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  if (const char* env = std::getenv("HOYAN_SWEEP_PROP_SEEDS"))
    hoyan::propSeedCount = static_cast<size_t>(std::strtoul(env, nullptr, 10));
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--seeds=", 0) == 0)
      hoyan::propSeedCount = static_cast<size_t>(std::strtoul(arg.c_str() + 8, nullptr, 10));
  }
  if (hoyan::propSeedCount == 0) hoyan::propSeedCount = 1;
  return RUN_ALL_TESTS();
}
