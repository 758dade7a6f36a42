// RCL language tests: the Fig. 6 running example, every §4.3 use case, the
// full construct matrix, parser errors, counter-examples, a semantics
// property test against a brute-force oracle, the prefix-scoped GlobalRib
// render against the full render on a generated network, and the row render
// kernel against the snprintf-and-concatenation formatting it replaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <random>
#include <set>

#include "gen/wan_gen.h"
#include "gen/workload_gen.h"
#include "rcl/parser.h"
#include "rcl/verify.h"
#include "sim/route_sim.h"

namespace hoyan::rcl {
namespace {

// Builds the Fig. 6 example global RIBs.
RibRow row(const std::string& device, const std::string& vrf, const std::string& prefix,
           std::vector<std::string> communities, uint32_t localPref,
           const std::string& nexthop) {
  RibRow r;
  r.device = device;
  r.vrf = vrf;
  r.prefix = *Prefix::parse(prefix);
  r.communities = std::move(communities);
  r.localPref = localPref;
  r.nexthop = *IpAddress::parse(nexthop);
  r.routeType = RouteType::kBest;
  return r;
}

class Fig6Test : public ::testing::Test {
 protected:
  void SetUp() override {
    base_.add(row("A", "global", "10.0.0.0/24", {"100:1"}, 100, "2.0.0.1"));
    base_.add(row("A", "vrf1", "20.0.0.0/24", {"100:1", "200:1"}, 10, "3.0.0.1"));
    base_.add(row("B", "global", "10.0.0.0/24", {"100:1"}, 200, "4.0.0.1"));
    updated_.add(row("A", "global", "10.0.0.0/24", {"100:1"}, 300, "2.0.0.1"));
    updated_.add(row("A", "vrf1", "20.0.0.0/24", {"100:1", "200:1"}, 10, "3.0.0.1"));
    updated_.add(row("B", "global", "10.0.0.0/24", {"100:1"}, 300, "4.0.0.1"));
  }

  CheckResult check(const std::string& spec) {
    return checkIntentText(spec, base_, updated_);
  }

  GlobalRib base_;
  GlobalRib updated_;
};

TEST_F(Fig6Test, Section41IntentA) {
  // Routes with prefix 10.0.0.0/24 have local preference 300 after the change.
  const CheckResult result =
      check("prefix = 10.0.0.0/24 => POST |> distVals(localPref) = {300}");
  EXPECT_TRUE(result.satisfied) << result.summary();
}

TEST_F(Fig6Test, Section41IntentB) {
  // Routes with other prefixes remain unchanged.
  const CheckResult result = check("prefix != 10.0.0.0/24 => PRE = POST");
  EXPECT_TRUE(result.satisfied) << result.summary();
}

TEST_F(Fig6Test, IntentAViolatedWhenValueWrong) {
  const CheckResult result =
      check("prefix = 10.0.0.0/24 => POST |> distVals(localPref) = {400}");
  EXPECT_FALSE(result.satisfied);
  ASSERT_FALSE(result.violations.empty());
  // The counter-example carries the actual distinct values.
  EXPECT_NE(result.violations[0].message.find("{300}"), std::string::npos)
      << result.violations[0].message;
  EXPECT_FALSE(result.violations[0].exampleRows.empty());
}

TEST_F(Fig6Test, UnchangedIntentViolatedWhenRibsDiffer) {
  // The full RIBs differ (localPref changed on 10.0.0.0/24).
  const CheckResult result = check("PRE = POST");
  EXPECT_FALSE(result.satisfied);
}

TEST_F(Fig6Test, UseCaseValidatingUnchangedRoutes) {
  const CheckResult result = check(
      "forall device in {A, B}: forall prefix in {10.0.0.0/24, 20.0.0.0/24}: "
      "routeType = BEST => "
      "PRE |> distVals(nexthop) = POST |> distVals(nexthop)");
  EXPECT_TRUE(result.satisfied) << result.summary();
}

TEST_F(Fig6Test, UseCaseValidatingRouteChangeSuccess) {
  // No route containing community 100:1 on device B: violated (B has one).
  const CheckResult violated =
      check("forall device in {B}: POST || (communities contains 100:1) |> count() = 0");
  EXPECT_FALSE(violated.satisfied);
  // Community 999:9 is absent: satisfied.
  const CheckResult satisfied =
      check("forall device in {A, B}: POST || (communities contains 999:9) |> count() = 0");
  EXPECT_TRUE(satisfied.satisfied) << satisfied.summary();
}

TEST_F(Fig6Test, UseCaseConditionalChange) {
  const CheckResult result = check(
      "forall device in {A, B}: forall prefix: "
      "(PRE |> distVals(nexthop) = {2.0.0.1}) imply "
      "(POST |> distVals(nexthop) = {2.0.0.1})");
  EXPECT_TRUE(result.satisfied) << result.summary();
}

TEST_F(Fig6Test, ForallGroupsByFieldValues) {
  // Each (device, prefix) group has exactly one distinct nexthop.
  const CheckResult result =
      check("forall device: forall prefix: POST |> distCnt(nexthop) = 1");
  EXPECT_TRUE(result.satisfied) << result.summary();
}

TEST_F(Fig6Test, CountAndArithmetic) {
  EXPECT_TRUE(check("POST |> count() = 3").satisfied);
  EXPECT_TRUE(check("POST |> count() = PRE |> count()").satisfied);
  EXPECT_TRUE(check("POST |> count() + 1 = 4").satisfied);
  EXPECT_TRUE(check("POST |> count() * 2 = 6").satisfied);
  EXPECT_TRUE(check("POST |> count() - 1 = 2").satisfied);
  EXPECT_TRUE(check("POST |> count() / 3 = 1").satisfied);
  EXPECT_TRUE(check("POST |> count() >= 3").satisfied);
  EXPECT_FALSE(check("POST |> count() < 3").satisfied);
}

TEST_F(Fig6Test, FilterTransformChains) {
  EXPECT_TRUE(check("POST || device = A |> count() = 2").satisfied);
  EXPECT_TRUE(check("POST || device = A || vrf = vrf1 |> count() = 1").satisfied);
  EXPECT_TRUE(check("POST || (device = A and vrf = global) |> count() = 1").satisfied);
}

TEST_F(Fig6Test, PredicateOperators) {
  EXPECT_TRUE(check("vrf = vrf1 => POST |> distVals(localPref) = {10}").satisfied);
  EXPECT_TRUE(check("localPref >= 300 => POST |> distCnt(device) = 2").satisfied);
  EXPECT_TRUE(
      check("communities contains 200:1 => POST |> distVals(prefix) = {20.0.0.0/24}")
          .satisfied);
  EXPECT_TRUE(check("device in {A} and vrf in {vrf1} => POST |> count() = 1").satisfied);
  EXPECT_TRUE(check("prefix matches \"^20\" => POST |> count() = 1").satisfied);
  EXPECT_TRUE(check("not device = A => POST |> count() = 1").satisfied);
}

TEST_F(Fig6Test, BooleanIntentComposition) {
  EXPECT_TRUE(check("POST |> count() = 3 and PRE |> count() = 3").satisfied);
  EXPECT_TRUE(check("POST |> count() = 99 or PRE |> count() = 3").satisfied);
  EXPECT_FALSE(check("not PRE |> count() = 3").satisfied);
  EXPECT_TRUE(check("POST |> count() = 99 imply PRE |> count() = 55").satisfied);
}

TEST_F(Fig6Test, RibInequality) {
  EXPECT_TRUE(check("PRE != POST").satisfied);
  EXPECT_FALSE(check("PRE != PRE").satisfied);
  EXPECT_TRUE(check("PRE || vrf = vrf1 = POST || vrf = vrf1").satisfied);
}

TEST(RclParserTest, ReportsErrors) {
  EXPECT_FALSE(parseIntent("").ok());
  EXPECT_FALSE(parseIntent("prefix = ").ok());
  EXPECT_FALSE(parseIntent("bogusfield = 3 => PRE = POST").ok());
  EXPECT_FALSE(parseIntent("PRE > POST").ok());  // RIBs compare only =/!=.
  EXPECT_FALSE(parseIntent("POST |> bogusFunc() = 1").ok());
  EXPECT_FALSE(parseIntent("forall prefix POST |> count() = 1").ok());  // Missing ':'.
  EXPECT_FALSE(parseIntent("PRE = POST trailing").ok());
}

TEST(RclParserTest, SizeMetricCountsInternalNodes) {
  // A guarded intent: guard (1 internal: the comparison) + guard node +
  // compare node + aggregate node...
  const ParseOutcome simple = parseIntent("PRE = POST");
  ASSERT_TRUE(simple.ok());
  EXPECT_EQ(simple.intent->internalNodes(), 1u);
  const ParseOutcome guarded =
      parseIntent("prefix = 10.0.0.0/24 => POST |> distVals(localPref) = {300}");
  ASSERT_TRUE(guarded.ok());
  // guard(=>)=1 + predicate(=)=1 + evalCompare(=)=1 + aggregate(|>)=1 -> 4.
  EXPECT_EQ(guarded.intent->internalNodes(), 4u);
  // >90% of production specs are below 15 — a representative nested spec
  // stays compact.
  const ParseOutcome nested = parseIntent(
      "forall device in {R1, R2}: forall prefix: "
      "(PRE |> distVals(nexthop) = {1.2.3.4}) imply "
      "(POST |> distVals(nexthop) = {10.2.3.4})");
  ASSERT_TRUE(nested.ok());
  EXPECT_LT(nested.intent->internalNodes(), 15u);
}

TEST(RclParserTest, RoundTripThroughStr) {
  const char* specs[] = {
      "prefix = 10.0.0.0/24 => POST |> distVals(localPref) = {300}",
      "forall device: forall prefix: POST |> distCnt(nexthop) = 1",
      "POST || (communities contains 100:1) |> count() = 0",
      "PRE != POST",
  };
  for (const char* spec : specs) {
    const ParseOutcome first = parseIntent(spec);
    ASSERT_TRUE(first.ok()) << spec << ": " << first.error;
    const ParseOutcome second = parseIntent(first.intent->str());
    ASSERT_TRUE(second.ok()) << first.intent->str() << ": " << second.error;
    EXPECT_EQ(first.intent->str(), second.intent->str());
    EXPECT_EQ(first.intent->internalNodes(), second.intent->internalNodes());
  }
}

TEST(RclParserTest, ParseFailureSurfacesAsViolation) {
  GlobalRib empty;
  const CheckResult result = checkIntentText("((", empty, empty);
  EXPECT_FALSE(result.satisfied);
  ASSERT_EQ(result.violations.size(), 1u);
  EXPECT_NE(result.violations[0].message.find("parse error"), std::string::npos);
}

TEST(RclSemanticsTest, ForallBindingAppearsInCounterexampleContext) {
  GlobalRib base, updated;
  base.add(row("R1", "global", "10.0.0.0/24", {}, 100, "1.1.1.1"));
  base.add(row("R2", "global", "10.0.0.0/24", {}, 100, "1.1.1.1"));
  updated.add(row("R1", "global", "10.0.0.0/24", {}, 100, "1.1.1.1"));
  updated.add(row("R2", "global", "10.0.0.0/24", {}, 100, "9.9.9.9"));
  const CheckResult result = checkIntentText(
      "forall device: PRE |> distVals(nexthop) = POST |> distVals(nexthop)", base,
      updated);
  EXPECT_FALSE(result.satisfied);
  ASSERT_FALSE(result.violations.empty());
  EXPECT_EQ(result.violations[0].context, "device=R2");
}

TEST(RclSemanticsTest, EmptyGroupsAreCheckedAgainstAggregates) {
  // forall over explicit values includes values with no matching rows: the
  // sub-intent then sees empty RIBs (count 0).
  GlobalRib base, updated;
  updated.add(row("R1", "global", "10.0.0.0/24", {}, 100, "1.1.1.1"));
  const CheckResult zero = checkIntentText(
      "forall device in {R-ABSENT}: POST |> count() = 0", base, updated);
  EXPECT_TRUE(zero.satisfied) << zero.summary();
  const CheckResult nonzero = checkIntentText(
      "forall device in {R-ABSENT}: POST |> count() >= 1", base, updated);
  EXPECT_FALSE(nonzero.satisfied);
}

// Property test: distCnt == |distVals| and count >= distCnt, on random RIBs.
TEST(RclSemanticsTest, AggregateConsistencyProperty) {
  std::mt19937 rng(7);
  GlobalRib base, updated;
  const char* devices[] = {"R1", "R2", "R3"};
  for (int i = 0; i < 60; ++i) {
    RibRow r = row(devices[rng() % 3], "global",
                   "10." + std::to_string(rng() % 4) + ".0.0/16", {},
                   100 * (rng() % 3 + 1), "1.1.1." + std::to_string(rng() % 5));
    (rng() % 2 ? base : updated).add(r);
  }
  for (const char* field : {"device", "prefix", "nexthop", "localPref"}) {
    for (const char* side : {"PRE", "POST"}) {
      const std::string spec = std::string(side) + " |> distCnt(" + field + ") = " +
                               std::string(side) + " |> distCnt(" + field + ")";
      EXPECT_TRUE(checkIntentText(spec, base, updated).satisfied);
    }
  }
  // count >= distCnt(nexthop) on both sides.
  EXPECT_TRUE(checkIntentText("PRE |> count() >= PRE |> distCnt(nexthop)", base, updated)
                  .satisfied);
  EXPECT_TRUE(
      checkIntentText("POST |> count() >= POST |> distCnt(nexthop)", base, updated)
          .satisfied);
}

// --- prefix-scoped render ------------------------------------------------------

// The simulated RIBs of a small generated WAN, local routes included, with
// DC aggregates (20.<dc>.0.0/16, summary-only) configured.
const NetworkRibs& corpusRibs() {
  static const NetworkRibs ribs = [] {
    WanSpec wan;
    wan.regions = 2;
    wan.seed = 42;
    const GeneratedWan generated = generateWan(wan);
    WorkloadSpec workload;
    workload.prefixesPerIsp = 24;
    workload.prefixesPerDc = 8;
    workload.v6Share = 0.25;
    const std::vector<InputRoute> inputs = generateInputRoutes(generated, workload);
    RouteSimOptions options;
    options.includeLocalRoutes = true;
    const NetworkModel model = generated.buildModel();
    return simulateRoutes(model, inputs, options).ribs;
  }();
  return ribs;
}

std::vector<Prefix> tablePrefixes(const GlobalRib& rib) {
  std::set<Prefix> prefixes;
  for (const RibRow& r : rib.rows()) prefixes.insert(r.prefix);
  return {prefixes.begin(), prefixes.end()};
}

// Restricts a bucket of full-table row indices to the scope and maps it onto
// scoped-table indices (`position[i]` is full row i's scoped index, or -1).
std::vector<uint32_t> restrictToScope(const std::vector<uint32_t>& fullRows,
                                      const std::vector<int64_t>& position) {
  std::vector<uint32_t> out;
  for (const uint32_t row : fullRows)
    if (position[row] >= 0) out.push_back(static_cast<uint32_t>(position[row]));
  return out;
}

// The scoped table must be the full table filtered to `scope`: same rows,
// renders and hashes in the same relative order, and the same prefilter
// answers restricted to the scope.
void expectFilteredTable(const GlobalRib& full, std::vector<Prefix> scope) {
  std::sort(scope.begin(), scope.end());
  const GlobalRib scoped = GlobalRib::fromNetworkRibs(corpusRibs(), scope);
  ASSERT_TRUE(scoped.finalized());
  std::vector<int64_t> position(full.size(), -1);
  int64_t kept = 0;
  for (uint32_t i = 0; i < full.size(); ++i)
    if (std::binary_search(scope.begin(), scope.end(), full.rows()[i].prefix))
      position[i] = kept++;
  ASSERT_EQ(scoped.size(), static_cast<size_t>(kept));
  for (uint32_t i = 0; i < full.size(); ++i) {
    if (position[i] < 0) continue;
    const auto j = static_cast<uint32_t>(position[i]);
    EXPECT_TRUE(scoped.rows()[j].rowEquals(full.rows()[i])) << full.renderedRow(i);
    EXPECT_EQ(scoped.renderedRow(j), full.renderedRow(i));
    EXPECT_EQ(scoped.rowHash(j), full.rowHash(i));
  }
  // Prefix buckets: every scope prefix, plus prefixes outside the scope
  // (empty in the scoped table).
  std::vector<std::string> probes;
  for (const Prefix& p : scope) probes.push_back(p.str());
  for (const Prefix& p : tablePrefixes(full))
    if (probes.size() < scope.size() + 8 &&
        !std::binary_search(scope.begin(), scope.end(), p))
      probes.push_back(p.str());
  for (const std::string& value : probes) {
    const std::vector<uint32_t>* fullBucket = full.fieldBucket(Field::kPrefix, value);
    const std::vector<uint32_t>* scopedBucket = scoped.fieldBucket(Field::kPrefix, value);
    ASSERT_NE(fullBucket, nullptr);
    ASSERT_NE(scopedBucket, nullptr);
    EXPECT_EQ(*scopedBucket, restrictToScope(*fullBucket, position)) << value;
    for (const CompareOp op :
         {CompareOp::kGt, CompareOp::kGe, CompareOp::kLt, CompareOp::kLe}) {
      const auto fullRange = full.prefixRangeBucket(op, value);
      const auto scopedRange = scoped.prefixRangeBucket(op, value);
      ASSERT_TRUE(fullRange && scopedRange);
      EXPECT_EQ(*scopedRange, restrictToScope(*fullRange, position)) << value;
    }
  }
}

TEST(ScopedRenderTest, EmptyOrAbsentScopeRendersTheFullTable) {
  const GlobalRib full = GlobalRib::fromNetworkRibs(corpusRibs());
  const GlobalRib empty = GlobalRib::fromNetworkRibs(corpusRibs(), {});
  ASSERT_GT(full.size(), 100u);
  ASSERT_EQ(empty.size(), full.size());
  for (uint32_t i = 0; i < full.size(); ++i) {
    EXPECT_EQ(empty.renderedRow(i), full.renderedRow(i));
    EXPECT_EQ(empty.rowHash(i), full.rowHash(i));
  }
  EXPECT_EQ(empty.renderOrder(), full.renderOrder());
}

TEST(ScopedRenderTest, ScopePrefixWithoutRowsRendersNothingForIt) {
  const GlobalRib full = GlobalRib::fromNetworkRibs(corpusRibs());
  const Prefix absent = *Prefix::parse("203.0.113.0/24");
  EXPECT_EQ(GlobalRib::fromNetworkRibs(corpusRibs(), std::vector{absent}).size(), 0u);
  const Prefix present = *Prefix::parse("100.0.0.0/24");
  ASSERT_FALSE(full.fieldBucket(Field::kPrefix, present.str())->empty());
  expectFilteredTable(full, {absent, present});
}

TEST(ScopedRenderTest, AggregateClosedSuperset) {
  // A DC more-specific plus every table prefix covering it: the summary-only
  // aggregate joins the scope, as deriveHints' aggregate closure would add.
  const GlobalRib full = GlobalRib::fromNetworkRibs(corpusRibs());
  const Prefix specific = *Prefix::parse("20.0.1.0/24");
  std::vector<Prefix> scope;
  for (const Prefix& p : tablePrefixes(full))
    if (p.contains(specific)) scope.push_back(p);
  ASSERT_GE(scope.size(), 2u);  // The /24 and its 20.0.0.0/16 aggregate.
  expectFilteredTable(full, scope);
}

TEST(ScopedRenderTest, LargeComplementScope) {
  // The scope of `not prefix = X`: every table prefix but one.
  const GlobalRib full = GlobalRib::fromNetworkRibs(corpusRibs());
  std::vector<Prefix> scope = tablePrefixes(full);
  const Prefix excluded = *Prefix::parse("100.0.0.0/24");
  ASSERT_EQ(std::erase(scope, excluded), 1u);
  expectFilteredTable(full, scope);
}

// --- render kernel --------------------------------------------------------------

// The formatting IpAddress::str, Prefix::str and RibRow::str had before
// they wrote into one caller buffer, kept as the byte-identity reference.
std::string referenceAddress(const IpAddress& address) {
  char buffer[64];
  if (address.isV4()) {
    const uint32_t v = address.v4Value();
    std::snprintf(buffer, sizeof(buffer), "%u.%u.%u.%u", (v >> 24) & 0xff, (v >> 16) & 0xff,
                  (v >> 8) & 0xff, v & 0xff);
    return buffer;
  }
  std::array<uint16_t, 8> groups;
  for (int i = 0; i < 4; ++i)
    groups[i] = static_cast<uint16_t>(address.bits().hi >> (48 - 16 * i));
  for (int i = 0; i < 4; ++i)
    groups[4 + i] = static_cast<uint16_t>(address.bits().lo >> (48 - 16 * i));
  int bestStart = -1;
  int bestLen = 0;
  for (int i = 0; i < 8;) {
    if (groups[i] != 0) {
      ++i;
      continue;
    }
    int j = i;
    while (j < 8 && groups[j] == 0) ++j;
    if (j - i > bestLen) {
      bestLen = j - i;
      bestStart = i;
    }
    i = j;
  }
  std::string out;
  if (bestLen < 2) bestStart = -1;
  for (int i = 0; i < 8; ++i) {
    if (i == bestStart) {
      out += i == 0 ? "::" : ":";
      i += bestLen - 1;
      if (i == 7) return out;
      continue;
    }
    std::snprintf(buffer, sizeof(buffer), "%x", groups[i]);
    out += buffer;
    if (i != 7) out += ':';
  }
  return out;
}

std::string referencePrefix(const Prefix& prefix) {
  return referenceAddress(prefix.address()) + "/" + std::to_string(prefix.length());
}

std::string referenceRow(const RibRow& r) {
  std::string out = r.device + "/" + r.vrf + " " + referencePrefix(r.prefix) +
                    " nh=" + referenceAddress(r.nexthop) +
                    " lp=" + std::to_string(r.localPref) + " med=" + std::to_string(r.med) +
                    " w=" + std::to_string(r.weight) + " igp=" + std::to_string(r.igpCost) +
                    " type=" + routeTypeName(r.routeType) + " proto=" +
                    protocolName(r.protocol);
  if (!r.communities.empty()) {
    out += " comm=[";
    for (size_t i = 0; i < r.communities.size(); ++i) {
      if (i) out += ' ';
      out += r.communities[i];
    }
    out += ']';
  }
  if (!r.asPath.empty()) out += " path=[" + r.asPath + "]";
  return out;
}

// IPv6 groups drawn so zero runs of every length and position are common.
IpAddress randomV6(std::mt19937_64& rng) {
  uint64_t halves[2] = {0, 0};
  for (int group = 0; group < 8; ++group) {
    const uint64_t value = rng() % 3 == 0 ? rng() & 0xffff : 0;
    halves[group / 4] |= value << (48 - 16 * (group % 4));
  }
  return IpAddress::v6(halves[0], halves[1]);
}

IpAddress randomAddress(std::mt19937_64& rng) {
  if (rng() % 2) return randomV6(rng);
  // Octets of 0, one and two digits, and 255 all show up.
  uint32_t value = 0;
  for (int octet = 0; octet < 4; ++octet) {
    const uint32_t kinds[] = {0, static_cast<uint32_t>(rng() % 10),
                              static_cast<uint32_t>(rng() % 100),
                              static_cast<uint32_t>(rng() % 256), 255};
    value = (value << 8) | kinds[rng() % 5];
  }
  return IpAddress::v4(value);
}

void expectAddressRendersLikeReference(const IpAddress& address) {
  EXPECT_EQ(address.str(), referenceAddress(address));
  std::string appended = "x";
  address.appendTo(appended);
  EXPECT_EQ(appended, "x" + referenceAddress(address));
}

void expectPrefixRendersLikeReference(const Prefix& prefix) {
  EXPECT_EQ(prefix.str(), referencePrefix(prefix));
  std::string appended = "x";
  prefix.appendTo(appended);
  EXPECT_EQ(appended, "x" + referencePrefix(prefix));
}

TEST(RenderKernelTest, EdgeAddressesAndPrefixesRenderLikeTheReference) {
  for (const char* text : {"0.0.0.0/0", "255.255.255.255/32", "10.0.0.0/8", "1.2.3.4/31",
                           "::/0", "::1/128", "::/128", "1::/16", "1::1/128",
                           "2400:db8::/32", "1:0:0:1::1/128", "1:0:0:1:0:0:0:1/128",
                           "1:0:1:0:1:0:1:0/128", "ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff/128",
                           "0:0:1::/48", "1::2:0:0:3/128"}) {
    const auto prefix = Prefix::parse(text);
    ASSERT_TRUE(prefix.has_value()) << text;
    expectPrefixRendersLikeReference(*prefix);
    expectAddressRendersLikeReference(prefix->address());
  }
  EXPECT_EQ(Prefix::parse("0.0.0.0/0")->str(), "0.0.0.0/0");
  EXPECT_EQ(Prefix::parse("255.255.255.255/32")->str(), "255.255.255.255/32");
  EXPECT_EQ(IpAddress::parse("::")->str(), "::");
  EXPECT_EQ(IpAddress::parse("::1")->str(), "::1");
  EXPECT_EQ(IpAddress::parse("1:0:0:1:0:0:0:1")->str(), "1:0:0:1::1");
}

TEST(RenderKernelTest, RandomAddressesAndPrefixesRenderLikeTheReference) {
  std::mt19937_64 rng(20251);
  for (int i = 0; i < 4000; ++i) {
    const IpAddress address = randomAddress(rng);
    expectAddressRendersLikeReference(address);
    const uint8_t length = static_cast<uint8_t>(rng() % (address.width() + 1));
    expectPrefixRendersLikeReference(Prefix(address, length));
  }
}

TEST(RenderKernelTest, RowsRenderLikeTheReference) {
  std::mt19937_64 rng(7);
  const std::vector<std::vector<std::string>> communitySets = {
      {}, {"100:1"}, {"100:1", "200:65535", "65535:65535"}};
  const std::vector<std::string> paths = {"", "65000", "100 200 {300 400}"};
  const uint32_t numbers[] = {0, 7, 100, 4294967295u};
  size_t rows = 0;
  for (const RouteType type : {RouteType::kBest, RouteType::kEcmp, RouteType::kAlternate})
    for (const Protocol protocol : {Protocol::kDirect, Protocol::kStatic, Protocol::kIsis,
                                    Protocol::kBgp, Protocol::kAggregate})
      for (const auto& communities : communitySets)
        for (const std::string& path : paths) {
          RibRow r;
          r.device = rng() % 2 ? "BR-0-0" : "a-much-longer-device-name-0123456789";
          r.vrf = rng() % 2 ? "global" : "VRF-CUSTOMER";
          const IpAddress address = randomAddress(rng);
          r.prefix = Prefix(address, static_cast<uint8_t>(rng() % (address.width() + 1)));
          r.nexthop = randomAddress(rng);
          r.localPref = numbers[rng() % 4];
          r.med = numbers[rng() % 4];
          r.weight = numbers[rng() % 4];
          r.igpCost = numbers[rng() % 4];
          r.communities = communities;
          r.asPath = path;
          r.routeType = type;
          r.protocol = protocol;
          EXPECT_EQ(r.str(), referenceRow(r));
          ++rows;
        }
  EXPECT_EQ(rows, 3u * 5u * 3u * 3u);
}

TEST(RenderKernelTest, GeneratedTableRendersLikeTheReference) {
  const GlobalRib table = GlobalRib::fromNetworkRibs(corpusRibs());
  ASSERT_GT(table.size(), 0u);
  for (uint32_t i = 0; i < table.size(); ++i)
    ASSERT_EQ(table.renderedRow(i), referenceRow(table.rows()[i])) << i;
}

}  // namespace
}  // namespace hoyan::rcl
