#include "workloads.h"

#include <algorithm>
#include <map>
#include <stdexcept>

#include "rcl/global_rib.h"
#include "rcl/parser.h"
#include "rcl/verify.h"

namespace verdictbench {

using namespace hoyan;

namespace {

// splitmix64: a well-mixed stream from (seed, index) without shared state, so
// plan i is the same whether or not plans before it were generated.
uint64_t mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

uint64_t draw(uint64_t seed, uint64_t index, uint64_t salt) {
  return mix(mix(seed) ^ mix(index * 0x2545f4914f6cdd1dull + salt));
}

// Generator seeds are `unsigned`; fold the 64-bit seed into one.
unsigned foldSeed(uint64_t seed) {
  return static_cast<unsigned>(mix(seed) & 0x7fffffffu);
}

// The border that receives `prefix` from an ISP, and the import policy it
// applies there: the first input route for the prefix names the ISP, whose
// only adjacency is its border.
struct IspEntry {
  NameId border = kInvalidName;
  std::string importPolicy;
};

// Real WANs hang as-path filters off their iBGP policies; the generated PASS
// policies carry none, so the policy-evaluation memo (which only engages on
// as-path-regex policies) would never run. Every internal device gets a
// behaviour-neutral pair: a deny of an ASN no generated path carries, then a
// catch-all permit. Routes and verdicts are unchanged.
void graftAsPathFilters(GeneratedWan& wan) {
  const NameId pass = Names::id("PASS");
  const NameId blacklist = Names::id("VB-BLACKLIST");
  const NameId allow = Names::id("VB-ALLOW");
  for (const NameId name : wan.internalDevices()) {
    DeviceConfig& device = wan.configs.device(name);
    AsPathList deny;
    deny.name = blacklist;
    deny.entries.push_back({true, "_64666_"});
    device.asPathLists[blacklist] = deny;
    AsPathList any;
    any.name = allow;
    any.entries.push_back({true, ".*"});
    device.asPathLists[allow] = any;
    RoutePolicy& policy = device.routePolicy(pass);
    PolicyNode denyNode;
    denyNode.sequence = 4;
    denyNode.action = PolicyAction::kDeny;
    denyNode.match.asPathList = blacklist;
    policy.upsertNode(denyNode);
    PolicyNode permitNode;
    permitNode.sequence = 6;
    permitNode.action = PolicyAction::kPermit;
    permitNode.match.asPathList = allow;
    policy.upsertNode(permitNode);
  }
}

bool isExternal(const GeneratedWan& wan, NameId device) {
  return std::find(wan.externals.begin(), wan.externals.end(), device) !=
         wan.externals.end();
}

IspEntry ispEntryFor(const ChangeNetwork& network, const Prefix& prefix) {
  const GeneratedWan& wan = network.wan;
  for (const InputRoute& input : network.inputs) {
    if (input.route.prefix != prefix) continue;
    const auto isp = std::find(wan.externals.begin(), wan.externals.end(), input.device);
    if (isp == wan.externals.end()) continue;
    const Asn ispAsn = wan.externalAsns[isp - wan.externals.begin()];
    for (const Adjacency& adjacency : wan.topology.adjacenciesOf(input.device)) {
      const auto config = wan.configs.devices().find(adjacency.neighbor);
      if (config == wan.configs.devices().end()) continue;
      for (const BgpNeighbor& neighbor : config->second.bgp.neighbors)
        if (neighbor.remoteAs == ispAsn && neighbor.importPolicy)
          return {adjacency.neighbor, Names::str(*neighbor.importPolicy)};
    }
  }
  throw std::logic_error("no ISP border for " + prefix.str());
}

}  // namespace

bool parseWorkload(const std::string& name, Workload* out) {
  for (const Workload workload :
       {Workload::kColdChange, Workload::kWarmChange, Workload::kFaultSweep}) {
    if (name == workloadName(workload)) {
      *out = workload;
      return true;
    }
  }
  return false;
}

const char* workloadName(Workload workload) {
  switch (workload) {
    case Workload::kColdChange: return "cold-change";
    case Workload::kWarmChange: return "warm-change";
    case Workload::kFaultSweep: return "fault-sweep";
  }
  return "?";
}

const char* planKindName(PlanKind kind) {
  switch (kind) {
    case PlanKind::kScopedEdit: return "scoped-edit";
    case PlanKind::kWithdrawal: return "withdrawal";
    case PlanKind::kDeadNode: return "dead-node";
    case PlanKind::kLinkRemoval: return "link-removal";
  }
  return "?";
}

ChangeNetwork makeChangeNetwork(uint64_t seed) {
  WanSpec spec;
  spec.regions = 3;  // A ring of three: any one ring link is redundant.
  spec.coresPerRegion = 2;
  spec.bordersPerRegion = 2;
  spec.dcsPerRegion = 2;
  spec.ispsPerBorder = 2;
  spec.seed = foldSeed(seed);
  WorkloadSpec workload;
  workload.prefixesPerIsp = 32;
  workload.prefixesPerDc = 16;
  workload.attrGroupSize = 1;
  // v4 only: on some generated vendors a v4 prefix list also matches every
  // v6 route (a modelled vendor-specific behaviour), which would turn every
  // scoped edit into an all-dirty one.
  workload.v6Share = 0;
  workload.ispPathsPerPrefix = 4;
  workload.seed = foldSeed(seed + 1);

  ChangeNetwork network;
  network.wan = generateWan(spec);
  graftAsPathFilters(network.wan);
  network.inputs = generateInputRoutes(network.wan, workload);
  network.flows = generateFlows(network.wan, workload, 20000);

  for (const InputRoute& input : network.inputs)
    if (isExternal(network.wan, input.device))
      network.ispPrefixes.push_back(input.route.prefix);
  std::sort(network.ispPrefixes.begin(), network.ispPrefixes.end());
  network.ispPrefixes.erase(
      std::unique(network.ispPrefixes.begin(), network.ispPrefixes.end()),
      network.ispPrefixes.end());

  double totalVolume = 0;
  for (const Flow& flow : network.flows) totalVolume += flow.volumeBps;
  double minBandwidth = 100e9;  // checkLinkLoads' default for unknown links.
  for (const auto& [id, device] : network.wan.topology.devices())
    for (const Interface& itf : device.interfaces)
      minBandwidth = std::min(minBandwidth, itf.bandwidthBps);
  network.loadBound = totalVolume / minBandwidth * 1.01 + 1e-9;

  for (const Link& link : network.wan.topology.links())
    if (!isExternal(network.wan, link.deviceA) && !isExternal(network.wan, link.deviceB))
      network.redundantLinks.emplace_back(link.deviceA, link.deviceB);
  return network;
}

IntentSet LabeledPlan::intents() const {
  IntentSet out;
  for (const LabeledIntent& intent : rcl) out.rclIntents.push_back(intent.specification);
  out.maxLinkUtilization = maxLinkUtilization;
  return out;
}

LabeledPlan makePlan(const ChangeNetwork& network, uint64_t seed, size_t index) {
  LabeledPlan labeled;
  labeled.maxLinkUtilization = network.loadBound;
  const std::string i = std::to_string(index);
  labeled.plan.name = "plan-" + i;
  const Prefix target =
      network.ispPrefixes[draw(seed, index, 1) % network.ispPrefixes.size()];
  const std::string x = target.str();
  const IspEntry entry = ispEntryFor(network, target);
  const std::string border = Names::str(entry.border);

  switch (index % 4) {
    case 0:
    case 2:
      // Node 7 sits between the generated bogon deny (5) and the catch-all
      // permit (10), so it takes over exactly the target's routes from this
      // ISP: local-pref 200 and no region community. Only X's rows change.
      labeled.kind = PlanKind::kScopedEdit;
      labeled.plan.commands = "device " + border + "\n" +
                              "ip-prefix VB-" + i + " index 10 permit " + x + "\n" +
                              "route-policy " + entry.importPolicy + " node 7 permit\n" +
                              " match ip-prefix VB-" + i + "\n" +
                              " apply local-pref 200\n";
      labeled.rcl = {{"not prefix = " + x + " => PRE = POST", true},
                     {"prefix = " + x + " => PRE = POST", false}};
      break;
    case 1:
      // Only ISPs announce 100.0.0.0/8 space and nothing aggregates it, so
      // X's rows vanish and every other row stays.
      labeled.kind = PlanKind::kWithdrawal;
      labeled.plan.withdrawnPrefixes = {target};
      labeled.rcl = {{"prefix = " + x + " => PRE = POST", false},
                     {"not prefix = " + x + " => PRE = POST", true}};
      break;
    default:
      labeled.broad = true;
      if ((index / 4) % 2 == 0) {
        // A node with no match placed after the catch-all permit (10): no
        // route ever reaches it, so the RIBs stay identical, but the impact
        // analysis cannot bound a match-all node and marks every subtask dirty.
        labeled.kind = PlanKind::kDeadNode;
        labeled.plan.commands = "device " + border + "\n" +
                                "route-policy " + entry.importPolicy + " node " +
                                std::to_string(900 + index / 8) + " permit\n" +
                                " apply local-pref 50\n";
        labeled.rcl = {{"not prefix = " + x + " => PRE = POST", true},
                       {"prefix = " + x + " => PRE = POST", true}};
      } else {
        // A redundant link: the IGP stays connected, so every iBGP session
        // stays up and every device that held X still holds a route for it;
        // the border still learns X from its ISP. Links are taken in turn
        // from a seeded start, so none repeats within the first
        // 8 x |redundantLinks| plans.
        labeled.kind = PlanKind::kLinkRemoval;
        const size_t links = network.redundantLinks.size();
        labeled.plan.topologyChange.removeLinks = {
            network.redundantLinks[(draw(seed, 0, 2) + index / 8) % links]};
        labeled.rcl = {
            {"prefix = " + x + " => POST |> count() >= 1", true},
            {"prefix = " + x + " => PRE |> distCnt(device) = POST |> distCnt(device)",
             true}};
      }
      break;
  }
  return labeled;
}

std::string judgeChange(const LabeledPlan& labeled,
                        const std::vector<ParseError>& commandErrors,
                        const std::vector<bool>& rclVerdicts, bool loadOk) {
  if (!commandErrors.empty()) return "command error: " + commandErrors.front().message;
  if (rclVerdicts.size() != labeled.rcl.size()) return "wrong number of RCL outcomes";
  for (size_t i = 0; i < labeled.rcl.size(); ++i)
    if (rclVerdicts[i] != labeled.rcl[i].expectSatisfied)
      return std::string(planKindName(labeled.kind)) + " intent '" +
             labeled.rcl[i].specification + "' " +
             (rclVerdicts[i] ? "satisfied" : "violated") + ", expected " +
             (labeled.rcl[i].expectSatisfied ? "satisfied" : "violated");
  if (!loadOk) return "link load above the constructed bound";
  return "";
}

FaultNetwork makeFaultNetwork(uint64_t seed) {
  // Small on purpose: k = 2 over the link set is quadratic, and the serial
  // reference simulates every scenario from scratch.
  WanSpec spec;
  spec.regions = 2;
  spec.coresPerRegion = 2;
  spec.bordersPerRegion = 2;
  spec.dcsPerRegion = 1;
  spec.ispsPerBorder = 2;
  spec.seed = foldSeed(seed);
  WorkloadSpec workload;
  workload.prefixesPerIsp = 4;
  workload.prefixesPerDc = 2;
  workload.v6Share = 0;
  workload.seed = foldSeed(seed + 1);

  FaultNetwork network;
  network.wan = generateWan(spec);
  network.inputs = generateInputRoutes(network.wan, workload);
  network.failure.k = 2;
  // Uncapped: every sweep walks all its scenarios, so a sweep's cost does not
  // hinge on where in the enumeration its counterexamples happen to fall.
  network.failure.maxCounterexamples = 100000;

  // One intent per border, each on a prefix of that border's first ISP: the
  // generated WAN is symmetric across borders, so the four prune alike and a
  // sweep costs about the same whichever intent it checks. Only the prefix
  // inside each ISP's block is drawn from the seed.
  for (const size_t isp : {0, 2, 4, 6}) {
    const std::string prefix =
        "100." + std::to_string(isp) + "." +
        std::to_string(draw(seed, isp, 11) % workload.prefixesPerIsp) + ".0/24";
    network.intents.push_back(
        isp % 4 == 0 ? "prefix = " + prefix + " => POST |> count() >= 1"
                     : "prefix = " + prefix +
                           " and routeType = BEST => POST |> distCnt(device) >= 2");
  }
  return network;
}

NetworkProperty intentProperty(const std::string& specification) {
  const rcl::ParseOutcome outcome = rcl::parseIntent(specification);
  if (!outcome.ok())
    throw std::invalid_argument("intent parse error: " + outcome.error);
  const rcl::IntentPtr intent = outcome.intent;
  return [intent](const NetworkModel&, const NetworkRibs& ribs) {
    const rcl::GlobalRib rib = rcl::GlobalRib::fromNetworkRibs(ribs);
    return rcl::checkIntent(*intent, rib, rib).satisfied;
  };
}

std::string renderSweepResult(const KFailureResult& result) {
  std::string out = "checked=" + std::to_string(result.scenariosChecked);
  for (const FailureSet& failures : result.counterexamples) out += "\n" + failures.str();
  return out;
}

}  // namespace verdictbench
