#include "scenario/scenarios.h"

#include <algorithm>

#include "sim/traffic_sim.h"

namespace hoyan {
namespace {

// --- small helpers over the generated WAN -----------------------------------

std::string loopbackOf(const ScenarioEnvironment& environment, const std::string& device) {
  const Device* found = environment.wan.topology.findDevice(Names::id(device));
  return found ? found->loopback.str() : "0.0.0.0";
}

Flow probeFlow(const std::string& ingress, const std::string& src, const std::string& dst,
               uint16_t port) {
  Flow flow;
  flow.ingressDevice = Names::id(ingress);
  flow.src = *IpAddress::parse(src);
  flow.dst = *IpAddress::parse(dst);
  flow.dstPort = port;
  flow.volumeBps = 1000;
  return flow;
}

}  // namespace

std::string riskRootCauseName(RiskRootCause cause) {
  switch (cause) {
    case RiskRootCause::kNone: return "none";
    case RiskRootCause::kIncorrectCommands: return "incorrect-commands";
    case RiskRootCause::kDesignFlaw: return "change-plan-design-flaw";
    case RiskRootCause::kExistingMisconfiguration: return "existing-misconfiguration";
    case RiskRootCause::kTopologyIssue: return "topology-issue";
    case RiskRootCause::kOther: return "other";
  }
  return "?";
}

ScenarioEnvironment makeStandardEnvironment(unsigned seed) {
  ScenarioEnvironment environment;
  WanSpec spec;
  spec.regions = 4;
  spec.coresPerRegion = 2;
  spec.bordersPerRegion = 1;
  spec.dcsPerRegion = 2;
  spec.ispsPerBorder = 1;
  spec.seed = seed;
  environment.wan = generateWan(spec);
  WorkloadSpec workload;
  workload.prefixesPerIsp = 16;
  workload.prefixesPerDc = 8;
  workload.attrGroupSize = 4;
  workload.v6Share = 0;
  workload.seed = seed + 7;
  environment.inputs = generateInputRoutes(environment.wan, workload);
  environment.flows = generateFlows(environment.wan, workload, 1500);
  return environment;
}

Hoyan makeHoyan(const ScenarioEnvironment& environment) {
  Hoyan hoyan(environment.wan.topology, environment.wan.configs);
  hoyan.setInputRoutes(environment.inputs);
  hoyan.setInputFlows(environment.flows);
  DistSimOptions options;
  options.workers = 4;
  options.routeSubtasks = 16;
  options.trafficSubtasks = 8;
  hoyan.setSimulationOptions(options);
  hoyan.preprocess();
  return hoyan;
}

// ---------------------------------------------------------------------------
// Table 2: the 12 change types, safe versions.
// ---------------------------------------------------------------------------
std::vector<Scenario> table2ChangeScenarios(const ScenarioEnvironment& environment) {
  std::vector<Scenario> scenarios;

  // 1. OS upgrade: router software replaced; configuration semantics must be
  // identical, so every route remains unchanged.
  {
    Scenario s;
    s.name = "os-upgrade-CORE-1-0";
    s.changeType = "OS upgrade";
    s.description = "Upgrade CORE-1-0's OS; all routes must remain unchanged";
    s.plan.name = s.name;
    s.intents.rclIntents = {"PRE = POST"};
    scenarios.push_back(std::move(s));
  }

  // 2. OS patch: hot patch with a config no-op re-assert.
  {
    Scenario s;
    s.name = "os-patch-BR-1-0";
    s.changeType = "OS patch";
    s.description = "Patch BR-1-0; re-assert an existing session option";
    s.plan.name = s.name;
    s.plan.commands = "device BR-1-0\n"
                      "router bgp 64512\n"
                      " neighbor " + loopbackOf(environment, "RR-1") + " next-hop-self\n";
    s.intents.rclIntents = {"PRE = POST"};
    scenarios.push_back(std::move(s));
  }

  // 3. Route attributes modification: routes for 100.0.3.0/24 get localPref
  // 200 at the region-0 border; everything else stays.
  {
    Scenario s;
    s.name = "route-attr-mod-lp200";
    s.changeType = "Route attributes modification";
    s.description = "Raise localPref of 100.0.3.0/24 at BR-0-0";
    s.plan.name = s.name;
    s.plan.commands =
        "device BR-0-0\n"
        "ip-prefix LP-TARGET index 10 permit 100.0.3.0/24\n"
        "route-policy ISP-IN-0 node 8 permit\n"
        " match ip-prefix LP-TARGET\n"
        " apply local-pref 200\n"
        " apply community add 100:0\n";
    s.intents.rclIntents = {
        "prefix = 100.0.3.0/24 and not device in {ISP-0-0-0} => "
        "POST |> distVals(localPref) = {200}",
        "not prefix = 100.0.3.0/24 => PRE = POST",
    };
    scenarios.push_back(std::move(s));
  }

  // 4. Static route modification: new static on CORE-0-0 must exist exactly
  // on the given set of routers.
  {
    Scenario s;
    s.name = "static-route-add";
    s.changeType = "Static route modification";
    s.description = "Install a static route on CORE-0-0 toward CORE-0-1";
    s.plan.name = s.name;
    s.plan.commands = "device CORE-0-0\n"
                      "static-route 50.0.0.0/16 nexthop " +
                      loopbackOf(environment, "CORE-0-1") + "\n";
    s.intents.rclIntents = {
        // Static routes are not BGP-carried; only CORE-0-0 holds it. (The
        // global RIB includes all protocols.)
        "prefix = 50.0.0.0/16 => POST |> distVals(device) = {CORE-0-0}",
        "prefix = 50.0.0.0/16 => POST |> distVals(protocol) = {static}",
        "not prefix = 50.0.0.0/16 => PRE = POST",
    };
    scenarios.push_back(std::move(s));
  }

  // 5. PBR modification: flows from DCGW-0-0 through CORE-0-0 toward ISP-1
  // prefixes are steered via RR-0.
  {
    Scenario s;
    s.name = "pbr-steer-via-rr";
    s.changeType = "PBR modification";
    s.description = "PBR on CORE-0-0 steers ISP-1-bound flows via RR-0";
    s.plan.name = s.name;
    const Topology& topology = environment.wan.topology;
    std::string inInterface;
    for (const Adjacency& adj : topology.adjacenciesOf(Names::id("CORE-0-0")))
      if (adj.neighbor == Names::id("DCGW-0-0")) inInterface = Names::str(adj.localInterface);
    s.plan.commands = "device CORE-0-0\n"
                      "pbr-policy STEER rule dst 100.1.0.0/16 nexthop " +
                      loopbackOf(environment, "RR-0") + "\n" +
                      "apply pbr STEER interface " + inInterface + "\n";
    PathChangeIntent intent;
    intent.fromPath = {Names::id("DCGW-0-0"), Names::id("CORE-0-0")};
    intent.toPath = {Names::id("CORE-0-0"), Names::id("RR-0")};
    intent.dstFilter = *Prefix::parse("100.1.0.0/16");
    intent.requireLeaveOldPath = false;
    s.intents.pathIntents.push_back(intent);
    scenarios.push_back(std::move(s));
  }

  // 6. ACL modification: flows to 100.2.0.0/16:443 passing CORE-0-0 from
  // DCGW-0-1 must be blocked; port 80 must keep working.
  {
    Scenario s;
    s.name = "acl-block-443";
    s.changeType = "ACL modification";
    s.description = "Block port 443 toward ISP-2 prefixes at CORE-0-0";
    s.plan.name = s.name;
    const Topology& topology = environment.wan.topology;
    std::string inInterface;
    for (const Adjacency& adj : topology.adjacenciesOf(Names::id("CORE-0-0")))
      if (adj.neighbor == Names::id("DCGW-0-1")) inInterface = Names::str(adj.localInterface);
    s.plan.commands = "device CORE-0-0\n"
                      "acl BLOCK-443 rule deny dst 100.2.0.0/16 port 443\n"
                      "acl BLOCK-443 rule permit\n"
                      "apply acl BLOCK-443 interface " + inInterface + "\n";
    s.mustBeBlocked.push_back(probeFlow("DCGW-0-1", "20.1.5.5", "100.2.1.9", 443));
    s.mustRemainReachable.push_back(probeFlow("DCGW-0-1", "20.1.5.5", "100.2.1.9", 80));
    scenarios.push_back(std::move(s));
  }

  // 7. Adding new links: a second BR-0-0 <-> ISP-0-0-0 link with a second
  // eBGP session; the border's nexthop count for ISP-0 prefixes increases.
  {
    Scenario s;
    s.name = "add-link-br0-isp0";
    s.changeType = "Adding new links";
    s.description = "Parallel link + session between BR-0-0 and ISP-0-0-0";
    s.plan.name = s.name;
    s.plan.topologyChange.addLinks.push_back(
        {Names::id("BR-0-0"), Names::id("BR-0-0:new0"), Names::id("ISP-0-0-0"),
         Names::id("ISP-0-0-0:new0")});
    s.plan.commands =
        "device BR-0-0\n"
        "interface BR-0-0:new0\n"
        " address 172.31.0.1/30\n"
        "router bgp 64512\n"
        " neighbor 172.31.0.2 remote-as 65000\n"
        " neighbor 172.31.0.2 import-policy ISP-IN-0\n"
        " neighbor 172.31.0.2 export-policy ISP-OUT\n"
        "device ISP-0-0-0\n"
        "interface ISP-0-0-0:new0\n"
        " address 172.31.0.2/30\n"
        "router bgp 65000\n"
        " neighbor 172.31.0.1 remote-as 64512\n";
    s.intents.rclIntents = {
        "device = BR-0-0 and prefix = 100.0.1.0/24 => POST |> distCnt(nexthop) >= 2",
        "device = BR-0-0 and prefix = 100.0.1.0/24 => PRE |> distCnt(nexthop) = 1",
    };
    scenarios.push_back(std::move(s));
  }

  // 8. Adding new routers: CORE-0-2 joins region 0; its BGP routes must
  // mirror CORE-0-1's.
  {
    Scenario s;
    s.name = "add-router-core-0-2";
    s.changeType = "Adding new routers";
    s.description = "Add CORE-0-2 with iBGP to RR-0 and IS-IS into the WAN";
    s.plan.name = s.name;
    Device newCore;
    newCore.name = Names::id("CORE-0-2");
    newCore.role = DeviceRole::kCore;
    newCore.loopback = *IpAddress::parse("9.9.9.9");
    newCore.igpDomain = Names::id("igp-wan");
    s.plan.topologyChange.addDevices.push_back(newCore);
    s.plan.topologyChange.addLinks.push_back(
        {Names::id("CORE-0-2"), Names::id("CORE-0-2:e0"), Names::id("CORE-0-0"),
         Names::id("CORE-0-0:new1")});
    s.plan.topologyChange.addLinks.push_back(
        {Names::id("CORE-0-2"), Names::id("CORE-0-2:e1"), Names::id("RR-0"),
         Names::id("RR-0:new1")});
    const std::string rrLoopback = loopbackOf(environment, "RR-0");
    s.plan.commands =
        "device CORE-0-2\n"
        "vendor VendorA\n"
        "hostname CORE-0-2\n"
        "router-id 9.9.9.9\n"
        "interface CORE-0-2:e0\n"
        " address 172.31.1.1/30\n"
        " isis enable\n"
        "interface CORE-0-2:e1\n"
        " address 172.31.1.5/30\n"
        " isis enable\n"
        "route-policy PASS node 10 permit\n"
        "router bgp 64512\n"
        " neighbor " + rrLoopback + " remote-as 64512\n"
        " neighbor " + rrLoopback + " import-policy PASS\n"
        " neighbor " + rrLoopback + " export-policy PASS\n"
        "device CORE-0-0\n"
        "interface CORE-0-0:new1\n"
        " address 172.31.1.2/30\n"
        " isis enable\n"
        "device RR-0\n"
        "interface RR-0:new1\n"
        " address 172.31.1.6/30\n"
        " isis enable\n"
        "router bgp 64512\n"
        " neighbor 9.9.9.9 remote-as 64512\n"
        " neighbor 9.9.9.9 import-policy PASS\n"
        " neighbor 9.9.9.9 export-policy PASS\n"
        " neighbor 9.9.9.9 reflect-client\n";
    s.intents.rclIntents = {
        // The new router carries BGP routes...
        "POST || device = CORE-0-2 || protocol = bgp |> count() >= 1",
        // ...and for every prefix CORE-0-1 knows via BGP, CORE-0-2 knows too.
        "protocol = bgp => forall prefix: "
        "(POST || device = CORE-0-1 |> count() >= 1) imply "
        "(POST || device = CORE-0-2 |> count() >= 1)",
    };
    scenarios.push_back(std::move(s));
  }

  // 9. Topology adjustment: retire the CORE-0-0 <-> CORE-1-0 inter-region
  // link; region-0-to-ISP-1 flows must move to the CORE-0-1/CORE-1-1 pair.
  {
    Scenario s;
    s.name = "topology-retire-link";
    s.changeType = "Topology adjustment";
    s.description = "Remove the CORE-0-0<->CORE-1-0 link for maintenance";
    s.plan.name = s.name;
    s.plan.topologyChange.removeLinks.push_back(
        {Names::id("CORE-0-0"), Names::id("CORE-1-0")});
    PathChangeIntent intent;
    intent.fromPath = {Names::id("CORE-0-0"), Names::id("CORE-1-0")};
    intent.toPath = {Names::id("CORE-0-1"), Names::id("CORE-1-1")};
    intent.dstFilter = *Prefix::parse("100.1.0.0/16");
    s.intents.pathIntents.push_back(intent);
    scenarios.push_back(std::move(s));
  }

  // 10. New prefix announcement: ISP-0 announces 100.77.0.0/16; it must be
  // installed network-wide.
  {
    Scenario s;
    s.name = "new-prefix-announcement";
    s.changeType = "New prefix announcement";
    s.description = "ISP-0-0-0 announces 100.77.0.0/16";
    s.plan.name = s.name;
    InputRoute announcement;
    announcement.device = Names::id("ISP-0-0-0");
    announcement.route.prefix = *Prefix::parse("100.77.0.0/16");
    announcement.route.protocol = Protocol::kBgp;
    announcement.route.attrs.origin = BgpOrigin::kIgp;
    announcement.route.nexthop =
        environment.wan.topology.findDevice(Names::id("ISP-0-0-0"))->loopback;
    announcement.route.nexthopDevice = announcement.device;
    s.plan.newInputRoutes.push_back(announcement);
    s.intents.rclIntents = {
        "POST || prefix = 100.77.0.0/16 |> distCnt(device) >= 20",
        "PRE || prefix = 100.77.0.0/16 |> count() = 0",
    };
    scenarios.push_back(std::move(s));
  }

  // 11. Prefix reclamation: DC prefix 20.0.3.0/24 is withdrawn; it must not
  // appear on any router afterwards.
  {
    Scenario s;
    s.name = "prefix-reclamation";
    s.changeType = "Prefix reclamation";
    s.description = "Reclaim DC prefix 20.0.3.0/24";
    s.plan.name = s.name;
    s.plan.withdrawnPrefixes.push_back(*Prefix::parse("20.0.3.0/24"));
    s.intents.rclIntents = {
        "POST || prefix = 20.0.3.0/24 |> count() = 0",
        "PRE || prefix = 20.0.3.0/24 |> count() >= 1",
    };
    scenarios.push_back(std::move(s));
  }

  // 12. Traffic steering: an SR policy on CORE-0-0 tunnels BR-1-0-bound
  // traffic via the CORE-2-0 chord; BGP nexthops stay, flows detour, links
  // stay unloaded.
  {
    Scenario s;
    s.name = "traffic-steering-sr";
    s.changeType = "Traffic steering";
    s.description = "SR-TE tunnel on CORE-0-0 toward BR-1-0 via CORE-2-0";
    s.plan.name = s.name;
    s.plan.commands = "device CORE-0-0\n"
                      "sr-policy TE1 endpoint " + loopbackOf(environment, "BR-1-0") +
                      " color 100 segments " + loopbackOf(environment, "CORE-2-0") + "\n";
    PathChangeIntent intent;
    intent.fromPath = {Names::id("CORE-0-0"), Names::id("CORE-1-0")};
    intent.toPath = {Names::id("CORE-0-0"), Names::id("CORE-2-0")};
    intent.dstFilter = *Prefix::parse("100.1.0.0/16");
    s.intents.pathIntents.push_back(intent);
    s.intents.rclIntents = {
        "prefix = 100.1.2.0/24 and device = CORE-0-0 => "
        "PRE |> distVals(nexthop) = POST |> distVals(nexthop)",
    };
    s.intents.maxLinkUtilization = 0.8;
    scenarios.push_back(std::move(s));
  }

  return scenarios;
}

// ---------------------------------------------------------------------------
// Table 6: risky changes.
// ---------------------------------------------------------------------------
namespace {

// A1: typo in the target router name — the change never lands.
Scenario riskDeviceNameTypo(const ScenarioEnvironment&, int region) {
  Scenario s;
  const std::string r = std::to_string(region);
  s.name = "risk-device-typo-r" + r;
  s.changeType = "Route attributes modification";
  s.description = "Commands target BR-" + r + "-9 which does not exist";
  s.risk = RiskRootCause::kIncorrectCommands;
  s.plan.name = s.name;
  s.plan.commands = "device BR-" + r + "-9\n"
                    "ip-prefix LP-TARGET index 10 permit 100." + r + ".3.0/24\n"
                    "route-policy ISP-IN-" + r + " node 8 permit\n"
                    " match ip-prefix LP-TARGET\n"
                    " apply local-pref 200\n"
                    " apply community add 100:" + r + "\n";
  s.intents.rclIntents = {
      "prefix = 100." + r + ".3.0/24 and not device in {ISP-" + r + "-0-0} => "
      "POST |> distVals(localPref) = {200}",
  };
  return s;
}

// A2: wrong prefix mask — the policy hits a whole /16 instead of one /24.
Scenario riskWrongPrefixMask(const ScenarioEnvironment&, int region) {
  Scenario s;
  const std::string r = std::to_string(region);
  s.name = "risk-wrong-mask-r" + r;
  s.changeType = "Route attributes modification";
  s.description = "Prefix list written /16 instead of /24: unintended scope";
  s.risk = RiskRootCause::kIncorrectCommands;
  s.plan.name = s.name;
  s.plan.commands = "device BR-" + r + "-0\n"
                    "ip-prefix LP-TARGET index 10 permit 100." + r + ".0.0/16 le 32\n"
                    "route-policy ISP-IN-" + r + " node 8 permit\n"
                    " match ip-prefix LP-TARGET\n"
                    " apply local-pref 200\n"
                    " apply community add 100:" + r + "\n";
  s.intents.rclIntents = {
      "prefix = 100." + r + ".3.0/24 and not device in {ISP-" + r + "-0-0} => "
      "POST |> distVals(localPref) = {200}",
      // The critical "others do not change" catches the bad mask.
      "not prefix = 100." + r + ".3.0/24 => PRE = POST",
  };
  return s;
}

// A3: typo in the filter name — on this border's vendor an undefined filter
// matches everything.
Scenario riskFilterNameTypo(const ScenarioEnvironment&, int region) {
  Scenario s;
  const std::string r = std::to_string(region);
  s.name = "risk-filter-typo-r" + r;
  s.changeType = "Route attributes modification";
  s.description = "match references LP-TARGETS (undefined); VendorC matches all";
  s.risk = RiskRootCause::kIncorrectCommands;
  s.plan.name = s.name;
  s.plan.commands = "device BR-" + r + "-0\n"
                    "ip-prefix LP-TARGET index 10 permit 100." + r + ".3.0/24\n"
                    "route-policy ISP-IN-" + r + " node 8 permit\n"
                    " match ip-prefix LP-TARGETS\n"  // <-- typo
                    " apply local-pref 200\n"
                    " apply community add 100:" + r + "\n";
  s.intents.rclIntents = {
      "not prefix = 100." + r + ".3.0/24 => PRE = POST",
  };
  return s;
}

// A4: wrong community value in the command.
Scenario riskWrongCommunity(const ScenarioEnvironment&, int region) {
  Scenario s;
  const std::string r = std::to_string(region);
  s.name = "risk-wrong-community-r" + r;
  s.changeType = "Route attributes modification";
  s.description = "Operator applies 100:99 instead of the intended 100:9";
  s.risk = RiskRootCause::kIncorrectCommands;
  s.plan.name = s.name;
  s.plan.commands = "device BR-" + r + "-0\n"
                    "ip-prefix LP-TARGET index 10 permit 100." + r + ".3.0/24\n"
                    "route-policy ISP-IN-" + r + " node 8 permit\n"
                    " match ip-prefix LP-TARGET\n"
                    " apply community add 100:99\n"  // Intended: 100:9.
                    " apply community add 100:" + r + "\n";
  s.intents.rclIntents = {
      "prefix = 100." + r + ".3.0/24 and not device in {ISP-" + r + "-0-0} => "
      "POST || (communities contains 100:9) |> count() >= 1",
  };
  return s;
}

// B1: steering local-pref too low to take effect.
Scenario riskIneffectiveLocalPref(const ScenarioEnvironment&, int region) {
  Scenario s;
  const std::string r = std::to_string(region);
  s.name = "risk-lp-too-low-r" + r;
  s.changeType = "Traffic steering";
  s.description = "localPref 100 (the default) cannot move the best path";
  s.risk = RiskRootCause::kDesignFlaw;
  s.plan.name = s.name;
  // Intended: make BR's route win with lp 200; actually sets 100 == default.
  s.plan.commands = "device BR-" + r + "-0\n"
                    "ip-prefix LP-TARGET index 10 permit 100." + r + ".3.0/24\n"
                    "route-policy ISP-IN-" + r + " node 8 permit\n"
                    " match ip-prefix LP-TARGET\n"
                    " apply local-pref 100\n"
                    " apply community add 100:" + r + "\n";
  s.intents.rclIntents = {
      "prefix = 100." + r + ".3.0/24 and not device in {ISP-" + r + "-0-0} => "
      "POST |> distVals(localPref) = {200}",
  };
  return s;
}

// B2: undersized link chosen for steered traffic (overload).
Scenario riskUndersizedLink(const ScenarioEnvironment& environment, int region) {
  Scenario s;
  const std::string r = std::to_string(region);
  s.name = "risk-undersized-link-r" + r;
  s.changeType = "Traffic steering";
  s.description = "Steered traffic exceeds the chosen link's bandwidth";
  s.risk = RiskRootCause::kDesignFlaw;
  s.plan.name = s.name;
  // The design squeezes DCGW uplink bandwidth (planned migration to a small
  // interim circuit) — flows now overload it.
  const Topology& topology = environment.wan.topology;
  std::string uplink;
  for (const Adjacency& adj : topology.adjacenciesOf(Names::id("DCGW-" + r + "-0")))
    if (adj.neighbor == Names::id("CORE-" + r + "-0"))
      uplink = Names::str(adj.localInterface);
  s.plan.commands = "device DCGW-" + r + "-0\n"
                    "interface " + uplink + "\n"
                    " bandwidth 10000\n";  // 10 kbps interim circuit.
  s.intents.maxLinkUtilization = 0.8;
  return s;
}

// B3: MED misconfiguration flips the intended primary path.
Scenario riskBadMed(const ScenarioEnvironment&, int region) {
  Scenario s;
  const std::string r = std::to_string(region);
  s.name = "risk-bad-med-r" + r;
  s.changeType = "Route attributes modification";
  s.description = "MED applied to the wrong node changes best-path selection";
  s.risk = RiskRootCause::kDesignFlaw;
  s.plan.name = s.name;
  // Intent says nothing changes for other prefixes, but the operator applies
  // the MED on the catch-all node 10 (design flaw), touching every route
  // from this ISP.
  s.plan.commands = "device BR-" + r + "-0\n"
                    "route-policy ISP-IN-" + r + " node 10 permit\n"
                    " apply med 500\n"
                    " apply community add 100:" + r + "\n";
  s.intents.rclIntents = {
      "prefix = 100." + r + ".3.0/24 and not device in {ISP-" + r + "-0-0} => "
      "POST |> distVals(med) = {500}",
      "not prefix = 100." + r + ".3.0/24 => PRE = POST",
  };
  return s;
}

// B4: a deny node sequenced before the permit node kills the session's
// routes.
Scenario riskDenySequencedFirst(const ScenarioEnvironment&, int region) {
  Scenario s;
  const std::string r = std::to_string(region);
  s.name = "risk-deny-first-r" + r;
  s.changeType = "Configuration maintenance";
  s.description = "New deny node lands before the permit node; routes vanish";
  s.risk = RiskRootCause::kDesignFlaw;
  s.plan.name = s.name;
  s.plan.commands = "device BR-" + r + "-0\n"
                    "route-policy ISP-IN-" + r + " node 7 deny\n";
  s.intents.rclIntents = {
      "PRE || prefix = 100." + r + ".1.0/24 = POST || prefix = 100." + r + ".1.0/24",
  };
  return s;
}

// B5: removing next-hop-self leaves reflected routes unresolvable.
Scenario riskRemoveNextHopSelf(const ScenarioEnvironment& environment, int region) {
  Scenario s;
  const std::string r = std::to_string(region);
  s.name = "risk-no-nhs-r" + r;
  s.changeType = "Configuration maintenance";
  s.description = "next-hop-self removed on the border; eBGP nexthops become "
                  "unresolvable inside the WAN";
  s.risk = RiskRootCause::kDesignFlaw;
  s.plan.name = s.name;
  s.plan.commands = "device BR-" + r + "-0\n"
                    "router bgp 64512\n"
                    " no neighbor " + loopbackOf(environment, "RR-" + r) +
                    " next-hop-self\n";
  s.intents.rclIntents = {
      "PRE || prefix = 100." + r + ".1.0/24 |> distCnt(device) = "
      "POST || prefix = 100." + r + ".1.0/24 |> distCnt(device)",
  };
  return s;
}

// C1: Fig. 10(a)-style — a pre-existing policy gap on one of two parallel
// routers is triggered by the change.
Scenario riskExistingPolicyGap(const ScenarioEnvironment&, int region) {
  Scenario s;
  const std::string r = std::to_string(region);
  s.name = "risk-existing-policy-gap-r" + r;
  s.changeType = "Traffic steering";
  s.description = "Pre-existing misconfig: CORE-" + r + "-0's import policy "
                  "denies routes tagged 250:1 (a fat-fingered node installed "
                  "long ago, harmless until now); the change starts tagging "
                  "the steered prefix with 250:1";
  s.risk = RiskRootCause::kExistingMisconfiguration;
  s.plan.name = s.name;
  // Phase 1 (pre-existing state, installed earlier and dormant): the stray
  // deny node on CORE-r-0 only. Phase 2 (the change): the border tags the
  // steered prefix with 250:1, triggering the dormant deny.
  s.plan.commands =
      "device CORE-" + r + "-0\n"
      "community-list STEERED index 10 permit 250:1\n"
      "route-policy PASS node 5 deny\n"
      " match community-list STEERED\n"
      "device BR-" + r + "-0\n"
      "ip-prefix LP-TARGET index 10 permit 100." + r + ".3.0/24\n"
      "route-policy ISP-IN-" + r + " node 8 permit\n"
      " match ip-prefix LP-TARGET\n"
      " apply community add 250:1\n"
      " apply community add 100:" + r + "\n";
  s.intents.rclIntents = {
      // Both parallel cores must install the steered route (Fig. 10(a)'s
      // "route R installed as best on both M1 and M2").
      "forall device in {CORE-" + r + "-0, CORE-" + r + "-1}: "
      "POST || prefix = 100." + r + ".3.0/24 |> count() >= 1",
  };
  return s;
}

// C2: a stale discard static hijacks a newly announced prefix.
Scenario riskStaleDiscardStatic(const ScenarioEnvironment& environment, int region) {
  Scenario s;
  const std::string r = std::to_string(region);
  s.name = "risk-stale-discard-r" + r;
  s.changeType = "New prefix announcement";
  s.description = "A forgotten discard static on CORE-" + r + "-0 blackholes "
                  "the newly announced prefix";
  s.risk = RiskRootCause::kExistingMisconfiguration;
  s.plan.name = s.name;
  // Pre-existing: the stale discard route (installed long ago).
  s.plan.commands = "device CORE-" + r + "-0\n"
                    "static-route 100.88.0.0/16 discard preference 1\n";
  InputRoute announcement;
  announcement.device = Names::id("ISP-" + r + "-0-0");
  announcement.route.prefix = *Prefix::parse("100.88.0.0/16");
  announcement.route.protocol = Protocol::kBgp;
  announcement.route.attrs.origin = BgpOrigin::kIgp;
  announcement.route.nexthop =
      environment.wan.topology.findDevice(Names::id("ISP-" + r + "-0-0"))->loopback;
  announcement.route.nexthopDevice = announcement.device;
  s.plan.newInputRoutes.push_back(announcement);
  s.intents.rclIntents = {
      // The new prefix's best route must be BGP everywhere it appears.
      "prefix = 100.88.0.0/16 and routeType = BEST => "
      "POST |> distVals(protocol) = {bgp}",
  };
  return s;
}

// C3: a session that always pointed at an undefined policy starts mattering.
Scenario riskUndefinedPolicyReference(const ScenarioEnvironment& environment,
                                      int region) {
  Scenario s;
  const std::string r = std::to_string(region);
  s.name = "risk-undefined-policy-r" + r;
  s.changeType = "Adding new links";
  s.description = "The new session references a policy that was never "
                  "defined on this VendorB RR; VendorB rejects all updates";
  s.risk = RiskRootCause::kExistingMisconfiguration;
  s.plan.name = s.name;
  // The change: DCGW-r-1 is re-homed to the RR with a (long-missing) policy
  // name GOLD-IN that nobody ever defined on the RR.
  s.plan.commands = "device RR-" + r + "\n"
                    "router bgp 64512\n"
                    " neighbor " + loopbackOf(environment, "DCGW-" + r + "-1") +
                    " import-policy GOLD-IN\n";
  s.intents.rclIntents = {
      // The DC's aggregate must still be present on the RR.
      "device = RR-" + r + " and prefix = 20." + std::to_string(region * 2 + 1) +
      ".0.0/16 => POST |> count() >= 1",
  };
  return s;
}

// D1: maintenance removes a link while the redundant path is already gone.
Scenario riskMaintenanceWithoutRedundancy(const ScenarioEnvironment&, int region) {
  Scenario s;
  const std::string r = std::to_string(region);
  s.name = "risk-topology-isolation-r" + r;
  s.changeType = "Topology adjustment";
  s.description = "BR-" + r + "-0's CORE-" + r + "-0 uplink is removed while "
                  "CORE-" + r + "-1 is already down: the border is isolated";
  s.risk = RiskRootCause::kTopologyIssue;
  s.plan.name = s.name;
  s.plan.topologyChange.removeDevices.push_back(Names::id("CORE-" + r + "-1"));
  s.plan.topologyChange.removeLinks.push_back(
      {Names::id("BR-" + r + "-0"), Names::id("CORE-" + r + "-0")});
  s.intents.rclIntents = {
      "POST || prefix = 100." + r + ".1.0/24 |> distCnt(device) >= 10",
  };
  return s;
}

// E1: the specification is incomplete — intents pass but a canary probe
// catches the side effect (the §7 "correct specification" lesson).
Scenario riskIncompleteSpecification(const ScenarioEnvironment&, int region) {
  Scenario s;
  const std::string r = std::to_string(region);
  s.name = "risk-incomplete-spec-r" + r;
  s.changeType = "ACL modification";
  s.description = "The ACL blocks more than intended; the written intents "
                  "pass but the canary probe fails";
  s.risk = RiskRootCause::kOther;
  s.plan.name = s.name;
  // Intended: block only port 443 to 100.<r>.1.0/24. Actual: the rule's dst
  // is the whole /16 (and the operator's intents never check other ports).
  s.plan.commands = "device BR-" + r + "-0\n"
                    "acl OOPS rule deny dst 100." + r + ".0.0/16\n"
                    "acl OOPS rule permit\n";
  // Apply on every BR interface facing CORE-r-0/1:
  s.plan.commands += "apply acl OOPS interface BR-" + r + "-0:eth0\n";
  s.intents.rclIntents = {"PRE = POST"};  // Control plane indeed unchanged.
  s.mustRemainReachable.push_back(
      probeFlow("DCGW-" + r + "-0", "20." + std::to_string(region * 2) + ".5.5",
                "100." + r + ".2.9", 80));
  return s;
}

}  // namespace

std::vector<Scenario> table6RiskScenarios(const ScenarioEnvironment& environment) {
  std::vector<Scenario> scenarios;
  // Incorrect commands: 12 (37.5%).
  for (int region = 0; region < 3; ++region) {
    scenarios.push_back(riskDeviceNameTypo(environment, region));
    scenarios.push_back(riskWrongPrefixMask(environment, region));
    scenarios.push_back(riskFilterNameTypo(environment, region));
    scenarios.push_back(riskWrongCommunity(environment, region));
  }
  // Change-plan design flaws: 11 (34.4%).
  for (int region = 0; region < 3; ++region)
    scenarios.push_back(riskIneffectiveLocalPref(environment, region));
  for (int region = 0; region < 2; ++region) {
    scenarios.push_back(riskUndersizedLink(environment, region));
    scenarios.push_back(riskBadMed(environment, region));
    scenarios.push_back(riskDenySequencedFirst(environment, region));
    scenarios.push_back(riskRemoveNextHopSelf(environment, region));
  }
  // Existing misconfigurations: 5 (15.6%).
  scenarios.push_back(riskExistingPolicyGap(environment, 0));
  scenarios.push_back(riskExistingPolicyGap(environment, 1));
  scenarios.push_back(riskStaleDiscardStatic(environment, 0));
  scenarios.push_back(riskStaleDiscardStatic(environment, 2));
  scenarios.push_back(riskUndefinedPolicyReference(environment, 0));
  // Topology issues: 2 (6.3%).
  scenarios.push_back(riskMaintenanceWithoutRedundancy(environment, 1));
  scenarios.push_back(riskMaintenanceWithoutRedundancy(environment, 2));
  // Others: 2 (6.2%).
  scenarios.push_back(riskIncompleteSpecification(environment, 0));
  scenarios.push_back(riskIncompleteSpecification(environment, 3));
  return scenarios;
}

std::string ScenarioOutcome::str() const {
  std::string out = name + " [" + riskRootCauseName(risk) + "] ";
  out += flagged ? "FLAGGED" : "clean";
  out += asExpected ? " (as expected)" : " (UNEXPECTED)";
  return out;
}

ScenarioOutcome runScenario(Hoyan& hoyan, const Scenario& scenario) {
  ScenarioOutcome outcome;
  outcome.name = scenario.name;
  outcome.risk = scenario.risk;
  outcome.verification = hoyan.verifyChange(scenario.plan, scenario.intents);

  // Data-plane probes on the post-change network.
  if (!scenario.mustBeBlocked.empty() || !scenario.mustRemainReachable.empty()) {
    NetworkModel updated = hoyan.buildUpdatedModel(scenario.plan);
    for (const Flow& flow : scenario.mustBeBlocked) {
      const FlowPath path = simulateSingleFlow(updated, outcome.verification.updatedRibs, flow);
      if (path.outcome != FlowOutcome::kDeniedAcl) outcome.probeViolations = true;
    }
    for (const Flow& flow : scenario.mustRemainReachable) {
      const FlowPath path = simulateSingleFlow(updated, outcome.verification.updatedRibs, flow);
      if (path.outcome != FlowOutcome::kDelivered && path.outcome != FlowOutcome::kExited)
        outcome.probeViolations = true;
    }
  }
  outcome.flagged = !outcome.verification.satisfied() || outcome.probeViolations;
  outcome.asExpected = outcome.flagged == scenario.expectViolation();
  return outcome;
}

}  // namespace hoyan
