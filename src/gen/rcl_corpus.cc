#include "gen/rcl_corpus.h"

#include <random>

namespace hoyan {
namespace {

std::string deviceName(std::mt19937& rng, const std::vector<NameId>& pool) {
  return Names::str(pool[rng() % pool.size()]);
}

std::string ispPrefix(std::mt19937& rng, const GeneratedWan& wan) {
  const size_t isp = rng() % std::max<size_t>(wan.externals.size(), 1);
  const size_t n = rng() % 8;
  return "100." + std::to_string(isp) + "." + std::to_string(n) + ".0/24";
}

std::string dcPrefix(std::mt19937& rng, const GeneratedWan& wan) {
  const size_t dc = rng() % std::max<size_t>(wan.dcGateways.size(), 1);
  return "20." + std::to_string(dc) + "." + std::to_string(rng() % 4) + ".0/24";
}

std::string community(std::mt19937& rng) {
  return std::to_string(100 + rng() % 3 * 100) + ":" + std::to_string(rng() % 4);
}

}  // namespace

std::vector<std::string> generateRclCorpus(const GeneratedWan& wan, size_t count,
                                           unsigned seed) {
  std::vector<std::string> corpus;
  std::mt19937 rng(seed);
  const std::vector<NameId> routers = wan.internalDevices();

  for (size_t i = 0; i < count; ++i) {
    switch (i % 10) {
      case 0:  // §4.1(a): attribute value after the change.
        corpus.push_back("prefix = " + ispPrefix(rng, wan) +
                         " => POST |> distVals(localPref) = {100}");
        break;
      case 1:  // §4.1(b): everything else unchanged.
        corpus.push_back("not prefix = " + ispPrefix(rng, wan) + " => PRE = POST");
        break;
      case 2: {  // §4.3: validating unchanged routes on a router group.
        const std::string r1 = deviceName(rng, routers);
        const std::string r2 = deviceName(rng, routers);
        corpus.push_back("forall device in {" + r1 + ", " + r2 + "}: forall prefix in {" +
                         ispPrefix(rng, wan) + ", " + dcPrefix(rng, wan) +
                         "}: routeType = BEST => "
                         "PRE |> distVals(nexthop) = POST |> distVals(nexthop)");
        break;
      }
      case 3: {  // §4.3: validating the success of route changes.
        const std::string r1 = deviceName(rng, routers);
        const std::string r2 = deviceName(rng, routers);
        corpus.push_back("forall device in {" + r1 + ", " + r2 + "}: POST || (communities contains " +
                         community(rng) + ") |> count() = 0");
        break;
      }
      case 4: {  // §4.3: conditional changes via imply.
        const std::string r1 = deviceName(rng, routers);
        corpus.push_back("forall device in {" + r1 + "}: forall prefix: "
                         "(PRE |> distVals(nexthop) = {1.2.3.4}) imply "
                         "(POST |> distVals(nexthop) = {10.2.3.4})");
        break;
      }
      case 5:  // Simple count conservation.
        corpus.push_back("POST |> count() >= PRE |> count()");
        break;
      case 6:  // Per-prefix nexthop multiplicity.
        corpus.push_back("device = " + deviceName(rng, routers) +
                         " => forall prefix: POST |> distCnt(nexthop) >= 1");
        break;
      case 7:  // Reclamation check.
        corpus.push_back("POST || prefix = " + dcPrefix(rng, wan) + " |> count() = 0");
        break;
      case 8:  // Guarded community presence with conjunction.
        corpus.push_back("prefix = " + ispPrefix(rng, wan) + " and routeType = BEST => "
                         "POST || (communities contains " + community(rng) +
                         ") |> count() >= 1 and POST |> distCnt(device) >= 2");
        break;
      case 9:  // AS-path scoped check (regex predicate).
        corpus.push_back("aspath matches \"^65000\" => "
                         "PRE |> distCnt(prefix) = POST |> distCnt(prefix)");
        break;
    }
  }
  return corpus;
}

}  // namespace hoyan
