// Topology-module tests: adjacency resolution, link/device state, change
// deltas.
#include <gtest/gtest.h>

#include "test_fixtures.h"
#include "topo/topology.h"

namespace hoyan {
namespace {

using testing::buildSmallWan;
using testing::SmallWan;

TEST(TopologyTest, AdjacenciesRespectLinkAndDeviceState) {
  SmallWan net = buildSmallWan();
  EXPECT_EQ(net.topology.adjacenciesOf(net.c1).size(), 3u);  // C2, RR1, BR1.
  net.topology.setLinkState(net.c1, net.c2, false);
  EXPECT_EQ(net.topology.adjacenciesOf(net.c1).size(), 2u);
  net.topology.setLinkState(net.c1, net.c2, true);
  net.topology.failDevice(net.c2);
  EXPECT_EQ(net.topology.adjacenciesOf(net.c1).size(), 2u);
  EXPECT_TRUE(net.topology.adjacenciesOf(net.c2).empty());
  net.topology.restoreDevice(net.c2);
  EXPECT_EQ(net.topology.adjacenciesOf(net.c1).size(), 3u);
}

TEST(TopologyTest, ShutdownInterfaceBreaksAdjacency) {
  SmallWan net = buildSmallWan();
  Device* c1 = net.topology.findDevice(net.c1);
  for (Interface& itf : c1->interfaces) itf.shutdown = true;
  EXPECT_TRUE(net.topology.adjacenciesOf(net.c1).empty());
  // The peer side sees it too.
  for (const Adjacency& adj : net.topology.adjacenciesOf(net.c2))
    EXPECT_NE(adj.neighbor, net.c1);
}

TEST(TopologyTest, ResolveNexthopFindsAdjacentOwner) {
  SmallWan net = buildSmallWan();
  const Device* c2 = net.topology.findDevice(net.c2);
  // C1 resolves C2's link address and loopback to the C2 adjacency.
  const auto byLink = net.topology.resolveNexthop(net.c1, c2->interfaces[0].address);
  ASSERT_TRUE(byLink.has_value());
  EXPECT_EQ(byLink->neighbor, net.c2);
  const auto byLoopback = net.topology.resolveNexthop(net.c1, c2->loopback);
  ASSERT_TRUE(byLoopback.has_value());
  EXPECT_EQ(byLoopback->neighbor, net.c2);
  // A non-adjacent address resolves to nothing.
  EXPECT_FALSE(net.topology.resolveNexthop(net.isp1, c2->loopback).has_value());
}

TEST(TopologyTest, RemoveLinkAndDevice) {
  SmallWan net = buildSmallWan();
  const size_t links = net.topology.links().size();
  EXPECT_TRUE(net.topology.removeLink(net.c1, net.c2));
  EXPECT_EQ(net.topology.links().size(), links - 1);
  EXPECT_FALSE(net.topology.removeLink(net.c1, net.c2));  // Already gone.
  net.topology.removeDevice(net.br1);
  EXPECT_EQ(net.topology.findDevice(net.br1), nullptr);
  for (const Link& link : net.topology.links()) {
    EXPECT_NE(link.deviceA, net.br1);
    EXPECT_NE(link.deviceB, net.br1);
  }
}

TEST(TopologyTest, DeviceByLoopback) {
  const SmallWan net = buildSmallWan();
  const Device* rr = net.topology.findDevice(net.rr1);
  EXPECT_EQ(net.topology.deviceByLoopback(rr->loopback), net.rr1);
  EXPECT_FALSE(net.topology.deviceByLoopback(*IpAddress::parse("203.0.113.1")).has_value());
}

TEST(TopologyChangeTest, AppliesAllDeltaKinds) {
  SmallWan net = buildSmallWan();
  TopologyChange change;
  Device extra;
  extra.name = Names::id("tt-NEW");
  extra.loopback = *IpAddress::parse("9.0.9.9");
  change.addDevices.push_back(extra);
  change.addLinks.push_back({Names::id("tt-NEW"), Names::id("tt-NEW:e0"), net.c1,
                             Names::id("x-if")});
  change.removeLinks.push_back({net.c1, net.c2});
  change.removeDevices.push_back(net.isp1);
  EXPECT_FALSE(change.empty());
  change.applyTo(net.topology);
  EXPECT_NE(net.topology.findDevice(Names::id("tt-NEW")), nullptr);
  EXPECT_EQ(net.topology.findDevice(net.isp1), nullptr);
  bool c1c2 = false;
  for (const Link& link : net.topology.links())
    if (link.connects(net.c1) && link.connects(net.c2)) c1c2 = true;
  EXPECT_FALSE(c1c2);
  EXPECT_TRUE(TopologyChange{}.empty());
}

TEST(FailureOverlayTest, ApplyRevertRestoresIdenticalState) {
  SmallWan net = buildSmallWan();
  // Pre-existing failures the overlay must not disturb: one link already
  // down, one device already failed.
  net.topology.setLinkState(net.c1, net.rr1, false);
  net.topology.failDevice(net.isp1);
  const std::vector<Link> linksBefore = net.topology.links();

  FailureOverlay overlay;
  overlay.addLink(net.c1, net.c2);
  overlay.addLink(net.c1, net.rr1);  // Already down: untouched.
  overlay.addDevice(net.br1);
  overlay.addDevice(net.isp1);  // Already failed: untouched.
  EXPECT_FALSE(overlay.empty());
  EXPECT_FALSE(overlay.applied());

  overlay.apply(net.topology);
  EXPECT_TRUE(overlay.applied());
  EXPECT_THROW(overlay.apply(net.topology), std::logic_error);
  // The overlay masks links rather than flipping the stored `up` flag, so the
  // effective view (linkUp) must report the failure.
  for (size_t i = 0; i < net.topology.links().size(); ++i) {
    const Link& link = net.topology.links()[i];
    if (link.connects(net.c1) && link.connects(net.c2)) {
      EXPECT_FALSE(net.topology.linkUp(i));
    }
  }
  EXPECT_FALSE(net.topology.deviceActive(net.br1));
  EXPECT_FALSE(net.topology.deviceActive(net.isp1));

  overlay.revert(net.topology);
  EXPECT_FALSE(overlay.applied());
  ASSERT_EQ(net.topology.links().size(), linksBefore.size());
  for (size_t i = 0; i < linksBefore.size(); ++i) {
    EXPECT_EQ(net.topology.links()[i].up, linksBefore[i].up) << i;
    EXPECT_EQ(net.topology.linkUp(i), linksBefore[i].up) << i;
  }
  EXPECT_TRUE(net.topology.deviceActive(net.br1));
  EXPECT_FALSE(net.topology.deviceActive(net.isp1));  // Pre-existing failure kept.
  // C1<->RR1 was down before apply and stays down after revert.
  for (size_t i = 0; i < net.topology.links().size(); ++i) {
    const Link& link = net.topology.links()[i];
    if (link.connects(net.c1) && link.connects(net.rr1)) {
      EXPECT_FALSE(net.topology.linkUp(i));
    }
  }

  // Revert when not applied is a no-op; the overlay is reusable.
  overlay.revert(net.topology);
  overlay.apply(net.topology);
  EXPECT_FALSE(net.topology.deviceActive(net.br1));
  overlay.revert(net.topology);
  EXPECT_TRUE(net.topology.deviceActive(net.br1));
}

TEST(TopologyTest, AddLinkValidatesDevices) {
  SmallWan net = buildSmallWan();
  EXPECT_THROW(net.topology.addLink(Names::id("tt-GHOST"), Names::id("i"), net.c1,
                                    Names::id("j")),
               std::invalid_argument);
}

}  // namespace
}  // namespace hoyan
