/**
 * @file
 * Tests of the network's message slots: in-flight messages live in
 * storage the Network owns, and each deliver event names a slot.
 * These pin the properties the slot free list must keep under the
 * fault model's drop/dup/reorder, under re-entrant sends from inside
 * delivery, and across a crash-recovery reset.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "net/network.hh"

namespace tt
{
namespace
{

/** Message @p id with a recognizable argument and payload pattern. */
Message
patterned(std::uint32_t id, NodeId src, NodeId dst, std::size_t bytes)
{
    Message m;
    m.src = src;
    m.dst = dst;
    m.handler = 1;
    m.args = {id, ~id, id * 3u};
    for (std::size_t i = 0; i < bytes; ++i)
        m.data.push_back(static_cast<std::uint8_t>(id * 7u + i));
    return m;
}

/** True iff @p m still carries the pattern patterned() gave it. */
bool
intact(const Message& m, std::size_t bytes)
{
    if (m.args.size() != 3 || m.data.size() != bytes)
        return false;
    const std::uint32_t id = m.args[0];
    if (m.args[1] != ~id || m.args[2] != id * 3u)
        return false;
    for (std::size_t i = 0; i < bytes; ++i)
        if (m.data[i] != static_cast<std::uint8_t>(id * 7u + i))
            return false;
    return true;
}

/** Payload size of message @p id: none, a word, or a 128-byte block. */
std::size_t
payloadFor(std::uint32_t id)
{
    static const std::size_t kSizes[] = {0, 4, 128};
    return kSizes[id % 3];
}

/** Seeded faults, remembering the verdict given to each message id. */
class RecordingFaults final : public FaultModel
{
  public:
    RecordingFaults(int nodes, FaultParams p, StatSet& stats)
        : _inner(nodes, std::move(p), stats)
    {
    }

    Verdict
    onMessage(const Message& m, Tick when, Tick arrive) override
    {
        const Verdict v = _inner.onMessage(m, when, arrive);
        verdicts[m.args[0]] = v;
        return v;
    }

    std::map<std::uint32_t, Verdict> verdicts;

  private:
    SeededFaultModel _inner;
};

TEST(NetworkSlots, FaultedDeliveryIsExactlyOncePerPhysicalCopy)
{
    constexpr int kNodes = 4;
    constexpr std::uint32_t kMsgs = 3000;
    EventQueue eq;
    StatSet stats;
    Network net(eq, kNodes, NetworkParams{}, stats);
    RecordingFaults faults(
        kNodes, parseFaultSpec("drop=0.05,dup=0.1,reorder=0.2:64,seed=5"),
        stats);
    net.setFaults(&faults);

    std::map<std::uint32_t, int> arrivals;
    int corrupt = 0;
    for (NodeId n = 0; n < kNodes; ++n) {
        net.setReceiver(n, [&, n](Message&& m) {
            const std::uint32_t id = m.args.empty() ? 0 : m.args[0];
            if (m.dst != n || !intact(m, payloadFor(id)))
                ++corrupt;
            ++arrivals[id];
        });
    }

    for (std::uint32_t id = 0; id < kMsgs; ++id) {
        const NodeId src = static_cast<NodeId>(id % kNodes);
        const NodeId dst = static_cast<NodeId>((id / kNodes + 1 + src) %
                                               kNodes);
        if (src == dst)
            continue; // local messages bypass the fault model
        net.send(patterned(id, src, dst, payloadFor(id)), id / 8);
    }
    eq.run();

    EXPECT_EQ(corrupt, 0);
    EXPECT_EQ(net.inflight(), 0);
    ASSERT_FALSE(faults.verdicts.empty());
    for (const auto& [id, v] : faults.verdicts) {
        const int expected = (v.drop ? 0 : 1) + (v.dupArrive ? 1 : 0);
        const auto it = arrivals.find(id);
        EXPECT_EQ(it == arrivals.end() ? 0 : it->second, expected)
            << "message " << id;
    }
    // The mix really exercised every fault kind.
    EXPECT_GT(stats.get("net.faults.drops"), 0u);
    EXPECT_GT(stats.get("net.faults.dups"), 0u);
    EXPECT_GT(stats.get("net.faults.reorders"), 0u);
}

TEST(NetworkSlots, SlotCountIsBoundedByPeakInflight)
{
    // kTokens messages bounce between nodes for a long run. Each
    // delivery frees its slot before the receiver's reply takes one,
    // so the slot vector stops growing at the peak in-flight count.
    constexpr int kNodes = 4;
    constexpr int kTokens = 6;
    constexpr int kHops = 20000;
    EventQueue eq;
    StatSet stats;
    Network net(eq, kNodes, NetworkParams{}, stats);

    int hops = 0;
    long peak = 0;
    for (NodeId n = 0; n < kNodes; ++n) {
        net.setReceiver(n, [&, n](Message&& m) {
            if (++hops > kHops)
                return;
            const std::uint32_t id = m.args[0];
            net.send(patterned(id, n, static_cast<NodeId>((n + 1) % kNodes),
                               payloadFor(id)),
                     eq.now());
            peak = std::max(peak, net.inflight());
        });
    }
    for (int t = 0; t < kTokens; ++t) {
        net.send(patterned(static_cast<std::uint32_t>(t), t % kNodes,
                           (t + 1) % kNodes, payloadFor(t)),
                 0);
        peak = std::max(peak, net.inflight());
    }
    eq.run();

    EXPECT_GT(hops, kHops);
    EXPECT_EQ(peak, kTokens);
    EXPECT_EQ(net.slotCount(), static_cast<std::size_t>(peak));
    EXPECT_EQ(net.inflight(), 0);
}

TEST(NetworkSlots, SendsFromInsideDeliveryDoNotCorruptTheMessage)
{
    // The first delivery to node 1 sends enough new messages to
    // reallocate the slot vector many times over while the receiver
    // still holds the message it was given.
    constexpr std::uint32_t kBurst = 2000;
    EventQueue eq;
    StatSet stats;
    Network net(eq, 3, NetworkParams{}, stats);

    bool burst = false;
    bool heldIntact = false;
    int delivered = 0;
    int corrupt = 0;
    net.setReceiver(0, [](Message&&) {});
    net.setReceiver(1, [&](Message&& m) {
        if (!intact(m, payloadFor(m.args[0]))) {
            ++corrupt;
            return;
        }
        if (burst)
            return;
        burst = true;
        const std::size_t before = net.slotCount();
        for (std::uint32_t i = 0; i < kBurst; ++i)
            net.send(patterned(1000 + i, 1, 2, payloadFor(i)), eq.now());
        EXPECT_GT(net.slotCount(), before);
        heldIntact = intact(m, payloadFor(m.args[0]));
    });
    net.setReceiver(2, [&](Message&& m) {
        if (intact(m, payloadFor(m.args[0] - 1000)))
            ++delivered;
        else
            ++corrupt;
    });
    // Several messages in flight, so the one delivered first sits
    // among live neighbours in the slot vector.
    for (std::uint32_t id = 0; id < 6; ++id)
        net.send(patterned(id, 0, 1, payloadFor(id)), id);
    eq.run();

    EXPECT_TRUE(burst);
    EXPECT_TRUE(heldIntact);
    EXPECT_EQ(corrupt, 0);
    EXPECT_EQ(delivered, static_cast<int>(kBurst));
    EXPECT_EQ(net.inflight(), 0);
}

TEST(NetworkSlots, RecoveryResetReleasesEverySlot)
{
    EventQueue eq;
    StatSet stats;
    Network net(eq, 2, NetworkParams{}, stats);
    std::vector<std::uint32_t> got;
    net.setReceiver(0, [](Message&&) {});
    net.setReceiver(1, [&](Message&& m) { got.push_back(m.args[0]); });

    for (std::uint32_t id = 0; id < 8; ++id)
        net.send(patterned(id, 0, 1, payloadFor(id)), 0);
    ASSERT_EQ(net.inflight(), 8);
    eq.runUntil(14); // the first two have arrived (12, 13)
    ASSERT_EQ(got.size(), 2u);
    const std::size_t slots = net.slotCount();
    EXPECT_EQ(slots, 8u);

    // Crash rollback: every pending delivery is dropped wholesale.
    eq.clearPending();
    net.resetForRecovery();
    EXPECT_EQ(net.inflight(), 0);

    // All eight slots are free again, including the six whose
    // deliver events were dropped: a full refill reuses them.
    std::vector<std::uint32_t> want = got;
    for (std::uint32_t id = 100; id < 108; ++id) {
        net.send(patterned(id, 0, 1, payloadFor(id)), eq.now());
        want.push_back(id);
    }
    EXPECT_EQ(net.inflight(), 8);
    EXPECT_EQ(net.slotCount(), slots); // reused, not grown
    eq.run();
    EXPECT_EQ(got, want);
    EXPECT_EQ(net.inflight(), 0);
}

} // namespace
} // namespace tt
