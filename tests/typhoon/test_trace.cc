/**
 * @file
 * Typhoon NP activity as seen through the flight recorder: exact
 * per-node sequences of handler activations, resumes and bulk packets
 * for the canonical Stache flows. The recorder is attached to the
 * rig's network and memory system the same way attachObserver does.
 */

#include <gtest/gtest.h>

#include <vector>

#include "obs/recorder.hh"
#include "tests/helpers.hh"

namespace tt
{
namespace
{

using test::StacheRig;

/** A StacheRig with a FlightRecorder on its network and Typhoon. */
struct ObservedRig : StacheRig
{
    FlightRecorder rec;

    explicit ObservedRig(int nodes) : StacheRig(nodes), rec(nodes)
    {
        net->setRecorder(&rec);
        mem->setRecorder(&rec);
    }

    /** Node @p n's HandlerDone / Resume / BulkPacket records. */
    std::vector<TraceRecord>
    npActivity(NodeId n) const
    {
        std::vector<TraceRecord> out;
        for (const TraceRecord& r : rec.ringOf(n)) {
            if (r.kind == RecKind::HandlerDone ||
                r.kind == RecKind::Resume ||
                r.kind == RecKind::BulkPacket)
                out.push_back(r);
        }
        return out;
    }
};

void
expectHandler(const TraceRecord& r, ActKind act, std::uint64_t id)
{
    EXPECT_EQ(r.kind, RecKind::HandlerDone);
    EXPECT_EQ(r.sub, static_cast<std::uint8_t>(act));
    EXPECT_EQ(r.addr, id);
}

TEST(TyphoonTrace, RemoteReadMissProducesTheCanonicalSequence)
{
    ObservedRig rig(2);
    Addr a = rig.stache->shmalloc(4096, 0);
    rig.run([&](Cpu& cpu) -> Task<void> {
        if (cpu.id() == 1)
            co_await cpu.read<int>(a);
    });

    // Requester: page fault (CPU) -> BAF handler (GetRO sent) -> the
    // data arrival handler, which resumes the thread before it ends.
    const auto req = rig.npActivity(1);
    ASSERT_EQ(req.size(), 4u);
    expectHandler(req[0], ActKind::Page, 0);
    expectHandler(req[1], ActKind::Baf, Stache::kModeStache);
    EXPECT_EQ(req[2].kind, RecKind::Resume);
    expectHandler(req[3], ActKind::Msg, Stache::kDataRO);
    // The resume falls inside the DataRO activation's occupancy.
    EXPECT_GE(req[2].tick, req[3].tick);
    EXPECT_LE(req[2].tick, req[3].tick + req[3].t2);
    // Activations start in order.
    EXPECT_LT(req[0].tick, req[1].tick);
    EXPECT_LT(req[1].tick, req[3].tick);

    // Home: the GetRO handler, between the BAF and the data arrival.
    const auto home = rig.npActivity(0);
    ASSERT_EQ(home.size(), 1u);
    expectHandler(home[0], ActKind::Msg, Stache::kGetRO);
    EXPECT_GT(home[0].tick, req[1].tick);
    EXPECT_LT(home[0].tick, req[3].tick);
}

TEST(TyphoonTrace, WriteAfterReadShowsUpgradeFlow)
{
    ObservedRig rig(2);
    Addr a = rig.stache->shmalloc(4096, 0);
    rig.run([&](Cpu& cpu) -> Task<void> {
        if (cpu.id() == 1) {
            co_await cpu.read<int>(a);
            co_await cpu.write<int>(a, 9);
        }
    });
    // The requester's tail: BAF(write) -> resume -> DataRW arrival;
    // the home's last activation is the GetRW between them.
    const auto req = rig.npActivity(1);
    ASSERT_GE(req.size(), 3u);
    const auto n = req.size();
    expectHandler(req[n - 3], ActKind::Baf, Stache::kModeStache);
    EXPECT_EQ(req[n - 2].kind, RecKind::Resume);
    expectHandler(req[n - 1], ActKind::Msg, Stache::kDataRW);

    const auto home = rig.npActivity(0);
    ASSERT_FALSE(home.empty());
    expectHandler(home.back(), ActKind::Msg, Stache::kGetRW);
    EXPECT_GT(home.back().tick, req[n - 3].tick);
    EXPECT_LT(home.back().tick, req[n - 1].tick);
}

TEST(TyphoonTrace, BulkPacketsAreTraced)
{
    ObservedRig rig(2);
    Addr src = rig.stache->shmalloc(4096, 0);
    Addr dst = rig.stache->shmalloc(4096, 1);
    rig.mem->tempest(0).setupCtx().bulkTransfer(src, 1, dst, 256, 0);
    rig.run([&](Cpu& cpu) -> Task<void> {
        co_await cpu.compute(10000);
    });
    std::uint32_t bytes = 0;
    int bulk = 0;
    for (const TraceRecord& r : rig.npActivity(0)) {
        if (r.kind != RecKind::BulkPacket)
            continue;
        ++bulk;
        bytes += r.arg;
    }
    EXPECT_EQ(bulk, 4); // 256 bytes / 64-byte chunks
    EXPECT_EQ(bytes, 256u);
    for (const TraceRecord& r : rig.npActivity(1))
        EXPECT_NE(r.kind, RecKind::BulkPacket);
}

} // namespace
} // namespace tt
