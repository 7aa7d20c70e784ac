/**
 * @file
 * End-to-end determinism regression: a seeded workload must produce
 * bit-identical results (a) across repeated runs and (b) whether the
 * event queue runs its calendar fast path or the reference heap.
 * This is the guard that keeps performance work on the simulation
 * core from silently changing simulated behaviour.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "config/bench_harness.hh"
#include "config/builders.hh"
#include "sim/event_queue.hh"

namespace tt
{
namespace
{

struct RunRecord
{
    Tick cycles = 0;
    std::uint64_t events = 0;
    double checksum = 0;
    std::string stats;
    std::uint64_t deadLinks = 0;

    bool
    operator==(const RunRecord& o) const
    {
        return cycles == o.cycles && events == o.events &&
               checksum == o.checksum && stats == o.stats;
    }
};

RunRecord
runOnce(const std::string& system, const std::string& app,
        MachineConfig cfg = {})
{
    cfg.core.nodes = 8;

    TargetMachine target;
    if (system == "dirnnb")
        target = buildDirNNB(cfg);
    else if (system == "stache")
        target = buildTyphoonStache(cfg);
    else
        target = buildTyphoonMigratory(cfg);

    auto a = makeWorkload(app, DataSet::Tiny, 1);
    const RunResult r = target.run(*a);

    RunRecord rec;
    rec.cycles = r.execTime;
    rec.events = r.events;
    rec.checksum = a->checksum();
    std::ostringstream os;
    target.m().stats().dump(os);
    rec.stats = os.str();
    if (target.m().stats().hasCounter("net.dead_links"))
        rec.deadLinks = target.m().stats().get("net.dead_links");
    return rec;
}

class ReferenceHeapScope
{
  public:
    ReferenceHeapScope() : _saved(EventQueue::defaultMode())
    {
        EventQueue::setDefaultMode(EventQueue::Mode::ReferenceHeap);
    }
    ~ReferenceHeapScope() { EventQueue::setDefaultMode(_saved); }

  private:
    EventQueue::Mode _saved;
};

TEST(Determinism, RepeatedRunsAreBitIdentical)
{
    for (const char* system : {"dirnnb", "stache", "migratory"}) {
        for (const char* app : {"mp3d", "em3d"}) {
            const RunRecord a = runOnce(system, app);
            const RunRecord b = runOnce(system, app);
            EXPECT_EQ(a, b) << system << "/" << app;
        }
    }
}

TEST(Determinism, CalendarQueueMatchesReferenceHeap)
{
    for (const char* system : {"dirnnb", "stache"}) {
        for (const char* app : {"mp3d", "em3d"}) {
            const RunRecord cal = runOnce(system, app);
            RunRecord ref;
            {
                ReferenceHeapScope scope;
                ref = runOnce(system, app);
            }
            EXPECT_EQ(cal, ref) << system << "/" << app;
        }
    }
}

TEST(Determinism, BenchHarnessReportsSimulatedResultsFaithfully)
{
    // The wall-clock harness must not perturb simulation: its cycles
    // and checksum equal a plain run's.
    const RunRecord plain = runOnce("stache", "mp3d");
    MachineConfig cfg;
    cfg.core.nodes = 8;
    const BenchCase c =
        runBenchCase("stache", "mp3d", DataSet::Tiny, 1, cfg);
    EXPECT_EQ(c.cycles, plain.cycles);
    EXPECT_EQ(c.events, plain.events);
    EXPECT_EQ(c.checksum, plain.checksum);
    EXPECT_GT(c.wallMs, 0.0);
}

TEST(Determinism, DeadLinkRevivalChurnRepeatsByteIdentically)
{
    // A hair-trigger retry cap over a reordering, duplicating fabric:
    // the ack for a message routinely arrives after its channel was
    // declared dead, so links die and are revived by late acks all
    // run long (transport.cc handleAck). Nothing is ever lost (no
    // drop faults), so the run completes clean with the fault-free
    // checksum, and the dead/revive churn replays byte-identically.
    MachineConfig cfg;
    cfg.faults = parseFaultSpec("reorder=0.05:64,dup=0.02,seed=11");
    cfg.reliable.rto = 2;
    cfg.reliable.rtoMax = 2;
    cfg.reliable.maxRetries = 1;
    const RunRecord a = runOnce("stache", "em3d", cfg);
    const RunRecord b = runOnce("stache", "em3d", cfg);
    EXPECT_GT(a.deadLinks, 0u); // links really did die mid-run
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.checksum, runOnce("stache", "em3d").checksum);
}

} // namespace
} // namespace tt
