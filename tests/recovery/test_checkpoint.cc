/**
 * @file
 * Checkpoint/restart acceptance tests (DESIGN.md §15): a run that
 * writes a checkpoint at a barrier epoch and a fresh run restored
 * from that file must be byte-identical from the snapshot tick on —
 * same exec time, same application checksum, same stats JSON. Also
 * pins down the snapshot file format round trip and the config
 * fingerprint.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <sstream>
#include <string>

#include "apps/workloads.hh"
#include "config/builders.hh"
#include "recovery/checkpoint.hh"
#include "recovery/snapshot.hh"

namespace tt
{
namespace
{

constexpr const char* kSystems[] = {"dirnnb", "stache", "migratory",
                                    "update"};
constexpr std::uint64_t kFp = 0x7357F00D;

MemorySystem*
memsysOf(TargetMachine& t)
{
    return t.typhoon ? static_cast<MemorySystem*>(t.typhoon.get())
                     : static_cast<MemorySystem*>(t.dir.get());
}

struct RunRec
{
    Tick cycles = 0;
    double checksum = 0;
    std::string statsJson;
};

RunRec
record(TargetMachine& t, const BenchApp& app, const RunResult& r)
{
    RunRec rec;
    rec.cycles = r.execTime;
    rec.checksum = app.checksum();
    std::ostringstream os;
    t.m().stats().writeJson(os);
    rec.statsJson = os.str();
    return rec;
}

/** Run @p system to completion, checkpointing at @p epoch. */
RunRec
runCheckpointing(const std::string& system, const std::string& file,
                 bool check, std::uint64_t epoch = 2)
{
    MachineConfig cfg;
    cfg.core.nodes = 8;
    cfg.check.enable = check;
    cfg.recovery.checkpointEpoch = epoch;
    cfg.recovery.checkpointFile = file;
    cfg.recovery.fingerprint = kFp;
    TargetMachine t = buildSystem(system, cfg);
    auto app = makeSystemApp(system, t, "em3d", DataSet::Tiny);
    const RunResult r = t.run(*app);
    EXPECT_NE(t.checkpoint, nullptr) << system;
    EXPECT_TRUE(t.checkpoint->written()) << system;
    return record(t, *app, r);
}

/** Run @p system restored from checkpoint @p file. */
RunRec
runRestored(const std::string& system, const std::string& file,
            bool check)
{
    MachineConfig cfg;
    cfg.core.nodes = 8;
    cfg.check.enable = check;
    TargetMachine t = buildSystem(system, cfg);
    auto app = makeSystemApp(system, t, "em3d", DataSet::Tiny);
    const Snapshot snap = loadSnapshot(file);
    EXPECT_EQ(snap.fingerprint, kFp) << system;
    const Machine::RestartPlan plan = restorePlan(
        snap, t.m(), *t.network, *memsysOf(t), t.checker.get());
    const RunResult r = t.run(*app, plan);
    return record(t, *app, r);
}

TEST(Checkpoint, RoundTripIsByteIdenticalOnAllSystems)
{
    for (const char* system : kSystems) {
        const std::string file = ::testing::TempDir() + "ckpt_" +
                                 system + ".bin";
        const RunRec a = runCheckpointing(system, file, false);
        const RunRec b = runRestored(system, file, false);
        EXPECT_EQ(a.cycles, b.cycles) << system;
        EXPECT_EQ(a.checksum, b.checksum) << system;
        EXPECT_EQ(a.statsJson, b.statsJson) << system;
        std::remove(file.c_str());
    }
}

TEST(Checkpoint, RoundTripComposesWithChecker)
{
    // --check=fast on both sides: the checker's shadow state is
    // canonicalized and rebuilt through the poke path; a restored run
    // must stay violation-free and byte-identical.
    const std::string file =
        ::testing::TempDir() + "ckpt_checked.bin";
    const RunRec a = runCheckpointing("stache", file, true);
    const RunRec b = runRestored("stache", file, true);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.checksum, b.checksum);
    EXPECT_EQ(a.statsJson, b.statsJson);
    std::remove(file.c_str());
}

TEST(Checkpoint, RestoreTwiceIsDeterministic)
{
    const std::string file =
        ::testing::TempDir() + "ckpt_twice.bin";
    runCheckpointing("dirnnb", file, false);
    const RunRec a = runRestored("dirnnb", file, false);
    const RunRec b = runRestored("dirnnb", file, false);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.checksum, b.checksum);
    EXPECT_EQ(a.statsJson, b.statsJson);
    std::remove(file.c_str());
}

TEST(Checkpoint, SnapshotFileRoundTripPreservesEveryField)
{
    Snapshot s;
    s.fingerprint = 0xDEAD'BEEF'1234'5678ULL;
    s.episodes = 7;
    s.tick = 123456;
    s.order = {2, 0, 3, 1};
    Snapshot::MemRange r;
    r.va = 0x10000;
    for (int i = 0; i < 300; ++i)
        r.bytes.push_back(static_cast<std::uint8_t>(i * 7));
    s.mem.push_back(r);
    s.counters = {{"alpha", 1}, {"beta", 99999999999ULL}};

    const std::string file =
        ::testing::TempDir() + "ckpt_fields.bin";
    saveSnapshot(s, file);
    const Snapshot t = loadSnapshot(file);
    EXPECT_EQ(t.fingerprint, s.fingerprint);
    EXPECT_EQ(t.episodes, s.episodes);
    EXPECT_EQ(t.tick, s.tick);
    EXPECT_EQ(t.order, s.order);
    ASSERT_EQ(t.mem.size(), 1u);
    EXPECT_EQ(t.mem[0].va, s.mem[0].va);
    EXPECT_EQ(t.mem[0].bytes, s.mem[0].bytes);
    EXPECT_EQ(t.counters, s.counters);
    std::remove(file.c_str());
}

TEST(Checkpoint, ConfigFingerprintIsStableAndDiscriminating)
{
    EXPECT_EQ(configFingerprint("stache|8|128"),
              configFingerprint("stache|8|128"));
    EXPECT_NE(configFingerprint("stache|8|128"),
              configFingerprint("stache|4|128"));
    EXPECT_NE(configFingerprint(""), configFingerprint("x"));
}

} // namespace
} // namespace tt
