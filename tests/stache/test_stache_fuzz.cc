/**
 * @file
 * Property/fuzz tests of the Stache protocol: serial reference
 * checking, concurrent phased traffic, replacement pressure, and
 * cross-system equivalence (the same program must compute identical
 * data on DirNNB and Typhoon/Stache — under Stache the data really
 * moves between per-node memories, so this checks the protocol, not
 * the scoreboard).
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "mem/addr.hh"
#include "sim/random.hh"
#include "tests/helpers.hh"

namespace tt
{
namespace
{

using test::DirRig;
using test::StacheRig;

void
serialFuzzStache(std::uint64_t seed, int nodes, int blocks,
                 std::uint64_t cache_size, std::uint32_t max_pages)
{
    CoreParams cp;
    cp.cacheSize = cache_size;
    StacheParams sp;
    sp.maxStachePages = max_pages;
    StacheRig rig(nodes, cp, TyphoonParams{}, sp);
    const Addr base = rig.stache->shmalloc(
        static_cast<std::size_t>(blocks) * 32 + 4096);

    struct Op
    {
        int node;
        Addr addr;
        bool isWrite;
        std::uint32_t value;
    };
    Rng rng(seed);
    std::vector<Op> ops;
    for (int i = 0; i < 1200; ++i) {
        Op op;
        op.node = static_cast<int>(rng.below(nodes));
        op.addr = base + rng.below(blocks) * 32 + rng.below(8) * 4;
        op.isWrite = rng.chance(0.45);
        op.value = static_cast<std::uint32_t>(rng.next());
        ops.push_back(op);
    }

    std::vector<std::uint32_t> observed(ops.size(), 0);
    StacheRig* r = &rig;
    rig.run([&, r](Cpu& cpu) -> Task<void> {
        for (std::size_t i = 0; i < ops.size(); ++i) {
            const Op& op = ops[i];
            if (op.node == cpu.id()) {
                if (op.isWrite)
                    co_await cpu.write<std::uint32_t>(op.addr,
                                                      op.value);
                else
                    observed[i] =
                        co_await cpu.read<std::uint32_t>(op.addr);
            }
            co_await r->machine->barrier().wait(cpu);
        }
    });

    std::map<Addr, std::uint32_t> ref;
    for (std::size_t i = 0; i < ops.size(); ++i) {
        const Op& op = ops[i];
        if (op.isWrite) {
            ref[op.addr] = op.value;
        } else {
            const auto it = ref.find(op.addr);
            EXPECT_EQ(observed[i], it == ref.end() ? 0 : it->second)
                << "op " << i << " node " << op.node;
        }
    }
    EXPECT_TRUE(rig.stache->quiescent());
    EXPECT_EQ(rig.stache->auditCoherence(), 0u);
    EXPECT_TRUE(rig.mem->quiescent());
    for (const auto& [addr, val] : ref) {
        std::uint32_t out = 0;
        rig.mem->peek(addr, &out, 4);
        EXPECT_EQ(out, val);
    }
}

TEST(StacheFuzz, SerialSmallCache)
{
    serialFuzzStache(11, 4, 8, 256, 1u << 20);
}

TEST(StacheFuzz, SerialManyNodes)
{
    serialFuzzStache(12, 8, 16, 1024, 1u << 20);
}

TEST(StacheFuzz, SerialWithPageReplacementPressure)
{
    // Blocks span multiple pages; each node may stache only one page,
    // so the FIFO replacement path runs constantly.
    serialFuzzStache(13, 4, 384, 64 * 1024, 1);
}

TEST(StacheFuzz, ConcurrentOwnerComputePhases)
{
    const int nodes = 6;
    const int wordsPerNode = 48;
    CoreParams cp;
    cp.cacheSize = 1024;
    StacheRig rig(nodes, cp);
    const Addr base =
        rig.stache->shmalloc(nodes * wordsPerNode * 4 + 4096);

    std::vector<std::vector<std::uint32_t>> expected(
        nodes, std::vector<std::uint32_t>(wordsPerNode, 0));
    int failures = 0;
    StacheRig* r = &rig;
    rig.run([&, r](Cpu& cpu) -> Task<void> {
        Rng rng(2000 + cpu.id());
        for (int ph = 0; ph < 5; ++ph) {
            for (int w = 0; w < wordsPerNode; ++w) {
                if (rng.chance(0.5)) {
                    const std::uint32_t v =
                        (ph + 1) * 1000u + cpu.id() * 100u + w;
                    expected[cpu.id()][w] = v;
                    co_await cpu.write<std::uint32_t>(
                        base + (cpu.id() * wordsPerNode + w) * 4, v);
                }
            }
            co_await r->machine->barrier().wait(cpu);
            for (int k = 0; k < 24; ++k) {
                const int n = static_cast<int>(rng.below(nodes));
                const int w =
                    static_cast<int>(rng.below(wordsPerNode));
                const std::uint32_t v =
                    co_await cpu.read<std::uint32_t>(
                        base + (n * wordsPerNode + w) * 4);
                if (v != expected[n][w])
                    ++failures;
            }
            co_await r->machine->barrier().wait(cpu);
        }
    });
    EXPECT_EQ(failures, 0);
    EXPECT_TRUE(rig.stache->quiescent());
    EXPECT_EQ(rig.stache->auditCoherence(), 0u);
}

TEST(StacheFuzz, CrossSystemEquivalenceWithDirNNB)
{
    // The same deterministic phased program on both targets must
    // leave identical memory images.
    const int nodes = 4;
    const int words = 128;
    auto runProgram = [&](auto& rig, Addr base,
                          std::vector<std::uint32_t>& image) {
        auto* r = &rig;
        rig.run([&, r, base](Cpu& cpu) -> Task<void> {
            Rng rng(500 + cpu.id());
            for (int ph = 0; ph < 4; ++ph) {
                for (int k = 0; k < 40; ++k) {
                    const int w = static_cast<int>(rng.below(words));
                    // Owner-computes: node writes only words w with
                    // w % nodes == id; everyone reads anything.
                    if (w % nodes == cpu.id() && rng.chance(0.6)) {
                        co_await cpu.write<std::uint32_t>(
                            base + w * 4,
                            (ph + 1) * 10000u + w);
                    } else {
                        co_await cpu.read<std::uint32_t>(base + w * 4);
                    }
                }
                co_await r->machine->barrier().wait(cpu);
            }
        });
        image.resize(words);
        for (int w = 0; w < words; ++w)
            rig.mem->peek(base + w * 4, &image[w], 4);
    };

    CoreParams cp;
    cp.cacheSize = 512;
    std::vector<std::uint32_t> imgDir, imgStache;
    {
        DirRig rig(nodes, cp);
        Addr base = rig.mem->shmalloc(words * 4);
        runProgram(rig, base, imgDir);
    }
    {
        StacheRig rig(nodes, cp);
        Addr base = rig.stache->shmalloc(words * 4);
        runProgram(rig, base, imgStache);
    }
    EXPECT_EQ(imgDir, imgStache);
}

TEST(StacheFuzz, DeterministicAcrossRuns)
{
    auto runOnce = [] {
        CoreParams cp;
        cp.cacheSize = 512;
        StacheRig rig(4, cp);
        const Addr base = rig.stache->shmalloc(64 * 32);
        StacheRig* r = &rig;
        auto res = rig.run([&, r](Cpu& cpu) -> Task<void> {
            Rng rng(7 + cpu.id());
            for (int i = 0; i < 150; ++i) {
                const Addr a =
                    base + (cpu.id() * 16 + rng.below(16)) * 32;
                if (rng.chance(0.5))
                    co_await cpu.write<int>(a, i);
                else
                    co_await cpu.read<int>(a);
            }
            co_await r->machine->barrier().wait(cpu);
        });
        return res.execTime;
    };
    EXPECT_EQ(runOnce(), runOnce());
}

} // namespace
} // namespace tt
