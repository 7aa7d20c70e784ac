#include "drivers.hh"

#include <algorithm>
#include <chrono>
#include <coroutine>
#include <vector>

#include "check/shadow_map.hh"
#include "core/params.hh"
#include "mem/cache_model.hh"
#include "mem/tlb_model.hh"
#include "net/network.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "sim/stats.hh"
#include "sim/task.hh"
#include "stache/dir_entry.hh"
#include "stache/params.hh"

namespace ttbench
{

using namespace tt;

namespace
{

using Clock = std::chrono::steady_clock;

/// Repetitions per driver; the median of these is reported, so one
/// descheduled repetition does not move the figure.
constexpr int kReps = 7;

/// Keeps a computed value alive so the timed loop is not elided.
volatile std::uint64_t g_sink = 0;

/**
 * Median ns/op of @p body, which performs @p ops operations per call.
 * One untimed call first warms caches and lazily grown containers.
 */
template <typename F>
double
medianNs(std::uint64_t ops, F&& body)
{
    body();
    std::vector<double> ns;
    for (int r = 0; r < kReps; ++r) {
        const auto t0 = Clock::now();
        body();
        const auto t1 = Clock::now();
        ns.push_back(std::chrono::duration<double, std::nano>(t1 - t0)
                         .count() /
                     static_cast<double>(ops));
    }
    std::nth_element(ns.begin(), ns.begin() + kReps / 2, ns.end());
    return ns[kReps / 2];
}

std::vector<Addr>
randomBlocks(std::uint64_t span, std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<Addr> a(n);
    for (auto& x : a)
        x = rng.below(span / 32) * 32;
    return a;
}

/// A coroutine that suspends on every step, resumed from outside.
Task<void>
ticker(std::uint64_t& steps)
{
    for (;;) {
        ++steps;
        co_await std::suspend_always{};
    }
}

} // namespace

double
queueNs(std::uint64_t seed)
{
    // 256 events stay pending, each rescheduling itself a random
    // 1..64 ticks ahead: the calendar's near-window fast path, as in a
    // coherence-miss-bound run.
    constexpr std::uint64_t kOps = 200'000;
    return medianNs(kOps, [seed] {
        EventQueue eq;
        Rng rng(seed);
        std::uint64_t fired = 0;
        struct Self
        {
            EventQueue& eq;
            Rng& rng;
            std::uint64_t& fired;
            void
            operator()() const
            {
                if (++fired < kOps)
                    eq.scheduleIn(1 + rng.below(64), *this);
            }
        };
        for (int i = 0; i < 256; ++i)
            eq.schedule(rng.below(64), Self{eq, rng, fired});
        eq.run();
        g_sink = g_sink + fired;
    });
}

double
resumeNs()
{
    constexpr std::uint64_t kOps = 1'000'000;
    std::uint64_t steps = 0;
    Task<void> t = ticker(steps);
    const double ns = medianNs(kOps, [&t] {
        for (std::uint64_t i = 0; i < kOps; ++i)
            t.start();
    });
    g_sink = g_sink + steps;
    return ns;
}

double
cacheProbeNs(std::uint64_t cacheBytes, std::uint64_t seed)
{
    // Addresses span twice the capacity, so about half the probes hit.
    constexpr std::size_t kOps = 1'000'000;
    CacheModel cache(cacheBytes, 4, 32, seed);
    const auto warm = randomBlocks(2 * cacheBytes, 4 * cacheBytes / 32,
                                   seed);
    for (Addr a : warm)
        cache.fill(a, LineState::Shared);
    const auto addrs = randomBlocks(2 * cacheBytes, kOps, seed + 1);
    return medianNs(kOps, [&] {
        std::uint64_t hits = 0;
        for (Addr a : addrs)
            hits += cache.probeRead(a);
        g_sink = g_sink + hits;
    });
}

double
cacheFillNs(std::uint64_t cacheBytes, std::uint64_t seed)
{
    constexpr std::size_t kOps = 1'000'000;
    CacheModel cache(cacheBytes, 4, 32, seed);
    const auto addrs = randomBlocks(4 * cacheBytes, kOps, seed + 2);
    return medianNs(kOps, [&] {
        std::uint64_t dirty = 0;
        for (Addr a : addrs)
            dirty += cache.fill(a, LineState::Owned).victimDirty;
        g_sink = g_sink + dirty;
    });
}

double
tlbNs(std::uint64_t seed)
{
    constexpr std::size_t kOps = 1'000'000;
    const CoreParams core;
    TlbModel tlb(core.tlbEntries);
    Rng rng(seed);
    std::vector<std::uint64_t> pages(kOps);
    for (auto& p : pages)
        p = rng.below(2 * core.tlbEntries);
    return medianNs(kOps, [&] {
        std::uint64_t hits = 0;
        for (std::uint64_t p : pages)
            hits += tlb.access(p);
        g_sink = g_sink + hits;
    });
}

double
sendDeliverNs(std::uint64_t seed)
{
    // A 32-node fabric at the Table 2 defaults, five-word request
    // messages (a typical coherence request), 64 in flight at a time.
    constexpr int kNodes = 32;
    constexpr std::uint64_t kBatch = 64;
    constexpr std::uint64_t kOps = 200'000;
    return medianNs(kOps, [seed] {
        EventQueue eq;
        StatSet stats;
        Network net(eq, kNodes, NetworkParams{}, stats);
        std::uint64_t delivered = 0;
        for (NodeId n = 0; n < kNodes; ++n)
            net.setReceiver(n, [&delivered](Message&&) { ++delivered; });
        Rng rng(seed);
        for (std::uint64_t sent = 0; sent < kOps; sent += kBatch) {
            for (std::uint64_t i = 0; i < kBatch; ++i) {
                Message m;
                m.src = static_cast<NodeId>(rng.below(kNodes));
                m.dst = static_cast<NodeId>(
                    (m.src + 1 + rng.below(kNodes - 1)) % kNodes);
                m.handler = 1;
                for (Word w = 0; w < 4; ++w)
                    m.args.push_back(w);
                net.send(std::move(m), eq.now());
            }
            eq.run();
        }
        g_sink = g_sink + delivered;
    });
}

double
dirOpNs(std::uint64_t seed)
{
    // Each round adds 2..10 sharers to an idle entry and removes them
    // again; rounds past six sharers overflow into the bit vector.
    constexpr int kNodes = 32;
    constexpr std::size_t kRounds = 50'000;
    const StacheParams sp;
    Rng rng(seed);
    std::vector<std::vector<NodeId>> rounds(kRounds);
    std::uint64_t ops = 0;
    for (auto& r : rounds) {
        std::vector<NodeId> all(kNodes);
        for (NodeId n = 0; n < kNodes; ++n)
            all[static_cast<std::size_t>(n)] = n;
        const std::size_t k = 2 + rng.below(9);
        for (std::size_t i = 0; i < k; ++i)
            std::swap(all[i], all[i + rng.below(kNodes - i)]);
        r.assign(all.begin(), all.begin() + static_cast<long>(k));
        ops += 2 * k;
    }
    return medianNs(ops, [&] {
        StacheAuxTable aux;
        StacheDirEntry e;
        std::uint64_t live = 0;
        for (const auto& r : rounds) {
            for (NodeId n : r)
                e.addSharer(n, sp.dirPointers, kNodes, aux);
            live += static_cast<std::uint64_t>(e.sharerCount(aux));
            for (NodeId n : r)
                e.removeSharer(n, aux);
        }
        g_sink = g_sink + live;
    });
}

double
shadowNs(std::uint64_t seed)
{
    // Half reads, half writes, over 8 MB of 32-byte blocks: the
    // per-node copy-word table the fast checker consults per access.
    constexpr std::size_t kOps = 1'000'000;
    ShadowTable<shadow::CopyLeaf> table;
    Rng rng(seed);
    std::vector<std::uint64_t> keys(kOps);
    for (auto& k : keys)
        k = rng.below(1u << 18);
    return medianNs(kOps, [&] {
        std::uint64_t acc = 0;
        for (std::size_t i = 0; i < keys.size(); ++i) {
            const std::uint64_t k = keys[i];
            const std::uint64_t leaf = k >> shadow::CopyLeaf::kBlocksLog2;
            const std::size_t slot = k & ((1u << shadow::CopyLeaf::kBlocksLog2) - 1);
            if (i & 1)
                table.getWritable(leaf).word[slot] += 1;
            else
                acc += table.get(leaf).word[slot];
        }
        g_sink = g_sink + acc;
    });
}

} // namespace ttbench
