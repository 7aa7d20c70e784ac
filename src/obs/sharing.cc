#include "obs/sharing.hh"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdio>
#include <iomanip>

#include "mem/addr.hh"
#include "sim/json.hh"

namespace tt
{

namespace
{

constexpr std::uint64_t
nodeBit(NodeId n)
{
    return 1ULL << (static_cast<std::uint64_t>(n) & 63);
}

int
popcount(std::uint64_t v)
{
    return std::popcount(v);
}

/** Fixed-point percentage with one decimal, deterministic. */
std::string
pct1(std::uint64_t part, std::uint64_t whole)
{
    char buf[16];
    const double p =
        whole ? 100.0 * static_cast<double>(part) /
                    static_cast<double>(whole)
              : 0.0;
    std::snprintf(buf, sizeof buf, "%.1f", p);
    return buf;
}

std::string
hexAddr(Addr a)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "0x%" PRIx64, a);
    return buf;
}

/** Stable snake_case pattern keys for JSON. */
const char* const kPatternKeys[kSharePatterns] = {
    "untouched",        "private",   "read_only",
    "producer_consumer", "migratory", "write_shared",
};

} // namespace

const char*
sharePatternKey(SharePattern p)
{
    const int i = static_cast<int>(p);
    return i >= 0 && i < kSharePatterns ? kPatternKeys[i] : "?";
}

const char*
sharePatternName(SharePattern p)
{
    switch (p) {
      case SharePattern::Untouched:
        return "untouched";
      case SharePattern::Private:
        return "private";
      case SharePattern::ReadOnly:
        return "read-only";
      case SharePattern::ProducerConsumer:
        return "producer-consumer";
      case SharePattern::Migratory:
        return "migratory";
      case SharePattern::WriteShared:
        return "write-shared";
    }
    return "?";
}

SharingAnalyzer::SharingAnalyzer(int nodes, SharingParams p)
    : _nodes(nodes), _p(p), _homes(static_cast<std::size_t>(nodes))
{
    tt_assert(nodes > 0, "analyzer needs at least one node");
    tt_assert(isPow2(p.blockSize) && isPow2(p.pageSize),
              "analyzer needs power-of-two geometry");
    // Footprint masks have 64 slots; blocks wider than 64 bytes get
    // multi-byte slots so the mask still spans the whole block.
    _footShift =
        p.blockSize > 64 ? log2i(p.blockSize / 64) : 0;
}

void
SharingAnalyzer::fold(const TraceRecord& r)
{
    switch (r.kind) {
      case RecKind::BlockAccess:
        foldAccess(r);
        break;
      case RecKind::InvalSent:
        foldInval(r);
        break;
      case RecKind::DirTrans:
        if (r.node >= 0 && r.node < _nodes) {
            ++_homes[static_cast<std::size_t>(r.node)].dirTransitions;
            _pageHome[pageNum(r.addr, _p.pageSize)] = r.node;
        }
        break;
      case RecKind::HandlerDone:
        // Per-node handler/controller occupancy: the heatmap's
        // "how busy is this directory" column.
        if (r.node >= 0 && r.node < _nodes) {
            HomeStats& h = _homes[static_cast<std::size_t>(r.node)];
            h.occupancy += r.t2;
            h.busy.sample(static_cast<double>(r.t2));
        }
        break;
      default:
        break;
    }
}

void
SharingAnalyzer::foldAccess(const TraceRecord& r)
{
    const Addr blk = blockAlign(r.addr, _p.blockSize);
    BlockStats& b = _blocks[blk];
    const NodeId node = r.node;
    const bool write = r.sub != 0;

    // Sub-block footprint for the false-sharing detector.
    const std::uint64_t off = r.addr - blk;
    const std::uint32_t size = r.arg ? r.arg : 1;
    std::uint64_t first = off >> _footShift;
    std::uint64_t last = (off + size - 1) >> _footShift;
    first = std::min<std::uint64_t>(first, 63);
    last = std::min<std::uint64_t>(last, 63);
    const std::uint64_t span = last - first + 1;
    const std::uint64_t mask =
        (span >= 64 ? ~0ULL : ((1ULL << span) - 1)) << first;

    auto it = std::lower_bound(
        b.footprints.begin(), b.footprints.end(), node,
        [](const NodeFoot& f, NodeId n) { return f.node < n; });
    if (it == b.footprints.end() || it->node != node)
        it = b.footprints.insert(it, NodeFoot{node, 0, 0});
    (write ? it->writeMask : it->readMask) |= mask;

    // Last-writer / reader-set state machine.
    if (write) {
        ++b.writes;
        b.writerSet |= nodeBit(node);
        if (b.lastWriter != node) {
            if (b.lastWriter != kNoNode) {
                ++b.ownerChanges;
                // A migratory handoff: nobody but the next writer
                // read the block since the previous write.
                if ((b.readersSinceWrite & ~nodeBit(node)) == 0)
                    ++b.migratorySteps;
            }
            b.lastWriter = node;
        }
        b.readersSinceWrite = 0;
    } else {
        ++b.reads;
        b.readerSet |= nodeBit(node);
        b.readersSinceWrite |= nodeBit(node);
    }
}

void
SharingAnalyzer::foldInval(const TraceRecord& r)
{
    const Addr blk = blockAlign(r.addr, _p.blockSize);
    BlockStats& b = _blocks[blk];
    const auto fanout = r.arg;
    bool invalidating = true;
    switch (static_cast<InvKind>(r.sub)) {
      case InvKind::Inval:
        ++b.invals;
        b.fanoutSum += fanout;
        break;
      case InvKind::Recall:
      case InvKind::Downgrade:
        ++b.recalls;
        b.fanoutSum += fanout;
        break;
      case InvKind::Update:
        ++b.updates;
        invalidating = false;
        break;
    }
    if (r.node >= 0 && r.node < _nodes) {
        HomeStats& h = _homes[static_cast<std::size_t>(r.node)];
        if (invalidating) {
            ++h.invalRounds;
            h.fanoutSum += fanout;
            h.fanoutMax = std::max<std::uint64_t>(h.fanoutMax, fanout);
        }
        // Updates still fan out traffic; the heatmap histogram tracks
        // every coherence round's fan-out, invalidating or not.
        h.fanout.sample(static_cast<double>(fanout));
        _pageHome[pageNum(blk, _p.pageSize)] = r.node;
    }
}

SharePattern
SharingAnalyzer::classify(const BlockStats& b) const
{
    if (b.reads + b.writes == 0)
        return SharePattern::Untouched;
    const std::uint64_t all = b.readerSet | b.writerSet;
    if (popcount(all) <= 1)
        return SharePattern::Private;
    if (b.writes == 0)
        return SharePattern::ReadOnly;
    if (popcount(b.writerSet) == 1) {
        // One writer, foreign readers. Producer-consumer if each
        // produced value fans out to several consumers (or is pushed
        // by an update protocol); a single bouncing consumer is
        // pairwise read-write interleaving — write-shared traffic,
        // an update push per write would not amortize.
        const std::uint32_t conflicts = b.invals + b.recalls;
        if (b.updates > 0 || conflicts == 0)
            return SharePattern::ProducerConsumer;
        return b.fanoutSum >= 2 * conflicts
                   ? SharePattern::ProducerConsumer
                   : SharePattern::WriteShared;
    }
    // Multiple writers: migratory iff ownership actually hopped and
    // at least 3/4 of the handoffs looked migratory (the reader set
    // between writes was contained in the next writer).
    if (b.ownerChanges >= 2 &&
        b.migratorySteps * 4 >= b.ownerChanges * 3)
        return SharePattern::Migratory;
    return SharePattern::WriteShared;
}

SharePattern
SharingAnalyzer::classifyBlock(Addr blk) const
{
    const BlockStats* b = blockOf(blk);
    return b ? classify(*b) : SharePattern::Untouched;
}

const SharingAnalyzer::BlockStats*
SharingAnalyzer::blockOf(Addr blk) const
{
    auto it = _blocks.find(blockAlign(blk, _p.blockSize));
    return it == _blocks.end() ? nullptr : &it->second;
}

bool
SharingAnalyzer::falselyShared(const BlockStats& b) const
{
    // A false-sharing block had coherence conflicts (invalidations or
    // recalls), was touched by at least two nodes, at least one of
    // which wrote — yet no node's writes overlap any other node's
    // footprint: every conflict was over bytes the victim never used.
    if (b.invals + b.recalls == 0)
        return false;
    if (b.footprints.size() < 2)
        return false;
    bool anyWrite = false;
    for (std::size_t i = 0; i < b.footprints.size(); ++i) {
        const NodeFoot& a = b.footprints[i];
        anyWrite = anyWrite || a.writeMask != 0;
        for (std::size_t j = i + 1; j < b.footprints.size(); ++j) {
            const NodeFoot& c = b.footprints[j];
            if ((a.writeMask & (c.readMask | c.writeMask)) != 0 ||
                (c.writeMask & (a.readMask | a.writeMask)) != 0)
                return false;
        }
    }
    return anyWrite;
}

const SharingAnalyzer::HomeStats&
SharingAnalyzer::homeOf(NodeId n) const
{
    return _homes.at(static_cast<std::size_t>(n));
}

SharingAnalyzer::Summary
SharingAnalyzer::summarize() const
{
    Summary s;
    for (const auto& [blk, b] : _blocks) {
        (void)blk;
        ++s.blocks;
        s.reads += b.reads;
        s.writes += b.writes;
        s.invalRounds += b.invals + b.recalls;
        s.invalFanout += b.fanoutSum;
        s.recalls += b.recalls;
        s.updates += b.updates;
        const SharePattern p = classify(b);
        ++s.blocksByPattern[static_cast<std::size_t>(p)];
        if (falselyShared(b)) {
            ++s.falseSharingBlocks;
            s.falseSharingInvals += b.invals + b.recalls;
        }
    }
    return s;
}

SharePattern
SharingAnalyzer::Summary::dominant() const
{
    SharePattern best = SharePattern::Untouched;
    std::uint64_t bestCount = 0;
    for (int i = static_cast<int>(SharePattern::ReadOnly);
         i < kSharePatterns; ++i) {
        const std::uint64_t c =
            blocksByPattern[static_cast<std::size_t>(i)];
        if (c > bestCount) {
            bestCount = c;
            best = static_cast<SharePattern>(i);
        }
    }
    if (bestCount > 0)
        return best;
    if (blocksByPattern[static_cast<std::size_t>(
            SharePattern::Private)] > 0)
        return SharePattern::Private;
    return SharePattern::Untouched;
}

// ---------------------------------------------------------------------
// Per-page roll-up and the advisor
// ---------------------------------------------------------------------

struct SharingAnalyzer::PageAgg
{
    NodeId home = kNoNode;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t invalRounds = 0;
    std::uint64_t fanout = 0;
    std::uint64_t updates = 0;
    std::uint64_t ownerChanges = 0;
    std::uint64_t recalls = 0;
    std::uint64_t blocks = 0;
    std::uint64_t falseBlocks = 0;
    std::uint64_t falseInvals = 0;
    std::array<std::uint64_t, kSharePatterns> byPattern{};

    SharePattern
    dominant() const
    {
        SharePattern best = SharePattern::Untouched;
        std::uint64_t bestCount = 0;
        for (int i = static_cast<int>(SharePattern::Private);
             i < kSharePatterns; ++i) {
            const std::uint64_t c =
                byPattern[static_cast<std::size_t>(i)];
            if (c > bestCount) {
                bestCount = c;
                best = static_cast<SharePattern>(i);
            }
        }
        return best;
    }
};

std::map<std::uint64_t, SharingAnalyzer::PageAgg>
SharingAnalyzer::pageTable() const
{
    std::map<std::uint64_t, PageAgg> pages;
    for (const auto& [blk, b] : _blocks) {
        PageAgg& pa = pages[pageNum(blk, _p.pageSize)];
        pa.reads += b.reads;
        pa.writes += b.writes;
        pa.invalRounds += b.invals + b.recalls;
        pa.fanout += b.fanoutSum;
        pa.updates += b.updates;
        pa.ownerChanges += b.ownerChanges;
        pa.recalls += b.recalls;
        ++pa.blocks;
        ++pa.byPattern[static_cast<std::size_t>(classify(b))];
        if (falselyShared(b)) {
            ++pa.falseBlocks;
            pa.falseInvals += b.invals + b.recalls;
        }
    }
    for (auto& [vpn, pa] : pages) {
        auto it = _pageHome.find(vpn);
        if (it != _pageHome.end())
            pa.home = it->second;
    }
    return pages;
}

std::vector<SharingAnalyzer::Advice>
SharingAnalyzer::advise() const
{
    const auto pages = pageTable();
    std::vector<Advice> out;

    // Merge contiguous pages with the same dominant pattern.
    struct Region
    {
        std::uint64_t firstVpn = 0;
        std::uint64_t lastVpn = 0;
        SharePattern pattern = SharePattern::Untouched;
        PageAgg sum;
        std::uint64_t agree = 0;
    };
    std::vector<Region> regions;
    for (const auto& [vpn, pa] : pages) {
        const SharePattern p = pa.dominant();
        if (p == SharePattern::Untouched)
            continue;
        if (!regions.empty() && regions.back().lastVpn + 1 == vpn &&
            regions.back().pattern == p) {
            Region& r = regions.back();
            r.lastVpn = vpn;
            r.agree += pa.byPattern[static_cast<std::size_t>(p)];
            r.sum.reads += pa.reads;
            r.sum.writes += pa.writes;
            r.sum.invalRounds += pa.invalRounds;
            r.sum.fanout += pa.fanout;
            r.sum.updates += pa.updates;
            r.sum.ownerChanges += pa.ownerChanges;
            r.sum.recalls += pa.recalls;
            r.sum.blocks += pa.blocks;
            r.sum.falseBlocks += pa.falseBlocks;
            r.sum.falseInvals += pa.falseInvals;
        } else {
            Region r;
            r.firstVpn = r.lastVpn = vpn;
            r.pattern = p;
            r.sum = pa;
            r.agree = pa.byPattern[static_cast<std::size_t>(p)];
            regions.push_back(std::move(r));
        }
    }

    for (const Region& r : regions) {
        Advice a;
        a.firstPage = r.firstVpn * _p.pageSize;
        a.lastPage = r.lastVpn * _p.pageSize;
        a.pages = r.lastVpn - r.firstVpn + 1;
        a.pattern = r.pattern;
        a.percent = r.sum.blocks
                        ? static_cast<int>(100 * r.agree /
                                           r.sum.blocks)
                        : 0;
        a.falseSharing = r.sum.falseBlocks > 0;
        // Message-savings heuristics, all counted against the default
        // invalidation protocol's cost for the observed traffic:
        switch (r.pattern) {
          case SharePattern::Migratory:
            // Every ownership hop costs a recall round (recall + put
            // + re-grant) that a migratory protocol's writable-on-
            // first-read grant avoids: ~2 messages per hop.
            a.estSavedMsgs = 2 * r.sum.ownerChanges;
            a.action = "use the custom migratory protocol "
                       "(grant writable on first read)";
            break;
          case SharePattern::ProducerConsumer:
            // Each invalidation (inval + ack + consumer re-fetch) is
            // replaced by one pushed update: ~3 messages saved per
            // invalidated copy, ~2 per recall round.
            a.estSavedMsgs =
                3 * r.sum.fanout + 2 * r.sum.recalls;
            a.action = "use an update-based protocol "
                       "(push new values to consumers)";
            break;
          case SharePattern::WriteShared:
            if (a.falseSharing) {
                a.estSavedMsgs = 3 * r.sum.falseInvals;
                a.action = "false sharing: pad or realign data so "
                           "nodes write disjoint blocks";
            } else {
                a.estSavedMsgs = 0;
                a.action = "true write sharing: keep the default "
                           "invalidation protocol";
            }
            break;
          case SharePattern::ReadOnly:
            a.estSavedMsgs = 0;
            a.action = "read-mostly: default protocol is already "
                       "quiet after the first fetch";
            break;
          case SharePattern::Private:
            a.estSavedMsgs = 0;
            a.action = "node-private: no coherence traffic to save";
            break;
          case SharePattern::Untouched:
            break;
        }
        out.push_back(std::move(a));
    }

    std::sort(out.begin(), out.end(),
              [](const Advice& a, const Advice& b) {
                  if (a.estSavedMsgs != b.estSavedMsgs)
                      return a.estSavedMsgs > b.estSavedMsgs;
                  return a.firstPage < b.firstPage;
              });
    return out;
}

// ---------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------

void
SharingAnalyzer::writeReport(std::ostream& os) const
{
    const Summary s = summarize();

    os << "=== sharing analysis (" << _p.blockSize << " B blocks, "
       << _p.pageSize << " B pages, " << _nodes << " nodes) ===\n";
    os << "blocks    : " << s.blocks << " touched, " << s.reads
       << " reads / " << s.writes << " writes\n";
    os << "patterns  :";
    bool any = false;
    for (int i = 1; i < kSharePatterns; ++i) {
        const std::uint64_t c =
            s.blocksByPattern[static_cast<std::size_t>(i)];
        if (!c)
            continue;
        os << (any ? "," : "") << " "
           << sharePatternName(static_cast<SharePattern>(i)) << " "
           << c << " (" << pct1(c, s.blocks) << "%)";
        any = true;
    }
    if (!any)
        os << " none";
    os << "\n";
    os << "dominant sharing pattern: "
       << sharePatternName(s.dominant()) << "\n";
    os << "coherence : " << s.invalRounds
       << " invalidation/recall rounds (fan-out " << s.invalFanout
       << "), " << s.recalls << " recalls, " << s.updates
       << " update pushes\n";
    os << "false sharing: " << s.falseSharingBlocks << " blocks, "
       << s.falseSharingInvals
       << " conflict rounds from disjoint per-node footprints\n";
    if (s.falseSharingBlocks) {
        constexpr std::size_t kMaxListed = 16;
        std::vector<std::pair<Addr, const BlockStats*>> flagged;
        for (const auto& [blk, b] : _blocks)
            if (falselyShared(b))
                flagged.emplace_back(blk, &b);
        std::sort(flagged.begin(), flagged.end(),
                  [](const auto& a, const auto& b) {
                      const std::uint32_t ca =
                          a.second->invals + a.second->recalls;
                      const std::uint32_t cb =
                          b.second->invals + b.second->recalls;
                      if (ca != cb)
                          return ca > cb;
                      return a.first < b.first;
                  });
        const std::size_t show =
            std::min(flagged.size(), kMaxListed);
        for (std::size_t i = 0; i < show; ++i) {
            const auto& [blk, b] = flagged[i];
            os << "    blk " << hexAddr(blk) << ": "
               << b->footprints.size() << " nodes, "
               << b->invals + b->recalls << " conflict rounds\n";
        }
        if (flagged.size() > show)
            os << "    (" << flagged.size() - show
               << " more not shown)\n";
    }

    os << "=== directory heatmap (per home node) ===\n";
    os << "home   dir-ops  inv-rounds  fanout(sum/max)  occupancy\n";
    for (NodeId n = 0; n < _nodes; ++n) {
        const HomeStats& h = _homes[static_cast<std::size_t>(n)];
        if (h.dirTransitions + h.invalRounds + h.occupancy == 0)
            continue;
        os << std::setw(4) << n << std::setw(10) << h.dirTransitions
           << std::setw(12) << h.invalRounds << std::setw(12)
           << h.fanoutSum << "/" << h.fanoutMax << std::setw(11)
           << h.occupancy << "\n";
    }

    const auto pages = pageTable();
    std::vector<std::pair<std::uint64_t, const PageAgg*>> hot;
    for (const auto& [vpn, pa] : pages)
        if (pa.invalRounds + pa.fanout + pa.updates > 0)
            hot.emplace_back(vpn, &pa);
    std::sort(hot.begin(), hot.end(),
              [](const auto& a, const auto& b) {
                  const std::uint64_t ta =
                      a.second->fanout + a.second->invalRounds;
                  const std::uint64_t tb =
                      b.second->fanout + b.second->invalRounds;
                  if (ta != tb)
                      return ta > tb;
                  return a.first < b.first;
              });
    constexpr std::size_t kHotPages = 8;
    const std::size_t show = std::min(hot.size(), kHotPages);
    os << "hot pages (top " << show << " of " << hot.size()
       << " with coherence traffic):\n";
    for (std::size_t i = 0; i < show; ++i) {
        const auto& [vpn, pa] = hot[i];
        os << "    page " << hexAddr(vpn * _p.pageSize) << " home ";
        if (pa->home == kNoNode)
            os << "-";
        else
            os << pa->home;
        os << ": " << pa->reads + pa->writes << " accesses, "
           << pa->invalRounds << " inval rounds (fan-out "
           << pa->fanout << "), pattern "
           << sharePatternName(pa->dominant()) << "\n";
    }

    os << "=== protocol advisor ===\n";
    const auto advice = advise();
    if (advice.empty())
        os << "    no shared regions observed\n";
    std::size_t rank = 1;
    for (const Advice& a : advice) {
        os << std::setw(3) << rank++ << ". pages "
           << hexAddr(a.firstPage) << "-" << hexAddr(a.lastPage)
           << " (" << a.pages << (a.pages == 1 ? " page" : " pages")
           << "): " << a.percent << "% "
           << sharePatternName(a.pattern) << " -> " << a.action;
        if (a.estSavedMsgs)
            os << " (est. " << a.estSavedMsgs << " msgs saved)";
        os << "\n";
    }
}

void
SharingAnalyzer::writeJson(std::ostream& os) const
{
    const Summary s = summarize();
    const auto pages = pageTable();
    const auto advice = advise();

    JsonWriter w(os);
    w.object(JsonWriter::Block, [&] {
        w.field("block_size", _p.blockSize);
        w.field("page_size", _p.pageSize);
        w.field("nodes", _nodes);

        w.key("summary").object(JsonWriter::Inline, [&] {
            w.field("blocks", s.blocks);
            w.field("reads", s.reads);
            w.field("writes", s.writes);
            w.field("inval_rounds", s.invalRounds);
            w.field("inval_fanout", s.invalFanout);
            w.field("recalls", s.recalls);
            w.field("updates", s.updates);
            w.field("dominant", kPatternKeys[static_cast<int>(s.dominant())]);
            w.key("patterns").object(JsonWriter::Inline, [&] {
                for (int i = 0; i < kSharePatterns; ++i)
                    w.field(kPatternKeys[i],
                            s.blocksByPattern[static_cast<std::size_t>(i)]);
            });
            w.key("false_sharing").object(JsonWriter::Inline, [&] {
                w.field("blocks", s.falseSharingBlocks);
                w.field("conflict_rounds", s.falseSharingInvals);
            });
        });

        w.key("false_sharing_blocks").array(JsonWriter::Block, [&] {
            for (const auto& [blk, b] : _blocks) {
                if (!falselyShared(b))
                    continue;
                w.object(JsonWriter::Inline, [&] {
                    w.field("blk", hexAddr(blk));
                    w.field("nodes", b.footprints.size());
                    w.field("conflict_rounds", b.invals + b.recalls);
                });
            }
        });

        w.key("homes").array(JsonWriter::Block, [&] {
            for (NodeId n = 0; n < _nodes; ++n) {
                const HomeStats& h = _homes[static_cast<std::size_t>(n)];
                w.object(JsonWriter::Inline, [&] {
                    w.field("node", n);
                    w.field("dir_transitions", h.dirTransitions);
                    w.field("inval_rounds", h.invalRounds);
                    w.field("fanout_sum", h.fanoutSum);
                    w.field("fanout_max", h.fanoutMax);
                    w.field("occupancy", h.occupancy);
                    w.key("fanout_hist").object(JsonWriter::Inline, [&] {
                        w.histogramFields(h.fanout);
                    });
                    w.key("occupancy_hist").object(JsonWriter::Inline, [&] {
                        w.histogramFields(h.busy);
                    });
                });
            }
        });

        w.key("pages").array(JsonWriter::Block, [&] {
            for (const auto& [vpn, pa] : pages) {
                w.object(JsonWriter::Inline, [&] {
                    w.field("page", hexAddr(vpn * _p.pageSize));
                    w.field("home", pa.home);
                    w.field("reads", pa.reads);
                    w.field("writes", pa.writes);
                    w.field("inval_rounds", pa.invalRounds);
                    w.field("fanout", pa.fanout);
                    w.field("updates", pa.updates);
                    w.field("pattern",
                            kPatternKeys[static_cast<int>(pa.dominant())]);
                });
            }
        });

        w.key("advice").array(JsonWriter::Block, [&] {
            for (const Advice& a : advice) {
                w.object(JsonWriter::Inline, [&] {
                    w.field("first_page", hexAddr(a.firstPage));
                    w.field("last_page", hexAddr(a.lastPage));
                    w.field("pages", a.pages);
                    w.field("pattern",
                            kPatternKeys[static_cast<int>(a.pattern)]);
                    w.field("percent", a.percent);
                    w.field("est_msgs_saved", a.estSavedMsgs);
                    w.field("false_sharing", a.falseSharing);
                    w.field("action", a.action);
                });
            }
        });
    });
}

} // namespace tt
