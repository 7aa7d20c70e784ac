#include "obs/txn.hh"

#include <algorithm>

#include "obs/sharing.hh"
#include "sim/json.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"

namespace tt
{

namespace
{

/**
 * Overlap priority of each segment class (higher wins where spans
 * overlap): directory occupancy is the protocol's serialization point,
 * request-side handler time is next, then loss repair, then raw
 * flight time, and invalidation-wait only claims time nothing else
 * explains. "Other" never appears as a span — it is the uncovered
 * remainder of the sweep.
 */
int
priOf(TxnCat c)
{
    switch (c) {
      case TxnCat::Directory:
        return 5;
      case TxnCat::Request:
        return 4;
      case TxnCat::Retransmit:
        return 3;
      case TxnCat::Network:
        return 2;
      case TxnCat::InvalWait:
        return 1;
      case TxnCat::Other:
        return 0;
    }
    return 0;
}

struct Interval
{
    Tick a;
    Tick b;
    TxnCat cat;
};

} // namespace

const char*
txnCatName(TxnCat c)
{
    switch (c) {
      case TxnCat::Request:
        return "request";
      case TxnCat::Network:
        return "network";
      case TxnCat::Directory:
        return "directory";
      case TxnCat::InvalWait:
        return "inval_wait";
      case TxnCat::Retransmit:
        return "retransmit";
      case TxnCat::Other:
        return "other";
    }
    return "?";
}

TxnTracer::TxnTracer(int nodes, StatSet& stats, TxnParams p)
    : _nodes(nodes), _p(p), _stats(stats)
{
    tt_assert(_p.blockSize > 0 && _p.pageSize >= _p.blockSize,
              "bad txn tracer geometry");
}

void
TxnTracer::fold(const TraceRecord& r)
{
    if (!r.txn)
        return;

    switch (r.kind) {
      case RecKind::BlockFault:
      case RecKind::MissStart: {
          Txn& t = _txns[r.txn];
          if (t.origin == kNoNode) {
              t.origin = r.node;
              t.addr = r.addr;
              t.write = r.sub != 0;
              t.start = r.tick;
          }
          break;
      }
      case RecKind::MissEnd: {
          Txn& t = _txns[r.txn];
          if (t.origin == kNoNode) { // defensive: end without start
              t.origin = r.node;
              t.addr = r.addr;
              t.start = r.tick;
          }
          t.done = true;
          t.end = r.tick;
          break;
      }
      case RecKind::MsgSend: {
          Txn& t = _txns[r.txn];
          ++t.sends;
          if (r.flags & kRecRetransmit)
              ++t.retx;
          if (r.flags & kRecDropped) {
              // Lost physical copy: no flight; remember it so the
              // eventual successful retransmission can span the whole
              // loss-repair episode.
              t.dropped.push_back({r.node,
                                   static_cast<NodeId>(r.arg), r.addr,
                                   r.tick});
              break;
          }
          if (r.flags & kRecRetransmit) {
              // Successful retransmission: charge the episode from
              // the earliest matching drop to this copy's arrival and
              // retire every drop it repairs (go-back-N can lose the
              // same head several times). A retransmission with no
              // recorded drop (lost-ack resend, dup-suppressed twin)
              // is charged its own flight.
              Tick from = r.tick;
              bool matched = false;
              for (const DroppedSend& d : t.dropped) {
                  if (d.src == r.node &&
                      d.dst == static_cast<NodeId>(r.arg) &&
                      d.handler == r.addr && d.tick <= r.tick) {
                      from = matched ? std::min(from, d.tick) : d.tick;
                      matched = true;
                  }
              }
              if (matched) {
                  t.dropped.erase(
                      std::remove_if(
                          t.dropped.begin(), t.dropped.end(),
                          [&](const DroppedSend& d) {
                              return d.src == r.node &&
                                     d.dst ==
                                         static_cast<NodeId>(r.arg) &&
                                     d.handler == r.addr &&
                                     d.tick <= r.tick;
                          }),
                      t.dropped.end());
              }
              t.flights.push_back({from, r.t2, true});
          } else {
              t.flights.push_back({r.tick, r.t2, false});
          }
          break;
      }
      case RecKind::HandlerDone: {
          Txn& t = _txns[r.txn];
          t.handlers.push_back({r.node, r.tick, r.tick + r.t2});
          break;
      }
      case RecKind::InvalSent: {
          _txns[r.txn].invals.push_back({r.node, r.tick});
          break;
      }
      case RecKind::MsgSup: {
          ++_txns[r.txn].sups;
          break;
      }
      default:
        break;
    }
}

void
TxnTracer::partition(const Txn& t, Result& out) const
{
    tt_assert(t.end >= t.start, "transaction ends before it starts");
    const Tick start = t.start;
    const Tick end = t.end;

    std::vector<Interval> ivs;
    ivs.reserve(t.handlers.size() + t.flights.size() +
                t.invals.size());
    auto add = [&](Tick a, Tick b, TxnCat cat) {
        a = std::max(a, start);
        b = std::min(b, end);
        if (b > a)
            ivs.push_back({a, b, cat});
    };

    for (const HandlerSpan& h : t.handlers)
        add(h.start, h.end,
            h.node == t.origin ? TxnCat::Request : TxnCat::Directory);
    for (const Flight& f : t.flights)
        add(f.start, f.end,
            f.retx ? TxnCat::Retransmit : TxnCat::Network);
    for (const InvalRound& iv : t.invals) {
        // The round is open from its send until the last handler
        // activation back at the issuing home (the final InvAck),
        // clamped to the transaction end when the acks outlive it.
        Tick close = end;
        Tick last = 0;
        for (const HandlerSpan& h : t.handlers)
            if (h.node == iv.home && h.start > iv.tick)
                last = std::max(last, h.start);
        if (last)
            close = last;
        add(iv.tick, close, TxnCat::InvalWait);
    }

    // Priority sweep over the elementary segments between span
    // boundaries: each segment is claimed by the highest-priority
    // covering span, or falls into Other. The result is an exact
    // partition of [start, end] by construction.
    std::vector<Tick> pts;
    pts.reserve(2 * ivs.size() + 2);
    pts.push_back(start);
    pts.push_back(end);
    for (const Interval& iv : ivs) {
        pts.push_back(iv.a);
        pts.push_back(iv.b);
    }
    std::sort(pts.begin(), pts.end());
    pts.erase(std::unique(pts.begin(), pts.end()), pts.end());

    out.cat.fill(0);
    for (std::size_t i = 0; i + 1 < pts.size(); ++i) {
        const Tick p = pts[i];
        const Tick q = pts[i + 1];
        int best = -1;
        TxnCat cat = TxnCat::Other;
        for (const Interval& iv : ivs) {
            if (iv.a <= p && q <= iv.b && priOf(iv.cat) > best) {
                best = priOf(iv.cat);
                cat = iv.cat;
            }
        }
        out.cat[static_cast<std::size_t>(cat)] += q - p;
    }

    Tick sum = 0;
    for (Tick c : out.cat)
        sum += c;
    tt_assert(sum == end - start,
              "critical-path partition does not sum to wall latency");

    out.origin = t.origin;
    out.addr = t.addr;
    out.write = t.write;
    out.start = start;
    out.end = end;
    out.sends = t.sends;
    out.retx = t.retx;
    out.sups = t.sups;
}

void
TxnTracer::finalize(const SharingAnalyzer* sharing)
{
    if (_finalized)
        return;
    _finalized = true;

    _byPattern.assign(kSharePatterns, PatternAgg{});
    _results.clear();
    _results.reserve(_txns.size());

    for (const auto& [id, t] : _txns) {
        ++_summary.opened;
        if (!t.done)
            continue;
        Result res;
        res.id = id;
        partition(t, res);
        ++_summary.completed;
        if (res.retx)
            ++_summary.retxTxns;
        _summary.supArrivals += res.sups;
        _summary.wallTicks += res.wall();

        const Addr blk = res.addr - res.addr % _p.blockSize;
        const Addr page = res.addr - res.addr % _p.pageSize;
        const int pat =
            sharing ? static_cast<int>(sharing->classifyBlock(blk)) : 0;
        PatternAgg& pa = _byPattern[static_cast<std::size_t>(pat)];
        ++pa.txns;
        pa.wallTicks += res.wall();
        PageAgg& pg = _byPage[page];
        ++pg.txns;
        pg.wallTicks += res.wall();
        for (int c = 0; c < kTxnCats; ++c) {
            _summary.catTicks[c] += res.cat[c];
            pa.catTicks[c] += res.cat[c];
            pg.catTicks[c] += res.cat[c];
        }
        _results.push_back(res);
    }

    _stats.counter("obs.txn.opened").inc(_summary.opened);
    _stats.counter("obs.txn.completed").inc(_summary.completed);
    _stats.counter("obs.txn.retx_txns").inc(_summary.retxTxns);
    _stats.counter("obs.txn.sup_arrivals").inc(_summary.supArrivals);
    _stats.counter("obs.txn.wall_ticks").inc(_summary.wallTicks);
    for (int c = 0; c < kTxnCats; ++c)
        _stats
            .counter(std::string("obs.txn.") +
                     txnCatName(static_cast<TxnCat>(c)) + "_ticks")
            .inc(_summary.catTicks[c]);
}

int
TxnTracer::dominantPattern() const
{
    int best = -1;
    std::uint64_t bestWall = 0;
    for (int p = 0; p < static_cast<int>(_byPattern.size()); ++p) {
        const PatternAgg& pa = _byPattern[static_cast<std::size_t>(p)];
        if (pa.txns && pa.wallTicks > bestWall) {
            best = p;
            bestWall = pa.wallTicks;
        }
    }
    return best;
}

namespace
{

int
pct(std::uint64_t part, std::uint64_t whole)
{
    return whole ? static_cast<int>(part * 100 / whole) : 0;
}

void
writeBreakdown(std::ostream& os,
               const std::array<std::uint64_t, kTxnCats>& cat,
               std::uint64_t wall)
{
    for (int c = 0; c < kTxnCats; ++c) {
        if (c)
            os << " | ";
        os << txnCatName(static_cast<TxnCat>(c)) << " "
           << cat[static_cast<std::size_t>(c)] << " ("
           << pct(cat[static_cast<std::size_t>(c)], wall) << "%)";
    }
}

} // namespace

std::vector<std::pair<Addr, const TxnTracer::PageAgg*>>
TxnTracer::pagesByWall() const
{
    std::vector<std::pair<Addr, const PageAgg*>> pages;
    pages.reserve(_byPage.size());
    for (const auto& [va, pg] : _byPage)
        pages.emplace_back(va, &pg);
    std::sort(pages.begin(), pages.end(),
              [](const auto& a, const auto& b) {
                  if (a.second->wallTicks != b.second->wallTicks)
                      return a.second->wallTicks > b.second->wallTicks;
                  return a.first < b.first;
              });
    return pages;
}

void
TxnTracer::writeReport(std::ostream& os) const
{
    os << "=== coherence-transaction critical path ===\n";
    os << "transactions: " << _summary.opened << " opened, "
       << _summary.completed << " completed, " << _summary.retxTxns
       << " retransmit-affected, " << _summary.supArrivals
       << " suppressed arrivals\n";
    os << "wall ticks (completed): " << _summary.wallTicks << "\n";
    os << "breakdown: ";
    writeBreakdown(os, _summary.catTicks, _summary.wallTicks);
    os << "\n";

    const int dom = dominantPattern();
    os << "dominant pattern by wall time: "
       << (dom < 0 ? "none"
                   : sharePatternName(static_cast<SharePattern>(dom)))
       << "\n";

    os << "by sharing pattern:\n";
    for (int p = 0; p < static_cast<int>(_byPattern.size()); ++p) {
        const PatternAgg& pa = _byPattern[static_cast<std::size_t>(p)];
        if (!pa.txns)
            continue;
        os << "  " << sharePatternName(static_cast<SharePattern>(p))
           << ": " << pa.txns << " txns, " << pa.wallTicks
           << " wall ticks, ";
        writeBreakdown(os, pa.catTicks, pa.wallTicks);
        os << "\n";
    }

    const auto pages = pagesByWall();
    const std::size_t keep = std::min<std::size_t>(pages.size(), 8);
    os << "top pages by wall time (" << keep << " of " << pages.size()
       << "):\n";
    for (std::size_t i = 0; i < keep; ++i) {
        os << "  0x" << std::hex << pages[i].first << std::dec << ": "
           << pages[i].second->txns << " txns, "
           << pages[i].second->wallTicks << " wall ticks, ";
        writeBreakdown(os, pages[i].second->catTicks,
                       pages[i].second->wallTicks);
        os << "\n";
    }
}

void
TxnTracer::writeJson(std::ostream& os) const
{
    JsonWriter w(os);
    auto breakdown = [&](const std::array<std::uint64_t, kTxnCats>& c) {
        w.key("breakdown").object(JsonWriter::Block, [&] {
            for (int i = 0; i < kTxnCats; ++i)
                w.field(txnCatName(static_cast<TxnCat>(i)),
                        c[static_cast<std::size_t>(i)]);
        });
    };

    // The top pages only, to keep the JSON bounded.
    auto pages = pagesByWall();
    pages.resize(std::min<std::size_t>(pages.size(), 16));

    const int dom = dominantPattern();
    w.object(JsonWriter::Block, [&] {
        w.field("opened", _summary.opened);
        w.field("completed", _summary.completed);
        w.field("retx_txns", _summary.retxTxns);
        w.field("sup_arrivals", _summary.supArrivals);
        w.field("wall_ticks", _summary.wallTicks);
        breakdown(_summary.catTicks);
        w.field("dominant_pattern",
                dom < 0 ? "none"
                        : sharePatternKey(static_cast<SharePattern>(dom)));
        w.key("patterns").object(JsonWriter::Block, [&] {
            for (std::size_t p = 0; p < _byPattern.size(); ++p) {
                const PatternAgg& pa = _byPattern[p];
                if (!pa.txns)
                    continue;
                w.key(sharePatternKey(static_cast<SharePattern>(p)))
                    .object(JsonWriter::Block, [&] {
                        w.field("txns", pa.txns);
                        w.field("wall_ticks", pa.wallTicks);
                        breakdown(pa.catTicks);
                    });
            }
        });
        w.key("pages").array(JsonWriter::Block, [&] {
            for (const auto& [va, pg] : pages) {
                w.object(JsonWriter::Block, [&] {
                    w.field("va", va);
                    w.field("txns", pg->txns);
                    w.field("wall_ticks", pg->wallTicks);
                    breakdown(pg->catTicks);
                });
            }
        });
    });
}

} // namespace tt
