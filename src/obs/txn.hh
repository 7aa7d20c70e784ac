/**
 * @file
 * TxnTracer — causal coherence-transaction tracing with critical-path
 * attribution (DESIGN.md §14, ttsim --trace-critical).
 *
 * Every demand miss / upgrade opens a transaction at its origin
 * (FlightRecorder stamps the id onto the BlockFault / MissStart
 * record and Network::send piggybacks it onto every derived message,
 * including transport retransmissions and acks). The tracer folds the
 * transaction-stamped record stream into per-transaction span sets —
 * handler activations, message flights, invalidation rounds,
 * loss-repair episodes — and at finalize walks each completed
 * transaction's spans with a priority sweep that partitions its wall
 * latency exactly into six segments:
 *
 *   directory > request > retransmit > network > inval_wait > other
 *
 * (higher priority wins where spans overlap; "other" is the uncovered
 * remainder, so the six segments always sum to the measured wall
 * latency — asserted per transaction). Aggregates roll up per page,
 * per sharing-pattern class (joining the SharingAnalyzer's per-block
 * classification when one ran), and machine-wide into obs.txn.*
 * counters. All output is deterministic and byte-stable.
 */

#ifndef TT_OBS_TXN_HH
#define TT_OBS_TXN_HH

#include <array>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "obs/record.hh"
#include "sim/types.hh"

namespace tt
{

class SharingAnalyzer;
class StatSet;

/** Critical-path latency segment of one transaction. */
enum class TxnCat : std::uint8_t
{
    Request = 0, ///< handler occupancy at the faulting node
    Network,     ///< message flight time (excluding loss repair)
    Directory,   ///< handler occupancy away from the faulting node
    InvalWait,   ///< invalidation/recall round to last ack handled
    Retransmit,  ///< loss-repair: dropped send to retransmit arrival
    Other,       ///< uncovered remainder (CPU restart, queueing, ...)
};

constexpr int kTxnCats = 6;

const char* txnCatName(TxnCat c);

/** Geometry the tracer needs (mirrors CoreParams). */
struct TxnParams
{
    std::uint32_t blockSize = 32;
    std::uint32_t pageSize = 4096;
};

class TxnTracer
{
  public:
    TxnTracer(int nodes, StatSet& stats, TxnParams p = {});

    /** Fold one record (called from FlightRecorder::consume). */
    void fold(const TraceRecord& r);

    /**
     * Close the books: partition every completed transaction, build
     * the per-page / per-pattern aggregates (joined against
     * @p sharing's block classifier when non-null), and register the
     * obs.txn.* counters. Idempotent.
     */
    void finalize(const SharingAnalyzer* sharing);

    // --- per-transaction results (tests) ------------------------------

    struct Result
    {
        std::uint32_t id = 0;
        NodeId origin = kNoNode;
        Addr addr = 0;           ///< faulting va / missing block
        bool write = false;
        Tick start = 0;
        Tick end = 0;
        std::uint32_t sends = 0;
        std::uint32_t retx = 0;  ///< retransmitted physical copies
        std::uint32_t sups = 0;  ///< suppressed (dup/ooo) arrivals
        std::array<Tick, kTxnCats> cat{}; ///< sums to end - start

        Tick wall() const { return end - start; }
    };

    /** Completed transactions, id-ascending (valid after finalize). */
    const std::vector<Result>& results() const { return _results; }

    // --- aggregates ---------------------------------------------------

    struct Summary
    {
        std::uint64_t opened = 0;    ///< transactions ever opened
        std::uint64_t completed = 0; ///< saw their MissEnd
        std::uint64_t retxTxns = 0;  ///< completed, with ≥1 retransmit
        std::uint64_t supArrivals = 0;
        std::uint64_t wallTicks = 0; ///< sum of completed wall time
        std::array<std::uint64_t, kTxnCats> catTicks{};
    };

    Summary summarize() const { return _summary; }

    /** Per-sharing-pattern roll-up (index = SharePattern value). */
    struct PatternAgg
    {
        std::uint64_t txns = 0;
        std::uint64_t wallTicks = 0;
        std::array<std::uint64_t, kTxnCats> catTicks{};
    };

    const std::vector<PatternAgg>& byPattern() const
    {
        return _byPattern;
    }

    /**
     * The dominant pattern class by attributed wall time among
     * completed transactions (ties break toward the lower pattern
     * index); -1 when nothing completed. Indexes SharePattern.
     */
    int dominantPattern() const;

    // --- reporting ----------------------------------------------------

    /** Deterministic human report (the --trace-critical output). */
    void writeReport(std::ostream& os) const;

    /** The --trace-critical=FILE JSON document. */
    void writeJson(std::ostream& os) const;

  private:
    struct HandlerSpan
    {
        NodeId node;
        Tick start;
        Tick end;
    };

    struct Flight
    {
        Tick start;
        Tick end;
        bool retx;
    };

    struct DroppedSend
    {
        NodeId src;
        NodeId dst;
        std::uint64_t handler;
        Tick tick;
    };

    struct InvalRound
    {
        NodeId home;
        Tick tick;
    };

    struct Txn
    {
        NodeId origin = kNoNode;
        Addr addr = 0;
        bool write = false;
        bool done = false;
        Tick start = 0;
        Tick end = 0;
        std::uint32_t sends = 0;
        std::uint32_t retx = 0;
        std::uint32_t sups = 0;
        std::vector<HandlerSpan> handlers;
        std::vector<Flight> flights;
        std::vector<DroppedSend> dropped;
        std::vector<InvalRound> invals;
    };

    /** Per-page roll-up (page base va -> aggregate). */
    struct PageAgg
    {
        std::uint64_t txns = 0;
        std::uint64_t wallTicks = 0;
        std::array<std::uint64_t, kTxnCats> catTicks{};
    };

    void partition(const Txn& t, Result& out) const;

    /** Every page by attributed wall time (desc), then va (asc). */
    std::vector<std::pair<Addr, const PageAgg*>> pagesByWall() const;

    int _nodes;
    TxnParams _p;
    StatSet& _stats;
    bool _finalized = false;

    std::map<std::uint32_t, Txn> _txns; ///< id -> in-flight state

    // Built at finalize:
    Summary _summary;
    std::vector<Result> _results;
    std::vector<PatternAgg> _byPattern; ///< indexed by SharePattern
    std::map<Addr, PageAgg> _byPage;    ///< page base va -> aggregate
};

} // namespace tt

#endif // TT_OBS_TXN_HH
