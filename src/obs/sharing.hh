/**
 * @file
 * SharingAnalyzer — online sharing-pattern analysis over the flight-
 * recorder stream (DESIGN.md §11, ttsim --analyze).
 *
 * The analyzer folds the sharing-analysis record kinds (BlockAccess,
 * InvalSent, DirTrans — emitted by the instrumented protocols only
 * when FlightRecorder::wantSharing() is true) into three products:
 *
 *  - a per-block access-pattern classifier at block grain, using the
 *    standard last-writer/reader-set state machine: untouched,
 *    private (one node), read-only, producer-consumer (single writer,
 *    foreign readers), migratory (ownership hops where the readers
 *    between two writes are just the next writer), write-shared;
 *  - a false-sharing detector tracking per-node sub-block byte
 *    footprints and flagging blocks whose invalidations were caused
 *    entirely by disjoint footprints from different nodes;
 *  - directory hot-spot heatmaps: per-home-node invalidation fan-out
 *    and handler-occupancy histograms plus per-page traffic tables.
 *
 * Reports end in a protocol advisor: contiguous pages with the same
 * dominant classification are merged into regions and ranked by the
 * estimated message savings of switching them to a better-suited
 * Tempest protocol (PAPER.md §6). All output — JSON and human — is
 * deterministic and byte-stable: map iteration is over sorted keys
 * and nothing depends on wall-clock.
 */

#ifndef TT_OBS_SHARING_HH
#define TT_OBS_SHARING_HH

#include <array>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "obs/record.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace tt
{

/** The classifier's verdict for one block. */
enum class SharePattern : std::uint8_t
{
    Untouched = 0,    ///< no completed CPU access observed
    Private,          ///< exactly one node ever touched it
    ReadOnly,         ///< shared, never written
    ProducerConsumer, ///< one writer, foreign readers
    Migratory,        ///< ownership hops; reader == next writer
    WriteShared,      ///< multiple writers, interleaved readers
};

constexpr int kSharePatterns = 6;

const char* sharePatternName(SharePattern p);

/** Stable snake_case key for JSON reports ("producer_consumer"). */
const char* sharePatternKey(SharePattern p);

/** Geometry the analyzer needs (mirrors CoreParams). */
struct SharingParams
{
    std::uint32_t blockSize = 32;
    std::uint32_t pageSize = 4096;
};

class SharingAnalyzer
{
  public:
    SharingAnalyzer(int nodes, SharingParams p = {});

    /** Fold one record (called from FlightRecorder::consume). */
    void fold(const TraceRecord& r);

    // --- per-block state ----------------------------------------------

    /** One node's byte-range footprint within a block. */
    struct NodeFoot
    {
        NodeId node = kNoNode;
        std::uint64_t readMask = 0;  ///< sub-block slots read
        std::uint64_t writeMask = 0; ///< sub-block slots written
    };

    struct BlockStats
    {
        std::uint32_t reads = 0;
        std::uint32_t writes = 0;
        /// Node sets as bitmasks (node & 63: machines beyond 64 nodes
        /// alias, which can only merge patterns, never invent nodes).
        std::uint64_t readerSet = 0;
        std::uint64_t writerSet = 0;
        NodeId lastWriter = kNoNode;
        std::uint64_t readersSinceWrite = 0;
        std::uint32_t ownerChanges = 0;    ///< writer handoffs
        std::uint32_t migratorySteps = 0;  ///< handoffs that look migratory
        std::uint32_t invals = 0;          ///< invalidation rounds
        std::uint32_t recalls = 0;         ///< recalls + downgrades
        std::uint32_t updates = 0;         ///< update pushes
        std::uint32_t fanoutSum = 0;
        std::vector<NodeFoot> footprints;  ///< sorted by node
    };

    /** Classify one block's folded stats (pure). */
    SharePattern classify(const BlockStats& b) const;

    /** Classify the block holding @p blk (Untouched if never seen). */
    SharePattern classifyBlock(Addr blk) const;

    /** True iff the block's conflicts came from disjoint footprints. */
    bool falselyShared(const BlockStats& b) const;

    const BlockStats* blockOf(Addr blk) const;
    std::size_t blockCount() const { return _blocks.size(); }

    // --- aggregates ---------------------------------------------------

    struct Summary
    {
        std::array<std::uint64_t, kSharePatterns> blocksByPattern{};
        std::uint64_t blocks = 0;
        std::uint64_t reads = 0;
        std::uint64_t writes = 0;
        std::uint64_t invalRounds = 0;
        std::uint64_t invalFanout = 0;
        std::uint64_t recalls = 0;
        std::uint64_t updates = 0;
        std::uint64_t falseSharingBlocks = 0;
        std::uint64_t falseSharingInvals = 0;

        /**
         * The dominant pattern among blocks shared by more than one
         * node (read-only / producer-consumer / migratory /
         * write-shared); Private if nothing is shared, Untouched if
         * nothing was accessed. Ties break toward the lower enum.
         */
        SharePattern dominant() const;
    };

    Summary summarize() const;

    /** Per-home-node hot-spot aggregates (the heatmap rows). */
    struct HomeStats
    {
        std::uint64_t dirTransitions = 0; ///< DirTrans records
        std::uint64_t invalRounds = 0;
        std::uint64_t fanoutSum = 0;
        std::uint64_t fanoutMax = 0;
        std::uint64_t occupancy = 0;      ///< handler ticks charged
        Histogram fanout{1.0, 16};        ///< per-round fan-out
        Histogram busy{8.0, 32};          ///< per-activation occupancy
    };

    const HomeStats& homeOf(NodeId n) const;

    // --- the protocol advisor -----------------------------------------

    struct Advice
    {
        Addr firstPage = 0;      ///< page base VA of the region
        Addr lastPage = 0;       ///< inclusive
        std::uint64_t pages = 0;
        SharePattern pattern = SharePattern::Untouched;
        int percent = 0;         ///< blocks agreeing with the pattern
        std::uint64_t estSavedMsgs = 0;
        bool falseSharing = false;
        std::string action;      ///< human-readable recommendation
    };

    /** Ranked per-region recommendations (savings desc, VA asc). */
    std::vector<Advice> advise() const;

    // --- reporting ----------------------------------------------------

    /** Deterministic human-readable report (the --analyze output). */
    void writeReport(std::ostream& os) const;

    /** Deterministic, byte-stable JSON (--analyze=PATH). */
    void writeJson(std::ostream& os) const;

  private:
    struct PageAgg; ///< per-page roll-up built at report time

    void foldAccess(const TraceRecord& r);
    void foldInval(const TraceRecord& r);
    std::map<std::uint64_t, PageAgg> pageTable() const;

    int _nodes;
    SharingParams _p;
    unsigned _footShift = 0; ///< bytes per footprint slot, log2
    std::map<Addr, BlockStats> _blocks;       ///< blk base -> stats
    std::map<std::uint64_t, NodeId> _pageHome; ///< vpn -> home (learned)
    std::vector<HomeStats> _homes;
};

} // namespace tt

#endif // TT_OBS_SHARING_HH
