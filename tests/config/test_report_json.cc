/**
 * @file
 * Whole-document layout goldens for three JSON reports built from
 * synthetic inputs (no simulation): a StatSet, a BenchReport and a
 * CampaignReport. The expected strings are the exact bytes the
 * exporters produce, so any change to indentation, separators, key
 * order or number formatting fails here first.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "config/bench_harness.hh"
#include "config/campaign.hh"
#include "sim/stats.hh"

namespace tt
{
namespace
{

template <class Report>
std::string
json(const Report& r)
{
    std::ostringstream os;
    r.writeJson(os);
    return os.str();
}

TEST(ReportJson, StatSetLayout)
{
    StatSet s;
    s.counter("net.messages").inc(42);
    s.average("lat").sample(1.5);
    s.average("lat").sample(2.5);
    Histogram& h = s.histogram("fanout", 2.0, 3);
    h.sample(1);
    h.sample(3);
    h.sample(-1);
    h.sample(99);

    EXPECT_EQ(json(s), R"({
  "counters": {
    "net.messages": 42
  },
  "averages": {
    "lat": {"mean": 2, "count": 2, "min": 1.5, "max": 2.5, "variance": 0.5, "stddev": 0.70710678118654757}
  },
  "histograms": {
    "fanout": {"width": 2, "buckets": [1, 1, 0], "underflow": 1, "overflow": 1, "summary": {"mean": 25.5, "count": 4, "min": -1, "max": 99, "variance": 2403.6666666666665, "stddev": 49.027203333115651}}
  }
}
)");
}

TEST(ReportJson, BenchReportLayout)
{
    BenchReport rep;
    rep.nodes = 8;
    rep.scale = 4;
    BenchCase c;
    c.system = "stache";
    c.app = "em3d";
    c.dataset = "tiny";
    c.cycles = 123456;
    c.events = 1000;
    c.wallMs = 2.5;
    c.checksum = 0.125;
    c.netMessages = 77;
    c.netWords = 308;
    rep.cases.push_back(c);
    rep.traceOnWallMs = 5;
    rep.traceOnEvents = 1000;
    BenchReport::MemFootprintEntry e;
    e.system = "dirnnb";
    e.nodes = 16;
    e.totalPeakBytes = 4096;
    e.peakBytesPerNode = 256;
    e.subsystems = {{"cache", 100, 1024}, {"net", 50, 3072}};
    rep.memFootprint.push_back(e);
    rep.hostCores = 4;

    EXPECT_EQ(json(rep), R"({
  "nodes": 8,
  "scale": 4,
  "cases": [
    {"system": "stache", "app": "em3d", "dataset": "tiny", "cycles": 123456, "events": 1000, "wall_ms": 2.5, "checksum": 0.125, "net_messages": 77, "net_words": 308}
  ],
  "total_events": 1000,
  "total_wall_ms": 2.5,
  "events_per_sec": 400000,
  "trace_overhead": {"events": 1000, "wall_ms": 5, "events_per_sec_trace_on": 200000, "slowdown_vs_trace_off": 2},
  "mem_footprint": {"app": "em3d", "dataset": "small", "host_cores": 4, "entries": [
    {"system": "dirnnb", "nodes": 16, "total_peak_bytes": 4096, "peak_bytes_per_node": 256, "subsystems": {"cache": 1024, "net": 3072}}
  ]}
}
)");
}

TEST(ReportJson, CampaignReportLayout)
{
    CampaignReport rep;
    rep.faultSpec = "drop=0.02,crash@30000:3,seed=7";
    rep.baseSeed = 7;
    rep.runsPerSystem = 1;

    CampaignRun panic;
    panic.system = "stache";
    panic.seed = 0xabcdef;
    panic.outcome = "panic";
    panic.faultsInjected = 3;
    panic.retransmits = 2;
    panic.acks = 9;
    panic.detail = "deadlock: \"node 3\"\nqueue drained";
    panic.patternBlocks[1] = 4;
    panic.falseSharingBlocks = 1;
    panic.dominantPattern = "private";
    rep.runs.push_back(panic);

    CampaignRun crash;
    crash.system = "dirnnb";
    crash.seed = 42;
    crash.outcome = "ok";
    crash.cycles = 5000;
    crash.crashesInjected = 1;
    crash.recoveries = 1;
    crash.txnOpened = 5;
    crash.txnCompleted = 4;
    crash.txnWallTicks = 800;
    crash.txnCatTicks[0] = 800;
    crash.txnDominantPattern = "migratory";
    rep.runs.push_back(crash);

    EXPECT_EQ(json(rep), R"({
  "fault_spec": "drop=0.02,crash@30000:3,seed=7",
  "base_seed": 7,
  "runs_per_system": 1,
  "reliable_transport": true,
  "shard": {"index": 0, "count": 1},
  "totals": {"runs": 2, "ok": 1, "violation": 0, "watchdog": 0, "panic": 1, "error": 0, "unrecoverable": 0, "faults_injected": 3, "retransmits": 2, "acks": 9, "dup_dropped": 0, "ooo_dropped": 0, "dead_links": 0, "watchdog_trips": 0},
  "recovery": {"crashes_injected": 1, "recoveries": 1, "crashes_survived": 1, "unrecoverable": 0},
  "sharing": [
    {"system": "stache", "patterns": {"untouched": 0, "private": 4, "read_only": 0, "producer_consumer": 0, "migratory": 0, "write_shared": 0}, "false_sharing_blocks": 1},
    {"system": "dirnnb", "patterns": {"untouched": 0, "private": 0, "read_only": 0, "producer_consumer": 0, "migratory": 0, "write_shared": 0}, "false_sharing_blocks": 0}
  ],
  "transactions": [
    {"system": "stache", "opened": 0, "completed": 0, "retx_txns": 0, "wall_ticks": 0, "breakdown": {"request": 0, "network": 0, "directory": 0, "inval_wait": 0, "retransmit": 0, "other": 0}},
    {"system": "dirnnb", "opened": 5, "completed": 4, "retx_txns": 0, "wall_ticks": 800, "breakdown": {"request": 800, "network": 0, "directory": 0, "inval_wait": 0, "retransmit": 0, "other": 0}}
  ],
  "runs": [
    {"system": "stache", "seed": "0000000000abcdef", "index": 0, "outcome": "panic", "cycles": 0, "faults_injected": 3, "retransmits": 2, "acks": 9, "dup_dropped": 0, "ooo_dropped": 0, "dead_links": 0, "violations": 0, "watchdog_trips": 0, "dominant_pattern": "private", "false_sharing_blocks": 1, "detail": "deadlock: \"node 3\"\nqueue drained"},
    {"system": "dirnnb", "seed": "000000000000002a", "index": 0, "outcome": "ok", "cycles": 5000, "faults_injected": 0, "retransmits": 0, "acks": 0, "dup_dropped": 0, "ooo_dropped": 0, "dead_links": 0, "violations": 0, "watchdog_trips": 0, "crashes_injected": 1, "recoveries": 1, "txn_completed": 4, "txn_retx": 0, "txn_wall_ticks": 800, "txn_dominant_pattern": "migratory"}
  ]
}
)");
}

} // namespace
} // namespace tt
