#include "config/bench_harness.hh"

#include <chrono>
#include <cstdio>

#include "sim/json.hh"
#include "sim/stats.hh"

namespace tt
{

std::uint64_t
BenchReport::totalEvents() const
{
    std::uint64_t n = 0;
    for (const auto& c : cases)
        n += c.events;
    return n;
}

double
BenchReport::totalWallMs() const
{
    double ms = 0;
    for (const auto& c : cases)
        ms += c.wallMs;
    return ms;
}

double
BenchReport::perSec(std::uint64_t events, double wallMs)
{
    return wallMs > 0 ? events / (wallMs / 1000.0) : 0;
}

double
BenchReport::eventsPerSec() const
{
    return perSec(totalEvents(), totalWallMs());
}

void
BenchReport::printTable(std::ostream& os) const
{
    char line[256];
    std::snprintf(line, sizeof line, "%-10s %-8s %-7s %14s %12s %9s\n",
                  "system", "app", "dataset", "cycles", "events",
                  "wall ms");
    os << line;
    for (const auto& c : cases) {
        std::snprintf(line, sizeof line,
                      "%-10s %-8s %-7s %14llu %12llu %9.1f\n",
                      c.system.c_str(), c.app.c_str(),
                      c.dataset.c_str(),
                      static_cast<unsigned long long>(c.cycles),
                      static_cast<unsigned long long>(c.events),
                      c.wallMs);
        os << line;
    }
    std::snprintf(line, sizeof line,
                  "total: %llu events in %.1f ms = %.0f events/sec\n",
                  static_cast<unsigned long long>(totalEvents()),
                  totalWallMs(), eventsPerSec());
    os << line;
    if (baselineEventsPerSec > 0) {
        std::snprintf(line, sizeof line,
                      "baseline: %.0f events/sec -> speedup %.2fx\n",
                      baselineEventsPerSec,
                      eventsPerSec() / baselineEventsPerSec);
        os << line;
    }
    // One line per measured overhead pass (wall_ms == 0: not run).
    auto overhead = [&](const char* on, const char* off,
                        std::uint64_t events, double wallMs,
                        const std::string& extra = "") {
        if (wallMs <= 0)
            return;
        const double eps = perSec(events, wallMs);
        std::snprintf(line, sizeof line,
                      "%s: %.0f events/sec (%.2fx slower than %s%s)\n",
                      on, eps, eventsPerSec() / eps, off, extra.c_str());
        os << line;
    };
    overhead("checker on (fast)", "checker off", checkerFastEvents,
             checkerFastWallMs);
    overhead("checker on (paranoid)", "checker off",
             checkerParanoidEvents, checkerParanoidWallMs);
    overhead("trace on", "trace off", traceOnEvents, traceOnWallMs);
    overhead("analyze on", "analyze off", analyzeOnEvents,
             analyzeOnWallMs);
    overhead("txn tracer on", "tracer off", txnOnEvents, txnOnWallMs);
    overhead("faults+transport on", "faults off", transportOnEvents,
             transportOnWallMs,
             ", " + std::to_string(transportOnRetransmits) +
                 " retransmits");
    overhead("telemetry on", "telemetry off", telemetryOnEvents,
             telemetryOnWallMs);
    if (!memFootprint.empty()) {
        os << "memory footprint (em3d/small, telemetry probes):\n";
        for (const auto& e : memFootprint) {
            std::snprintf(line, sizeof line,
                          "  %-8s nodes=%-4d peak %12llu bytes "
                          "(%.0f B/node)\n",
                          e.system.c_str(), e.nodes,
                          static_cast<unsigned long long>(
                              e.totalPeakBytes),
                          e.peakBytesPerNode);
            os << line;
        }
    }
}

void
BenchReport::writeJson(std::ostream& os) const
{
    const double eps = eventsPerSec();
    JsonWriter w(os);
    // The members every overhead pass shares: its events, wall time
    // and events/sec, and its slowdown against the plain grid.
    auto overheadFields = [&](const std::string& mode,
                              std::uint64_t events, double wallMs) {
        const double onEps = perSec(events, wallMs);
        w.field("events", events);
        w.field("wall_ms", wallMs);
        w.field("events_per_sec_" + mode + "_on", onEps);
        w.field("slowdown_vs_" + mode + "_off", eps / onEps);
    };
    // wall_ms == 0 means "not measured": the entry is left out.
    auto overhead = [&](const char* key, const char* mode,
                        std::uint64_t events, double wallMs) {
        if (wallMs > 0) {
            w.key(key).object(JsonWriter::Inline, [&] {
                overheadFields(mode, events, wallMs);
            });
        }
    };
    w.object(JsonWriter::Block, [&] {
        w.field("nodes", nodes);
        w.field("scale", scale);
        w.key("cases").array(JsonWriter::Block, [&] {
            for (const BenchCase& c : cases) {
                w.object(JsonWriter::Inline, [&] {
                    w.field("system", c.system);
                    w.field("app", c.app);
                    w.field("dataset", c.dataset);
                    w.field("cycles", c.cycles);
                    w.field("events", c.events);
                    w.field("wall_ms", c.wallMs);
                    w.field("checksum", c.checksum);
                    w.field("net_messages", c.netMessages);
                    w.field("net_words", c.netWords);
                });
            }
        });
        w.field("total_events", totalEvents());
        w.field("total_wall_ms", totalWallMs());
        w.field("events_per_sec", eps);
        if (baselineEventsPerSec > 0) {
            w.field("baseline_events_per_sec", baselineEventsPerSec);
            w.field("speedup", eps / baselineEventsPerSec);
            w.field("baseline_note", baselineNote);
        }
        if (checkerFastWallMs > 0 || checkerParanoidWallMs > 0) {
            w.key("checker_overhead_v2").object(JsonWriter::Block, [&] {
                overhead("fast", "check", checkerFastEvents,
                         checkerFastWallMs);
                overhead("paranoid", "check", checkerParanoidEvents,
                         checkerParanoidWallMs);
            });
        }
        overhead("trace_overhead", "trace", traceOnEvents, traceOnWallMs);
        overhead("analyze_overhead", "analyze", analyzeOnEvents,
                 analyzeOnWallMs);
        overhead("txn_trace_overhead", "txn", txnOnEvents, txnOnWallMs);
        if (transportOnWallMs > 0) {
            w.key("reliable_transport_overhead")
                .object(JsonWriter::Inline, [&] {
                    w.field("faults", transportFaultSpec);
                    overheadFields("faults", transportOnEvents,
                                   transportOnWallMs);
                    w.field("retransmits", transportOnRetransmits);
                });
        }
        overhead("telemetry_overhead", "telemetry", telemetryOnEvents,
                 telemetryOnWallMs);
        if (!memFootprint.empty()) {
            w.key("mem_footprint").object(JsonWriter::Inline, [&] {
                w.field("app", "em3d");
                w.field("dataset", "small");
                w.field("host_cores", hostCores);
                w.key("entries").array(JsonWriter::Block, [&] {
                    for (const MemFootprintEntry& e : memFootprint) {
                        w.object(JsonWriter::Inline, [&] {
                            w.field("system", e.system);
                            w.field("nodes", e.nodes);
                            w.field("total_peak_bytes", e.totalPeakBytes);
                            w.field("peak_bytes_per_node",
                                    e.peakBytesPerNode);
                            w.key("subsystems")
                                .object(JsonWriter::Inline, [&] {
                                    for (const auto& p : e.subsystems)
                                        w.field(p.name, p.peakBytes);
                                });
                        });
                    }
                });
            });
        }
    });
}

BenchCase
runBenchCase(const std::string& system, const std::string& appName,
             DataSet ds, int scale, const MachineConfig& cfg,
             BenchTelemetry* telem)
{
    TargetMachine target = buildSystem(system, cfg);
    const std::unique_ptr<BenchApp> app =
        makeSystemApp(system, target, appName, ds, scale);

    if (target.telemetry)
        target.telemetry->runBegin();
    const auto t0 = std::chrono::steady_clock::now();
    const RunResult r = target.run(*app);
    const auto t1 = std::chrono::steady_clock::now();
    if (target.telemetry) {
        target.telemetry->runEnd();
        target.telemetry->finalize();
        if (telem) {
            telem->present = true;
            telem->totalPeakBytes = target.telemetry->totalPeakBytes();
            telem->peakBytesPerNode =
                target.telemetry->peakBytesPerNode();
            telem->subsystems = target.telemetry->probeResults();
        }
    }

    BenchCase c;
    c.system = system;
    c.app = appName;
    c.dataset = dataSetName(ds);
    c.cycles = r.execTime;
    c.events = r.events;
    c.wallMs =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    c.checksum = app->checksum();
    if (target.obs)
        target.obs->finalize();
    const StatSet& stats = target.machine->stats();
    c.netMessages = stats.get("net.messages");
    c.netWords = stats.get("net.words");
    c.netRetransmits = stats.get("net.retransmits");
    return c;
}

} // namespace tt
