#include "obs/telemetry.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "sim/json.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"

namespace tt
{

namespace
{

const char*
catName(HostTimer::Cat c)
{
    switch (c) {
      case HostTimer::Cat::Dispatch:
        return "dispatch";
      case HostTimer::Cat::Handler:
        return "handler";
      case HostTimer::Cat::Net:
        return "net";
      case HostTimer::Cat::Checker:
        return "checker";
      case HostTimer::Cat::Transport:
        return "transport";
    }
    return "?";
}

constexpr HostTimer::Cat kAllCats[] = {
    HostTimer::Cat::Dispatch,  HostTimer::Cat::Handler,
    HostTimer::Cat::Net,       HostTimer::Cat::Checker,
    HostTimer::Cat::Transport,
};

} // namespace

Telemetry::Telemetry(StatSet& stats, int nodes)
    : _stats(stats), _nodes(nodes)
{
    _timer.setMemSampleFn([this] { sampleMemory(); });
}

void
Telemetry::addMemProbe(const std::string& name, MemProbe probe)
{
    tt_assert(!_ran, "memory probes must be registered before run()");
    _probes.push_back(Probe{name, std::move(probe), 0, 0});
}

void
Telemetry::registerStats()
{
    // Eager registration: checkpoint restore asserts that both sides
    // of a restore hold identical stat key sets, so every handle this
    // run may write must exist before the run starts.
    for (const Probe& p : _probes) {
        _stats.counter("obs.telemetry.mem." + p.name + ".cur_bytes");
        _stats.counter("obs.telemetry.mem." + p.name + ".peak_bytes");
    }
    _stats.counter("obs.telemetry.mem.total_peak_bytes");
    _stats.counter("obs.telemetry.mem.peak_bytes_per_node");
    _stats.counter("obs.telemetry.mem.samples");
    for (HostTimer::Cat c : kAllCats)
        _stats.counter(std::string("obs.host.") + catName(c) + "_us");
    _stats.counter("obs.host.engine_us");
    _stats.counter("obs.host.wall_us");
    _stats.counter("obs.host.attributed_pct");
    _stats.counter("obs.host.timed_events");
    _stats.counter("obs.host.sample_every");
}

void
Telemetry::sampleMemory()
{
    std::size_t total = 0;
    for (Probe& p : _probes) {
        p.cur = p.fn ? p.fn() : 0;
        p.peak = std::max(p.peak, p.cur);
        total += p.cur;
    }
    _totalPeak = std::max(_totalPeak, total);
    ++_memSamples;
    refreshCounters();
}

void
Telemetry::refreshCounters()
{
    // Keep the registered counters current at every sample point so
    // the flight recorder's interval sampler exports them as Perfetto
    // counter tracks on the --trace stream.
    for (const Probe& p : _probes) {
        _stats.counter("obs.telemetry.mem." + p.name + ".cur_bytes")
            .set(p.cur);
        _stats.counter("obs.telemetry.mem." + p.name + ".peak_bytes")
            .set(p.peak);
    }
    _stats.counter("obs.telemetry.mem.total_peak_bytes").set(_totalPeak);
    _stats.counter("obs.telemetry.mem.samples").set(_memSamples);
    // Provisional host-time tracks: calibrate against the wall clock
    // elapsed so far (exact calibration happens at runEnd()).
    if (_tsc0) {
        const auto nowT = std::chrono::steady_clock::now();
        const std::uint64_t tsc = HostTimer::nowTsc();
        const double wall = static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                nowT - _t0)
                .count());
        if (tsc > _tsc0 && wall > 0) {
            const double npt =
                wall / static_cast<double>(tsc - _tsc0);
            for (HostTimer::Cat c : kAllCats) {
                const double ns = static_cast<double>(
                                      _timer.catTsc(c)) *
                                  npt * HostTimer::kTimeSample;
                _stats
                    .counter(std::string("obs.host.") + catName(c) +
                             "_us")
                    .set(static_cast<std::uint64_t>(ns / 1e3));
            }
        }
    }
}

void
Telemetry::runBegin()
{
    _ran = true;
    _t0 = std::chrono::steady_clock::now();
    _tsc0 = HostTimer::nowTsc();
    sampleMemory();
}

void
Telemetry::runEnd()
{
    _tsc1 = HostTimer::nowTsc();
    _wallNs = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - _t0)
            .count());
    sampleMemory();
    _results.clear();
    for (const Probe& p : _probes)
        _results.push_back(ProbeResult{p.name, p.cur, p.peak});
}

double
Telemetry::nsPerTsc() const
{
    if (_tsc1 <= _tsc0 || _wallNs == 0)
        return 0.0;
    return static_cast<double>(_wallNs) /
           static_cast<double>(_tsc1 - _tsc0);
}

double
Telemetry::catScale() const
{
    // Sampling every Nth event and multiplying by N can extrapolate
    // past the measured wall time (the timed events need not be a
    // perfectly representative sample). Clamp so the categories never
    // claim more than the whole run: attribution tops out at 100%.
    const double ev = static_cast<double>(_timer.eventTsc()) *
                      nsPerTsc() * HostTimer::kTimeSample;
    if (ev <= 0.0 || static_cast<double>(_wallNs) >= ev)
        return 1.0;
    return static_cast<double>(_wallNs) / ev;
}

double
Telemetry::catNs(HostTimer::Cat c) const
{
    return static_cast<double>(_timer.catTsc(c)) * nsPerTsc() *
           HostTimer::kTimeSample * catScale();
}

double
Telemetry::engineNs() const
{
    // Residual: wall time not inside (extrapolated) event callbacks —
    // queue management and promotion.
    double ev = static_cast<double>(_timer.eventTsc()) * nsPerTsc() *
                HostTimer::kTimeSample * catScale();
    return std::max(0.0, static_cast<double>(_wallNs) - ev);
}

double
Telemetry::attributedPct() const
{
    if (_wallNs == 0)
        return 0.0;
    double sum = engineNs();
    for (HostTimer::Cat c : kAllCats)
        sum += catNs(c);
    return 100.0 * sum / static_cast<double>(_wallNs);
}

void
Telemetry::finalize()
{
    refreshCounters();
    _stats.counter("obs.telemetry.mem.peak_bytes_per_node")
        .set(static_cast<std::uint64_t>(peakBytesPerNode()));
    for (HostTimer::Cat c : kAllCats) {
        _stats
            .counter(std::string("obs.host.") + catName(c) + "_us")
            .set(static_cast<std::uint64_t>(catNs(c) / 1e3));
    }
    _stats.counter("obs.host.engine_us")
        .set(static_cast<std::uint64_t>(engineNs() / 1e3));
    _stats.counter("obs.host.wall_us").set(_wallNs / 1000);
    _stats.counter("obs.host.attributed_pct")
        .set(static_cast<std::uint64_t>(attributedPct()));
    _stats.counter("obs.host.timed_events").set(_timer.timedEvents());
    _stats.counter("obs.host.sample_every").set(HostTimer::kTimeSample);
}

void
Telemetry::writeReport(std::ostream& os) const
{
    JsonWriter w(os);
    w.object(JsonWriter::Block, [&] {
        w.field("nodes", _nodes);
        w.key("mem").object(JsonWriter::Block, [&] {
            w.field("samples", _memSamples);
            w.field("total_peak_bytes", _totalPeak);
            w.field("peak_bytes_per_node", peakBytesPerNode());
            w.key("subsystems").object(JsonWriter::Block, [&] {
                for (const ProbeResult& r : _results) {
                    w.key(r.name).object(JsonWriter::Inline, [&] {
                        w.field("final_bytes", r.finalBytes);
                        w.field("peak_bytes", r.peakBytes);
                    });
                }
            });
        });
        w.key("host").object(JsonWriter::Block, [&] {
            w.field("wall_ms", _wallNs / 1e6);
            w.field("sample_every", HostTimer::kTimeSample);
            w.field("events", _timer.events());
            w.field("timed_events", _timer.timedEvents());
            w.field("attributed_pct", attributedPct());
            w.key("categories_ms").object(JsonWriter::Inline, [&] {
                for (HostTimer::Cat c : kAllCats)
                    w.field(catName(c), catNs(c) / 1e6);
                w.field("engine", engineNs() / 1e6);
            });
        });
    });
}

void
Telemetry::printSummary(std::ostream& os) const
{
    char buf[128];
    os << "telemetry      : peak " << _totalPeak << " bytes across "
       << _probes.size() << " subsystems ("
       << static_cast<std::uint64_t>(peakBytesPerNode())
       << " B/node, " << _memSamples << " samples)\n";
    std::snprintf(buf, sizeof buf,
                  "telemetry      : host %.1f ms, attributed %.0f%%"
                  " (1/%u events timed)",
                  _wallNs / 1e6, attributedPct(),
                  static_cast<unsigned>(HostTimer::kTimeSample));
    os << buf << "\n";
    for (HostTimer::Cat c : kAllCats) {
        std::snprintf(buf, sizeof buf,
                      "telemetry      :   %-9s %8.2f ms", catName(c),
                      catNs(c) / 1e6);
        os << buf << "\n";
    }
    std::snprintf(buf, sizeof buf,
                  "telemetry      :   %-9s %8.2f ms", "engine",
                  engineNs() / 1e6);
    os << buf << "\n";
}

} // namespace tt
