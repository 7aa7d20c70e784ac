/**
 * @file
 * Simulator self-telemetry (DESIGN.md §16): per-subsystem memory
 * accounting and host-time attribution, assembled behind
 * `ttsim --telemetry[=FILE]`.
 *
 * Two data sources feed one report:
 *
 *  - *Memory probes*: each subsystem exposes a deterministic
 *    footprintBytes() computed from its container capacities; the
 *    builders register one named probe per subsystem here. Probes are
 *    polled at deterministic points (run begin/end plus every
 *    HostTimer::kMemSample executed events), tracking current and
 *    peak bytes per probe and the peak of the total.
 *
 *  - *Host-time attribution*: the HostTimer (src/sim/host_timer.hh)
 *    times every kTimeSample-th event with scoped TSC counters; this
 *    layer calibrates TSC->ns against steady_clock over the run,
 *    extrapolates by the sampling factor, and charges the residual
 *    (wall minus extrapolated event time) to the engine itself, so
 *    the categories sum to the measured wall time.
 *
 * Determinism: everything under `obs.telemetry.*` (event/mem
 * counters) is deterministic for a fixed configuration; everything
 * under `obs.host.*` is a host measurement and is excluded from
 * determinism comparisons (the check.sh identity legs compare
 * simulated results only).
 */

#ifndef TT_OBS_TELEMETRY_HH
#define TT_OBS_TELEMETRY_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "sim/host_timer.hh"
#include "sim/types.hh"

namespace tt
{

class StatSet;

class Telemetry
{
  public:
    /**
     * @param stats the machine's StatSet; telemetry stat handles are
     *              registered eagerly at construction-time callers
     *              (registerStats()) so checkpoint restore sees
     *              identical key sets on both sides
     * @param nodes simulated node count, for bytes-per-node
     */
    Telemetry(StatSet& stats, int nodes);

    /** The sampled scoped timer handed to the event kernel + hooks. */
    HostTimer& timer() { return _timer; }

    // --- memory accounting -------------------------------------------

    using MemProbe = std::function<std::size_t()>;

    /** Register a named subsystem probe (builders, before run). */
    void addMemProbe(const std::string& name, MemProbe probe);

    /**
     * Register every stat handle this run will write. Must be called
     * after the last addMemProbe() and before run(), so
     * the StatSet key set is fixed up front (checkpoint restore
     * asserts matching key sets).
     */
    void registerStats();

    /** Poll all probes; update current/peak and the counter tracks. */
    void sampleMemory();

    // --- run lifecycle -----------------------------------------------

    /** Capture the wall/TSC origin and take the first memory sample. */
    void runBegin();

    /** Capture the wall/TSC end and the final memory sample. */
    void runEnd();

    /**
     * Fold results into the StatSet (idempotent: values are set, not
     * accumulated). Call after runEnd(), before any --stats-json
     * write.
     */
    void finalize();

    // --- report -------------------------------------------------------

    /** Write the telemetry report as a JSON document. */
    void writeReport(std::ostream& os) const;

    /** One-paragraph human summary for stdout. */
    void printSummary(std::ostream& os) const;

    // --- read-out for the bench harness ------------------------------

    struct ProbeResult
    {
        std::string name;
        std::size_t finalBytes = 0;
        std::size_t peakBytes = 0;
    };

    const std::vector<ProbeResult>& probeResults() const
    {
        return _results;
    }
    std::size_t totalPeakBytes() const { return _totalPeak; }
    double
    peakBytesPerNode() const
    {
        return _nodes ? static_cast<double>(_totalPeak) / _nodes : 0.0;
    }
    std::uint64_t memSamples() const { return _memSamples; }
    double wallMs() const { return _wallNs / 1e6; }

    /** Extrapolated ns charged to @p c (valid after runEnd()). */
    double catNs(HostTimer::Cat c) const;
    /** Residual ns charged to the engine (wall - event time, >= 0). */
    double engineNs() const;
    /** Attributed time (categories + engine) over wall, in percent. */
    double attributedPct() const;

  private:
    struct Probe
    {
        std::string name;
        MemProbe fn;
        std::size_t cur = 0;
        std::size_t peak = 0;
    };

    double nsPerTsc() const;
    double catScale() const;
    void refreshCounters();

    StatSet& _stats;
    int _nodes;
    HostTimer _timer;

    std::vector<Probe> _probes;
    std::size_t _totalPeak = 0;
    std::uint64_t _memSamples = 0;

    // Wall/TSC calibration endpoints.
    std::uint64_t _tsc0 = 0;
    std::uint64_t _tsc1 = 0;
    std::uint64_t _wallNs = 0;
    bool _ran = false;

    std::vector<ProbeResult> _results;

    std::chrono::steady_clock::time_point _t0;
};

} // namespace tt

#endif // TT_OBS_TELEMETRY_HH
