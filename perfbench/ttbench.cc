/**
 * @file
 * Benchmark program for the simulator: runs one workload in a closed
 * loop (one simulation after another, serial engine) for a fixed
 * number of host seconds and prints one JSON report on stdout.
 *
 *   ttbench --workload W --seed N --seconds S --trace 0|1
 *           [--spans FILE]
 *
 * Workloads (the rationale is in perfbench/README.md):
 *   fig3_fit        {dirnnb, stache} x the five Table 3 apps, small
 *                   data sets at scale 1/4, 256 KB CPU caches
 *   cache4k_custom  4 KB CPU caches; em3d on stache/update, mp3d on
 *                   stache/migratory, barnes on dirnnb/stache
 *   fault_campaign  runCampaign over all four systems on em3d tiny
 *                   under a drop/dup/reorder fault mix
 *
 * --seed N sets the machine RNG seed (ttsim's default plus N) for the
 * grid workloads and the base fault seed (N) for the campaign, so
 * seed 0 is the recorded seed whose simulated cycles are pinned.
 *
 * With --trace 0 the report holds the end-to-end figures: host
 * seconds of simulation and of set-up (each case's median over
 * passes, summed over cases), simulated cycles and peak resident
 * memory. With --trace 1 traced passes alternate
 * with untraced ones; spans are taken from outside the simulator
 * (around builder calls, a forwarding App and a forwarding
 * MemorySystem), and each layer's hot public call is also timed in
 * isolation. Reference checking of checksums and cycles is left to
 * the caller (perfbench/run.py); this program checks that every pass
 * and every traced pass reproduces the first pass exactly.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "apps/workloads.hh"
#include "config/builders.hh"
#include "config/campaign.hh"
#include "drivers.hh"

using namespace tt;

namespace
{

using Clock = std::chrono::steady_clock;

double
seconds(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/// ttsim's default machine seed: --seed 0 reproduces `ttsim` output.
const std::uint64_t kRecordedMachineSeed = CoreParams{}.seed;

/// bench_simcore's transport fault mix (its kFaultMix, minus the seed,
/// which the campaign derives per run from the base seed).
constexpr const char* kFaultMix = "drop=0.02,dup=0.02,reorder=0.05";
constexpr int kCampaignRuns = 4; ///< derived fault seeds per system
const std::vector<std::string> kCampaignSystems = {
    "dirnnb", "stache", "migratory", "update"};

/** One simulation of a workload. */
struct Case
{
    std::string system;
    std::string app;
    DataSet ds = DataSet::Small;
    int scale = 4;
    MachineConfig cfg;
    int campaignIndex = -1; ///< >= 0: run of the fault campaign

    /** Stable name, the key of perfbench/references.json. */
    std::string
    key() const
    {
        if (campaignIndex >= 0)
            return "campaign/" + system + "/" +
                   std::to_string(campaignIndex);
        return system + "/" + app + "/" + dataSetName(ds) + "/1:" +
               std::to_string(scale) + "/" +
               std::to_string(cfg.core.cacheSize / 1024) + "KB";
    }
};

CampaignConfig
campaignConfig(std::uint64_t seed)
{
    CampaignConfig cc;
    cc.base.faults = parseFaultSpec(kFaultMix);
    cc.base.faults.seed = seed;
    cc.base.reliable.enable = true;
    cc.systems = kCampaignSystems;
    cc.runs = kCampaignRuns;
    cc.app = "em3d";
    cc.dataset = DataSet::Tiny;
    cc.scale = 1;
    cc.remoteFrac = 0.2;
    cc.progress = false;
    return cc;
}

/**
 * The machine configuration runCampaign gives run @p index: the
 * campaign's base config with the derived fault seed and the checker,
 * sharing analyzer and transaction tracer on.
 */
Case
campaignCase(const CampaignConfig& cc, const std::string& system,
             int index)
{
    Case c;
    c.system = system;
    c.app = cc.app;
    c.ds = cc.dataset;
    c.scale = cc.scale;
    c.cfg = cc.base;
    c.cfg.faults.seed = campaignSeed(cc.base.faults.seed, index);
    c.cfg.check.enable = true;
    c.cfg.obs.analyze = true;
    c.cfg.obs.txn = true;
    c.campaignIndex = index;
    return c;
}

std::vector<Case>
workloadCases(const std::string& w, std::uint64_t seed)
{
    std::vector<Case> cases;
    auto add = [&cases](const std::string& system, const std::string& app,
                        const MachineConfig& cfg) {
        Case c;
        c.system = system;
        c.app = app;
        c.cfg = cfg;
        cases.push_back(c);
    };
    MachineConfig cfg;
    cfg.core.seed = kRecordedMachineSeed + seed;
    if (w == "fig3_fit") {
        for (const char* system : {"dirnnb", "stache"})
            for (const char* app :
                 {"appbt", "barnes", "mp3d", "ocean", "em3d"})
                add(system, app, cfg);
    } else if (w == "cache4k_custom") {
        cfg.core.cacheSize = 4 * 1024;
        add("stache", "em3d", cfg);
        add("update", "em3d", cfg);
        add("stache", "mp3d", cfg);
        add("migratory", "mp3d", cfg);
        add("dirnnb", "barnes", cfg);
        add("stache", "barnes", cfg);
    } else if (w == "fault_campaign") {
        const CampaignConfig cc = campaignConfig(seed);
        for (const auto& system : cc.systems)
            for (int i = 0; i < cc.runs; ++i)
                cases.push_back(campaignCase(cc, system, i));
    }
    return cases;
}

TargetMachine
build(const Case& c)
{
    if (c.system == "dirnnb")
        return buildDirNNB(c.cfg);
    if (c.system == "stache")
        return buildTyphoonStache(c.cfg);
    if (c.system == "migratory")
        return buildTyphoonMigratory(c.cfg);
    if (c.system == "update")
        return buildTyphoonEm3dUpdate(c.cfg);
    tt_fatal("unknown system '", c.system, "'");
}

/// Mirrors runCampaign and runBenchCase: "update" runs EM3D in its
/// delayed-update mode, every other system the plain Table 3 app.
std::unique_ptr<BenchApp>
makeApp(const Case& c, TargetMachine& target)
{
    if (c.system == "update")
        return std::make_unique<Em3dApp>(em3dParams(c.ds, 0.2, c.scale),
                                         Em3dApp::Mode::Update,
                                         target.em3d);
    return makeWorkload(c.app, c.ds, c.scale);
}

/** In-memory span log, written out when the run ends. */
struct SpanLog
{
    struct Span
    {
        const char* name;
        int pass;
        int caseIndex;
        double start; ///< seconds since the log's origin
        double end;
        int parent;   ///< index of the enclosing span, -1 for none
    };
    Clock::time_point origin = Clock::now();
    std::vector<Span> spans;

    int
    add(const char* name, int pass, int caseIndex, Clock::time_point a,
        Clock::time_point b, int parent = -1)
    {
        spans.push_back(Span{name, pass, caseIndex, seconds(origin, a),
                             seconds(origin, b), parent});
        return static_cast<int>(spans.size()) - 1;
    }
};

/**
 * Forwards every App call to the real application, timing setup()
 * and finish(), which Machine::run invokes virtually.
 */
class TimedApp final : public App
{
  public:
    explicit TimedApp(BenchApp& inner) : _inner(inner) {}

    std::string name() const override { return _inner.name(); }

    void
    setup(Machine& m) override
    {
        setupBegin = Clock::now();
        _inner.setup(m);
        setupEnd = Clock::now();
    }

    Task<void> body(Cpu& cpu) override { return _inner.body(cpu); }

    void
    finish(Machine& m) override
    {
        finishBegin = Clock::now();
        _inner.finish(m);
        finishEnd = Clock::now();
    }

    bool
    supportsEpochRestart() const override
    {
        return _inner.supportsEpochRestart();
    }

    void
    setStartEpoch(std::uint64_t episodes) override
    {
        _inner.setStartEpoch(episodes);
    }

    Clock::time_point setupBegin, setupEnd, finishBegin, finishEnd;

  private:
    BenchApp& _inner;
};

/**
 * Forwards every MemorySystem call to the target's memory system and
 * times access(), the synchronous issue path of every CPU load and
 * store (cache/TLB lookup, tag check, fault raise). Installed with
 * Machine::setMemSystem, which rebinds every CPU to it.
 */
class TimedMemSys final : public MemorySystem
{
  public:
    explicit TimedMemSys(MemorySystem& inner) : _inner(inner) {}

    AccessOutcome
    access(MemRequest* req) override
    {
        const auto t0 = Clock::now();
        const AccessOutcome out = _inner.access(req);
        ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                  Clock::now() - t0)
                  .count();
        ++calls;
        return out;
    }

    Addr
    shmalloc(std::size_t bytes, NodeId home) override
    {
        return _inner.shmalloc(bytes, home);
    }
    NodeId homeOf(Addr va) const override { return _inner.homeOf(va); }
    void
    peek(Addr va, void* buf, std::size_t len) override
    {
        _inner.peek(va, buf, len);
    }
    void
    poke(Addr va, const void* buf, std::size_t len) override
    {
        _inner.poke(va, buf, len);
    }
    Tick
    oldestPendingSince() const override
    {
        return _inner.oldestPendingSince();
    }
    bool quiescent() const override { return _inner.quiescent(); }
    void setupComplete() override { _inner.setupComplete(); }
    std::vector<SharedRange>
    sharedAllocs() const override
    {
        return _inner.sharedAllocs();
    }
    void
    coherentPeek(Addr va, void* buf, std::size_t len) override
    {
        _inner.coherentPeek(va, buf, len);
    }
    void
    canonicalize(std::uint64_t epochSeed) override
    {
        _inner.canonicalize(epochSeed);
    }
    std::string name() const override { return _inner.name(); }

    std::int64_t ns = 0;
    std::uint64_t calls = 0;

  private:
    MemorySystem& _inner;
};

/// StatSet counters the per-layer report reads (summed over cases).
const std::vector<std::string> kCounters = {
    "cpu.loads",           "cpu.stores",
    "net.messages",        "net.words",
    "net.retransmits",     "net.dup_dropped",
    "obs.watchdog.trips",  "np.baf_handled",
    "np.msg_handled",      "np.instructions",
    "typhoon.local_misses", "typhoon.cache_hits",
    "typhoon.tlb_misses",  "dir.cache_hits",
    "dir.tlb_misses",      "dir.ops",
    "dir.remote_misses",   "dir.inv_sent",
    "stache.home_requests", "stache.invals_sent",
    "stache.get_rw",       "em3d.updates_sent",
    "migratory.promotions",
};

/** Outcome of one simulation. */
struct CaseResult
{
    std::string key;
    std::string outcome = "ok"; ///< ok | violation | error | campaign's
    std::string detail;
    Tick cycles = 0;
    double checksum = 0;
    std::uint64_t events = 0;

    // Host seconds.
    double buildS = 0;  ///< build* call
    double setupS = 0;  ///< build + app construction + App::setup
    double runS = 0;    ///< Machine::run minus App::setup
    double coreRunS = 0; ///< Machine::run
    double appSetupS = 0;
    double appFinishS = 0;
    double accessS = 0; ///< traced only: inside MemorySystem::access
    std::uint64_t accessCalls = 0;
    bool typhoon = false; ///< memory system is Typhoon (else DirNNB)

    std::map<std::string, std::uint64_t> counters;

    bool
    sameResult(const CaseResult& o) const
    {
        // runCampaign reports no event or counter totals, so a campaign
        // run is compared on its outcome, cycles and checksum alone.
        return key == o.key && outcome == o.outcome &&
               cycles == o.cycles && checksum == o.checksum &&
               (o.counters.empty() ||
                (events == o.events && counters == o.counters));
    }
};

/**
 * Build, set up and run one case. With @p spans the memory system is
 * wrapped and every layer boundary is recorded.
 */
CaseResult
runCase(const Case& c, SpanLog* spans, int pass, int caseIndex)
{
    CaseResult res;
    res.key = c.key();
    tt_assert(c.cfg.core.threads == 1,
              "the benchmark runs the serial engine only");

    std::optional<TimedMemSys> wrap; // outlives the machine using it
    const auto t0 = Clock::now();
    TargetMachine target = build(c);
    const auto t1 = Clock::now();
    std::unique_ptr<BenchApp> app = makeApp(c, target);
    TimedApp timed(*app);
    res.typhoon = target.typhoon != nullptr;
    if (spans) {
        wrap.emplace(target.m().memsys());
        target.m().setMemSystem(&*wrap);
    }

    RunResult r;
    const auto t2 = Clock::now();
    try {
        r = target.run(timed);
    } catch (const std::exception& e) {
        res.outcome = "error";
        res.detail = e.what();
    }
    const auto t3 = Clock::now();

    res.buildS = seconds(t0, t1);
    res.appSetupS = seconds(timed.setupBegin, timed.setupEnd);
    res.appFinishS = seconds(timed.finishBegin, timed.finishEnd);
    res.setupS = seconds(t0, t2) + res.appSetupS;
    res.coreRunS = seconds(t2, t3);
    res.runS = res.coreRunS - res.appSetupS;
    if (spans) {
        spans->add("config.build", pass, caseIndex, t0, t1);
        const int run =
            spans->add("core.run", pass, caseIndex, t2, t3);
        spans->add("apps.setup", pass, caseIndex, timed.setupBegin,
                   timed.setupEnd, run);
        spans->add("apps.finish", pass, caseIndex, timed.finishBegin,
                   timed.finishEnd, run);
        res.accessS = static_cast<double>(wrap->ns) * 1e-9;
        res.accessCalls = wrap->calls;
    }

    if (res.outcome == "ok") {
        res.cycles = r.execTime;
        res.events = r.events;
        res.checksum = app->checksum();
    }
    if (target.checker) {
        if (res.outcome == "ok")
            target.checker->finalize();
        const auto& v = target.checker->violations();
        res.counters["check.violations"] = v.size();
        if (!v.empty() && res.outcome == "ok") {
            res.outcome = "violation";
            res.detail = v.front().invariant;
        }
    }
    if (target.obs) {
        target.obs->finalize();
        if (target.obs->txn())
            res.counters["obs.txn_completed"] =
                target.obs->txn()->summarize().completed;
    }
    if (target.faults)
        res.counters["net.faults_injected"] = target.faults->injected();
    const StatSet& stats = target.m().stats();
    for (const auto& name : kCounters)
        res.counters[name] = stats.get(name);
    return res;
}

/**
 * Results and timings of one pass over a workload. Timings are kept
 * per part (a case, or a campaign call / system set-up), so a burst of
 * host noise during one part does not move the whole pass's figure.
 */
struct Pass
{
    std::vector<CaseResult> cases;
    std::vector<double> runParts;
    std::vector<double> setupParts;
};

Pass
gridPass(const std::vector<Case>& cases, SpanLog* spans, int pass)
{
    Pass p;
    for (std::size_t i = 0; i < cases.size(); ++i) {
        p.cases.push_back(
            runCase(cases[i], spans, pass, static_cast<int>(i)));
        p.runParts.push_back(p.cases.back().runS);
        p.setupParts.push_back(p.cases.back().setupS);
    }
    return p;
}

CaseResult
fromCampaignRun(const CampaignRun& r, const Case& c)
{
    CaseResult res;
    res.key = c.key();
    res.outcome = r.outcome;
    res.detail = r.detail;
    res.cycles = r.cycles;
    res.checksum = r.checksum;
    return res;
}

/**
 * One runCampaign call, timed as a whole. Set-up cost is one build,
 * app construction and App::setup of each system under run 0's
 * configuration, measured apart from the campaign.
 */
Pass
campaignPass(std::uint64_t seed)
{
    const CampaignConfig cc = campaignConfig(seed);
    Pass p;
    for (const auto& system : cc.systems) {
        const Case c = campaignCase(cc, system, 0);
        const auto t0 = Clock::now();
        TargetMachine target = build(c);
        std::unique_ptr<BenchApp> app = makeApp(c, target);
        app->setup(target.m());
        p.setupParts.push_back(seconds(t0, Clock::now()));
    }
    const auto t0 = Clock::now();
    const CampaignReport rep = runCampaign(cc);
    p.runParts.push_back(seconds(t0, Clock::now()));
    for (std::size_t i = 0; i < rep.runs.size(); ++i) {
        const CampaignRun& r = rep.runs[i];
        p.cases.push_back(
            fromCampaignRun(r, campaignCase(cc, r.system, r.index)));
    }
    return p;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * Per-part timings over passes. The workload's figure is the sum over
 * parts of each part's median across passes.
 */
struct Samples
{
    std::vector<std::vector<double>> parts;
    std::vector<double> totals; ///< per pass, for the run record

    void
    add(const std::vector<double>& pass)
    {
        parts.resize(pass.size());
        double total = 0;
        for (std::size_t i = 0; i < pass.size(); ++i) {
            parts[i].push_back(pass[i]);
            total += pass[i];
        }
        totals.push_back(total);
    }

    double
    value() const
    {
        double v = 0;
        for (const auto& p : parts)
            v += median(p);
        return v;
    }
};

long
processThreads()
{
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line))
        if (line.rfind("Threads:", 0) == 0)
            return std::atol(line.c_str() + 8);
    return -1;
}

/** Minimal JSON object writer (keys are fixed identifiers). */
class JsonOut
{
  public:
    explicit JsonOut(std::ostream& os) : _os(os) {}

    void
    num(const std::string& k, double v)
    {
        char b[64];
        std::snprintf(b, sizeof b, "%.17g", v);
        key(k);
        _os << b;
    }
    void
    str(const std::string& k, const std::string& v)
    {
        key(k);
        quote(v);
    }
    void
    open(const std::string& k, char bracket)
    {
        key(k);
        _os << bracket;
        _first = true;
    }
    void
    close(char bracket)
    {
        _os << bracket;
        _first = false;
    }
    /** Start an anonymous element of an array. */
    void
    element()
    {
        if (!_first)
            _os << ',';
        _os << '{';
        _first = true;
    }

  private:
    void
    key(const std::string& k)
    {
        if (!_first)
            _os << ',';
        _first = false;
        if (!k.empty()) {
            quote(k);
            _os << ':';
        }
    }
    void
    quote(const std::string& s)
    {
        _os << '"';
        for (char ch : s) {
            if (ch == '"' || ch == '\\')
                _os << '\\' << ch;
            else if (static_cast<unsigned char>(ch) < 0x20)
                _os << ' ';
            else
                _os << ch;
        }
        _os << '"';
    }

    std::ostream& _os;
    bool _first = true;
};

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10;
    bool trace = false;
    std::string spansFile;
};

[[noreturn]] void
usage(const char* msg)
{
    std::fprintf(stderr,
                 "ttbench: %s\nusage: ttbench --workload "
                 "fig3_fit|cache4k_custom|fault_campaign --seed N "
                 "--seconds S --trace 0|1 [--spans FILE]\n",
                 msg);
    std::exit(2);
}

Options
parseOptions(int argc, char** argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const std::string v = argv[++i];
        char* end = nullptr;
        if (a == "--workload") {
            o.workload = v;
        } else if (a == "--seed") {
            o.seed = std::strtoull(v.c_str(), &end, 10);
            if (*end || v.empty() || v[0] == '-')
                usage("--seed wants a non-negative integer");
        } else if (a == "--seconds") {
            o.seconds = std::strtod(v.c_str(), &end);
            if (*end || !(o.seconds > 0))
                usage("--seconds wants a positive number");
        } else if (a == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace wants 0 or 1");
            o.trace = v == "1";
        } else if (a == "--spans") {
            o.spansFile = v;
        } else {
            usage(("unknown option " + a).c_str());
        }
    }
    if (o.workload != "fig3_fit" && o.workload != "cache4k_custom" &&
        o.workload != "fault_campaign")
        usage("unknown or missing --workload");
    return o;
}

/** The traced passes' span times, per case, and access-call counts. */
struct LayerTimes
{
    Samples coreRun, typhoonAccess, dirAccess, build, appSetup, appFinish;
    std::uint64_t typhoonCalls = 0, dirCalls = 0;

    void
    addPass(const Pass& p)
    {
        std::vector<double> run, ty, dir, b, s, f;
        typhoonCalls = dirCalls = 0;
        for (const CaseResult& c : p.cases) {
            run.push_back(c.coreRunS);
            ty.push_back(c.typhoon ? c.accessS : 0);
            dir.push_back(c.typhoon ? 0 : c.accessS);
            (c.typhoon ? typhoonCalls : dirCalls) += c.accessCalls;
            b.push_back(c.buildS);
            s.push_back(c.appSetupS);
            f.push_back(c.appFinishS);
        }
        coreRun.add(run);
        typhoonAccess.add(ty);
        dirAccess.add(dir);
        build.add(b);
        appSetup.add(s);
        appFinish.add(f);
    }
};

} // namespace

int
main(int argc, char** argv)
{
    const Options o = parseOptions(argc, argv);
    const std::vector<Case> cases = workloadCases(o.workload, o.seed);
    const bool campaign = o.workload == "fault_campaign";
    const std::uint64_t cacheBytes = cases.front().cfg.core.cacheSize;

    std::uint64_t attempted = 0, failed = 0;
    std::vector<std::string> failures;
    // Every pass must reproduce the first exactly; any case that does
    // not, or did not complete cleanly, counts as a failure.
    std::vector<CaseResult> reference;
    auto account = [&](const std::vector<CaseResult>& got,
                       const char* what) {
        for (std::size_t i = 0; i < got.size(); ++i) {
            ++attempted;
            const CaseResult& c = got[i];
            std::string why;
            if (c.outcome != "ok")
                why = c.outcome + ": " + c.detail;
            else if (i >= reference.size() ||
                     !c.sameResult(reference[i]))
                why = std::string(what) + " differs from the first pass";
            if (!why.empty()) {
                ++failed;
                failures.push_back(c.key + ": " + why);
            }
        }
    };

    auto onePass = [&](SpanLog* spans, int pass) {
        return campaign && !spans ? campaignPass(o.seed)
                                  : gridPass(cases, spans, pass);
    };

    // Warm-up pass: fills host caches and lazily grown containers; it
    // is checked like every other pass but not timed.
    const Pass first = onePass(nullptr, 0);
    reference = first.cases;
    account(first.cases, "warm-up pass");

    SpanLog spans;
    std::map<std::string, double> layers;
    Samples runS, setupS;
    int passNo = 1;

    if (!o.trace) {
        const auto start = Clock::now();
        do {
            const Pass p = onePass(nullptr, passNo++);
            account(p.cases, "pass");
            runS.add(p.runParts);
            setupS.add(p.setupParts);
        } while (seconds(start, Clock::now()) < o.seconds);
    } else {
        const auto start = Clock::now();
        const std::uint64_t ds = o.seed * 0x9e3779b97f4a7c15ULL + 1;
        layers["sim.queue_ns"] = ttbench::queueNs(ds);
        layers["sim.resume_ns"] = ttbench::resumeNs();
        layers["mem.cache_probe_ns"] =
            ttbench::cacheProbeNs(cacheBytes, ds);
        layers["mem.cache_fill_ns"] = ttbench::cacheFillNs(cacheBytes, ds);
        layers["mem.tlb_ns"] = ttbench::tlbNs(ds);
        layers["net.send_deliver_ns"] = ttbench::sendDeliverNs(ds);
        layers["stache.dir_op_ns"] = ttbench::dirOpNs(ds);
        layers["check.shadow_ns"] = ttbench::shadowNs(ds);

        // config.campaign_run: the fault campaign one seed per call
        // through its shard knobs. The fault_campaign workload runs
        // every shard, whose union must equal the unsharded campaign
        // (test_campaign asserts that shards compose); the other
        // workloads time shard 0 alone.
        {
            CampaignConfig cc = campaignConfig(o.seed);
            cc.shardCount = cc.runs;
            std::vector<double> shardS;
            std::vector<CaseResult> shardRuns;
            for (int s = 0; s < (campaign ? cc.runs : 1); ++s) {
                cc.shardIndex = s;
                const auto a = Clock::now();
                const CampaignReport rep = runCampaign(cc);
                const auto b = Clock::now();
                spans.add("config.campaign_run", -1, s, a, b);
                shardS.push_back(seconds(a, b));
                for (const CampaignRun& r : rep.runs)
                    shardRuns.push_back(fromCampaignRun(
                        r, campaignCase(cc, r.system, r.index)));
            }
            layers["config.campaign_run_s"] = median(shardS);
            for (CaseResult& r : shardRuns) {
                ++attempted;
                const auto ref = std::find_if(
                    reference.begin(), reference.end(),
                    [&r](const CaseResult& x) { return x.key == r.key; });
                const bool same = !campaign ||
                                  (ref != reference.end() &&
                                   ref->outcome == r.outcome &&
                                   ref->cycles == r.cycles &&
                                   ref->checksum == r.checksum);
                if (r.outcome != "ok" || !same) {
                    ++failed;
                    failures.push_back(r.key + ": campaign shard " +
                                       r.outcome + " " + r.detail);
                }
            }
            if (!campaign) {
                // Shard runs are checked against the references too.
                for (CaseResult& r : shardRuns)
                    r.key = "shard:" + r.key;
                reference.insert(reference.end(), shardRuns.begin(),
                                 shardRuns.end());
            }
        }

        // Untraced and traced passes alternate, so host drift hits
        // both sides of the overhead ratio alike. For the campaign
        // the traced pass runs the campaign's machines through the
        // benchmark's own loop; its simulated results must equal
        // runCampaign's run for run.
        LayerTimes lt;
        Samples tracedRunS;
        std::vector<CaseResult> traced;
        do {
            const Pass u = onePass(nullptr, passNo++);
            account(u.cases, "untraced pass");
            runS.add(u.runParts);
            setupS.add(u.setupParts);
            const Pass t = gridPass(cases, &spans, passNo++);
            account(t.cases, "traced pass");
            tracedRunS.add(t.runParts);
            lt.addPass(t);
            traced = t.cases;
        } while (seconds(start, Clock::now()) < o.seconds);

        std::map<std::string, std::uint64_t> n;
        std::uint64_t events = 0;
        for (const CaseResult& c : traced) {
            events += c.events;
            for (const auto& [k, v] : c.counters)
                n[k] += v;
        }
        const double coreRun = lt.coreRun.value();
        const double tyAccess = lt.typhoonAccess.value();
        const double dirAccess = lt.dirAccess.value();
        const double appSetup = lt.appSetup.value();
        const double appFinish = lt.appFinish.value();
        const double dispatch =
            coreRun - tyAccess - dirAccess - appSetup - appFinish;
        const double accesses =
            static_cast<double>(n["cpu.loads"] + n["cpu.stores"]);
        auto ratio = [](double a, double b) { return b > 0 ? a / b : 0; };

        layers["sim.events"] = static_cast<double>(events);
        layers["sim.events_per_s"] =
            ratio(static_cast<double>(events), runS.value());
        layers["sim.dispatch_s"] = dispatch;
        layers["sim.watchdog_trips"] = n["obs.watchdog.trips"];
        layers["sim.queue_share"] = ratio(
            layers["sim.queue_ns"] * 1e-9 * events, dispatch);
        layers["mem.hit_ratio"] = ratio(
            n["typhoon.cache_hits"] + n["dir.cache_hits"], accesses);
        layers["mem.tlb_misses"] =
            n["typhoon.tlb_misses"] + n["dir.tlb_misses"];
        layers["typhoon.access_s"] = tyAccess;
        layers["typhoon.access_ns"] =
            ratio(tyAccess * 1e9, static_cast<double>(lt.typhoonCalls));
        layers["typhoon.baf_handled"] = n["np.baf_handled"];
        layers["typhoon.msg_handled"] = n["np.msg_handled"];
        layers["typhoon.np_instructions"] = n["np.instructions"];
        layers["typhoon.local_misses"] = n["typhoon.local_misses"];
        layers["dir.access_s"] = dirAccess;
        layers["dir.access_ns"] =
            ratio(dirAccess * 1e9, static_cast<double>(lt.dirCalls));
        layers["dir.ops"] = n["dir.ops"];
        layers["dir.remote_misses"] = n["dir.remote_misses"];
        layers["dir.inv_sent"] = n["dir.inv_sent"];
        layers["net.messages"] = n["net.messages"];
        layers["net.words"] = n["net.words"];
        layers["net.faults_injected"] = n["net.faults_injected"];
        layers["net.send_deliver_share"] =
            ratio(layers["net.send_deliver_ns"] * 1e-9 *
                      n["net.messages"],
                  dispatch);
        layers["stache.home_requests"] = n["stache.home_requests"];
        layers["stache.invals_sent"] = n["stache.invals_sent"];
        layers["stache.get_rw"] = n["stache.get_rw"];
        layers["stache.dir_op_share"] =
            ratio(layers["stache.dir_op_ns"] * 1e-9 *
                      n["stache.home_requests"],
                  dispatch);
        layers["custom.updates_sent"] = n["em3d.updates_sent"];
        layers["custom.promotions"] = n["migratory.promotions"];
        layers["check.violations"] = n["check.violations"];
        // The fast checker consults its shadow tables on every access,
        // and only the campaign runs with the checker on.
        layers["check.shadow_share"] =
            campaign ? ratio(layers["check.shadow_ns"] * 1e-9 * accesses,
                             dispatch)
                     : 0;
        layers["obs.txn_completed"] = n["obs.txn_completed"];
        layers["core.accesses"] = accesses;
        layers["core.run_s"] = coreRun;
        layers["core.retransmits"] = n["net.retransmits"];
        layers["core.retx_ratio"] =
            ratio(n["net.retransmits"], n["net.messages"]);
        layers["core.dup_dropped"] = n["net.dup_dropped"];
        layers["config.build_s"] = lt.build.value();
        layers["apps.setup_s"] = appSetup;
        layers["apps.finish_s"] = appFinish;
        layers["trace.overhead"] = ratio(tracedRunS.value(), runS.value());
        layers["trace.passes"] =
            static_cast<double>(tracedRunS.totals.size());
    }

    const long threads = processThreads();
    const unsigned cores = std::thread::hardware_concurrency();
    if (threads < 1 || (cores > 0 && threads > static_cast<long>(cores))) {
        ++failed;
        failures.push_back("process ran " + std::to_string(threads) +
                           " threads on " + std::to_string(cores) +
                           " cores");
    }

    if (!o.spansFile.empty()) {
        std::ofstream f(o.spansFile);
        JsonOut j(f);
        f << '{';
        j.str("workload", o.workload);
        j.open("spans", '[');
        for (const auto& s : spans.spans) {
            j.element();
            j.str("name", s.name);
            j.num("pass", s.pass);
            j.num("case", s.caseIndex);
            j.num("start_s", s.start);
            j.num("end_s", s.end);
            j.num("parent", s.parent);
            j.close('}');
        }
        j.close(']');
        f << "}\n";
        if (!f)
            usage(("cannot write " + o.spansFile).c_str());
    }

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    Tick cycles = 0;
    for (const CaseResult& c : first.cases)
        cycles += c.cycles;

    std::ostringstream os;
    JsonOut j(os);
    os << '{';
    j.str("workload", o.workload);
    j.num("seed", static_cast<double>(o.seed));
    j.str("build_type", TTBENCH_BUILD_TYPE);
    j.num("sim_threads", cases.front().cfg.core.threads);
    j.num("process_threads", static_cast<double>(threads));
    j.num("passes", passNo);
    j.num("attempted", static_cast<double>(attempted));
    j.num("failed", static_cast<double>(failed));
    j.open("failures", '[');
    for (const auto& f : failures)
        j.str("", f);
    j.close(']');
    j.open("cases", '[');
    for (const CaseResult& c : reference) {
        j.element();
        j.str("key", c.key);
        j.str("outcome", c.outcome);
        j.num("cycles", static_cast<double>(c.cycles));
        j.num("checksum", c.checksum);
        j.num("net_messages",
              static_cast<double>(c.counters.count("net.messages")
                                      ? c.counters.at("net.messages")
                                      : 0));
        j.close('}');
    }
    j.close(']');
    j.open("metrics", '{');
    j.num("run_s", runS.value());
    j.num("setup_s", setupS.value());
    j.num("sim_cycles", static_cast<double>(cycles));
    j.num("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0);
    j.num("timed_passes", static_cast<double>(runS.totals.size()));
    j.close('}');
    j.open("run_s_passes", '[');
    for (double v : runS.totals)
        j.num("", v);
    j.close(']');
    j.open("layers", '{');
    for (const auto& [k, v] : layers)
        j.num(k, v);
    j.close('}');
    os << '}';
    std::printf("%s\n", os.str().c_str());
    return 0;
}
