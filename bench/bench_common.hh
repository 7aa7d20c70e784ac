/**
 * @file
 * Shared bench plumbing: the simulator headers every bench uses, and
 * environment-variable knobs.
 *
 *  TT_SCALE   divide problem sizes by this factor (default 8 for
 *             sweep, 4 for bench_simcore; 1 = the paper's full
 *             Table 3 sizes)
 *  TT_NODES   target machine size (default 32, the paper's)
 *  TT_APPS    comma list filtering which apps run
 *
 * A TT_SCALE or TT_NODES that is not a whole number in range exits 2
 * with a message, as ttsim's numeric flags do.
 */

#ifndef TT_BENCH_COMMON_HH
#define TT_BENCH_COMMON_HH

#include <cstdlib>
#include <string>
#include <vector>

#include "apps/workloads.hh"
#include "config/args.hh"
#include "config/builders.hh"

namespace tt::bench
{

/** TT_SCALE for program @p prog, @p def when unset. */
inline int
envScale(const char* prog, int def)
{
    const char* v = std::getenv("TT_SCALE");
    return v ? numArg(prog, "TT_SCALE", std::string(v), 1) : def;
}

/** TT_NODES for program @p prog, @p def when unset; ttsim's range. */
inline int
envNodes(const char* prog, int def = 32)
{
    const char* v = std::getenv("TT_NODES");
    return v ? numArg(prog, "TT_NODES", std::string(v), 1, 4096) : def;
}

/** The items of comma list @p name, @p def when unset. */
inline std::vector<std::string>
envList(const char* name, std::vector<std::string> def)
{
    const char* v = std::getenv(name);
    return v ? splitList(v) : def;
}

} // namespace tt::bench

#endif // TT_BENCH_COMMON_HH
