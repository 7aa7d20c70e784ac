/**
 * @file
 * The paper's app-level figures and ablations as one table-driven
 * sweep (bench/figures.cc):
 *
 *   sweep fig3 | fig4 | first_touch | block_size | net_latency |
 *         quantum | migratory | sw_tempest | contention | ablations
 *
 * `ablations` prints the seven ablations in turn. At the scale a
 * figure's claims are stated at, on 32 nodes with every app, the sweep
 * checks them and reports on stderr.
 *
 * Environment: TT_SCALE (default 8; 1 = full Table 3 sizes),
 * TT_NODES (default 32), TT_APPS (comma list of apps to keep).
 *
 * Exit status: 1 when two runs of one input disagree on the checksum
 * or a checked claim fails; 2 on a usage error.
 */

#include <algorithm>
#include <cstdio>
#include <string>

#include "bench/bench_common.hh"
#include "bench/sweep.hh"

using namespace tt;
using namespace tt::sweep;

int
main(int argc, char** argv)
{
    const std::string name = argc == 2 ? argv[1] : "";
    std::vector<const Figure*> figs;
    for (const Figure& f : figures())
        if (name == f.name || (name == "ablations" && f.ablation))
            figs.push_back(&f);
    if (figs.empty()) {
        std::fprintf(stderr, "usage: sweep <figure>; figures:");
        for (const Figure& f : figures())
            std::fprintf(stderr, " %s", f.name);
        std::fprintf(stderr, " ablations\n");
        return 2;
    }
    const int scale = bench::envScale("sweep", 8);
    const int nodes = bench::envNodes("sweep", 32);
    const auto apps = bench::envList("TT_APPS", {});
    const auto known = workloadTable();
    for (const std::string& app : apps) {
        if (std::none_of(known.begin(), known.end(),
                         [&](const auto& w) { return w.app == app; })) {
            std::fprintf(stderr, "sweep: TT_APPS names unknown app '%s'\n",
                         app.c_str());
            return 2;
        }
    }

    int rc = 0;
    for (const Figure* fig : figs) {
        if (fig != figs.front())
            std::printf("\n");
        Table t;
        if (!runFigure(*fig, scale, nodes, apps, stdout, t))
            return 1;
        if (scale != fig->claimScale || nodes != 32 || !apps.empty())
            continue;
        const auto failed = failedClaims(*fig, t);
        for (const std::string& c : failed)
            std::fprintf(stderr, "sweep %s: CLAIM FAILS: %s\n", fig->name,
                         c.c_str());
        std::fprintf(stderr, "sweep %s: %zu of %zu claims hold\n",
                     fig->name, fig->claims.size() - failed.size(),
                     fig->claims.size());
        rc |= !failed.empty();
    }
    return rc;
}
