/**
 * @file
 * The app-level figures of EXPERIMENTS.md as sweep tables, each with
 * the shape claims the document makes about it, stated at the figure's
 * claimScale on 32 nodes. Several fail at the default TT_SCALE=8
 * (EXPERIMENTS.md lists which).
 */

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <set>

#include "bench/sweep.hh"

namespace tt::sweep
{

namespace
{

using C = Column;

bool
increasing(const std::vector<double>& v)
{
    for (std::size_t i = 1; i < v.size(); ++i)
        if (!(v[i] > v[i - 1]))
            return false;
    return v.size() > 1;
}

/** True iff @p p holds for every row key of @p t containing @p part. */
template <typename P>
bool
everyRow(const Table& t, const char* part, P p)
{
    for (const std::string& k : t.rowKeys())
        if (k.find(part) != std::string::npos && !p(k))
            return false;
    return true;
}

/** The rows of @p apps on @p systems at each value of one knob. */
template <typename Apply>
std::vector<Row>
knobRows(const MachineConfig& base, std::vector<const char*> apps,
         std::initializer_list<unsigned> values,
         std::vector<const char*> systems, Apply apply)
{
    std::vector<Row> rows;
    for (const char* app : apps) {
        for (unsigned v : values) {
            Row r;
            if (apps.size() > 1)
                r.key.push_back(app);
            r.key.push_back(std::to_string(v));
            MachineConfig cfg = base;
            apply(cfg, v);
            for (const char* s : systems)
                r.cases.push_back({s, app, DataSet::Small, 0.2, cfg});
            rows.push_back(std::move(r));
        }
    }
    return rows;
}

/** Figure 3's cells where Stache beats DirNNB at full scale (bold). */
const std::set<std::string> kStacheWins = {
    "appbt stache small/4K",   "appbt stache small/16K",
    "barnes stache small/4K",  "barnes stache small/16K",
    "barnes stache small/64K", "barnes stache large/256K",
    "mp3d stache large/256K",  "em3d stache small/4K",
    "em3d stache small/16K",   "em3d stache small/64K",
    "em3d stache large/256K"};

std::vector<Figure>
figureTable()
{
    std::vector<Figure> f;

    f.push_back(
        {"fig3",
         "Figure 3: Typhoon execution time relative to DirNNB "
         "(below 1.0 Typhoon is faster)",
         false, 1,
         [](const MachineConfig& base) {
             std::vector<Row> rows;
             auto add = [&](const char* app, const char* protocol) {
                 // 0 = the large data set on a 256 KB cache.
                 for (int kb : {4, 16, 64, 256, 0}) {
                     MachineConfig cfg = base;
                     cfg.core.cacheSize = (kb ? kb : 256) * 1024;
                     const DataSet ds = kb ? DataSet::Small : DataSet::Large;
                     rows.push_back(
                         {{app, protocol,
                           kb ? "small/" + std::to_string(kb) + "K"
                              : "large/256K"},
                          {{"dirnnb", app, ds, 0.2, cfg},
                           {protocol, app, ds, 0.2, cfg}}});
                 }
             };
             for (const char* app :
                  {"appbt", "barnes", "mp3d", "ocean", "em3d"})
                 add(app, "stache");
             add("em3d", "update"); // the paper's overlaid EM3D bars
             return rows;
         },
         {{"app", 8, C::Key, 0}, {"protocol", 8, C::Key, 1},
          {"config", 11, C::Key, 2}, {"DirNNB cycles", 14, C::Cycles, 0},
          {"Typhoon cycles", 15, C::Cycles, 1},
          {"relative", 9, C::Ratio, 1, 0}},
         {{"Stache wins (relative < 1.0) exactly in the bold cells, "
           "where the working set exceeds the cache",
           [](const Table& t) {
               return t.rows.size() == 30 &&
                      everyRow(t, " stache ", [&](const std::string& k) {
                          return (t.at(k, "relative") < 1.0) ==
                                 (kStacheWins.count(k) > 0);
                      });
           }},
          {"Stache stays within 40% of DirNNB in every cell, and within "
           "25% outside mp3d",
           [](const Table& t) {
               return everyRow(t, " stache ", [&](const std::string& k) {
                   return t.at(k, "relative") <=
                          (k.rfind("mp3d", 0) == 0 ? 1.40 : 1.25);
               });
           }},
          {"mp3d is Stache's worst application in every small-data-set "
           "column",
           [](const Table& t) {
               return everyRow(t, " stache small/", [&](const std::string& k) {
                   const std::string mp3d = "mp3d" + k.substr(k.find(' '));
                   return k == mp3d ||
                          t.at(k, "relative") < t.at(mp3d, "relative");
               });
           }},
          {"the update protocol beats DirNNB and Stache on EM3D in every "
           "configuration",
           [](const Table& t) {
               return everyRow(t, " update ", [&](const std::string& k) {
                   return t.at(k, "relative") <
                          std::min(1.0, t.at("em3d stache " + k.substr(12),
                                             "relative"));
               });
           }}}});

    f.push_back(
        {"fig4",
         "Figure 4: EM3D cycles per edge vs % non-local edges, large "
         "data set, 256 KB cache",
         false, 1,
         [](const MachineConfig& base) {
             MachineConfig cfg = base;
             cfg.core.cacheSize = 256 * 1024;
             std::vector<Row> rows;
             for (int pct = 0; pct <= 50; pct += 10) {
                 rows.push_back({{std::to_string(pct)}, {}});
                 for (const char* s : {"dirnnb", "stache", "update"})
                     rows.back().cases.push_back(
                         {s, "em3d", DataSet::Large, pct / 100.0, cfg});
             }
             return rows;
         },
         {{"remote%", 8, C::Key, 0}, {"DirNNB", 8, C::PerEdge, 0},
          {"Stache", 8, C::PerEdge, 1}, {"Update", 8, C::PerEdge, 2},
          {"DirNNB cycles", 14, C::Cycles, 0},
          {"Stache cycles", 14, C::Cycles, 1},
          {"Update cycles", 14, C::Cycles, 2}},
         {{"all three curves grow with the remote fraction",
           [](const Table& t) {
               return increasing(t.column("DirNNB")) &&
                      increasing(t.column("Stache")) &&
                      increasing(t.column("Update"));
           }},
          {"the update protocol is lowest at every point",
           [](const Table& t) {
               return everyRow(t, "", [&](const std::string& k) {
                   return t.at(k, "Update") <
                          std::min(t.at(k, "DirNNB"), t.at(k, "Stache"));
               });
           }},
          {"at 50% remote edges the update protocol is at most 0.75x "
           "DirNNB",
           [](const Table& t) {
               return t.at("50", "Update") <= 0.75 * t.at("50", "DirNNB");
           }},
          {"the update protocol grows the slowest from 0% to 50%",
           [](const Table& t) {
               auto rise = [&](const char* c) {
                   return t.at("50", c) - t.at("0", c);
               };
               return rise("Update") <
                      std::min(rise("DirNNB"), rise("Stache"));
           }},
          {"Stache tracks below DirNNB at every point (the documented "
           "divergence from the paper)",
           [](const Table& t) {
               return everyRow(t, "", [&](const std::string& k) {
                   return t.at(k, "Stache") < t.at(k, "DirNNB");
               });
           }}}});

    f.push_back(
        {"first_touch",
         "Ablation A1: DirNNB round-robin vs first-touch page placement, "
         "small data sets",
         true, 4,
         [](const MachineConfig& base) {
             MachineConfig ft = base;
             ft.dir.firstTouch = true;
             std::vector<Row> rows;
             for (const char* app : {"ocean", "em3d", "appbt"})
                 rows.push_back(
                     {{app},
                      {{"dirnnb", app, DataSet::Small, 0.2, base},
                       {"dirnnb", app, DataSet::Small, 0.2, ft},
                       {"stache", app, DataSet::Small, 0.2, base}}});
             return rows;
         },
         {{"app", 8, C::Key, 0}, {"DirNNB rr", 14, C::Cycles, 0},
          {"DirNNB ft", 14, C::Cycles, 1}, {"Stache", 14, C::Cycles, 2},
          {"ft speedup (rr/ft)", 18, C::Ratio, 0, 1}},
         {{"first touch speeds DirNNB up on em3d and appbt",
           [](const Table& t) {
               return t.at("em3d", "ft speedup (rr/ft)") > 1.0 &&
                      t.at("appbt", "ft speedup (rr/ft)") > 1.0;
           }},
          {"first touch is a wash (within 5%) on ocean",
           [](const Table& t) {
               return std::abs(t.at("ocean", "ft speedup (rr/ft)") - 1.0) <
                      0.05;
           }}}});

    f.push_back(
        {"block_size", "Ablation A2: coherence block size, small data sets",
         true, 4,
         [](const MachineConfig& base) {
             return knobRows(
                 base, {"em3d", "ocean"}, {32, 64, 128}, {"dirnnb", "stache"},
                 [](MachineConfig& c, unsigned v) { c.core.blockSize = v; });
         },
         {{"app", 8, C::Key, 0}, {"block", 7, C::Key, 1},
          {"DirNNB", 14, C::Cycles, 0}, {"Stache", 14, C::Cycles, 1},
          {"relative", 9, C::Ratio, 1, 0}},
         {{"em3d's relative time rises with block size",
           [](const Table& t) {
               return increasing({t.at("em3d 32", "relative"),
                                  t.at("em3d 64", "relative"),
                                  t.at("em3d 128", "relative")});
           }},
          {"at 128 B false sharing slows both systems on ocean",
           [](const Table& t) {
               return t.at("ocean 128", "DirNNB") >
                          t.at("ocean 64", "DirNNB") &&
                      t.at("ocean 128", "Stache") > t.at("ocean 64", "Stache");
           }}}});

    f.push_back(
        {"net_latency", "Ablation A4: network latency sweep, EM3D small",
         true, 4,
         [](const MachineConfig& base) {
             return knobRows(
                 base, {"em3d"}, {5, 11, 25, 50, 100}, {"dirnnb", "stache"},
                 [](MachineConfig& c, unsigned v) { c.net.latency = v; });
         },
         {{"latency", 9, C::Key, 0}, {"DirNNB", 14, C::Cycles, 0},
          {"Stache", 14, C::Cycles, 1}, {"relative", 9, C::Ratio, 1, 0}},
         {{"Stache's relative time falls as latency grows",
           [](const Table& t) {
               std::vector<double> v = t.column("relative");
               std::reverse(v.begin(), v.end());
               return increasing(v);
           }}}});

    f.push_back(
        {"quantum",
         "Methodology ablation: local-time quantum (EM3D small, "
         "Typhoon/Stache)",
         true, 4,
         [](const MachineConfig& base) {
             return knobRows(
                 base, {"em3d"}, {0, 8, 32, 128}, {"stache"},
                 [](MachineConfig& c, unsigned v) { c.core.quantum = v; });
         },
         {{"quantum", 9, C::Key, 0}, {"sim cycles", 14, C::Cycles, 0},
          {"vs q=0", 11, C::VsFirst, 0}},
         {{"the quantum changes cycles by less than 0.3%",
           [](const Table& t) {
               const std::vector<double> v = t.column("vs q=0");
               return std::all_of(v.begin(), v.end(), [](double d) {
                   return std::abs(d) < 0.3;
               });
           }}}});

    f.push_back(
        {"migratory",
         "Migratory protocol vs plain Stache vs DirNNB, small data sets",
         true, 4,
         [](const MachineConfig& base) {
             std::vector<Row> rows;
             for (const char* app : {"mp3d", "ocean", "em3d"}) {
                 rows.push_back({{app, "small"}, {}});
                 for (const char* s : {"dirnnb", "stache", "migratory"})
                     rows.back().cases.push_back(
                         {s, app, DataSet::Small, 0.2, base});
             }
             return rows;
         },
         {{"app", 8, C::Key, 0}, {"set", 7, C::Key, 1},
          {"DirNNB", 12, C::Cycles, 0}, {"Stache", 12, C::Cycles, 1},
          {"Migratory", 12, C::Cycles, 2}, {"mig/dir", 10, C::Ratio, 2, 0},
          {"mig/stache", 10, C::Ratio, 2, 1},
          {"promotions", 11, C::Stat, 2, 0, "migratory.promotions"}},
         {{"migratory promotion beats plain Stache on mp3d",
           [](const Table& t) {
               return t.at("mp3d small", "mig/stache") < 1.0 &&
                      t.at("mp3d small", "promotions") > 0;
           }},
          {"non-migratory apps pay the classification tax (ocean, em3d "
           "mig/stache > 1)",
           [](const Table& t) {
               return t.at("ocean small", "mig/stache") > 1.0 &&
                      t.at("em3d small", "mig/stache") > 1.0;
           }}}});

    f.push_back(
        {"sw_tempest",
         "Software fine-grain access control: per-access check cost "
         "(EM3D small, 4K CPU cache; 0 = Typhoon hardware)",
         true, 4,
         [](const MachineConfig& base) {
             MachineConfig small = base;
             small.core.cacheSize = 4 * 1024; // where Stache wins
             return knobRows(small, {"em3d"}, {0, 1, 2, 4, 8},
                             {"dirnnb", "stache"},
                             [](MachineConfig& c, unsigned v) {
                                 c.typhoon.swCheckCost = v;
                             });
         },
         {{"check cyc", 11, C::Key, 0}, {"DirNNB", 14, C::Cycles, 0},
          {"SW-Tempest", 14, C::Cycles, 1}, {"relative", 9, C::Ratio, 1, 0}},
         {{"Stache with Typhoon's hardware checks beats DirNNB",
           [](const Table& t) { return t.at("0", "relative") < 1.0; }},
          {"software checks erode the advantage as they get dearer",
           [](const Table& t) { return increasing(t.column("relative")); }},
          {"an 8-cycle check reaches parity, a 4-cycle one does not",
           [](const Table& t) {
               return t.at("4", "relative") < 1.0 &&
                      t.at("8", "relative") >= 1.0;
           }}}});

    f.push_back(
        {"contention",
         "Methodology ablation: ejection-port contention (EM3D small)",
         true, 4,
         [](const MachineConfig& base) {
             return knobRows(base, {"em3d"}, {0, 1, 2, 4, 8},
                             {"dirnnb", "stache"},
                             [](MachineConfig& c, unsigned v) {
                                 c.net.ejectPerPacket = v;
                             });
         },
         {{"eject cyc/pkt", 12, C::Key, 0}, {"DirNNB", 14, C::Cycles, 0},
          {"Stache", 14, C::Cycles, 1}, {"relative", 9, C::Ratio, 1, 0},
          {"pkts queued(S)", 14, C::Stat, 1, 0, "net.eject_queued"}},
         {{"both systems slow as the ejection port slows",
           [](const Table& t) {
               return increasing(t.column("DirNNB")) &&
                      increasing(t.column("Stache"));
           }},
          {"the relative gap narrows from a free port to 8 cycles/packet",
           [](const Table& t) {
               return t.at("8", "relative") < t.at("0", "relative");
           }}}});

    return f;
}

} // namespace

const std::vector<Figure>&
figures()
{
    static const std::vector<Figure> all = figureTable();
    return all;
}

} // namespace tt::sweep
