#include "bench/sweep.hh"

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

namespace tt::sweep
{

namespace
{

/** What one case produced. */
struct Run
{
    Tick cycles = 0;
    double checksum = 0;
    std::uint64_t workUnits = 0;
    StatSet stats;
};

Run
runCase(const Case& c, int scale)
{
    TargetMachine t = buildSystem(c.system, c.cfg);
    const auto app =
        makeSystemApp(c.system, t, c.app, c.ds, scale, c.remote);
    const RunResult r = t.run(*app);
    return {r.execTime, app->checksum(), app->workUnits(), t.m().stats()};
}

std::string
cell(const Column& col, const Row& row, const std::vector<Run>& runs,
     const std::vector<Run>& first, int nodes)
{
    if (col.kind == Column::Key)
        return row.key[col.a];
    const Run& a = runs[col.a];
    const double cyc = static_cast<double>(a.cycles);
    char buf[64] = "";
    switch (col.kind) {
      case Column::Key: // returned above: col.a indexes the key
        break;
      case Column::Cycles:
        return std::to_string(a.cycles);
      case Column::Stat:
        return std::to_string(a.stats.get(col.stat));
      case Column::Ratio:
        std::snprintf(buf, sizeof buf, "%.3f",
                      cyc / static_cast<double>(runs[col.b].cycles));
        break;
      case Column::PerEdge:
        // Per-processor work: each node computes its share of the
        // edges each iteration.
        std::snprintf(buf, sizeof buf, "%.1f",
                      cyc * nodes / static_cast<double>(a.workUnits));
        break;
      case Column::VsFirst: {
        const double base = static_cast<double>(first[col.a].cycles);
        std::snprintf(buf, sizeof buf, "%.3f%%",
                      100.0 * (cyc - base) / base);
        break;
      }
    }
    return buf;
}

/** One printed line: keys left-aligned, values right-aligned. */
std::string
line(const Figure& fig, const std::vector<std::string>& cells)
{
    std::string s;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const Column& col = fig.columns[i];
        const std::string pad(
            std::max<int>(0, col.width - int(cells[i].size())), ' ');
        s += (i ? " " : "") + (col.kind == Column::Key
                                   ? cells[i] + pad
                                   : pad + cells[i]);
    }
    return s;
}

/** @p fig's table with no rows yet. */
Table
emptyTable(const Figure& fig, int nodes, int scale)
{
    Table t{fig.name, nodes, scale, {}, 0, {}};
    for (const Column& c : fig.columns) {
        t.header.push_back(c.header);
        t.keyColumns += c.kind == Column::Key;
    }
    return t;
}

} // namespace

std::vector<std::string>
Table::rowKeys() const
{
    std::vector<std::string> out;
    for (const auto& r : rows) {
        std::string k;
        for (std::size_t i = 0; i < keyColumns; ++i)
            k += (i ? " " : "") + r[i];
        out.push_back(k);
    }
    return out;
}

double
Table::at(const std::string& key, const std::string& column) const
{
    const auto keys = rowKeys();
    const auto r = std::find(keys.begin(), keys.end(), key);
    const auto c = std::find(header.begin(), header.end(), column);
    if (r == keys.end() || c == header.end())
        throw std::out_of_range("no cell (" + key + ", " + column + ")");
    const std::string& s = rows[r - keys.begin()][c - header.begin()];
    char* end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    if (end == s.c_str() || (*end && std::string(end) != "%"))
        throw std::out_of_range("cell '" + s + "' is not a number");
    return v;
}

std::vector<double>
Table::column(const std::string& column) const
{
    std::vector<double> out;
    for (const std::string& k : rowKeys())
        out.push_back(at(k, column));
    return out;
}

const Figure*
findFigure(const std::string& name)
{
    for (const Figure& f : figures())
        if (name == f.name)
            return &f;
    return nullptr;
}

bool
runFigure(const Figure& fig, int scale, int nodes,
          const std::vector<std::string>& apps, std::FILE* out, Table& t)
{
    t = emptyTable(fig, nodes, scale);
    std::fprintf(out, "### %s\n%s\nnodes=%d scale=1/%d\n\n%s\n", fig.name,
                 fig.title, nodes, scale, line(fig, t.header).c_str());
    MachineConfig base;
    base.core.nodes = nodes;
    // Every run of one app, data set and remote fraction computes the
    // same result, whatever the system or machine.
    std::map<std::string, double> checksums;
    std::vector<Run> first;
    for (const Row& row : fig.rows(base)) {
        const auto wanted = [&](const Case& c) {
            return apps.empty() ||
                   std::count(apps.begin(), apps.end(), c.app);
        };
        if (!std::all_of(row.cases.begin(), row.cases.end(), wanted))
            continue;
        std::vector<Run> runs;
        for (const Case& c : row.cases) {
            runs.push_back(runCase(c, scale));
            const std::string input = c.app + " " + dataSetName(c.ds) +
                                      " remote=" + std::to_string(c.remote);
            const double sum = runs.back().checksum;
            const auto [it, fresh] = checksums.emplace(input, sum);
            if (!fresh && it->second != sum) {
                std::fprintf(stderr,
                             "sweep %s: CHECKSUM MISMATCH for %s on %s: "
                             "%.17g vs %.17g\n",
                             fig.name, input.c_str(), c.system.c_str(),
                             sum, it->second);
                return false;
            }
        }
        if (first.empty())
            first = runs;
        std::vector<std::string> cells;
        for (const Column& col : fig.columns)
            cells.push_back(cell(col, row, runs, first, nodes));
        std::fprintf(out, "%s\n", line(fig, cells).c_str());
        std::fflush(out);
        t.rows.push_back(std::move(cells));
    }
    return true;
}

std::map<std::string, Table>
readTables(const std::string& text)
{
    std::vector<std::string> lines;
    std::istringstream in(text);
    for (std::string l; std::getline(in, l);)
        lines.push_back(l);

    std::map<std::string, Table> out;
    for (std::size_t i = 0; i < lines.size(); ++i) {
        if (lines[i].empty())
            continue;
        const Figure* fig = lines[i].rfind("### ", 0) == 0
                                ? findFigure(lines[i].substr(4))
                                : nullptr;
        Table t = fig ? emptyTable(*fig, 0, 0) : Table{};
        if (!fig || i + 4 >= lines.size() || lines[i + 1] != fig->title ||
            std::sscanf(lines[i + 2].c_str(), "nodes=%d scale=1/%d",
                        &t.nodes, &t.scale) != 2 ||
            !lines[i + 3].empty() || lines[i + 4] != line(*fig, t.header))
            throw std::runtime_error("not a sweep figure at line " +
                                     std::to_string(i + 1));
        for (i += 5; i < lines.size() && !lines[i].empty(); ++i) {
            std::istringstream cells(lines[i]);
            std::vector<std::string> row;
            for (std::string c; cells >> c;)
                row.push_back(c);
            if (row.size() != t.header.size())
                throw std::runtime_error("malformed row at line " +
                                         std::to_string(i + 1));
            t.rows.push_back(std::move(row));
        }
        out[t.figure] = std::move(t);
    }
    return out;
}

std::vector<std::string>
failedClaims(const Figure& fig, const Table& t)
{
    std::vector<std::string> failed;
    for (const Claim& c : fig.claims) {
        try {
            if (!c.holds(t))
                failed.push_back(c.text);
        } catch (const std::out_of_range& e) {
            failed.push_back(std::string(c.text) + " (" + e.what() + ")");
        }
    }
    return failed;
}

} // namespace tt::sweep
