/**
 * @file
 * The table-driven sweep behind bench/sweep. Each app-level figure of
 * EXPERIMENTS.md is a Figure: rows of cases, the columns it prints, and
 * the document's shape claims about it as predicates over the printed
 * table. Claims read the table as printed, so the same predicates judge
 * a fresh run and a committed snapshot read back with readTables().
 */

#ifndef TT_BENCH_SWEEP_HH
#define TT_BENCH_SWEEP_HH

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "config/builders.hh"

namespace tt::sweep
{

/** One simulation: a system running an app on a configured machine. */
struct Case
{
    std::string system; ///< a buildSystem() name
    std::string app;
    DataSet ds = DataSet::Small;
    double remote = 0.2; ///< EM3D non-local edge fraction
    MachineConfig cfg;   ///< the figure's base machine plus its delta
};

/** One printed row: its key cells and the cases its columns read. */
struct Row
{
    std::vector<std::string> key;
    std::vector<Case> cases;
};

/**
 * A printed column. Key prints row.key[a]; the others read the runs of
 * the row's cases a and b: a's cycles, a's cycles over b's, a's EM3D
 * cycles per edge, a's counter @c stat, or the % change of a's cycles
 * from the first row's.
 */
struct Column
{
    enum Kind { Key, Cycles, Ratio, PerEdge, Stat, VsFirst };
    std::string header;
    int width = 0;
    Kind kind = Key;
    int a = 0;
    int b = 0;
    const char* stat = nullptr;
};

/** A figure's results as printed. */
struct Table
{
    std::string figure;
    int nodes = 0;
    int scale = 0;
    std::vector<std::string> header;
    std::size_t keyColumns = 0;
    std::vector<std::vector<std::string>> rows;

    /** Each row's key cells joined by spaces, in printed order. */
    std::vector<std::string> rowKeys() const;
    /** Cell (@p key, @p column) as a number; "0.261%" reads 0.261. */
    double at(const std::string& key, const std::string& column) const;
    /** Column @p column over every row, in printed order. */
    std::vector<double> column(const std::string& column) const;
};

/** A shape claim of EXPERIMENTS.md, as a predicate over the table. */
struct Claim
{
    const char* text;
    bool (*holds)(const Table&);
};

struct Figure
{
    const char* name; ///< the `sweep <figure>` argument
    const char* title;
    bool ablation;    ///< printed by `sweep ablations`
    int claimScale;   ///< the TT_SCALE the claims are stated at
    std::vector<Row> (*rows)(const MachineConfig& base);
    std::vector<Column> columns;
    std::vector<Claim> claims;
};

/** Every figure (bench/figures.cc), the ablations last. */
const std::vector<Figure>& figures();
/** The figure named @p name, or null. */
const Figure* findFigure(const std::string& name);

/**
 * Run @p fig on @p nodes nodes at 1/@p scale size into @p t, printing
 * it to @p out row by row; a non-empty @p apps keeps the rows whose
 * cases all run one of them. Returns false, after saying so on stderr,
 * if two runs of one app, data set and remote fraction disagree on the
 * checksum.
 */
bool runFigure(const Figure& fig, int scale, int nodes,
               const std::vector<std::string>& apps, std::FILE* out,
               Table& t);

/** Every figure table in a sweep's output; throws on a foreign one. */
std::map<std::string, Table> readTables(const std::string& text);

/**
 * The texts of @p fig's claims that do not hold on @p t. A claim that
 * reads a missing or non-numeric cell fails.
 */
std::vector<std::string> failedClaims(const Figure& fig, const Table& t);

} // namespace tt::sweep

#endif // TT_BENCH_SWEEP_HH
