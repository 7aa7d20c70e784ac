/**
 * @file
 * The paper's shape claims as a gate: every claim of bench/figures.cc
 * must hold on the committed full-scale snapshots (fig3_full.txt,
 * fig4_full.txt, ablations_full.txt), each snapshot must be in the
 * sweep's own format at the scale its claims are stated at, and a
 * snapshot edited so one Figure 3 crossover flips must fail.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>

#include "bench/sweep.hh"

namespace tt::sweep
{
namespace
{

const char* const kSnapshots[] = {"fig3_full.txt", "fig4_full.txt",
                                  "ablations_full.txt"};

std::string
slurp(const std::string& name)
{
    std::ifstream in(std::string(TT_SOURCE_DIR) + "/" + name);
    EXPECT_TRUE(in) << name;
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** @p text with the last cell of the row starting @p row set to @p v. */
std::string
editLastCell(std::string text, const std::string& row, const std::string& v)
{
    const std::size_t at = text.find("\n" + row);
    EXPECT_NE(at, std::string::npos) << row;
    const std::size_t eol = text.find('\n', at + 1);
    const std::size_t cell = text.rfind(' ', eol) + 1;
    return text.replace(cell, eol - cell, v);
}

TEST(SweepSnapshots, EveryClaimHoldsAtItsStatedScale)
{
    std::set<std::string> seen;
    for (const char* file : kSnapshots) {
        for (const auto& [name, t] : readTables(slurp(file))) {
            const Figure& fig = *findFigure(name);
            EXPECT_EQ(t.scale, fig.claimScale) << file << " " << name;
            EXPECT_EQ(t.nodes, 32) << file << " " << name;
            EXPECT_FALSE(t.rows.empty()) << name;
            for (const std::string& c : failedClaims(fig, t))
                ADD_FAILURE() << file << " " << name << ": " << c;
            seen.insert(name);
        }
    }
    for (const Figure& fig : figures())
        EXPECT_TRUE(seen.count(fig.name)) << "no snapshot of " << fig.name;
}

TEST(SweepSnapshots, FlippedCrossoverFails)
{
    // appbt small/4K is a bold cell (Stache wins at 0.784); a snapshot
    // claiming DirNNB wins there contradicts the Figure 3 crossover.
    const std::string text = editLastCell(
        slurp("fig3_full.txt"), "appbt    stache   small/4K", "1.016");
    const auto tables = readTables(text);
    const Figure& fig3 = *findFigure("fig3");
    const auto failed = failedClaims(fig3, tables.at("fig3"));
    ASSERT_EQ(failed.size(), 1u);
    EXPECT_EQ(failed[0], fig3.claims[0].text);
}

TEST(SweepSnapshots, MissingRowFailsItsClaims)
{
    std::string text = slurp("fig4_full.txt");
    const std::size_t row = text.find("\n50 ");
    ASSERT_NE(row, std::string::npos);
    text.erase(row + 1, text.find('\n', row + 1) - row);
    const Figure& fig4 = *findFigure("fig4");
    EXPECT_FALSE(failedClaims(fig4, readTables(text).at("fig4")).empty());
}

TEST(SweepSnapshots, ForeignFormatIsRejected)
{
    std::string text = slurp("fig4_full.txt");
    EXPECT_THROW(readTables("Figure 4\n" + text), std::runtime_error);
    text.replace(text.find("Update cycles"), 6, "Upd   ");
    EXPECT_THROW(readTables(text), std::runtime_error);
    EXPECT_THROW(readTables("### fig9\n"), std::runtime_error);
}

TEST(SweepTable, CellsReadAsNumbers)
{
    Table t{"quantum", 32, 4, {"quantum", "vs q=0"}, 1,
            {{"0", "0.000%"}, {"8", "-0.193%"}, {"32", "n/a"}}};
    EXPECT_DOUBLE_EQ(t.at("8", "vs q=0"), -0.193);
    EXPECT_EQ(t.rowKeys(), (std::vector<std::string>{"0", "8", "32"}));
    EXPECT_THROW(t.at("32", "vs q=0"), std::out_of_range);
    EXPECT_THROW(t.at("64", "vs q=0"), std::out_of_range);
    EXPECT_THROW(t.at("0", "host ms"), std::out_of_range);
}

} // namespace
} // namespace tt::sweep
