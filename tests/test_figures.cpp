// Harness tests: every figure/table generator runs cleanly at reduced scale
// and produces the structurally-expected output. (Each row also runs as its
// own binary in the figure.<name> ctests, bench/CMakeLists.txt.)
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string_view>
#include <vector>

#include "harness/figures.hpp"

namespace asfsim {
namespace {

CliOptions small() {
  CliOptions o;
  o.cfg.params.scale = 0.25;
  return o;
}

TEST(Figures, Table1StatesAndFig7Walkthrough) {
  std::ostringstream os;
  EXPECT_EQ(figures::table1_states(small(), os), 0);
  const std::string s = os.str();
  EXPECT_NE(s.find("Non-speculative"), std::string::npos);
  EXPECT_NE(s.find("Dirty"), std::string::npos);
  EXPECT_NE(s.find("S-RD"), std::string::npos);
  EXPECT_NE(s.find("S-WR"), std::string::npos);
}

TEST(Figures, Table2ConfigProbesMatchTableII) {
  std::ostringstream os;
  EXPECT_EQ(figures::table2_config(small(), os), 0)
      << "latency probes must match the configured Table II values\n"
      << os.str();
  EXPECT_NE(os.str().find("64KB"), std::string::npos);
}

TEST(Figures, Table3ListsAllBenchmarks) {
  std::ostringstream os;
  EXPECT_EQ(figures::table3_benchmarks(small(), os), 0);
  for (const char* b : {"intruder", "kmeans", "labyrinth", "ssca2", "vacation",
                        "genome", "scalparc", "apriori", "fluidanimate",
                        "utilitymine"}) {
    EXPECT_NE(os.str().find(b), std::string::npos) << b;
  }
}

TEST(Figures, Fig1AllWorkloadsValidate) {
  std::ostringstream os;
  EXPECT_EQ(figures::fig1_false_conflict_rate(small(), os), 0) << os.str();
  EXPECT_NE(os.str().find("average false conflict rate"), std::string::npos);
}

TEST(Figures, Fig3TimeSeries) {
  std::ostringstream os;
  EXPECT_EQ(figures::fig3_time_distribution(small(), os), 0) << os.str();
  EXPECT_NE(os.str().find("vacation"), std::string::npos);
  EXPECT_NE(os.str().find("100%"), std::string::npos);
}

TEST(Figures, Fig4LineDistribution) {
  std::ostringstream os;
  EXPECT_EQ(figures::fig4_line_distribution(small(), os), 0) << os.str();
  EXPECT_NE(os.str().find("top-5"), std::string::npos);
}

TEST(Figures, Fig5IntraLineGranularities) {
  std::ostringstream os;
  CliOptions o;
  o.cfg.params.scale = 0.5;
  EXPECT_EQ(figures::fig5_intra_line_access(o, os), 0) << os.str();
  // kmeans accesses 4-byte floats; the other three are 8-byte dominated.
  EXPECT_NE(os.str().find("kmeans (dominant granularity: 4 bytes)"),
            std::string::npos)
      << os.str();
}

TEST(Figures, Fig8SweepRuns) {
  std::ostringstream os;
  EXPECT_EQ(figures::fig8_subblock_sensitivity(small(), os), 0) << os.str();
  EXPECT_NE(os.str().find("paper headline: 56.4%"), std::string::npos);
}

TEST(Figures, AblationsRun) {
  std::ostringstream os;
  EXPECT_EQ(figures::ablation_waronly(small(), os), 0) << os.str();
  EXPECT_EQ(figures::ablation_waw_rule(small(), os), 0) << os.str();
  EXPECT_EQ(figures::ablation_overhead(small(), os), 0) << os.str();
  EXPECT_NE(os.str().find("0.75 KB"), std::string::npos)
      << "paper §IV-E: 4 sub-blocks on a 64KB L1 cost 0.75KB";
  EXPECT_NE(os.str().find("1.17%"), std::string::npos);
}

TEST(Figures, ExtensionAblationsRun) {
  std::ostringstream os;
  CliOptions o = small();
  EXPECT_EQ(figures::ablation_capacity(o, os), 0) << os.str();
  EXPECT_NE(os.str().find("yada"), std::string::npos);
  std::ostringstream os2;
  EXPECT_EQ(figures::ablation_ats(o, os2), 0) << os2.str();
  std::ostringstream os3;
  EXPECT_EQ(figures::ablation_cores(o, os3), 0) << os3.str();
}

// Every row of figures.def runs cleanly, and each row that mirrors a CSV
// (all but the tables, which only print) writes exactly <row name>.csv.
TEST(Figures, CsvMirrorsAreWritten) {
  std::string root = ::testing::TempDir() + "asfsim-figures-XXXXXX";
  ASSERT_NE(::mkdtemp(root.data()), nullptr);
  for (const figures::Figure& f : figures::kFigures) {
    CliOptions o = small();
    o.no_cache = true;
    o.csv_dir = root + "/" + f.name;
    std::filesystem::create_directory(o.csv_dir);
    std::ostringstream os;
    EXPECT_EQ(f.run(o, os), 0) << f.name << "\n" << os.str();
    std::vector<std::string> written;
    for (const auto& e : std::filesystem::directory_iterator(o.csv_dir)) {
      written.push_back(e.path().filename().string());
    }
    std::vector<std::string> want;
    if (!std::string_view(f.name).starts_with("table")) {
      want.push_back(std::string(f.name) + ".csv");
    }
    EXPECT_EQ(written, want) << f.name;
  }
  std::ifstream in(root +
                   "/fig1_false_conflict_rate/fig1_false_conflict_rate.csv");
  ASSERT_TRUE(in.good());
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header, "benchmark,conflicts,false_conflicts,false_rate");
  std::filesystem::remove_all(root);
}

}  // namespace
}  // namespace asfsim
