// Unit tests for metrics/ (statistics, busy metering, tables).

#include <gtest/gtest.h>

#include <sstream>

#include "metrics/busy_meter.h"
#include "metrics/stats.h"
#include "metrics/table.h"

namespace olympian::metrics {
namespace {

using sim::Duration;
using sim::TimePoint;

TEST(SeriesTest, BasicMoments) {
  Series s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.Mean(), 5.0);
  EXPECT_NEAR(s.Stddev(), 2.138, 1e-3);
  EXPECT_DOUBLE_EQ(s.Min(), 2.0);
  EXPECT_DOUBLE_EQ(s.Max(), 9.0);
}

TEST(SeriesTest, EmptySeriesBehaviour) {
  Series s;
  EXPECT_TRUE(s.empty());
  EXPECT_DOUBLE_EQ(s.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.Stddev(), 0.0);
  EXPECT_THROW(s.Min(), std::out_of_range);
  EXPECT_THROW(s.Percentile(50), std::out_of_range);
}

TEST(SeriesTest, Percentiles) {
  Series s;
  for (int i = 1; i <= 100; ++i) s.Add(i);
  EXPECT_DOUBLE_EQ(s.Percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.Percentile(50), 50.0);
  EXPECT_DOUBLE_EQ(s.Percentile(90), 90.0);
  EXPECT_DOUBLE_EQ(s.Percentile(100), 100.0);
}

TEST(SeriesTest, PercentileAfterLaterAdds) {
  Series s;
  s.Add(10);
  EXPECT_DOUBLE_EQ(s.Percentile(50), 10.0);
  s.Add(20);
  s.Add(30);
  EXPECT_DOUBLE_EQ(s.Percentile(100), 30.0);  // sorted cache refreshed
}

TEST(SeriesTest, CdfAtAndPoints) {
  Series s;
  for (double v : {1.0, 1.0, 2.0, 3.0}) s.Add(v);
  EXPECT_DOUBLE_EQ(s.CdfAt(0.5), 0.0);
  EXPECT_DOUBLE_EQ(s.CdfAt(1.0), 0.5);
  EXPECT_DOUBLE_EQ(s.CdfAt(2.5), 0.75);
  EXPECT_DOUBLE_EQ(s.CdfAt(10.0), 1.0);
}

TEST(SeriesTest, CvIsRelativeSpread) {
  Series s;
  for (double v : {99.0, 100.0, 101.0}) s.Add(v);
  EXPECT_NEAR(s.Cv(), 0.01, 1e-3);
}

TEST(BusyMeterTest, NonOverlappingIntervals) {
  BusyMeter m;
  TimePoint t;
  m.OnBegin(t + Duration::Millis(1));
  m.OnEnd(t + Duration::Millis(3));
  m.OnBegin(t + Duration::Millis(10));
  m.OnEnd(t + Duration::Millis(14));
  EXPECT_EQ(m.Total(t + Duration::Millis(20)), Duration::Millis(6));
  EXPECT_FALSE(m.busy());
}

TEST(BusyMeterTest, OverlappingIntervalsMerge) {
  // Paper Figure 5: GPU duration is the union of per-node busy intervals.
  BusyMeter m;
  TimePoint t;
  m.OnBegin(t + Duration::Millis(1));   // node 1
  m.OnBegin(t + Duration::Millis(2));   // node 2 overlaps
  m.OnEnd(t + Duration::Millis(4));     // node 1 ends
  m.OnEnd(t + Duration::Millis(5));     // node 2 ends
  m.OnBegin(t + Duration::Millis(9));   // node 3
  m.OnEnd(t + Duration::Millis(10));
  EXPECT_EQ(m.Total(t + Duration::Millis(10)), Duration::Millis(5));
}

TEST(BusyMeterTest, OpenIntervalCountsTowardTotal) {
  BusyMeter m;
  TimePoint t;
  m.OnBegin(t + Duration::Millis(2));
  EXPECT_TRUE(m.busy());
  EXPECT_EQ(m.Total(t + Duration::Millis(7)), Duration::Millis(5));
}

TEST(BusyMeterTest, UnbalancedEndThrows) {
  BusyMeter m;
  EXPECT_THROW(m.OnEnd(TimePoint()), std::logic_error);
}

TEST(TableTest, PrintAlignsColumns) {
  Table t({"model", "runtime"});
  t.AddRow({"Inception", "0.81"});
  t.AddRow({"VGG", "0.83"});
  std::ostringstream os;
  t.Print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("model"), std::string::npos);
  EXPECT_NE(out.find("Inception"), std::string::npos);
  EXPECT_NE(out.find("0.83"), std::string::npos);
}

TEST(TableTest, RowWidthMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.AddRow({"only-one"}), std::invalid_argument);
}

TEST(TableTest, Formatters) {
  EXPECT_EQ(Table::Num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::Pct(0.0213, 1), "2.1%");
}

}  // namespace
}  // namespace olympian::metrics
