// Prometheus text exposition (obs/prometheus.hpp, DESIGN.md §16).  The
// golden test pins the exact bytes: the exposition is consumed by external
// scrapers and linted in CI by tools/check_prom_format.py, so its format is
// a wire contract, not an implementation detail.

#include "obs/prometheus.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "obs/histogram.hpp"
#include "obs/metrics.hpp"

namespace ers::obs {
namespace {

TEST(PromName, PrefixesAndFoldsSeparators) {
  EXPECT_EQ(prom_name("engine.waste.total_ns"), "ers_engine_waste_total_ns");
  EXPECT_EQ(prom_name("sched.shard_lock_wait_ns.0"),
            "ers_sched_shard_lock_wait_ns_0");
  EXPECT_EQ(prom_name("units/sec"), "ers_units_sec");
}

TEST(PromLabelEscape, EscapesSpecials) {
  EXPECT_EQ(prom_label_escape("O1 \"deep\""), "O1 \\\"deep\\\"");
  EXPECT_EQ(prom_label_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(prom_label_escape("a\nb"), "a\\nb");
}

TEST(Prometheus, EmptyRegistryIsEmptyText) {
  EXPECT_EQ(prometheus_text(MetricsRegistry{}), "");
}

TEST(Prometheus, ExpositionGolden) {
  // Exact-bytes golden: run-info labels first, then numeric gauges in
  // insertion order (uint64, int64, double spellings), then the histogram's
  // cumulative le series trimmed after the last non-empty bucket.
  MetricsRegistry reg;
  reg.set("bench", "scheduler");
  reg.set("tree", "O1");
  reg.set("units", std::uint64_t{12});
  reg.set("frontier", -2);
  reg.set("efficiency", 0.875);
  Histogram h;
  h.record(1);   // bucket 1, upper 1
  h.record(3);   // bucket 2, upper 3
  h.record(3);
  reg.put_histogram("sched.compute_span_ns", h);

  const std::string expected =
      "# HELP ers_run_info string-valued registry entries as labels\n"
      "# TYPE ers_run_info gauge\n"
      "ers_run_info{bench=\"scheduler\",tree=\"O1\"} 1\n"
      "# HELP ers_units registry entry units\n"
      "# TYPE ers_units gauge\n"
      "ers_units 12\n"
      "# HELP ers_frontier registry entry frontier\n"
      "# TYPE ers_frontier gauge\n"
      "ers_frontier -2\n"
      "# HELP ers_efficiency registry entry efficiency\n"
      "# TYPE ers_efficiency gauge\n"
      "ers_efficiency 0.875\n"
      "# HELP ers_sched_compute_span_ns registry histogram "
      "sched.compute_span_ns\n"
      "# TYPE ers_sched_compute_span_ns histogram\n"
      "ers_sched_compute_span_ns_bucket{le=\"0\"} 0\n"
      "ers_sched_compute_span_ns_bucket{le=\"1\"} 1\n"
      "ers_sched_compute_span_ns_bucket{le=\"3\"} 3\n"
      "ers_sched_compute_span_ns_bucket{le=\"+Inf\"} 3\n"
      "ers_sched_compute_span_ns_sum 7\n"
      "ers_sched_compute_span_ns_count 3\n";
  EXPECT_EQ(prometheus_text(reg), expected);
}

TEST(Prometheus, CumulativeBucketsEndAtCount) {
  // The le series is cumulative and its +Inf line must equal _count — the
  // invariant scrapers aggregate on (and the lint checks).
  MetricsRegistry reg;
  Histogram h;
  for (std::uint64_t v = 0; v < 100; ++v) h.record(v * v);
  reg.put_histogram("x", h);
  const std::string text = prometheus_text(reg);
  EXPECT_NE(text.find("ers_x_bucket{le=\"+Inf\"} 100\n"), std::string::npos);
  EXPECT_NE(text.find("ers_x_count 100\n"), std::string::npos);
  // Trimmed: bit width of 99*99 = 9801 is 14, so no le lines past 2^14 - 1.
  EXPECT_NE(text.find("le=\"16383\""), std::string::npos);
  EXPECT_EQ(text.find("le=\"32767\""), std::string::npos);
}

TEST(Prometheus, InfoOnlyRegistryHasJustRunInfo) {
  MetricsRegistry reg;
  reg.set("tree", "R1");
  EXPECT_EQ(prometheus_text(reg),
            "# HELP ers_run_info string-valued registry entries as labels\n"
            "# TYPE ers_run_info gauge\n"
            "ers_run_info{tree=\"R1\"} 1\n");
}

}  // namespace
}  // namespace ers::obs
