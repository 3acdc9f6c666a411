// Tests for the observability layer: deterministic counters (bit-identical
// at any lane/thread count), hierarchical trace spans, and the JSON report
// round-trip against schema "kpm.obs.report/1".
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "core/moments_cpu.hpp"
#include "lattice/hamiltonian.hpp"
#include "lattice/lattice.hpp"
#include "linalg/spectral_transform.hpp"
#include "obs/counters.hpp"
#include "obs/hotspots.hpp"
#include "obs/json.hpp"
#include "obs/parallel.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"

namespace {

using namespace kpm;

// ---------------------------------------------------------------------------
// Counter registry

TEST(Counters, NamesRoundTripForEveryCounter) {
  for (std::size_t i = 0; i < obs::kCounterCount; ++i) {
    const auto c = static_cast<obs::Counter>(i);
    const char* name = obs::to_string(c);
    ASSERT_NE(name, nullptr);
    EXPECT_EQ(obs::counter_from_name(name), c) << name;
  }
  EXPECT_THROW((void)obs::counter_from_name("no_such_counter"), kpm::Error);
}

TEST(Counters, SetArithmeticAndEquality) {
  obs::CounterSet a;
  EXPECT_TRUE(a.empty());
  a.add(obs::Counter::Flops, 10.0);
  a.add(obs::Counter::SpmvCalls, 3.0);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a[obs::Counter::Flops], 10.0);

  obs::CounterSet b;
  b.add(obs::Counter::Flops, 5.0);
  a += b;
  EXPECT_EQ(a[obs::Counter::Flops], 15.0);
  EXPECT_EQ(a[obs::Counter::SpmvCalls], 3.0);

  obs::CounterSet c = a;
  EXPECT_EQ(a, c);
  c.add(obs::Counter::DotCalls, 1.0);
  EXPECT_NE(a, c);
}

TEST(Counters, AddIsANoOpWithoutASink) {
  ASSERT_EQ(obs::active_counters(), nullptr);
  obs::add(obs::Counter::Flops, 1e6);  // must not crash, must not record
  obs::CounterSet sink;
  {
    obs::CounterScope scope(sink);
    ASSERT_EQ(obs::active_counters(), &sink);
    obs::add(obs::Counter::Flops, 2.0);
    {
      obs::CounterSet inner;
      obs::CounterScope nested(inner);
      obs::add(obs::Counter::Flops, 100.0);  // routed to the inner sink
      EXPECT_EQ(inner[obs::Counter::Flops], 100.0);
    }
    ASSERT_EQ(obs::active_counters(), &sink);  // nesting restored
    obs::add(obs::Counter::Flops, 3.0);
  }
  EXPECT_EQ(obs::active_counters(), nullptr);
  EXPECT_EQ(sink[obs::Counter::Flops], 5.0);
}

TEST(Counters, MetersEncodeTheRooflineModel) {
  obs::CounterSet sink;
  {
    obs::CounterScope scope(sink);
    obs::meter_spmv(800, 4096, 100);
    obs::meter_stream_bytes(64.0);
  }
  EXPECT_EQ(sink[obs::Counter::SpmvCalls], 1.0);
  EXPECT_EQ(sink[obs::Counter::Flops], 800.0);
  // spmv: matrix + 2 vectors; plus the raw stream.
  EXPECT_EQ(sink[obs::Counter::BytesStreamed], (4096.0 + 1600.0) + 64.0);
}

// ---------------------------------------------------------------------------
// Sharded determinism

/// Records a deterministic per-index workload; total must not depend on how
/// indices are split over lanes.
void record_index(std::size_t i) {
  obs::add(obs::Counter::Flops, static_cast<double>(1 + i % 7));
  obs::add(obs::Counter::BytesStreamed, static_cast<double>(8 * (i % 13)));
  obs::add(obs::Counter::SpmvCalls, 1.0);
}

TEST(ShardedCounters, ReduceIsBitIdenticalForAnyLaneCount) {
  constexpr std::size_t kCount = 1000;
  obs::CounterSet reference;
  {
    obs::CounterScope scope(reference);
    for (std::size_t i = 0; i < kCount; ++i) record_index(i);
  }
  for (std::size_t lanes : {1u, 2u, 4u, 7u}) {
    obs::ShardedCounters shards(lanes);
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      const auto [begin, end] = common::ThreadPool::chunk_range(kCount, lanes, lane);
      obs::CounterScope scope(shards.shard(lane));
      for (std::size_t i = begin; i < end; ++i) record_index(i);
    }
    EXPECT_EQ(shards.reduce(), reference) << "lanes=" << lanes;
  }
}

TEST(ShardedCounters, ValidatesLaneArguments) {
  EXPECT_THROW(obs::ShardedCounters(0), kpm::Error);
  obs::ShardedCounters s(2);
  EXPECT_EQ(s.lanes(), 2u);
  EXPECT_THROW((void)s.shard(2), kpm::Error);
}

TEST(ShardedParallelFor, TotalsMatchSerialAtEveryThreadCount) {
  constexpr std::size_t kCount = 513;  // odd: uneven chunks
  obs::CounterSet reference;
  {
    obs::CounterScope scope(reference);
    for (std::size_t i = 0; i < kCount; ++i) record_index(i);
  }
  for (std::size_t lanes : {1u, 2u, 4u, 7u}) {
    common::ThreadPool pool(lanes);
    obs::CounterSet sink;
    {
      obs::CounterScope scope(sink);
      obs::sharded_parallel_for(pool, kCount,
                                [&](std::size_t /*lane*/, std::size_t begin, std::size_t end) {
                                  for (std::size_t i = begin; i < end; ++i) record_index(i);
                                });
    }
    EXPECT_EQ(sink, reference) << "lanes=" << lanes;
  }
}

TEST(ShardedParallelFor, RunsPlainWithoutASink) {
  common::ThreadPool pool(3);
  std::vector<int> hits(10, 0);
  obs::sharded_parallel_for(pool, hits.size(),
                            [&](std::size_t /*lane*/, std::size_t begin, std::size_t end) {
                              for (std::size_t i = begin; i < end; ++i) hits[i] = 1;
                            });
  for (int h : hits) EXPECT_EQ(h, 1);
}

// ---------------------------------------------------------------------------
// Engine counter determinism (serial vs threaded)

TEST(EngineCounters, ParallelEngineCountsMatchSerialBitwise) {
  const auto lat = lattice::HypercubicLattice::cubic(4, 4, 4);
  const auto h = lattice::build_tight_binding_crs(lat);
  linalg::MatrixOperator raw(h);
  const auto ht = linalg::rescale(h, linalg::make_spectral_transform(raw));
  linalg::MatrixOperator op(ht);

  core::MomentParams p;
  p.num_moments = 16;
  p.random_vectors = 4;
  p.realizations = 2;

  obs::CounterSet serial;
  {
    obs::CounterScope scope(serial);
    (void)core::CpuMomentEngine().compute(op, p);
  }
  EXPECT_EQ(serial[obs::Counter::InstancesExecuted], 8.0);
  EXPECT_EQ(serial[obs::Counter::MomentsProduced], 16.0);

  for (int threads : {1, 2, 4, 7}) {
    obs::CounterSet par;
    {
      obs::CounterScope scope(par);
      (void)core::CpuParallelMomentEngine(threads).compute(op, p);
    }
    EXPECT_EQ(par, serial) << "threads=" << threads;
  }
}

// ---------------------------------------------------------------------------
// Trace spans

TEST(Trace, RecordsNestingParentAndOrder) {
  obs::Trace trace;
  const auto outer = trace.open("outer");
  const auto child1 = trace.open("child1");
  trace.close(child1);
  const auto child2 = trace.open("child2");
  const auto grand = trace.open("grand");
  trace.close(grand);
  trace.close(child2);
  trace.close(outer);

  const auto& spans = trace.spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[0].name, "outer");
  EXPECT_EQ(spans[0].parent, obs::kNoParent);
  EXPECT_EQ(spans[0].depth, 0u);
  EXPECT_EQ(spans[1].name, "child1");
  EXPECT_EQ(spans[1].parent, outer);
  EXPECT_EQ(spans[1].depth, 1u);
  EXPECT_EQ(spans[2].name, "child2");
  EXPECT_EQ(spans[2].parent, outer);
  EXPECT_EQ(spans[3].name, "grand");
  EXPECT_EQ(spans[3].parent, child2);
  EXPECT_EQ(spans[3].depth, 2u);
  EXPECT_EQ(trace.open_depth(), 0u);
  // Children close before parents, so durations nest.
  EXPECT_LE(spans[1].seconds, spans[0].seconds);
  EXPECT_LE(spans[3].seconds, spans[2].seconds);
}

TEST(Trace, CloseValidatesInnermostDiscipline) {
  obs::Trace trace;
  const auto outer = trace.open("outer");
  (void)trace.open("inner");
  EXPECT_THROW(trace.close(outer), kpm::Error);  // inner is still open
}

TEST(Trace, ModeledSpansCarryFixedSeconds) {
  obs::Trace trace;
  const auto id = trace.begin_modeled("gpu", 1.5);
  trace.add_modeled("kernel", 1.25);
  trace.end_modeled(id);
  const auto& spans = trace.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_TRUE(spans[0].modeled);
  EXPECT_EQ(spans[0].seconds, 1.5);
  EXPECT_EQ(spans[1].parent, id);
  EXPECT_TRUE(spans[1].modeled);
  EXPECT_EQ(spans[1].seconds, 1.25);
  // A modeled span cannot be closed with the wall-clock close().
  const auto id2 = trace.begin_modeled("gpu2", 0.5);
  EXPECT_THROW(trace.close(id2), kpm::Error);
  trace.end_modeled(id2);
}

TEST(Trace, ScopedSpanIsAStopwatchWithoutAnActiveTrace) {
  ASSERT_EQ(obs::active_trace(), nullptr);
  obs::ScopedSpan span("orphan");
  const double s = span.stop();
  EXPECT_GE(s, 0.0);
  EXPECT_EQ(span.stop(), 0.0);  // idempotent
}

TEST(Trace, TimedRecordsIntoTheActiveTrace) {
  obs::Trace trace;
  obs::TraceScope scope(trace);
  const double s = obs::timed("work", [] {
    volatile double x = 0.0;
    for (int i = 0; i < 1000; ++i) x = x + 1.0;
  });
  ASSERT_EQ(trace.spans().size(), 1u);
  EXPECT_EQ(trace.spans()[0].name, "work");
  EXPECT_EQ(trace.spans()[0].seconds, s);
}

// ---------------------------------------------------------------------------
// JSON parser + report round-trip

TEST(Json, ParsesScalarsAndContainers) {
  EXPECT_EQ(obs::parse_json("null").kind, obs::JsonValue::Kind::Null);
  EXPECT_TRUE(obs::parse_json("true").boolean);
  EXPECT_EQ(obs::parse_json("-12.5e2").number, -1250.0);
  EXPECT_EQ(obs::parse_json(R"("a\nbA")").string, "a\nbA");
  const auto arr = obs::parse_json("[1, [2, 3], {}]");
  ASSERT_EQ(arr.array.size(), 3u);
  EXPECT_EQ(arr.array[1].array[1].number, 3.0);
  const auto obj = obs::parse_json(R"({"a": 1, "b": {"c": "x"}})");
  EXPECT_EQ(obj.at("a").number, 1.0);
  EXPECT_EQ(obj.at("b").at("c").string, "x");
  EXPECT_EQ(obj.find("missing"), nullptr);
  EXPECT_THROW((void)obj.at("missing"), kpm::Error);
}

TEST(Json, RejectsMalformedDocuments) {
  EXPECT_THROW((void)obs::parse_json(""), kpm::Error);
  EXPECT_THROW((void)obs::parse_json("{"), kpm::Error);
  EXPECT_THROW((void)obs::parse_json("[1,]"), kpm::Error);
  EXPECT_THROW((void)obs::parse_json("1 2"), kpm::Error);  // trailing garbage
  EXPECT_THROW((void)obs::parse_json("\"unterminated"), kpm::Error);
  EXPECT_THROW((void)obs::parse_json("nul"), kpm::Error);
}

TEST(Json, NestingDepthIsBounded) {
  // Exactly the limit parses, for arrays and objects alike.
  const std::size_t max = obs::kMaxJsonDepth;
  EXPECT_NO_THROW((void)obs::parse_json(std::string(max, '[') + std::string(max, ']')));
  std::string objects;
  for (std::size_t i = 0; i < max; ++i) objects += "{\"a\":";
  objects += "1" + std::string(max, '}');
  EXPECT_NO_THROW((void)obs::parse_json(objects));
  // One level deeper is a typed error, also for unterminated documents far
  // deeper than any stack could recurse.
  EXPECT_THROW((void)obs::parse_json(std::string(max + 1, '[') + std::string(max + 1, ']')),
               obs::JsonDepthError);
  EXPECT_THROW((void)obs::parse_json("{\"a\":" + objects + "}"), obs::JsonDepthError);
  try {
    (void)obs::parse_json(std::string(200000, '['));
    FAIL() << "a 200000-deep document must not parse";
  } catch (const obs::JsonDepthError& e) {
    EXPECT_NE(std::string(e.what()).find("nesting deeper than"), std::string::npos) << e.what();
  }
}

TEST(Json, NumbersRoundTripExactly) {
  for (double v : {0.0, 1.0, -3.5, 9007199254740992.0 /* 2^53 */, 0.1, 1e300}) {
    EXPECT_EQ(obs::parse_json(obs::json_number(v)).number, v) << v;
  }
}

TEST(Report, CollectRoutesCountersAndSpans) {
  obs::Report report;
  report.label = "unit";
  {
    obs::Collect collect(report);
    ASSERT_EQ(obs::active_report(), &report);
    obs::ScopedSpan span("step");
    obs::add(obs::Counter::Flops, 42.0);
  }
  EXPECT_EQ(obs::active_report(), nullptr);
  EXPECT_EQ(report.counters[obs::Counter::Flops], 42.0);
  ASSERT_EQ(report.trace.spans().size(), 1u);
  EXPECT_EQ(report.trace.spans()[0].name, "step");
}

TEST(Report, JsonMatchesSchemaAndRoundTrips) {
  obs::Report report;
  report.label = "round-trip \"quoted\"";
  {
    obs::Collect collect(report);
    obs::ScopedSpan outer("outer");
    { obs::ScopedSpan inner("inner"); }
    obs::add(obs::Counter::SpmvCalls, 7.0);
    obs::add(obs::Counter::Flops, 12345.0);
    if (auto* trace = obs::active_trace()) trace->add_modeled("gpu", 0.25);
  }
  const auto doc = obs::parse_json(obs::to_json(report));

  EXPECT_EQ(doc.at("schema").string, std::string(obs::kReportSchema));
  EXPECT_EQ(doc.at("label").string, report.label);

  // Every registered counter appears, keyed by its stable name, in order.
  const auto& counters = doc.at("counters");
  ASSERT_EQ(counters.object.size(), obs::kCounterCount);
  for (std::size_t i = 0; i < obs::kCounterCount; ++i)
    EXPECT_EQ(counters.object[i].first, obs::to_string(static_cast<obs::Counter>(i)));
  EXPECT_EQ(counters.at("spmv_calls").number, 7.0);
  EXPECT_EQ(counters.at("flops").number, 12345.0);

  const auto& spans = doc.at("spans");
  ASSERT_EQ(spans.array.size(), report.trace.spans().size());
  const auto& s0 = spans.array[0];
  EXPECT_EQ(s0.at("name").string, "outer");
  EXPECT_EQ(s0.at("parent").number, -1.0);
  EXPECT_EQ(s0.at("depth").number, 0.0);
  EXPECT_FALSE(s0.at("modeled").boolean);
  const auto& s1 = spans.array[1];
  EXPECT_EQ(s1.at("name").string, "inner");
  EXPECT_EQ(s1.at("parent").number, 0.0);
  const auto& s2 = spans.array[2];
  EXPECT_EQ(s2.at("name").string, "gpu");
  EXPECT_TRUE(s2.at("modeled").boolean);
  EXPECT_EQ(s2.at("seconds").number, 0.25);

  // Durations round-trip exactly through the %.17g formatting.
  for (std::size_t i = 0; i < report.trace.spans().size(); ++i)
    EXPECT_EQ(spans.array[i].at("seconds").number, report.trace.spans()[i].seconds);
}

TEST(Report, TablesListCountersAndIndentSpans) {
  obs::Report report;
  {
    obs::Collect collect(report);
    obs::ScopedSpan outer("outer");
    obs::ScopedSpan inner("inner");
    obs::add(obs::Counter::DotCalls, 2.0);
  }
  const auto ctab = obs::counters_to_table(report.counters).to_text();
  EXPECT_NE(ctab.find("dot_calls"), std::string::npos);
  const auto ttab = obs::trace_to_table(report.trace).to_text();
  EXPECT_NE(ttab.find("outer"), std::string::npos);
  EXPECT_NE(ttab.find("  inner"), std::string::npos);  // depth-indented
  EXPECT_NE(ttab.find("measured"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Histograms

TEST(Histogram, NamesRoundTripForEveryHistogram) {
  for (std::size_t i = 0; i < obs::kHistoCount; ++i) {
    const auto h = static_cast<obs::Histo>(i);
    EXPECT_EQ(obs::histo_from_name(obs::to_string(h)), h);
  }
  EXPECT_THROW((void)obs::histo_from_name("no_such_histogram"), kpm::Error);
  EXPECT_FALSE(obs::is_deterministic(obs::Histo::SpanWallNs));
  EXPECT_TRUE(obs::is_deterministic(obs::Histo::KernelModelNs));
  EXPECT_STREQ(obs::unit_of(obs::Histo::TransferBytes), "bytes");
  EXPECT_STREQ(obs::unit_of(obs::Histo::SpanWallNs), "ns");
}

TEST(Histogram, BucketBoundariesArePowersOfTwo) {
  using H = obs::Histogram;
  EXPECT_EQ(H::bucket_of(0), 0u);
  EXPECT_EQ(H::bucket_of(1), 1u);
  EXPECT_EQ(H::bucket_of(2), 2u);
  EXPECT_EQ(H::bucket_of(3), 2u);
  EXPECT_EQ(H::bucket_of(4), 3u);
  EXPECT_EQ(H::bucket_of((1ULL << 62) + 5), 63u);
  for (std::size_t i = 1; i < obs::kHistogramBuckets; ++i) {
    // Bucket i holds exactly [2^(i-1), 2^i).
    EXPECT_EQ(H::bucket_of(H::bucket_floor(i)), i);
    EXPECT_EQ(H::bucket_of(H::bucket_floor(i + 1) - 1), i);
  }
}

TEST(Histogram, RecordTracksCountSumMinMax) {
  obs::Histogram h;
  EXPECT_TRUE(h.empty());
  h.record(5);
  h.record(0);
  h.record(1000);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 1005u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 1000u);
  EXPECT_EQ(h.bucket_count(obs::Histogram::bucket_of(0)), 1u);
  EXPECT_EQ(h.bucket_count(obs::Histogram::bucket_of(5)), 1u);
  EXPECT_EQ(h.bucket_count(obs::Histogram::bucket_of(1000)), 1u);
}

TEST(Histogram, MergePreservesTotalsAndHandlesEmptySides) {
  obs::Histogram a, b, empty;
  a.record(3);
  a.record(17);
  b.record(1);
  obs::Histogram merged = a;
  merged += b;
  merged += empty;
  EXPECT_EQ(merged.count(), 3u);
  EXPECT_EQ(merged.sum(), 21u);
  EXPECT_EQ(merged.min(), 1u);
  EXPECT_EQ(merged.max(), 17u);
  obs::Histogram from_empty = empty;
  from_empty += a;
  EXPECT_EQ(from_empty.min(), 3u);  // empty side must not contribute min 0
}

TEST(Histogram, RecordSecondsQuantisesToNanosecondTicks) {
  obs::HistogramSet set;
  {
    obs::HistogramScope scope(set);
    obs::record_seconds(obs::Histo::SpanModelNs, 1.5e-6);
    obs::record_seconds(obs::Histo::SpanModelNs, -1.0);  // clamps to 0
  }
  const obs::Histogram& h = set[obs::Histo::SpanModelNs];
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.sum(), 1500u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 1500u);
  EXPECT_EQ(obs::seconds_to_ns_ticks(1.5e-6), 1500u);
  EXPECT_EQ(obs::seconds_to_ns_ticks(-2.0), 0u);
}

TEST(Histogram, RecordingWithoutSinkIsANoOp) {
  ASSERT_EQ(obs::active_histograms(), nullptr);
  obs::record(obs::Histo::TransferBytes, 42);  // must not crash
  obs::HistogramSet set;
  {
    obs::HistogramScope scope(set);
    obs::record(obs::Histo::TransferBytes, 42);
  }
  EXPECT_EQ(obs::active_histograms(), nullptr);  // scope restored
  EXPECT_EQ(set[obs::Histo::TransferBytes].count(), 1u);
}

TEST(Histogram, ShardedReductionIsLaneCountInvariant) {
  // 100 deterministic samples split across different lane counts must
  // reduce to the same histogram bit-for-bit.
  const auto run = [](std::size_t lanes) {
    common::ThreadPool pool(lanes);
    obs::HistogramSet sink;
    {
      obs::HistogramScope scope(sink);
      obs::sharded_parallel_for(pool, 100,
                                [](std::size_t, std::size_t begin, std::size_t end) {
                                  for (std::size_t i = begin; i < end; ++i)
                                    obs::record(obs::Histo::TransferBytes, (i * 37) % 4096);
                                });
    }
    return sink;
  };
  const obs::HistogramSet reference = run(1);
  EXPECT_EQ(reference[obs::Histo::TransferBytes].count(), 100u);
  for (std::size_t lanes : {2u, 4u, 7u}) EXPECT_EQ(run(lanes), reference);
}

TEST(Histogram, TableListsOnlyNonEmptyHistograms) {
  obs::HistogramSet set;
  {
    obs::HistogramScope scope(set);
    obs::record(obs::Histo::TransferBytes, 512);
  }
  const std::string table = obs::histograms_to_table(set).to_text();
  EXPECT_NE(table.find("transfer_bytes"), std::string::npos);
  EXPECT_EQ(table.find("span_wall_ns"), std::string::npos);
}

TEST(Report, WallSecondsSumsRootMeasuredSpansOnly) {
  obs::Report report;
  {
    obs::Collect collect(report);
    { obs::ScopedSpan outer("outer"); obs::ScopedSpan inner("inner"); }
    obs::active_trace()->add_modeled("gpu", 123.0);  // modeled root: excluded
  }
  const auto& spans = report.trace.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(report.wall_seconds(), spans[0].seconds);  // inner nested, gpu modeled
}

TEST(Report, ModeledSpansLiveOnASimulatedClock) {
  // Modeled roots start at 0 and modeled children are laid out sequentially
  // — never stamped with wall-clock offsets.
  obs::Report report;
  {
    obs::Collect collect(report);
    obs::Trace& trace = *obs::active_trace();
    const auto root = trace.begin_modeled("device", 1.0);
    trace.add_modeled("alloc", 0.25);
    trace.add_modeled("kernel", 0.5);
    trace.end_modeled(root);
  }
  const auto& spans = report.trace.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].start_seconds, 0.0);
  EXPECT_EQ(spans[1].start_seconds, 0.0);
  EXPECT_EQ(spans[2].start_seconds, 0.25);  // after its earlier sibling
  // And the modeled span durations land in the span_model_ns histogram.
  EXPECT_EQ(report.histograms[obs::Histo::SpanModelNs].count(), 3u);
}

TEST(Report, SweepPointShardsHistogramsWithoutChangingTotals) {
  obs::Report report;
  {
    obs::Collect collect(report);
    {
      obs::SweepPoint point(report, "load=0.5");
      obs::record(obs::Histo::ServeWaitNs, 100);
    }
    {
      obs::SweepPoint point(report, "load=1.0");
      obs::record(obs::Histo::ServeWaitNs, 200);
      obs::record(obs::Histo::ServeQueueDepth, 3);
    }
  }
  ASSERT_EQ(report.histogram_series.size(), 2u);
  EXPECT_EQ(report.histogram_series[0].label, "load=0.5");
  EXPECT_EQ(report.histogram_series[0].histograms[obs::Histo::ServeWaitNs].count(), 1u);
  EXPECT_EQ(report.histogram_series[1].histograms[obs::Histo::ServeWaitNs].sum(), 200u);
  // Whole-run totals are unchanged by sharding: every point merges back in.
  EXPECT_EQ(report.histograms[obs::Histo::ServeWaitNs].count(), 2u);
  EXPECT_EQ(report.histograms[obs::Histo::ServeQueueDepth].count(), 1u);

  const std::string json = obs::to_json(report);
  EXPECT_NE(json.find("\"histogram_series\""), std::string::npos);
  EXPECT_NE(json.find("\"point\": \"load=0.5\""), std::string::npos);

  // The series is part of the deterministic projection: relabeling a point
  // must change the fingerprint.
  const std::string before = obs::deterministic_fingerprint(report);
  report.histogram_series[0].label = "load=0.25";
  EXPECT_NE(obs::deterministic_fingerprint(report), before);
}

TEST(Report, SectionsEnterTheDeterministicFingerprint) {
  obs::Report report;
  report.label = "sections";
  const std::string before = obs::deterministic_fingerprint(report);
  report.sections.push_back({"serve", "{\"schema\": \"kpm.serve/1\"}"});
  EXPECT_NE(obs::deterministic_fingerprint(report), before)
      << "report sections must be fingerprinted verbatim";
}

TEST(Trace, SpansAttributeCounterDeltasInclusively) {
  obs::Report report;
  {
    obs::Collect collect(report);
    obs::ScopedSpan outer("outer");
    obs::add(obs::Counter::Flops, 100.0);
    obs::add(obs::Counter::BytesStreamed, 10.0);
    {
      obs::ScopedSpan inner("inner");
      obs::add(obs::Counter::Flops, 25.0);
    }
    obs::add(obs::Counter::Flops, 1.0);
  }
  const auto& spans = report.trace.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "outer");
  EXPECT_EQ(spans[0].flops, 126.0) << "span flops include children, like seconds";
  EXPECT_EQ(spans[0].bytes_streamed, 10.0);
  EXPECT_EQ(spans[1].flops, 25.0);
  EXPECT_EQ(spans[1].bytes_streamed, 0.0);
}

TEST(Trace, SpanCounterAttributionNeedsASinkAtOpenAndClose) {
  // Without a counter sink the deltas stay zero (no crash, no garbage).
  obs::Report report;
  {
    obs::TraceScope scope(report.trace);
    obs::ScopedSpan span("bare");
    obs::add(obs::Counter::Flops, 7.0);  // dropped: no sink installed
  }
  ASSERT_EQ(report.trace.spans().size(), 1u);
  EXPECT_EQ(report.trace.spans()[0].flops, 0.0);
}

/// Extracts the self_s column for `name` from span_hotspot_table's CSV.
double hotspot_self_seconds(const obs::Report& report, const std::string& name) {
  const std::string csv = obs::span_hotspot_table(report).to_csv();
  std::istringstream lines(csv);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind(name + ",", 0) != 0) continue;
    std::istringstream cells(line);
    std::string cell;
    for (int i = 0; i < 4; ++i) std::getline(cells, cell, ',');  // span,kind,calls,self_s
    return std::stod(cell);
  }
  ADD_FAILURE() << "span '" << name << "' missing from hotspot table:\n" << csv;
  return -1.0;
}

TEST(Hotspots, ExactlyAbuttingSiblingsLeaveZeroSelfTimeNotNegative) {
  // Two children exactly covering the parent must drive its self time to
  // exactly 0; children that (through rounding or modeling) exceed the
  // parent must clamp at 0 instead of going negative and corrupting the
  // percentage denominator.
  obs::Report report;
  {
    obs::Collect collect(report);
    obs::Trace& trace = *obs::active_trace();
    const auto covered = trace.begin_modeled("covered", 1.0);
    trace.add_modeled("left", 0.5);
    trace.add_modeled("right", 0.5);
    trace.end_modeled(covered);
    const auto exceeded = trace.begin_modeled("exceeded", 1.0);
    trace.add_modeled("big-left", 0.6);
    trace.add_modeled("big-right", 0.6);
    trace.end_modeled(exceeded);
  }
  EXPECT_EQ(hotspot_self_seconds(report, "covered"), 0.0);
  EXPECT_EQ(hotspot_self_seconds(report, "exceeded"), 0.0);
  EXPECT_EQ(hotspot_self_seconds(report, "left"), 0.5);
  EXPECT_EQ(hotspot_self_seconds(report, "big-right"), 0.6);
  // The clock total is the sum of self times; with both parents clamped to
  // 0 the children alone carry it, so no row can exceed 100%.
  const std::string table = obs::span_hotspot_table(report).to_text();
  EXPECT_EQ(table.find("-0.0"), std::string::npos) << table;
}

TEST(Hotspots, ZeroDurationParentWithTimedChildrenClampsAtZero) {
  obs::Report report;
  {
    obs::Collect collect(report);
    obs::Trace& trace = *obs::active_trace();
    const auto zero = trace.begin_modeled("instant", 0.0);
    trace.add_modeled("child", 0.25);
    trace.end_modeled(zero);
    trace.add_modeled("flat", 0.0);  // zero-duration leaf: plain 0, no NaN %
  }
  EXPECT_EQ(hotspot_self_seconds(report, "instant"), 0.0);
  EXPECT_EQ(hotspot_self_seconds(report, "child"), 0.25);
  EXPECT_EQ(hotspot_self_seconds(report, "flat"), 0.0);
}

TEST(Hotspots, OnlyDirectChildrenAreSubtracted) {
  // Grandchildren must not be double-subtracted from the grandparent.
  obs::Report report;
  {
    obs::Collect collect(report);
    obs::Trace& trace = *obs::active_trace();
    const auto outer = trace.begin_modeled("outer", 1.0);
    const auto mid = trace.begin_modeled("mid", 0.8);
    trace.add_modeled("leaf", 0.3);
    trace.end_modeled(mid);
    trace.end_modeled(outer);
  }
  EXPECT_NEAR(hotspot_self_seconds(report, "outer"), 0.2, 1e-9);
  EXPECT_NEAR(hotspot_self_seconds(report, "mid"), 0.5, 1e-9);
  EXPECT_NEAR(hotspot_self_seconds(report, "leaf"), 0.3, 1e-9);
}

TEST(Trace, TraceDetachSuppressesSpanRecording) {
  obs::Report report;
  {
    obs::Collect collect(report);
    obs::ScopedSpan outer("outer");
    {
      obs::TraceDetach detached;
      obs::ScopedSpan hidden("hidden");  // plain stopwatch: not recorded
    }
    obs::ScopedSpan visible("visible");
  }
  const auto& spans = report.trace.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "outer");
  EXPECT_EQ(spans[1].name, "visible");
}

}  // namespace
