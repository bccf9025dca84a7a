// The central property of the study: every algorithm (SSSJ, PBSM, ST, PQ)
// computes exactly the same relation — the set of intersecting MBR pairs,
// and, through the refinement step, the same exact-geometry result set.
// This file sweeps data distributions, sizes, fanouts and sweep structures
// and cross-checks all four against brute force, then re-checks the whole
// matrix on randomized workloads (the seeded differential harness at the
// bottom).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <sstream>

#include "core/join_query.h"
#include "core/spatial_join.h"
#include "datagen/synthetic.h"
#include "datagen/tiger_gen.h"
#include "join/sssj.h"
#include "refine/feature_store.h"
#include "test_util.h"

namespace sj {
namespace {

using testing_util::BruteForceExactPairs;
using testing_util::BruteForcePairs;
using testing_util::MakeDataset;
using testing_util::Sorted;
using testing_util::TestDisk;

enum class Distribution { kUniform, kClustered, kTiger, kPoints, kMixed };

struct EquivalenceCase {
  Distribution dist;
  uint64_t na, nb;
  uint32_t fanout;
  SweepStructureKind sweep;
  uint64_t seed;
};

std::ostream& operator<<(std::ostream& os, const EquivalenceCase& c) {
  const char* names[] = {"uniform", "clustered", "tiger", "points", "mixed"};
  return os << names[static_cast<int>(c.dist)] << "_n" << c.na << "x" << c.nb
            << "_f" << c.fanout << "_" << ToString(c.sweep) << "_s" << c.seed;
}

std::vector<RectF> MakeData(Distribution dist, uint64_t n, uint64_t seed,
                            bool side_b) {
  const RectF region(0, 0, 500, 500);
  switch (dist) {
    case Distribution::kUniform:
      return UniformRects(n, region, side_b ? 3.0f : 1.5f, seed);
    case Distribution::kClustered:
      return ClusteredRects(n, region, 6, 12.0f, 2.0f, seed);
    case Distribution::kTiger: {
      TigerGenerator gen(seed);
      std::vector<RectF> out;
      if (side_b) {
        gen.GenerateHydro(n, &out);
      } else {
        gen.GenerateRoads(n, &out);
      }
      return out;
    }
    case Distribution::kPoints:
      return DiagonalPoints(n, region);
    case Distribution::kMixed: {
      auto out = UniformRects(n / 2, region, 2.0f, seed);
      auto rest = DiagonalPoints(n - n / 2, region,
                                 static_cast<ObjectId>(n / 2));
      out.insert(out.end(), rest.begin(), rest.end());
      return out;
    }
  }
  return {};
}

class JoinEquivalence : public ::testing::TestWithParam<EquivalenceCase> {};

TEST_P(JoinEquivalence, AllFourAlgorithmsMatchBruteForce) {
  const EquivalenceCase c = GetParam();
  TestDisk td;
  std::vector<std::unique_ptr<Pager>> keep;
  const auto a = MakeData(c.dist, c.na, c.seed, false);
  const auto b = MakeData(c.dist, c.nb, c.seed + 1000, true);
  const auto expected = BruteForcePairs(a, b);

  const DatasetRef da = MakeDataset(&td, a, "a", &keep);
  const DatasetRef db = MakeDataset(&td, b, "b", &keep);

  auto tree_a_pager = td.NewPager("tree.a");
  auto tree_b_pager = td.NewPager("tree.b");
  auto scratch = td.NewPager("scratch");
  RTreeParams params;
  params.max_entries = c.fanout;
  auto ta = RTree::BulkLoadHilbert(tree_a_pager.get(), da.range,
                                   scratch.get(), params, 1 << 22);
  auto tb = RTree::BulkLoadHilbert(tree_b_pager.get(), db.range,
                                   scratch.get(), params, 1 << 22);
  ASSERT_TRUE(ta.ok() && tb.ok());
  ASSERT_TRUE(ta->Validate().ok());
  ASSERT_TRUE(tb->Validate().ok());

  JoinOptions options;
  options.stream_sweep = c.sweep;
  options.partition_sweep = c.sweep;
  SpatialJoiner joiner(&td.disk, options);
  const JoinInput ia = JoinInput::FromRTree(&*ta);
  const JoinInput ib = JoinInput::FromRTree(&*tb);

  for (JoinAlgorithm algo : {JoinAlgorithm::kSSSJ, JoinAlgorithm::kPBSM,
                             JoinAlgorithm::kST, JoinAlgorithm::kPQ}) {
    CollectingSink sink;
    auto stats =
        JoinQuery(joiner).Input(ia).Input(ib).Algorithm(algo).Run(&sink);
    ASSERT_TRUE(stats.ok()) << ToString(algo) << ": "
                            << stats.status().ToString();
    EXPECT_EQ(Sorted(sink.pairs()), expected) << ToString(algo);
  }
  // The strip-partitioned SSSJ must agree as well.
  {
    CollectingSink sink;
    auto stats = SSSJStripJoin(da, db, /*strips=*/7, &td.disk, options, &sink);
    ASSERT_TRUE(stats.ok()) << "SSSJ-strip: " << stats.status().ToString();
    EXPECT_EQ(Sorted(sink.pairs()), expected) << "SSSJ-strip";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Distributions, JoinEquivalence,
    ::testing::Values(
        EquivalenceCase{Distribution::kUniform, 1500, 1200, 16,
                        SweepStructureKind::kStriped, 1},
        EquivalenceCase{Distribution::kUniform, 1500, 1200, 16,
                        SweepStructureKind::kForward, 2},
        EquivalenceCase{Distribution::kClustered, 2000, 1800, 32,
                        SweepStructureKind::kStriped, 3},
        EquivalenceCase{Distribution::kClustered, 2000, 1800, 8,
                        SweepStructureKind::kForward, 4},
        EquivalenceCase{Distribution::kTiger, 3000, 800, 32,
                        SweepStructureKind::kStriped, 5},
        EquivalenceCase{Distribution::kPoints, 1000, 1000, 16,
                        SweepStructureKind::kStriped, 6},
        EquivalenceCase{Distribution::kMixed, 1600, 1600, 16,
                        SweepStructureKind::kStriped, 7},
        EquivalenceCase{Distribution::kUniform, 50, 3000, 400,
                        SweepStructureKind::kStriped, 8},   // Lopsided.
        EquivalenceCase{Distribution::kUniform, 1, 1, 16,
                        SweepStructureKind::kStriped, 9},   // Minimal.
        EquivalenceCase{Distribution::kTiger, 1000, 1000, 4,
                        SweepStructureKind::kForward, 10}));  // Deep trees.

// ---------------------------------------------------------------------------
// The randomized differential harness: N seeded workloads (distribution
// — uniform / clustered / Zipf-hotspot / diagonal-band / uniform+city /
// TIGER-skewed — cardinalities, density, fanout and memory budget all
// drawn from the seed) × all five algorithm choices (SSSJ, PBSM, ST, PQ,
// kAuto) × 1/2/8 threads × adaptive/fixed partitioning (for the
// algorithms it reaches) × filter-only and filter+refine, plus SSSJ with
// each side a plain stream, a sorted stream or resident records, and
// fused over plain streams, at 1/8 threads, plus SSSJ's 7-strip fallback
// called directly — every configuration must produce the identical sorted
// result set. A failure prints the workload seed; replaying is
// deterministic: run ./join_equivalence_test with SJ_DIFF_SEED=<seed> in
// its environment and --gtest_filter='RandomizedDifferential.*'.
//
// The nightly CI job scales the harness up with fresh seeds:
// SJ_DIFF_WORKLOADS=<n> multiplies the workload count, and SJ_DIFF_SEED
// then selects the *base* of the seed range instead of a single replay.
// ---------------------------------------------------------------------------

/// The budget of the harness's refined queries: its "refine.batch" grant
/// holds 444 candidates, so the workloads with more refine in several
/// chunks.
constexpr size_t kRefineChunksBudget = 128u << 10;

struct GeneratedWorkload {
  std::vector<RectF> a, b;
  uint32_t fanout = 16;
  size_t memory_bytes = 24u << 20;
  std::string description;
};

/// Cases of GenerateWorkload's distribution switch.
enum WorkloadKind { kUniformKind = 0, kZipfKind = 2 };

/// A workload of `min_records` + [0, `extra_records`) records a side, in
/// the distribution the seed draws, or in `kind` when one is given (the
/// seed's other draws are the same either way).
GeneratedWorkload GenerateWorkload(uint64_t seed, uint64_t min_records = 400,
                                   uint64_t extra_records = 1100,
                                   int kind = -1) {
  Random rng(seed);
  GeneratedWorkload w;
  const uint64_t na = min_records + rng.Uniform(extra_records);
  const uint64_t nb = min_records + rng.Uniform(extra_records);
  const RectF region(0, 0, 400, 400);
  std::ostringstream desc;
  const uint64_t drawn = rng.Uniform(6);
  switch (kind < 0 ? drawn : static_cast<uint64_t>(kind)) {
    case 0: {  // Uniform, density varied via rectangle size.
      const float sa = static_cast<float>(rng.UniformDouble(0.5, 4.0));
      const float sb = static_cast<float>(rng.UniformDouble(0.5, 4.0));
      w.a = UniformRects(na, region, sa, rng.Next());
      w.b = UniformRects(nb, region, sb, rng.Next());
      desc << "uniform sizes " << sa << "/" << sb;
      break;
    }
    case 1: {  // Clustered (hard case for PBSM tiles).
      const uint32_t clusters = 3 + static_cast<uint32_t>(rng.Uniform(8));
      const float sigma = static_cast<float>(rng.UniformDouble(5.0, 25.0));
      w.a = ClusteredRects(na, region, clusters, sigma, 2.0f, rng.Next());
      w.b = ClusteredRects(nb, region, clusters, sigma, 2.5f, rng.Next());
      desc << "clustered k=" << clusters << " sigma=" << sigma;
      break;
    }
    case 2: {  // Zipf hotspots (heavy skew: the adaptive planner's case).
      const uint32_t hotspots = 2 + static_cast<uint32_t>(rng.Uniform(10));
      const double theta = rng.UniformDouble(0.5, 1.8);
      const float sigma = static_cast<float>(rng.UniformDouble(1.0, 12.0));
      // Both sides share the hotspot geography (one center seed) but
      // sample records independently, so even needle-thin hotspots
      // produce a non-empty join.
      const uint64_t centers = rng.Next() | 1;
      w.a = ZipfClusteredRects(na, region, hotspots, theta, sigma, 2.0f,
                               rng.Next(), 0, centers);
      w.b = ZipfClusteredRects(nb, region, hotspots, theta, sigma, 2.0f,
                               rng.Next(), 0, centers);
      desc << "zipf k=" << hotspots << " theta=" << theta
           << " sigma=" << sigma;
      break;
    }
    case 3: {  // Diagonal correlation band.
      const float spread = static_cast<float>(rng.UniformDouble(2.0, 30.0));
      w.a = DiagonalBandRects(na, region, spread, 2.0f, rng.Next());
      w.b = DiagonalBandRects(nb, region, spread, 2.5f, rng.Next());
      desc << "diagonal-band spread=" << spread;
      break;
    }
    case 4: {  // Uniform background + one dense city.
      const double fraction = rng.UniformDouble(0.3, 0.8);
      const float side = static_cast<float>(rng.UniformDouble(4.0, 40.0));
      w.a = UniformWithCityRects(na, region, fraction, side, 2.0f,
                                 rng.Next());
      w.b = UniformWithCityRects(nb, region, fraction, side, 2.0f,
                                 rng.Next());
      desc << "uniform+city fraction=" << fraction << " side=" << side;
      break;
    }
    default: {  // Skewed TIGER-style (Zipf county masses).
      TigerGenerator gen(rng.Next());
      gen.GenerateRoads(na, &w.a);
      gen.GenerateHydro(nb, &w.b);
      desc << "tiger-skewed";
      break;
    }
  }
  const size_t budgets[] = {256u << 10, 1u << 20, 24u << 20};
  w.memory_bytes = budgets[rng.Uniform(3)];
  w.fanout = 8u + 8u * static_cast<uint32_t>(rng.Uniform(4));
  desc << " n=" << na << "x" << nb << " fanout=" << w.fanout
       << " mem=" << (w.memory_bytes >> 10) << "KB";
  w.description = desc.str();
  return w;
}

/// SJ_DIFF_MEMORY=tiny clamps every generated workload's budget to the
/// tiny end of the ladder (alternating 256 KB / 1 MB by seed), so the
/// low-memory CI job sweeps the whole differential matrix under memory
/// pressure without a separate test binary.
void ApplyMemoryEnv(GeneratedWorkload* w, uint64_t seed) {
  const char* mode = std::getenv("SJ_DIFF_MEMORY");
  if (mode == nullptr) return;
  if (std::string(mode) == "tiny") {
    w->memory_bytes = (seed & 1) ? (256u << 10) : (1u << 20);
    w->description += " mem-env=tiny(" +
                      std::to_string(w->memory_bytes >> 10) + "KB)";
  }
}

/// Harness configuration from the environment: SJ_DIFF_SEED replays one
/// workload from a specific seed; SJ_DIFF_WORKLOADS multiplies the
/// workload count (the nightly CI job runs many fresh-seeded iterations;
/// together with SJ_DIFF_SEED it replays a *range* starting there);
/// SJ_DIFF_MEMORY=tiny forces tiny budgets (see ApplyMemoryEnv).
struct DiffConfig {
  uint64_t base_seed;
  int workloads;
};

DiffConfig DiffConfigFromEnv(uint64_t default_seed, int default_workloads) {
  DiffConfig config{default_seed, default_workloads};
  if (const char* n = std::getenv("SJ_DIFF_WORKLOADS")) {
    config.workloads = std::max(1, std::atoi(n));
  }
  if (const char* replay = std::getenv("SJ_DIFF_SEED")) {
    config.base_seed = std::strtoull(replay, nullptr, 0);
    if (std::getenv("SJ_DIFF_WORKLOADS") == nullptr) config.workloads = 1;
  }
  return config;
}

TEST(RandomizedDifferential, AllAlgorithmsThreadsAndRefinementAgree) {
  const DiffConfig config = DiffConfigFromEnv(0x5EED2026u, 8);
  for (int trial = 0; trial < config.workloads; ++trial) {
    const uint64_t seed = config.base_seed + static_cast<uint64_t>(trial);
    GeneratedWorkload w = GenerateWorkload(seed);
    ApplyMemoryEnv(&w, seed);
    SCOPED_TRACE("workload [" + w.description +
                 "] — replay with SJ_DIFF_SEED=" + std::to_string(seed));

    // Exact geometry + reference answers by brute force.
    const auto ga = SegmentsForRects(w.a);
    const auto gb = SegmentsForRects(w.b);
    const auto expected_filter = BruteForcePairs(w.a, w.b);
    const auto expected_exact = BruteForceExactPairs(w.a, w.b, ga, gb);
    ASSERT_FALSE(expected_filter.empty());

    TestDisk td;
    std::vector<std::unique_ptr<Pager>> keep;
    const DatasetRef da = MakeDataset(&td, w.a, "a", &keep);
    const DatasetRef db = MakeDataset(&td, w.b, "b", &keep);
    auto geom_a_pager = td.NewPager("geom.a");
    auto geom_b_pager = td.NewPager("geom.b");
    auto store_a = FeatureStore::Build(geom_a_pager.get(), ga, "a");
    auto store_b = FeatureStore::Build(geom_b_pager.get(), gb, "b");
    ASSERT_TRUE(store_a.ok() && store_b.ok());

    auto tree_a_pager = td.NewPager("tree.a");
    auto tree_b_pager = td.NewPager("tree.b");
    auto scratch = td.NewPager("scratch");
    RTreeParams params;
    params.max_entries = w.fanout;
    auto ta = RTree::BulkLoadHilbert(tree_a_pager.get(), da.range,
                                     scratch.get(), params, 1 << 22);
    auto tb = RTree::BulkLoadHilbert(tree_b_pager.get(), db.range,
                                     scratch.get(), params, 1 << 22);
    ASSERT_TRUE(ta.ok() && tb.ok());

    // Every configuration runs as a filter query and as a refined one,
    // each checked against the brute-force answers. One shared joiner per
    // workload: every variation is a per-query override, never a joiner
    // mutation. The buffer pool is no longer downsized by hand: it is
    // grant-backed, so the arbiter shrinks it to the budget on its own.
    JoinOptions options;
    options.memory_bytes = w.memory_bytes;
    SpatialJoiner joiner(&td.disk, options);
    auto check = [&](JoinInput a, JoinInput b, JoinAlgorithm algo,
                     uint32_t threads, bool adaptive, bool fused,
                     const std::string& variant) {
      a.WithFeatures(&*store_a);
      b.WithFeatures(&*store_b);
      for (const bool refine : {false, true}) {
        CollectingSink sink;
        JoinQuery query(joiner);
        query.Input(a)
            .Input(b)
            .Algorithm(algo)
            .Threads(threads)
            .AdaptivePartitioning(adaptive)
            .FuseMergeSweep(fused);
        if (refine) query.MemoryBytes(kRefineChunksBudget).Refine(true);
        auto stats = query.Run(&sink);
        ASSERT_TRUE(stats.ok()) << variant << ": "
                                << stats.status().ToString();
        if (!refine) {
          EXPECT_EQ(Sorted(sink.pairs()), expected_filter)
              << variant << " filter";
          continue;
        }
        EXPECT_EQ(Sorted(sink.pairs()), expected_exact)
            << variant << " refined";
        EXPECT_EQ(stats->candidate_count, expected_filter.size())
            << variant << " refined";
        EXPECT_FALSE(joiner.options().refine)
            << "per-query override must not mutate the shared joiner";
      }
    };

    for (JoinAlgorithm algo : {JoinAlgorithm::kSSSJ, JoinAlgorithm::kPBSM,
                               JoinAlgorithm::kST, JoinAlgorithm::kPQ,
                               JoinAlgorithm::kAuto}) {
      // Index-only algorithms (and the planner) get trees; the stream
      // algorithms exercise the sort-from-stream path.
      const bool indexed =
          algo == JoinAlgorithm::kST || algo == JoinAlgorithm::kPQ ||
          algo == JoinAlgorithm::kAuto;
      const JoinInput ia = indexed ? JoinInput::FromRTree(&*ta)
                                   : JoinInput::FromStream(da);
      const JoinInput ib = indexed ? JoinInput::FromRTree(&*tb)
                                   : JoinInput::FromStream(db);
      // The partitioning dimension only changes PBSM's execution (kAuto
      // may plan PBSM in the future), so only those algorithms double
      // their configurations with the fixed-grid escape hatch.
      const bool partitioning_applies =
          algo == JoinAlgorithm::kPBSM || algo == JoinAlgorithm::kAuto;
      for (uint32_t threads : {1u, 2u, 8u}) {
        for (bool adaptive : {true, false}) {
          if (!adaptive && !partitioning_applies) continue;
          check(ia, ib, algo, threads, adaptive, /*fused=*/false,
                std::string(ToString(algo)) + " t" + std::to_string(threads) +
                    (adaptive ? " adaptive" : " fixed-grid"));
        }
      }
    }

    // SSSJ's strip units load their pairs when they fit the budget, as
    // every generated workload's 7 strips do.
    for (uint32_t threads : {1u, 8u}) {
      JoinOptions strip_options = options;
      strip_options.num_threads = threads;
      CollectingSink sink;
      auto stats = SSSJStripJoin(da, db, /*strips=*/7, &td.disk,
                                 strip_options, &sink);
      const std::string variant = "SSSJ 7 strips t" + std::to_string(threads);
      ASSERT_TRUE(stats.ok()) << variant << ": " << stats.status().ToString();
      EXPECT_EQ(Sorted(sink.pairs()), expected_filter) << variant;
      EXPECT_EQ(stats->partitions_total, 7u) << variant;
      EXPECT_EQ(stats->partitions_overflowed, 0u) << variant;
    }

    // SSSJ over every input kind: each side a plain stream, a sorted
    // stream or resident records (the workload sorted by ylo), and fused
    // over plain streams. Every generated workload fits one sweep at its
    // budget; UnitPathsReachEveryBranch runs the strip fallback.
    std::vector<RectF> ya = w.a, yb = w.b;
    std::sort(ya.begin(), ya.end(), OrderByYLo());
    std::sort(yb.begin(), yb.end(), OrderByYLo());
    const DatasetRef sorted_a = MakeDataset(&td, ya, "sorted.a", &keep);
    const DatasetRef sorted_b = MakeDataset(&td, yb, "sorted.b", &keep);
    const JoinInput kinds_a[] = {
        JoinInput::FromStream(da), JoinInput::FromSortedStream(sorted_a),
        JoinInput::FromSortedRects(ya.data(), ya.size(), sorted_a.extent)};
    const JoinInput kinds_b[] = {
        JoinInput::FromStream(db), JoinInput::FromSortedStream(sorted_b),
        JoinInput::FromSortedRects(yb.data(), yb.size(), sorted_b.extent)};
    const char* kind_names[] = {"stream", "sorted stream", "resident"};
    for (int ka = 0; ka < 3; ++ka) {
      for (int kb = 0; kb < 3; ++kb) {
        for (const bool fused : {false, true}) {
          // Plain streams unfused ran above; only they can fuse.
          const bool plain = ka == 0 && kb == 0;
          if (fused != plain) continue;
          for (uint32_t threads : {1u, 8u}) {
            check(kinds_a[ka], kinds_b[kb], JoinAlgorithm::kSSSJ, threads,
                  /*adaptive=*/true, fused,
                  std::string("SSSJ ") + kind_names[ka] + " x " +
                      kind_names[kb] + (fused ? " fused" : "") + " t" +
                      std::to_string(threads));
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The memory-budget dimension (the MemoryArbiter acceptance property):
// every algorithm at every budget of the ladder — 256 KB, 1 MB, the
// 24 MB default — produces output identical to the default-budget run,
// across 1 and 8 threads; the reported peak_memory_bytes stays within
// the granted budget for every algorithm on every workload; and Explain
// plans every grant the run was given.
// The generated workloads fit one sweep and every partition at each of
// these budgets, so the ladder moves grant sizes but reaches no unit
// path's degradation branch; UnitPathsReachEveryBranch below does.
// ---------------------------------------------------------------------------

TEST(RandomizedDifferential, MemoryBudgetDimensionAgreesAndStaysInBudget) {
  const DiffConfig config = DiffConfigFromEnv(0x3E3B0D6Eu, 3);
  for (int trial = 0; trial < config.workloads; ++trial) {
    const uint64_t seed = config.base_seed + static_cast<uint64_t>(trial);
    const GeneratedWorkload w = GenerateWorkload(seed);
    SCOPED_TRACE("workload [" + w.description +
                 "] — replay with SJ_DIFF_SEED=" + std::to_string(seed));

    TestDisk td;
    std::vector<std::unique_ptr<Pager>> keep;
    const DatasetRef da = MakeDataset(&td, w.a, "a", &keep);
    const DatasetRef db = MakeDataset(&td, w.b, "b", &keep);
    auto tree_a_pager = td.NewPager("tree.a");
    auto tree_b_pager = td.NewPager("tree.b");
    auto scratch = td.NewPager("scratch");
    RTreeParams params;
    params.max_entries = w.fanout;
    auto ta = RTree::BulkLoadHilbert(tree_a_pager.get(), da.range,
                                     scratch.get(), params, 1 << 22);
    auto tb = RTree::BulkLoadHilbert(tree_b_pager.get(), db.range,
                                     scratch.get(), params, 1 << 22);
    ASSERT_TRUE(ta.ok() && tb.ok());

    SpatialJoiner joiner(&td.disk, JoinOptions());
    const size_t kDefault = JoinOptions().memory_bytes;
    for (JoinAlgorithm algo : {JoinAlgorithm::kSSSJ, JoinAlgorithm::kPBSM,
                               JoinAlgorithm::kST, JoinAlgorithm::kPQ,
                               JoinAlgorithm::kAuto}) {
      const bool indexed =
          algo == JoinAlgorithm::kST || algo == JoinAlgorithm::kPQ ||
          algo == JoinAlgorithm::kAuto;
      const JoinInput ia = indexed ? JoinInput::FromRTree(&*ta)
                                   : JoinInput::FromStream(da);
      const JoinInput ib = indexed ? JoinInput::FromRTree(&*tb)
                                   : JoinInput::FromStream(db);

      // Reference: the default-budget run of this algorithm.
      std::vector<IdPair> reference;
      {
        CollectingSink sink;
        auto stats =
            JoinQuery(joiner).Input(ia).Input(ib).Algorithm(algo).Run(&sink);
        ASSERT_TRUE(stats.ok()) << ToString(algo) << ": "
                                << stats.status().ToString();
        reference = Sorted(sink.pairs());
      }

      for (const size_t budget : {size_t{256} << 10, size_t{1} << 20,
                                  kDefault}) {
        for (uint32_t threads : {1u, 8u}) {
          CollectingSink sink;
          auto stats = JoinQuery(joiner)
                           .Input(ia)
                           .Input(ib)
                           .Algorithm(algo)
                           .MemoryBytes(budget)
                           .Threads(threads)
                           .Run(&sink);
          const std::string variant = std::string(ToString(algo)) + " mem" +
                                      std::to_string(budget >> 10) + "KB t" +
                                      std::to_string(threads);
          ASSERT_TRUE(stats.ok()) << variant << ": "
                                  << stats.status().ToString();
          EXPECT_EQ(Sorted(sink.pairs()), reference) << variant;
          // Enforcement: the arbiter's granted peak is real and bounded.
          EXPECT_GT(stats->peak_memory_bytes, 0u) << variant;
          EXPECT_LE(stats->peak_memory_bytes, budget) << variant;
          EXPECT_FALSE(stats->memory_components.empty()) << variant;
          // Explain plans what the run was granted, the lines that follow
          // unread data aside (JoinExplain.PlansWhatRunGrants).
          auto plan = JoinQuery(joiner)
                          .Input(ia)
                          .Input(ib)
                          .Algorithm(algo)
                          .MemoryBytes(budget)
                          .Threads(threads)
                          .Explain();
          ASSERT_TRUE(plan.ok()) << variant << ": "
                                 << plan.status().ToString();
          SCOPED_TRACE(variant);
          testing_util::ExpectPlanIsRunGrants(
              plan->memory, stats->memory_components,
              testing_util::DataDependentGrants(*stats, plan->memory));
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Every branch of the partitioned unit body (SweepUnit), each run at 1 and
// 8 threads against brute force, and where a JoinQuery runs it, with
// Explain checked against the run:
//  - SSSJ's strip fallback, whose units sort: a uniform workload of
//    21,000-24,999 records a side at the 64 KiB floor, where one sweep's
//    estimate exceeds the budget;
//  - strip units that load (AllAlgorithmsThreadsAndRefinementAgree);
//  - PBSM partitions that overflow: the fixed 32x32 grid over a Zipf
//    workload at 64 KiB, below its largest partition pair.
// Both JoinQuery legs also shrink their distribution writers' grant.
// Their seeds are pinned, so that each leg reaches its branch.
// ---------------------------------------------------------------------------

TEST(RandomizedDifferential, UnitPathsReachEveryBranch) {
  struct Leg {
    const char* name;
    GeneratedWorkload workload;
    JoinAlgorithm algorithm;
  };
  const Leg legs[] = {
      {"SSSJ strip fallback", GenerateWorkload(0x571B5u, 21000, 4000,
                                               kUniformKind),
       JoinAlgorithm::kSSSJ},
      {"PBSM fixed-grid overflow",
       GenerateWorkload(0x0BF10u, 4000, 2000, kZipfKind),
       JoinAlgorithm::kPBSM},
  };
  for (const Leg& leg : legs) {
    const GeneratedWorkload& w = leg.workload;
    SCOPED_TRACE(std::string(leg.name) + " [" + w.description + "]");
    const std::vector<IdPair> expected = BruteForcePairs(w.a, w.b);
    TestDisk td;
    std::vector<std::unique_ptr<Pager>> keep;
    const DatasetRef da = MakeDataset(&td, w.a, "a", &keep);
    const DatasetRef db = MakeDataset(&td, w.b, "b", &keep);
    SpatialJoiner joiner(&td.disk, JoinOptions());
    for (const uint32_t threads : {1u, 8u}) {
      SCOPED_TRACE("t" + std::to_string(threads));
      JoinQuery query(joiner);
      query.Input(JoinInput::FromStream(da))
          .Input(JoinInput::FromStream(db))
          .Algorithm(leg.algorithm)
          .MemoryBytes(kMinMemoryBytes)
          .AdaptivePartitioning(false)
          .PbsmTilesPerAxis(32)
          .Threads(threads);
      auto plan = query.Explain();
      ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      CollectingSink sink;
      auto stats = query.Run(&sink);
      ASSERT_TRUE(stats.ok()) << stats.status().ToString();
      EXPECT_EQ(Sorted(sink.pairs()), expected);
      testing_util::ExpectPlanIsRunGrants(
          plan->memory, stats->memory_components,
          testing_util::DataDependentGrants(*stats, plan->memory));
      EXPECT_GT(stats->partitions_total, 1u);
      // Both paths' writers ask for 4-page blocks, which 64 KiB cannot
      // cover: their grant shrinks.
      const char* writers = leg.algorithm == JoinAlgorithm::kSSSJ
                                ? grants::kStripWriters
                                : grants::kPbsmWriters;
      size_t writers_granted = 0;
      for (const MemoryComponentStats& c : stats->memory_components) {
        if (c.component == writers) writers_granted = c.granted_high_water;
      }
      EXPECT_GT(writers_granted, 0u);
      EXPECT_LT(writers_granted,
                size_t{2} * stats->partitions_total * 4 * kPageSize);
      if (leg.algorithm == JoinAlgorithm::kSSSJ) {
        EXPECT_EQ(stats->partitions_overflowed, stats->partitions_total);
      } else {
        EXPECT_GT(stats->partitions_overflowed, 0u);
        EXPECT_LT(stats->partitions_overflowed, stats->partitions_total);
        EXPECT_GT(stats->max_partition_bytes, kMinMemoryBytes);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Per-query option overrides: a JoinQuery with Threads/Refine overrides
// must leave the shared joiner's options untouched and produce output
// identical to a joiner *constructed* with those options.
// ---------------------------------------------------------------------------

TEST(JoinQueryOverrides, MatchDedicatedJoinerAndLeaveSharedOptionsAlone) {
  TestDisk td;
  std::vector<std::unique_ptr<Pager>> keep;
  const RectF region(0, 0, 300, 300);
  const auto a = UniformRects(900, region, 2.0f, 21);
  const auto b = UniformRects(800, region, 2.5f, 22);
  const auto ga = SegmentsForRects(a);
  const auto gb = SegmentsForRects(b);
  const DatasetRef da = MakeDataset(&td, a, "a", &keep);
  const DatasetRef db = MakeDataset(&td, b, "b", &keep);
  auto pager_a = td.NewPager("geom.a");
  auto pager_b = td.NewPager("geom.b");
  auto store_a = FeatureStore::Build(pager_a.get(), ga, "a");
  auto store_b = FeatureStore::Build(pager_b.get(), gb, "b");
  ASSERT_TRUE(store_a.ok() && store_b.ok());

  // The shared joiner: serial, filter-only defaults.
  const JoinOptions defaults;
  SpatialJoiner shared(&td.disk, defaults);

  CollectingSink overridden;
  auto query_stats = JoinQuery(shared)
                         .Input(JoinInput::FromStream(da))
                         .Input(JoinInput::FromStream(db))
                         .WithFeatures(0, &*store_a)
                         .WithFeatures(1, &*store_b)
                         .Algorithm(JoinAlgorithm::kSSSJ)
                         .Threads(8)
                         .Refine(true)
                         .StripedStrips(256)
                         .Run(&overridden);
  ASSERT_TRUE(query_stats.ok()) << query_stats.status().ToString();

  // The shared joiner's options are untouched by the query's overrides.
  EXPECT_EQ(shared.options().num_threads, defaults.num_threads);
  EXPECT_EQ(shared.options().refine, defaults.refine);
  EXPECT_EQ(shared.options().striped_strips, defaults.striped_strips);

  // A joiner constructed with the overridden options produces identical
  // output and the identical candidate/exact split.
  JoinOptions constructed = defaults;
  constructed.num_threads = 8;
  constructed.refine = true;
  constructed.striped_strips = 256;
  SpatialJoiner dedicated(&td.disk, constructed);
  CollectingSink baseline;
  JoinInput ia = JoinInput::FromStream(da);
  JoinInput ib = JoinInput::FromStream(db);
  ia.WithFeatures(&*store_a);
  ib.WithFeatures(&*store_b);
  auto dedicated_stats = JoinQuery(dedicated)
                             .Input(ia)
                             .Input(ib)
                             .Algorithm(JoinAlgorithm::kSSSJ)
                             .Run(&baseline);
  ASSERT_TRUE(dedicated_stats.ok());
  EXPECT_EQ(overridden.pairs(), baseline.pairs());
  EXPECT_EQ(query_stats->output_count, dedicated_stats->output_count);
  EXPECT_EQ(query_stats->candidate_count, dedicated_stats->candidate_count);
}

// ---------------------------------------------------------------------------
// The differential harness for the non-intersection predicates: brute
// force ε-distance and containment oracles cross-checked against
// JoinQuery over SSSJ/PBSM/ST/PQ at 1/2/8 threads.
// ---------------------------------------------------------------------------

TEST(RandomizedDifferential, DistancePredicateAgreesWithBruteForce) {
  const DiffConfig config = DiffConfigFromEnv(0xD157A6CEu, 3);
  const uint64_t base_seed = config.base_seed;
  const int workloads = config.workloads;
  // A sparse seed can legitimately produce an empty join (clusters far
  // apart); the pipeline must then return empty too, but across the suite
  // at least one workload has to exercise real matches.
  uint64_t total_filter_pairs = 0;
  for (int trial = 0; trial < workloads; ++trial) {
    const uint64_t seed = base_seed + static_cast<uint64_t>(trial);
    const GeneratedWorkload w = GenerateWorkload(seed);
    Random eps_rng(seed ^ 0xE95u);
    const double eps = eps_rng.UniformDouble(0.5, 6.0);
    SCOPED_TRACE("workload [" + w.description + "] eps=" +
                 std::to_string(eps) +
                 " — replay with SJ_DIFF_SEED=" + std::to_string(seed));

    const auto ga = SegmentsForRects(w.a);
    const auto gb = SegmentsForRects(w.b);
    // The filter-step oracle replicates the compile step's transform
    // exactly: side 1 is ε-expanded (same float arithmetic), then plain
    // MBR intersection. The refined oracle additionally applies the
    // exact Euclidean segment distance.
    std::vector<IdPair> expected_filter, expected_exact;
    for (size_t i = 0; i < w.a.size(); ++i) {
      for (size_t j = 0; j < w.b.size(); ++j) {
        if (!w.a[i].Intersects(ExpandRectForDistance(w.b[j], eps))) continue;
        expected_filter.push_back({w.a[i].id, w.b[j].id});
        if (SegmentsWithinDistance(ga[i], gb[j], eps)) {
          expected_exact.push_back({w.a[i].id, w.b[j].id});
        }
      }
    }
    std::sort(expected_filter.begin(), expected_filter.end());
    std::sort(expected_exact.begin(), expected_exact.end());
    total_filter_pairs += expected_filter.size();

    TestDisk td;
    std::vector<std::unique_ptr<Pager>> keep;
    const DatasetRef da = MakeDataset(&td, w.a, "a", &keep);
    const DatasetRef db = MakeDataset(&td, w.b, "b", &keep);
    auto geom_a_pager = td.NewPager("geom.a");
    auto geom_b_pager = td.NewPager("geom.b");
    auto store_a = FeatureStore::Build(geom_a_pager.get(), ga, "a");
    auto store_b = FeatureStore::Build(geom_b_pager.get(), gb, "b");
    ASSERT_TRUE(store_a.ok() && store_b.ok());

    auto tree_a_pager = td.NewPager("tree.a");
    auto tree_b_pager = td.NewPager("tree.b");
    auto scratch = td.NewPager("scratch");
    RTreeParams params;
    params.max_entries = w.fanout;
    auto ta = RTree::BulkLoadHilbert(tree_a_pager.get(), da.range,
                                     scratch.get(), params, 1 << 22);
    auto tb = RTree::BulkLoadHilbert(tree_b_pager.get(), db.range,
                                     scratch.get(), params, 1 << 22);
    ASSERT_TRUE(ta.ok() && tb.ok());

    SpatialJoiner joiner(&td.disk, JoinOptions());
    for (JoinAlgorithm algo : {JoinAlgorithm::kSSSJ, JoinAlgorithm::kPBSM,
                               JoinAlgorithm::kST, JoinAlgorithm::kPQ}) {
      const bool indexed =
          algo == JoinAlgorithm::kST || algo == JoinAlgorithm::kPQ;
      JoinInput ia = indexed ? JoinInput::FromRTree(&*ta)
                             : JoinInput::FromStream(da);
      JoinInput ib = indexed ? JoinInput::FromRTree(&*tb)
                             : JoinInput::FromStream(db);
      for (uint32_t threads : {1u, 2u, 8u}) {
        {
          CollectingSink sink;
          auto stats = JoinQuery(joiner)
                           .Input(ia)
                           .Input(ib)
                           .Predicate(Predicate::kDistanceWithin, eps)
                           .Algorithm(algo)
                           .Threads(threads)
                           .Run(&sink);
          ASSERT_TRUE(stats.ok()) << ToString(algo) << " t" << threads
                                  << ": " << stats.status().ToString();
          EXPECT_EQ(Sorted(sink.pairs()), expected_filter)
              << ToString(algo) << " distance filter, " << threads
              << " threads";
        }
        {
          CollectingSink sink;
          auto stats = JoinQuery(joiner)
                           .Input(ia)
                           .Input(ib)
                           .WithFeatures(0, &*store_a)
                           .WithFeatures(1, &*store_b)
                           .Predicate(Predicate::kDistanceWithin, eps)
                           .Algorithm(algo)
                           .Threads(threads)
                           .Refine(true)
                           .MemoryBytes(kRefineChunksBudget)
                           .Run(&sink);
          ASSERT_TRUE(stats.ok()) << ToString(algo) << " t" << threads
                                  << ": " << stats.status().ToString();
          EXPECT_EQ(Sorted(sink.pairs()), expected_exact)
              << ToString(algo) << " distance refined, " << threads
              << " threads";
          EXPECT_EQ(stats->candidate_count, expected_filter.size())
              << ToString(algo) << " distance refined, " << threads
              << " threads";
        }
      }
    }
  }
  EXPECT_GT(total_filter_pairs, 0u)
      << "every distance workload was empty; the suite exercised nothing";
}

/// Integer-coordinate segments so exact containment really occurs: double
/// arithmetic on small integers is exact, so sub-segments at integer lattice
/// points of their parent are contained with no rounding caveats.
struct ContainmentWorkload {
  std::vector<RectF> a, b;
  std::vector<Segment> ga, gb;
};

ContainmentWorkload GenerateContainmentWorkload(uint64_t seed) {
  Random rng(seed);
  ContainmentWorkload w;
  const uint64_t na = 300 + rng.Uniform(300);
  const uint64_t nb = 300 + rng.Uniform(300);
  for (uint64_t i = 0; i < na; ++i) {
    const int x = static_cast<int>(rng.Uniform(400));
    const int y = static_cast<int>(rng.Uniform(400));
    const int g = 1 + static_cast<int>(rng.Uniform(8));
    const int ex = static_cast<int>(rng.Uniform(11)) - 5;
    const int ey = static_cast<int>(rng.Uniform(11)) - 5;
    const Segment s(static_cast<float>(x), static_cast<float>(y),
                    static_cast<float>(x + g * ex),
                    static_cast<float>(y + g * ey));
    w.ga.push_back(s);
    w.a.push_back(s.Mbr(static_cast<ObjectId>(i)));
  }
  for (uint64_t j = 0; j < nb; ++j) {
    Segment s;
    if (j % 3 == 0) {
      // A sub-segment of a random parent, between two of its integer
      // lattice points: genuinely contained.
      const Segment& parent = w.ga[rng.Uniform(na)];
      const int g = 8;
      const double ex = (parent.x2 - parent.x1) / g;
      const double ey = (parent.y2 - parent.y1) / g;
      int k1 = static_cast<int>(rng.Uniform(g + 1));
      int k2 = static_cast<int>(rng.Uniform(g + 1));
      if (k1 > k2) std::swap(k1, k2);
      s = Segment(static_cast<float>(parent.x1 + k1 * ex),
                  static_cast<float>(parent.y1 + k1 * ey),
                  static_cast<float>(parent.x1 + k2 * ex),
                  static_cast<float>(parent.y1 + k2 * ey));
    } else {
      const int x = static_cast<int>(rng.Uniform(400));
      const int y = static_cast<int>(rng.Uniform(400));
      s = Segment(static_cast<float>(x), static_cast<float>(y),
                  static_cast<float>(x + static_cast<int>(rng.Uniform(21)) -
                                     10),
                  static_cast<float>(y + static_cast<int>(rng.Uniform(21)) -
                                     10));
    }
    w.gb.push_back(s);
    w.b.push_back(s.Mbr(static_cast<ObjectId>(j)));
  }
  return w;
}

TEST(RandomizedDifferential, ContainmentPredicateAgreesWithBruteForce) {
  const DiffConfig config = DiffConfigFromEnv(0xC047A15u, 3);
  const uint64_t base_seed = config.base_seed;
  const int workloads = config.workloads;
  for (int trial = 0; trial < workloads; ++trial) {
    const uint64_t seed = base_seed + static_cast<uint64_t>(trial);
    const ContainmentWorkload w = GenerateContainmentWorkload(seed);
    SCOPED_TRACE("containment workload — replay with SJ_DIFF_SEED=" +
                 std::to_string(seed));

    // Oracle: the refined result is every MBR-overlapping pair whose
    // exact geometry satisfies "a contains b".
    std::vector<IdPair> expected_filter, expected_exact;
    for (size_t i = 0; i < w.a.size(); ++i) {
      for (size_t j = 0; j < w.b.size(); ++j) {
        if (!w.a[i].Intersects(w.b[j])) continue;
        expected_filter.push_back({w.a[i].id, w.b[j].id});
        if (SegmentContainsSegment(w.ga[i], w.gb[j])) {
          expected_exact.push_back({w.a[i].id, w.b[j].id});
        }
      }
    }
    std::sort(expected_exact.begin(), expected_exact.end());
    ASSERT_FALSE(expected_exact.empty())
        << "containment workload generated no contained pairs";
    ASSERT_LT(expected_exact.size(), expected_filter.size())
        << "the MBR filter should overapproximate containment";

    TestDisk td;
    std::vector<std::unique_ptr<Pager>> keep;
    const DatasetRef da = MakeDataset(&td, w.a, "a", &keep);
    const DatasetRef db = MakeDataset(&td, w.b, "b", &keep);
    auto geom_a_pager = td.NewPager("geom.a");
    auto geom_b_pager = td.NewPager("geom.b");
    auto store_a = FeatureStore::Build(geom_a_pager.get(), w.ga, "a");
    auto store_b = FeatureStore::Build(geom_b_pager.get(), w.gb, "b");
    ASSERT_TRUE(store_a.ok() && store_b.ok());
    auto tree_a_pager = td.NewPager("tree.a");
    auto tree_b_pager = td.NewPager("tree.b");
    auto scratch = td.NewPager("scratch");
    auto ta = RTree::BulkLoadHilbert(tree_a_pager.get(), da.range,
                                     scratch.get(), RTreeParams(), 1 << 22);
    auto tb = RTree::BulkLoadHilbert(tree_b_pager.get(), db.range,
                                     scratch.get(), RTreeParams(), 1 << 22);
    ASSERT_TRUE(ta.ok() && tb.ok());

    SpatialJoiner joiner(&td.disk, JoinOptions());
    for (JoinAlgorithm algo : {JoinAlgorithm::kSSSJ, JoinAlgorithm::kPBSM,
                               JoinAlgorithm::kST, JoinAlgorithm::kPQ}) {
      const bool indexed =
          algo == JoinAlgorithm::kST || algo == JoinAlgorithm::kPQ;
      JoinInput ia = indexed ? JoinInput::FromRTree(&*ta)
                             : JoinInput::FromStream(da);
      JoinInput ib = indexed ? JoinInput::FromRTree(&*tb)
                             : JoinInput::FromStream(db);
      for (uint32_t threads : {1u, 2u, 8u}) {
        CollectingSink sink;
        auto stats = JoinQuery(joiner)
                         .Input(ia)
                         .Input(ib)
                         .WithFeatures(0, &*store_a)
                         .WithFeatures(1, &*store_b)
                         .Predicate(Predicate::kContains)
                         .Algorithm(algo)
                         .Threads(threads)
                         .Refine(true)
                         .MemoryBytes(kRefineChunksBudget)
                         .Run(&sink);
        ASSERT_TRUE(stats.ok()) << ToString(algo) << " t" << threads << ": "
                                << stats.status().ToString();
        EXPECT_EQ(Sorted(sink.pairs()), expected_exact)
            << ToString(algo) << " containment, " << threads << " threads";
        EXPECT_EQ(stats->candidate_count, expected_filter.size())
            << ToString(algo) << " containment, " << threads << " threads";
      }
    }
  }
}

}  // namespace
}  // namespace sj
