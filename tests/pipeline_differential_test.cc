// Randomized differential harness for the operator pipeline: seeded
// random datasets, windows, grids, and query points, with every
// configuration — 1/2/8 threads, tight and default memory budgets, both
// storage backends — cross-checked against brute-force oracles for
// window-scan (over a stream and an R-tree), aggregate-by-cell, and
// top-k, standalone and composed over a spatial join. Count aggregation
// and the top-k total order are arrival-order independent, so every
// configuration must produce the *same* rows, not merely equivalent
// ones. At every budget Explain must plan the operator grants each run
// was given, and outside a window the join's sort, strip-writer and
// refinement grants too. Each test runs fixed seeds;
// SJ_DIFF_SEED and SJ_DIFF_WORKLOADS replace them (see Seeds()), and
// SJ_DIFF_MEMORY=tiny adds the smallest budget to the sweep (Budgets()).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/memory_arbiter.h"
#include "core/pipeline_query.h"
#include "core/spatial_join.h"
#include "datagen/synthetic.h"
#include "io/storage.h"
#include "op/operators.h"
#include "op/rect_resolver.h"
#include "op/row.h"
#include "rtree/rtree.h"
#include "test_util.h"
#include "util/random.h"

namespace sj {
namespace {

using testing_util::BruteForcePairs;
using testing_util::MakeDataset;
using testing_util::TestDisk;

// ---------------------------------------------------------------------------
// Oracles (shared arithmetic with tests/pipeline_test.cc)
// ---------------------------------------------------------------------------

uint32_t CellOf(float v, float lo, float w, uint32_t n) {
  const float rel = (v - lo) / w;
  if (!(rel > 0.0f)) return 0;
  return static_cast<uint32_t>(std::min(rel, static_cast<float>(n - 1)));
}

RectF CellRectOracle(const RectF& extent, uint32_t nx, uint32_t ny,
                     uint32_t ix, uint32_t iy) {
  const float cw = (extent.xhi - extent.xlo) / static_cast<float>(nx);
  const float ch = (extent.yhi - extent.ylo) / static_cast<float>(ny);
  const float xlo = extent.xlo + static_cast<float>(ix) * cw;
  const float ylo = extent.ylo + static_cast<float>(iy) * ch;
  const float xhi =
      ix + 1 == nx ? extent.xhi : extent.xlo + static_cast<float>(ix + 1) * cw;
  const float yhi =
      iy + 1 == ny ? extent.yhi : extent.ylo + static_cast<float>(iy + 1) * ch;
  return RectF(xlo, ylo, xhi, yhi);
}

std::vector<PipeRow> AggregateCountOracle(const std::vector<PipeRow>& rows,
                                          const RectF& extent, uint32_t nx,
                                          uint32_t ny) {
  const float cw = (extent.xhi - extent.xlo) / static_cast<float>(nx);
  const float ch = (extent.yhi - extent.ylo) / static_cast<float>(ny);
  std::map<uint64_t, double> cells;
  for (const PipeRow& row : rows) {
    if (!row.rect.Valid() || !row.rect.Intersects(extent)) continue;
    const uint32_t x0 = CellOf(row.rect.xlo, extent.xlo, cw, nx);
    const uint32_t x1 = CellOf(row.rect.xhi, extent.xlo, cw, nx);
    const uint32_t y0 = CellOf(row.rect.ylo, extent.ylo, ch, ny);
    const uint32_t y1 = CellOf(row.rect.yhi, extent.ylo, ch, ny);
    for (uint32_t iy = y0; iy <= y1; ++iy) {
      for (uint32_t ix = x0; ix <= x1; ++ix) {
        cells[uint64_t{iy} * nx + ix] += 1.0;
      }
    }
  }
  std::vector<PipeRow> out;
  for (const auto& [cell, v] : cells) {
    PipeRow row;
    row.rect = CellRectOracle(extent, nx, ny,
                              static_cast<uint32_t>(cell % nx),
                              static_cast<uint32_t>(cell / nx));
    row.ids.push_back(static_cast<ObjectId>(cell));
    row.value = v;
    out.push_back(std::move(row));
  }
  return out;
}

struct TopKLess {
  float qx, qy;
  bool operator()(const PipeRow& a, const PipeRow& b) const {
    const double da = TopKByDistanceOp::DistanceTo(a.rect, qx, qy);
    const double db = TopKByDistanceOp::DistanceTo(b.rect, qx, qy);
    if (da != db) return da < db;
    if (a.ids != b.ids) return a.ids < b.ids;
    if (a.rect.xlo != b.rect.xlo) return a.rect.xlo < b.rect.xlo;
    if (a.rect.ylo != b.rect.ylo) return a.rect.ylo < b.rect.ylo;
    if (a.rect.xhi != b.rect.xhi) return a.rect.xhi < b.rect.xhi;
    if (a.rect.yhi != b.rect.yhi) return a.rect.yhi < b.rect.yhi;
    return a.value < b.value;
  }
};

std::vector<PipeRow> TopKOracle(std::vector<PipeRow> rows, size_t k, float qx,
                                float qy) {
  std::sort(rows.begin(), rows.end(), TopKLess{qx, qy});
  if (rows.size() > k) rows.resize(k);
  return rows;
}

std::vector<PipeRow> SortedByIds(std::vector<PipeRow> rows) {
  std::sort(rows.begin(), rows.end(),
            [](const PipeRow& a, const PipeRow& b) { return a.ids < b.ids; });
  return rows;
}

// ---------------------------------------------------------------------------
// One randomized trial
// ---------------------------------------------------------------------------

/// Every execution configuration the harness sweeps. A tight budget must
/// change spill behaviour only, never results; threads and backends must
/// change nothing observable but wall time.
struct Config {
  uint32_t threads;
  size_t memory_bytes;
  bool file_backend;

  std::string Name() const {
    return "threads=" + std::to_string(threads) +
           " budget=" + std::to_string(memory_bytes >> 10) + "KiB" +
           (file_backend ? " file" : " memory");
  }
};

/// The budgets the sweep runs at. SJ_DIFF_MEMORY=tiny, as in
/// join_equivalence_test, adds kMinMemoryBytes (64 KiB), the least a
/// query accepts, where every rect map is down to its 2-page floor.
std::vector<size_t> Budgets() {
  std::vector<size_t> budgets = {size_t{256} << 10, size_t{24} << 20};
  const char* mode = std::getenv("SJ_DIFF_MEMORY");
  if (mode != nullptr && std::string(mode) == "tiny") {
    budgets.insert(budgets.begin(), kMinMemoryBytes);
  }
  return budgets;
}

std::vector<Config> Sweep() {
  std::vector<Config> configs;
  for (uint32_t threads : {1u, 2u, 8u}) {
    for (size_t budget : Budgets()) {
      for (bool file_backend : {false, true}) {
        configs.push_back(Config{threads, budget, file_backend});
      }
    }
  }
  return configs;
}

struct Trial {
  TestDisk td;
  std::vector<std::unique_ptr<Pager>> keep;
  std::vector<RectF> a, b;
  DatasetRef da, db;
  /// A Hilbert R-tree over `a`, for window scans through an index.
  std::optional<RTree> tree_a;
  std::optional<SpatialJoiner> joiner;
  RectF window;
  uint32_t nx, ny;
  size_t k;
  float qx, qy;

  explicit Trial(uint64_t seed) {
    Random rng(seed);
    const RectF region(0, 0, 100, 100);
    const uint64_t na = 100 + rng.Uniform(400);
    const uint64_t nb = 100 + rng.Uniform(400);
    a = UniformRects(na, region, 1.0f + static_cast<float>(rng.UniformDouble(0, 3)),
                     seed * 7 + 1);
    b = UniformRects(nb, region, 1.0f + static_cast<float>(rng.UniformDouble(0, 3)),
                     seed * 7 + 2);
    da = MakeDataset(&td, a, "a", &keep);
    db = MakeDataset(&td, b, "b", &keep);
    keep.push_back(td.NewPager("tree.a"));
    Pager* tree_pager = keep.back().get();
    keep.push_back(td.NewPager("tree.scratch"));
    auto tree = RTree::BulkLoadHilbert(tree_pager, da.range, keep.back().get(),
                                       RTreeParams(), 1 << 22);
    SJ_CHECK_OK(tree.status());
    tree_a.emplace(std::move(*tree));
    joiner.emplace(&td.disk, JoinOptions());

    const float wx = static_cast<float>(rng.UniformDouble(0, 60));
    const float wy = static_cast<float>(rng.UniformDouble(0, 60));
    window = RectF(wx, wy, wx + 20 + static_cast<float>(rng.UniformDouble(0, 40)),
                   wy + 20 + static_cast<float>(rng.UniformDouble(0, 40)));
    nx = 4 + static_cast<uint32_t>(rng.Uniform(28));
    ny = 4 + static_cast<uint32_t>(rng.Uniform(28));
    k = 1 + static_cast<size_t>(rng.Uniform(20));
    qx = static_cast<float>(rng.UniformDouble(0, 100));
    qy = static_cast<float>(rng.UniformDouble(0, 100));
  }

  /// Applies one sweep configuration to a query under construction.
  template <typename Query>
  void Apply(Query& q, const Config& cfg,
             const std::shared_ptr<StorageFactory>& file_factory) const {
    q.Threads(cfg.threads).MemoryBytes(cfg.memory_bytes);
    if (cfg.file_backend) q.Storage(file_factory);
  }
};

/// The seeds a test runs: `count` from `first` by default. As in
/// storage_differential_test, SJ_DIFF_WORKLOADS sets the count and
/// SJ_DIFF_SEED the first seed (one seed when it comes alone), so the
/// nightly job runs fresh seeds and a failure replays from its trace.
std::vector<uint64_t> Seeds(uint64_t first, int count) {
  if (const char* n = std::getenv("SJ_DIFF_WORKLOADS")) {
    count = std::max(1, std::atoi(n));
  }
  if (const char* replay = std::getenv("SJ_DIFF_SEED")) {
    first = std::strtoull(replay, nullptr, 0);
    if (std::getenv("SJ_DIFF_WORKLOADS") == nullptr) count = 1;
  }
  std::vector<uint64_t> seeds;
  for (int i = 0; i < count; ++i) seeds.push_back(first + i);
  return seeds;
}

std::string ReplayLine(uint64_t seed) {
  return "replay with SJ_DIFF_SEED=" + std::to_string(seed);
}

/// Explain plans the grants the run was given: op.aggregate and op.topk
/// each equal the run's granted high-water mark (0 on both sides when the
/// pipeline has none), and so do the join's sort.runs, sssj.writers and
/// refine.batch outside a window, where the join's inputs are the ones
/// Explain plans over.
void ExpectExplainPlansRunGrants(PipelineQuery& q, bool windowed,
                                 const PipelineStats& stats) {
  auto plan = q.Explain();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  std::vector<const char*> components = {grants::kOpAggregate,
                                         grants::kOpTopK};
  if (!windowed) {
    components.insert(components.end(), {grants::kSortRuns,
                                         grants::kStripWriters,
                                         grants::kRefineBatch});
  }
  for (const char* component : components) {
    size_t granted = 0;
    for (const MemoryComponentStats& c : stats.memory_components) {
      if (c.component == component) granted = c.granted_high_water;
    }
    EXPECT_EQ(plan->memory.GrantFor(component), granted) << component;
  }
}

std::shared_ptr<StorageFactory> FileFactory() {
  auto factory = TmpFileStorageFactory::Make();
  SJ_CHECK_OK(factory.status());
  return std::shared_ptr<StorageFactory>(std::move(*factory));
}

// ---------------------------------------------------------------------------
// Window scans: every configuration equals the brute-force selection.
// ---------------------------------------------------------------------------

TEST(PipelineDifferential, WindowScanAcrossConfigurations) {
  auto file_factory = FileFactory();
  for (const uint64_t seed : Seeds(1, 3)) {
    Trial t(seed);
    SCOPED_TRACE(ReplayLine(seed));

    std::vector<PipeRow> expected;
    for (const RectF& r : t.a) {
      if (!r.Intersects(t.window)) continue;
      PipeRow row;
      row.rect = r;
      row.rect.id = 0;
      row.ids.push_back(r.id);
      expected.push_back(std::move(row));
    }
    expected = SortedByIds(std::move(expected));

    for (const Config& cfg : Sweep()) {
      for (const bool indexed : {false, true}) {
        SCOPED_TRACE(cfg.Name() + (indexed ? " r-tree" : " stream"));
        CollectingRowSink sink;
        PipelineQuery q(*t.joiner);
        q.Input(indexed ? JoinInput::FromRTree(&*t.tree_a)
                        : JoinInput::FromStream(t.da))
            .Window(t.window);
        t.Apply(q, cfg, file_factory);
        auto stats = q.Run(&sink);
        ASSERT_TRUE(stats.ok()) << stats.status().ToString();
        EXPECT_EQ(SortedByIds(sink.rows()), expected);
        EXPECT_EQ(stats->output_count, expected.size());
        ExpectExplainPlansRunGrants(q, /*windowed=*/true, *stats);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Aggregate-by-cell over a join: identical rows in every configuration.
// ---------------------------------------------------------------------------

TEST(PipelineDifferential, JoinAggregateAcrossConfigurations) {
  auto file_factory = FileFactory();
  for (const uint64_t seed : Seeds(4, 3)) {
    Trial t(seed);
    SCOPED_TRACE(ReplayLine(seed));

    // Oracle: windowed inputs -> brute-force pairs -> contact boxes ->
    // count aggregation (order-independent).
    std::vector<RectF> wa, wb;
    for (const RectF& r : t.a) {
      if (r.Intersects(t.window)) wa.push_back(r);
    }
    for (const RectF& r : t.b) {
      if (r.Intersects(t.window)) wb.push_back(r);
    }
    std::map<ObjectId, RectF> am, bm;
    for (const RectF& r : wa) am[r.id] = r;
    for (const RectF& r : wb) bm[r.id] = r;
    std::vector<PipeRow> join_rows;
    for (const IdPair& p : BruteForcePairs(wa, wb)) {
      PipeRow row;
      row.rect = JoinRowAdapter::ContactBox({am.at(p.a), bm.at(p.b)});
      row.ids = {p.a, p.b};
      join_rows.push_back(std::move(row));
    }
    const std::vector<PipeRow> expected =
        AggregateCountOracle(join_rows, t.window, t.nx, t.ny);

    std::optional<std::vector<PipeRow>> reference;
    for (const Config& cfg : Sweep()) {
      SCOPED_TRACE(cfg.Name());
      CollectingRowSink sink;
      PipelineQuery q(*t.joiner);
      q.Input(JoinInput::FromStream(t.da))
          .Input(JoinInput::FromStream(t.db))
          .Window(t.window)
          .AggregateByCell(AggregateMode::kCount, t.nx, t.ny, t.window);
      t.Apply(q, cfg, file_factory);
      auto stats = q.Run(&sink);
      ASSERT_TRUE(stats.ok()) << stats.status().ToString();

      // Cell order is canonical, so rows match the oracle *exactly* and
      // every configuration produces the same vector.
      EXPECT_EQ(sink.rows(), expected);
      if (!reference.has_value()) {
        reference = sink.rows();
      } else {
        EXPECT_EQ(sink.rows(), *reference);
      }
      ExpectExplainPlansRunGrants(q, /*windowed=*/true, *stats);
      // Default-budget runs stay within their arbiter budget (tight
      // budgets may be floored above the request by design).
      if (cfg.memory_bytes >= (24u << 20)) {
        EXPECT_LE(stats->peak_memory_bytes, cfg.memory_bytes);
      }
      EXPECT_GT(stats->peak_memory_bytes, 0u);
    }
  }
}

// ---------------------------------------------------------------------------
// Rect-map paths: a window scan fills its input's resident table, or, past
// the table's share, spills it to a stream. Resident, spilled and mixed
// inputs produce the same rows in every configuration.
// ---------------------------------------------------------------------------

TEST(PipelineDifferential, RectMapPathsAcrossConfigurations) {
  auto file_factory = FileFactory();
  for (const uint64_t seed : Seeds(11, 2)) {
    Trial t(seed);
    SCOPED_TRACE(ReplayLine(seed));
    // The window covers most of both inputs. Input 0, a stream, outgrows
    // its share at 256 KiB; input 1, a tree, only at 64 KiB.
    const RectF region(0, 0, 100, 100);
    const std::vector<RectF> a = UniformRects(3000, region, 1.5f, seed * 7 + 3);
    const std::vector<RectF> b = UniformRects(600, region, 1.5f, seed * 7 + 4);
    const RectF window(5, 5, 95, 95);
    t.keep.push_back(t.td.NewPager("tree.b"));
    Pager* tree_pager = t.keep.back().get();
    t.keep.push_back(t.td.NewPager("tree.b.scratch"));
    auto tree_b = RTree::BulkLoadHilbert(
        tree_pager, MakeDataset(&t.td, b, "b.sparse", &t.keep).range,
        t.keep.back().get(), RTreeParams(), 1 << 22);
    ASSERT_TRUE(tree_b.ok()) << tree_b.status().ToString();
    const JoinInput inputs[2] = {
        JoinInput::FromStream(MakeDataset(&t.td, a, "a.dense", &t.keep)),
        JoinInput::FromRTree(&*tree_b)};
    const std::vector<RectF>* records[2] = {&a, &b};

    std::vector<RectF> in_window[2];
    std::map<ObjectId, RectF> by_id[2];
    for (int i = 0; i < 2; ++i) {
      for (const RectF& r : *records[i]) {
        if (!r.Intersects(window)) continue;
        in_window[i].push_back(r);
        by_id[i][r.id] = r;
      }
    }
    std::vector<PipeRow> join_rows;
    for (const IdPair& p : BruteForcePairs(in_window[0], in_window[1])) {
      PipeRow row;
      row.rect = JoinRowAdapter::ContactBox({by_id[0].at(p.a), by_id[1].at(p.b)});
      row.ids = {p.a, p.b};
      join_rows.push_back(std::move(row));
    }
    const std::vector<PipeRow> expected =
        AggregateCountOracle(join_rows, window, t.nx, t.ny);

    // Which inputs spilled, per run: {input 0, input 1}.
    std::map<std::pair<bool, bool>, int> paths;
    for (const size_t budget :
         {kMinMemoryBytes, size_t{256} << 10, size_t{24} << 20}) {
      for (const uint32_t threads : {1u, 8u}) {
        for (const bool file_backend : {false, true}) {
          const Config cfg{threads, budget, file_backend};
          SCOPED_TRACE(cfg.Name());
          CollectingRowSink sink;
          PipelineQuery q(*t.joiner);
          q.Input(inputs[0])
              .Input(inputs[1])
              .Window(window)
              .AggregateByCell(AggregateMode::kCount, t.nx, t.ny, window);
          t.Apply(q, cfg, file_factory);
          auto stats = q.Run(&sink);
          ASSERT_TRUE(stats.ok()) << stats.status().ToString();
          EXPECT_EQ(sink.rows(), expected);
          ExpectExplainPlansRunGrants(q, /*windowed=*/true, *stats);

          bool spilled[2];
          for (int i = 0; i < 2; ++i) {
            const OperatorStats& scan = stats->operators[i];
            ASSERT_EQ(scan.name, "WindowScan");
            EXPECT_EQ(scan.rows_out, in_window[i].size());
            // A spilled scan reports the window stream's pages.
            constexpr uint64_t kPerPage = kPageSize / sizeof(RectF);
            spilled[i] = scan.spill_pages > 0;
            if (spilled[i]) {
              EXPECT_EQ(scan.spill_pages,
                        (in_window[i].size() + kPerPage - 1) / kPerPage);
            }
            const bool fits = ResidentTableBytes(in_window[i].size()) <=
                              RectMapGrantBytes(budget, 2);
            EXPECT_EQ(spilled[i], !fits) << "input " << i;
          }
          if (!spilled[0] && !spilled[1]) {
            EXPECT_EQ(stats->disk.pages_written, 0u);
          } else {
            EXPECT_GE(stats->disk.pages_written,
                      stats->operators[0].spill_pages +
                          stats->operators[1].spill_pages);
          }
          paths[{spilled[0], spilled[1]}]++;
        }
      }
    }
    // Every path ran: both resident, input 0 spilled, both spilled.
    EXPECT_GT(paths[std::make_pair(false, false)], 0);
    EXPECT_GT(paths[std::make_pair(true, false)], 0);
    EXPECT_GT(paths[std::make_pair(true, true)], 0);
  }
}

// ---------------------------------------------------------------------------
// Top-k over a join: the total order makes every configuration exact.
// ---------------------------------------------------------------------------

TEST(PipelineDifferential, JoinTopKAcrossConfigurations) {
  auto file_factory = FileFactory();
  for (const uint64_t seed : Seeds(7, 2)) {
    Trial t(seed);
    SCOPED_TRACE(ReplayLine(seed));

    std::map<ObjectId, RectF> am, bm;
    for (const RectF& r : t.a) am[r.id] = r;
    for (const RectF& r : t.b) bm[r.id] = r;
    std::vector<PipeRow> join_rows;
    for (const IdPair& p : BruteForcePairs(t.a, t.b)) {
      PipeRow row;
      row.rect = JoinRowAdapter::ContactBox({am.at(p.a), bm.at(p.b)});
      row.ids = {p.a, p.b};
      join_rows.push_back(std::move(row));
    }
    const std::vector<PipeRow> expected =
        TopKOracle(join_rows, t.k, t.qx, t.qy);

    for (const Config& cfg : Sweep()) {
      SCOPED_TRACE(cfg.Name());
      CollectingRowSink sink;
      PipelineQuery q(*t.joiner);
      q.Input(JoinInput::FromStream(t.da))
          .Input(JoinInput::FromStream(t.db))
          .TopKByDistance(t.k, t.qx, t.qy);
      t.Apply(q, cfg, file_factory);
      auto stats = q.Run(&sink);
      ASSERT_TRUE(stats.ok()) << stats.status().ToString();
      EXPECT_EQ(sink.rows(), expected);
      ExpectExplainPlansRunGrants(q, /*windowed=*/false, *stats);
    }
  }
}

// ---------------------------------------------------------------------------
// The full compose, one seed per configuration axis extreme: window ->
// join -> filter -> aggregate -> top-k.
// ---------------------------------------------------------------------------

TEST(PipelineDifferential, FullComposeAcrossConfigurations) {
  auto file_factory = FileFactory();
  auto pred = [](const PipeRow& r) { return r.rect.Area() < 8.0; };
  for (const uint64_t seed : Seeds(9, 1)) {
    Trial t(seed);
    SCOPED_TRACE(ReplayLine(seed));

    std::vector<RectF> wa, wb;
    for (const RectF& r : t.a) {
      if (r.Intersects(t.window)) wa.push_back(r);
    }
    for (const RectF& r : t.b) {
      if (r.Intersects(t.window)) wb.push_back(r);
    }
    std::map<ObjectId, RectF> am, bm;
    for (const RectF& r : wa) am[r.id] = r;
    for (const RectF& r : wb) bm[r.id] = r;
    std::vector<PipeRow> join_rows;
    for (const IdPair& p : BruteForcePairs(wa, wb)) {
      PipeRow row;
      row.rect = JoinRowAdapter::ContactBox({am.at(p.a), bm.at(p.b)});
      row.ids = {p.a, p.b};
      if (pred(row)) join_rows.push_back(std::move(row));
    }
    const std::vector<PipeRow> expected =
        TopKOracle(AggregateCountOracle(join_rows, t.window, t.nx, t.ny), t.k,
                   t.qx, t.qy);

    for (const Config& cfg : Sweep()) {
      SCOPED_TRACE(cfg.Name());
      CollectingRowSink sink;
      PipelineQuery q(*t.joiner);
      q.Input(JoinInput::FromStream(t.da))
          .Input(JoinInput::FromStream(t.db))
          .Window(t.window)
          .Filter(pred, "small")
          .AggregateByCell(AggregateMode::kCount, t.nx, t.ny, t.window)
          .TopKByDistance(t.k, t.qx, t.qy);
      t.Apply(q, cfg, file_factory);
      auto stats = q.Run(&sink);
      ASSERT_TRUE(stats.ok()) << stats.status().ToString();
      EXPECT_EQ(sink.rows(), expected);
      ExpectExplainPlansRunGrants(q, /*windowed=*/true, *stats);
    }
  }
}

}  // namespace
}  // namespace sj
