// The paper's claims, checked. One run joins the TIGER-like ladder with
// every algorithm on every configured machine and states each claim the
// repo quotes (Tables 2-4, Figures 2-3, §3.1, §3.2, §4, §6.2, §6.3) as a
// row: its section, the statement, the measured value and a verdict.
//
// A *modeled* row reads only counts, pages and modeled io_seconds, which
// are the same on every host and thread count. A *host* row includes
// host CPU time; it is printed and never gates. Every plan is priced by
// the DiskModel delta around the whole plan, so a stream sort counts even
// where an executor's JoinStats leave it out.
//
// kKnownDeviations pins each row that deviates at the default
// configuration, with its measured value and reason. The binary exits 1
// when a modeled row deviates without an entry or holds while it has one.
//
//   paper_repro [--scale=F] [--datasets=NJ,DISK1,...] [--machines=1,2,3]
//
// Defaults: scale 0.02, datasets NJ, DISK1 and DISK1-6, Machines 1-3,
// BenchConfig::ScaledOptions() unless a section says otherwise.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/cost_model.h"
#include "core/join_query.h"
#include "datagen/synthetic.h"
#include "io/stream.h"
#include "join/multiway.h"
#include "join/pq_join.h"
#include "join/sources.h"
#include "join/sssj.h"
#include "sort/external_sort.h"
#include "sweep/interval_structures.h"
#include "sweep/sweep_join.h"
#include "util/logging.h"
#include "util/timer.h"

namespace sj {
namespace bench {
namespace {

enum class Kind { kModeled, kHost };

struct Row {
  std::string id;  // "<claim>@<dataset>": the key of kKnownDeviations.
  const char* section;
  const char* claim;
  std::string measured;
  bool holds;
  Kind kind;
};

struct KnownDeviation {
  const char* id;
  const char* measured;  // At the default configuration.
  const char* reason;
};

// Every row that deviates at the default configuration. Host rows are
// listed for their reasons only; their verdicts follow the host's CPU.
constexpr KnownDeviation kKnownDeviations[] = {
    {"table3.pq_under_1pct@NJ", "62.1 % (0.110 of 0.177 MB)",
     "PQ's structures grow sublinearly in the data (0.110, 0.311 and "
     "0.595 MB for 0.18, 2.7 and 13.9 MB), so their share at scale 0.02 "
     "says little about the paper's scale-1.0 figure"},
    {"table3.pq_under_1pct@DISK1", "11.3 % (0.311 of 2.744 MB)",
     "as on NJ; the share falls as the data grows"},
    {"table3.pq_under_1pct@DISK1-6", "4.3 % (0.595 of 13.924 MB)",
     "as on NJ; the share falls as the data grows"},
    {"table3.pq_under_quarter@NJ", "62.1 % (0.110 of 0.177 MB)",
     "the bound held on the 58,400 objects end_to_end_test joined; NJ at "
     "0.02 has 9,305, and PQ's structures grow sublinearly"},
    {"table4.st_band@DISK1-6", "1.81x (3403 of 1885 pages)",
     "cause not established; ST's buffer pool scales with the data (56 "
     "pages, 3 % of the 1,885 index pages)"},
    {"fig2.observed@DISK1",
     "M1 PQ 2.02 ST 2.39 s; M2 PQ 3.92 ST 4.15 s; M3 PQ 1.73 ST 1.99 s",
     "ST's observed I/O per page is below PQ's (3.8 against 4.5 ms on "
     "Machine 3), but not by the 1.36x of the lower bound that ST "
     "requests (Table 4)"},
    {"fig2.observed@DISK1-6",
     "M1 PQ 10.90 ST 15.97 s; M2 PQ 19.66 ST 27.69 s; M3 PQ 9.39 ST "
     "13.39 s",
     "ST's observed I/O per page is below PQ's (3.9 against 5.0 ms on "
     "Machine 3), but not by the 1.81x of the lower bound that ST "
     "requests (Table 4)"},
    {"s3_2.tiles@DISK1", "overflowed 32x32: 3 of 14, 128x128: 1 of 14",
     "cause not established; the largest 128x128 tile holds 6,119 "
     "records (47 % of the budget), nearly the largest 32x32 tile's "
     "6,927, so finer tiles barely split the densest cluster"},
    {"s3_2.tiles@DISK1-6", "overflowed 32x32: 1 of 16, 128x128: 1 of 16",
     "cause not established; the largest 128x128 tile holds 14,180 "
     "records (23 % of the budget)"},
    {"s6_2.insert_tree@NJ",
     "nodes 41 vs 28; ST pages 40 vs 28; sequential reads 75 % vs 68 %",
     "cause not established; both NJ trees fit ST's buffer pool, so ST "
     "reads each node about once either way"},
    {"s6_3.crossover@DISK1",
     "SSSJ first cheaper between leaf fraction 0.89 and 1.00; f* = 0.56",
     "f* prices every index page as a random read; at full overlap the "
     "DiskModel charges 163 of PQ's 321 reads as sequential (1.82 s, "
     "where the cost model says 2.80 s for the index alone) and SSSJ "
     "1.81 s, where the cost model says 1.45 s"},
    {"s3_1.striped@NJ", "0.38-0.53x", "host row; see s3_1.striped@DISK1"},
    {"s3_1.striped@DISK1", "1.02-1.28x",
     "host row; Forward-Sweep classifies and expires its active set in "
     "16-lane blocks the compiler vectorizes, which cut its DISK1-6@0.02 "
     "time from 199 to 133 ms of CPU; the 2-5x figure predates them"},
    {"s3_1.striped@DISK1-6", "2.21-2.38x",
     "host row; see s3_1.striped@DISK1. It reads near 2x, so its verdict "
     "follows the host"},
    {"fig3.sssj_fastest", "SSSJ wins 0-1 of 9",
     "host row; cause not established. ScaledOptions() floors the budget "
     "at 4 MiB, 8.3x the paper's scaled 24 MB at 0.02, so the "
     "data-to-memory ratio is more generous than the paper's"},
    {"fig3.st_beats_pbsm", "DISK1-6: ST 29.7-33.6 s, PBSM 29.3-36.8 s",
     "host row; PBSM's Forward-Sweep partitions run on the blocked "
     "kernels, so on DISK1-6 PBSM beats ST in some runs"},
};

const KnownDeviation* FindDeviation(const std::string& id) {
  for (const KnownDeviation& d : kKnownDeviations) {
    if (id == d.id) return &d;
  }
  return nullptr;
}

std::string Format(const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

unsigned long long U(uint64_t v) { return static_cast<unsigned long long>(v); }

bool DiskScale(const std::string& dataset) {
  return dataset.rfind("DISK", 0) == 0;
}

uint64_t StreamPages(const DatasetRef& ref) {
  constexpr uint64_t kPer = StreamWriter<RectF>::kRecordsPerPage;
  return (ref.range.count + kPer - 1) / kPer;
}

/// Runs a two-input query on the calling thread and returns its JoinStats
/// priced as a whole plan: `disk` becomes the DiskModel delta around Run,
/// which covers the stream sorts and leaf extraction some executors leave
/// out of their JoinStats, and host CPU is the thread's CPU around Run.
/// Counts and structure sizes stay the executor's. A partitioned plan's
/// units charge private shards that its join folds into `disk`, so the
/// delta covers them.
JoinStats Price(DiskModel* disk, const JoinOptions& options,
                const JoinInput& a, const JoinInput& b, JoinAlgorithm algo) {
  SpatialJoiner joiner(disk, options);
  CountingSink sink;
  const DiskStats before = disk->stats();
  const ThreadCpuTimer cpu;
  auto stats =
      JoinQuery(joiner).Input(a).Input(b).Algorithm(algo).Run(&sink);
  SJ_CHECK(stats.ok()) << ToString(algo) << ": " << stats.status().ToString();
  stats->host_cpu_seconds = cpu.Elapsed();
  stats->disk = disk->stats() - before;
  return *stats;
}

double SequentialShare(const DiskStats& io) {
  return io.read_requests > 0
             ? static_cast<double>(io.sequential_read_requests) /
                   static_cast<double>(io.read_requests)
             : 0.0;
}

double IoPerPage(const JoinStats& s) {
  const uint64_t pages = s.disk.pages_read + s.disk.pages_written;
  return pages > 0 ? s.disk.io_seconds / static_cast<double>(pages) : 0.0;
}

// ---------------------------------------------------------------------------
// The ladder: Figure 3's four joins per dataset and machine, which Tables
// 2-4 and Figure 2 read too, plus the §3.1 fused SSSJ and the §3.2 fixed
// grids on the first machine.
// ---------------------------------------------------------------------------

struct MachineRuns {
  int index;
  MachineModel machine;
  JoinStats sssj, pbsm, pq, st;
};

struct DatasetRuns {
  std::string name;
  const LoadedDataset* data = nullptr;
  uint64_t lower_bound = 0;  // Both trees' nodes.
  uint64_t input_pages = 0;  // Both streams' pages.
  double data_mb = 0;
  std::vector<MachineRuns> machines;
  JoinStats fused, grid32, grid128;
};

std::vector<DatasetRuns> RunLadder(const BenchConfig& config) {
  const JoinOptions options = config.ScaledOptions();
  std::vector<DatasetRuns> ladder;
  for (const std::string& name : config.datasets) {
    DatasetRuns d;
    d.name = name;
    d.data = &GetDataset(name, config.scale);
    const size_t data_bytes =
        (d.data->roads.size() + d.data->hydro.size()) * sizeof(RectF);
    d.data_mb = data_bytes / 1048576.0;
    for (int m : config.machines) {
      Workload w = MakeWorkload(*d.data, MachineByIndex(m),
                                /*build_trees=*/true);
      DiskModel* disk = w.disk.get();
      MachineRuns r{m, w.disk->machine(), {}, {}, {}, {}};
      r.sssj = Price(disk, options, w.RoadsInput(false), w.HydroInput(false),
                     JoinAlgorithm::kSSSJ);
      r.pbsm = Price(disk, options, w.RoadsInput(false), w.HydroInput(false),
                     JoinAlgorithm::kPBSM);
      r.pq = Price(disk, options, w.RoadsInput(true), w.HydroInput(true),
                   JoinAlgorithm::kPQ);
      r.st = Price(disk, options, w.RoadsInput(true), w.HydroInput(true),
                   JoinAlgorithm::kST);
      d.machines.push_back(r);
      if (d.machines.size() > 1) continue;

      d.lower_bound = w.roads_tree->node_count() + w.hydro_tree->node_count();
      d.input_pages = StreamPages(w.roads) + StreamPages(w.hydro);
      JoinOptions fused = options;
      fused.fuse_merge_sweep = true;
      d.fused = Price(disk, fused, w.RoadsInput(false), w.HydroInput(false),
                      JoinAlgorithm::kSSSJ);
      // §3.2 is about the fixed grid, in a budget small enough to
      // partition at bench scales.
      JoinOptions grid;
      grid.adaptive_partitioning = false;
      grid.memory_bytes = std::max<size_t>(256u << 10, data_bytes / 12);
      grid.pbsm_tiles_per_axis = 32;
      d.grid32 = Price(disk, grid, w.RoadsInput(false), w.HydroInput(false),
                       JoinAlgorithm::kPBSM);
      grid.pbsm_tiles_per_axis = 128;
      d.grid128 = Price(disk, grid, w.RoadsInput(false), w.HydroInput(false),
                        JoinAlgorithm::kPBSM);
    }
    ladder.push_back(std::move(d));
  }
  return ladder;
}

void TableRows(const std::vector<DatasetRuns>& ladder, std::vector<Row>* rows) {
  for (const DatasetRuns& d : ladder) {
    const std::string at = "@" + d.name;
    const TigerSpec paper = PaperDataset(d.name, 1.0);
    rows->push_back(
        {"table2.counts" + at, "Table 2",
         "object counts are the paper's, scaled",
         Format("roads/hydro %zu/%zu; paper %llu/%llu", d.data->roads.size(),
                d.data->hydro.size(), U(paper.road_count),
                U(paper.hydro_count)),
         d.data->roads.size() == d.data->spec.road_count &&
             d.data->hydro.size() == d.data->spec.hydro_count,
         Kind::kModeled});

    // Structure sizes, index pages and pool behaviour are the same on
    // every machine: read the first.
    const JoinStats& pq = d.machines.front().pq;
    const JoinStats& st = d.machines.front().st;
    const double pq_mb = (pq.max_queue_bytes + pq.max_sweep_bytes) / 1048576.0;
    const double share = pq_mb / d.data_mb;
    const std::string share_text = Format("%.1f %% (%.3f of %.3f MB)",
                                          100 * share, pq_mb, d.data_mb);
    rows->push_back({"table3.pq_under_1pct" + at, "Table 3",
                     "PQ's queues and sweep structures use under 1 % of the "
                     "data",
                     share_text, share < 0.01, Kind::kModeled});
    rows->push_back({"table3.pq_under_quarter" + at, "Table 3",
                     "PQ's structures stay under a quarter of the data "
                     "(end_to_end_test)",
                     share_text, pq.max_queue_bytes > 0 && share < 0.25,
                     Kind::kModeled});

    const double st_ratio = static_cast<double>(st.index_pages_read) /
                            static_cast<double>(d.lower_bound);
    const std::string st_text = Format("%.2fx (%llu of %llu pages)", st_ratio,
                                       U(st.index_pages_read),
                                       U(d.lower_bound));
    rows->push_back({"table4.pq_lower_bound" + at, "Table 4",
                     "PQ requests exactly the lower bound: each node of "
                     "both trees once",
                     Format("%llu of %llu pages", U(pq.index_pages_read),
                            U(d.lower_bound)),
                     pq.index_pages_read == d.lower_bound, Kind::kModeled});
    rows->push_back({"table4.st_at_least" + at, "Table 4",
                     "ST requests at least the lower bound", st_text,
                     st.index_pages_read >= d.lower_bound, Kind::kModeled});
    if (DiskScale(d.name)) {
      rows->push_back({"table4.st_band" + at, "Table 4",
                       "ST requests 1.14-1.63x the lower bound on "
                       "disk-scale sets",
                       st_text, st_ratio >= 1.14 && st_ratio <= 1.63,
                       Kind::kModeled});
    }
  }
}

void FigureRows(const std::vector<DatasetRuns>& ladder,
                std::vector<Row>* rows) {
  int configurations = 0, sssj_wins = 0;
  std::string winners, st_vs_pbsm;
  bool st_beats_pbsm = true, machine1 = false;
  for (const DatasetRuns& d : ladder) {
    const std::string at = "@" + d.name;
    const JoinStats& pq0 = d.machines.front().pq;
    const JoinStats& st0 = d.machines.front().st;
    // Estimated I/O prices every page read as one random read, so on any
    // machine it orders the plans by pages read.
    rows->push_back({"fig2.estimated" + at, "Fig. 2(a-c)",
                     "estimated I/O: PQ <= ST (end_to_end_test too)",
                     Format("pages read PQ %llu, ST %llu",
                            U(pq0.disk.pages_read), U(st0.disk.pages_read)),
                     pq0.disk.pages_read <= st0.disk.pages_read,
                     Kind::kModeled});

    std::string observed, ratio, per_page;
    bool st_below = true, ratio_holds = true;
    bool per_page_holds = d.machines.front().sssj.disk.pages_read >
                          pq0.disk.pages_read;
    for (const MachineRuns& r : d.machines) {
      const std::string m = Format("M%d", r.index);
      observed += Format("%s%s PQ %.2f ST %.2f s", observed.empty() ? "" : "; ",
                         m.c_str(), r.pq.disk.io_seconds,
                         r.st.disk.io_seconds);
      st_below = st_below && r.st.disk.io_seconds < r.pq.disk.io_seconds;
      const double st_gain =
          r.st.EstimatedIoSeconds(r.machine) / r.st.ObservedIoSeconds();
      const double pq_gain =
          r.pq.EstimatedIoSeconds(r.machine) / r.pq.ObservedIoSeconds();
      ratio += Format("%s%s ST %.2f PQ %.2f", ratio.empty() ? "" : "; ",
                      m.c_str(), st_gain, pq_gain);
      ratio_holds = ratio_holds && st_gain > pq_gain;
      per_page += Format("%s%s %.2f vs %.2f ms",
                         per_page.empty() ? "" : "; ", m.c_str(),
                         1e3 * IoPerPage(r.sssj), 1e3 * IoPerPage(r.pq));
      per_page_holds = per_page_holds && IoPerPage(r.sssj) < IoPerPage(r.pq);

      const std::pair<const char*, const JoinStats*> plans[] = {
          {"SSSJ", &r.sssj}, {"PBSM", &r.pbsm}, {"PQ", &r.pq}, {"ST", &r.st}};
      const auto* best = &plans[0];
      for (const auto& p : plans) {
        if (p.second->ObservedSeconds(r.machine) <
            best->second->ObservedSeconds(r.machine)) {
          best = &p;
        }
      }
      ++configurations;
      sssj_wins += best == &plans[0];
      winners += Format("%s%s/%s %s", winners.empty() ? "" : ", ",
                        d.name.c_str(), m.c_str(), best->first);
      if (r.index == 1) {
        machine1 = true;
        const double st_s = r.st.ObservedSeconds(r.machine);
        const double pbsm_s = r.pbsm.ObservedSeconds(r.machine);
        st_vs_pbsm += Format("%s%s %.2f vs %.2f s",
                             st_vs_pbsm.empty() ? "" : "; ", d.name.c_str(),
                             st_s, pbsm_s);
        st_beats_pbsm = st_beats_pbsm && st_s < pbsm_s;
      }
    }
    if (DiskScale(d.name)) {
      rows->push_back({"fig2.observed" + at, "Fig. 2(d-f)",
                       "observed I/O: ST below PQ on large (disk-scale) sets",
                       observed, st_below, Kind::kModeled});
    }
    rows->push_back({"fig2.ratio" + at, "Fig. 2",
                     "ST's estimated-to-observed I/O ratio beats PQ's "
                     "(end_to_end_test)",
                     ratio, ratio_holds, Kind::kModeled});
    rows->push_back(
        {"fig3.per_page" + at, "Fig. 3",
         "SSSJ reads more pages than PQ but pays less per page "
         "(end_to_end_test)",
         Format("pages read %llu vs %llu; per page ",
                U(d.machines.front().sssj.disk.pages_read),
                U(pq0.disk.pages_read)) +
             per_page,
         per_page_holds, Kind::kModeled});
  }
  rows->push_back({"fig3.sssj_fastest", "Fig. 3",
                   "SSSJ is fastest in all but one configuration",
                   Format("SSSJ wins %d of %d (", sssj_wins, configurations) +
                       winners + ")",
                   sssj_wins + 1 >= configurations, Kind::kHost});
  if (machine1) {
    rows->push_back({"fig3.st_beats_pbsm", "Fig. 3",
                     "ST beats PBSM on Machine 1", "ST vs PBSM " + st_vs_pbsm,
                     st_beats_pbsm, Kind::kHost});
  }
}

// ---------------------------------------------------------------------------
// §3: fusion, Striped- against Forward-Sweep, and PBSM's tile grid.
// ---------------------------------------------------------------------------

void FusionAndGridRows(const std::vector<DatasetRuns>& ladder,
                       std::vector<Row>* rows) {
  for (const DatasetRuns& d : ladder) {
    const JoinStats& plain = d.machines.front().sssj;
    const uint64_t saved_reads =
        plain.disk.pages_read - d.fused.disk.pages_read;
    const uint64_t saved_writes =
        plain.disk.pages_written - d.fused.disk.pages_written;
    rows->push_back(
        {"s3_1.fusion@" + d.name, "§3.1",
         "fusing the final merge into the sweep removes one read and one "
         "write pass per input",
         Format("reads %llu -> %llu, writes %llu -> %llu; inputs %llu pages",
                U(plain.disk.pages_read), U(d.fused.disk.pages_read),
                U(plain.disk.pages_written), U(d.fused.disk.pages_written),
                U(d.input_pages)),
         saved_reads == d.input_pages && saved_writes == d.input_pages &&
             plain.output_count == d.fused.output_count,
         Kind::kModeled});
    rows->push_back({"s3_2.tiles@" + d.name, "§3.2",
                     "128x128 tiles leave none of 32x32's overfull "
                     "partitions (fixed grid)",
                     Format("overflowed 32x32: %u of %u, 128x128: %u of %u",
                            d.grid32.partitions_overflowed,
                            d.grid32.partitions_total,
                            d.grid128.partitions_overflowed,
                            d.grid128.partitions_total),
                     d.grid128.partitions_overflowed == 0, Kind::kModeled});
  }
}

/// Best-of-3 host milliseconds of one sweep over y-sorted inputs.
template <typename Structure>
double SweepMs(const std::vector<RectF>& a, const std::vector<RectF>& b,
               const RectF& region, uint32_t strips, uint64_t* pairs) {
  double best = 1e100;
  for (int rep = 0; rep < 3; ++rep) {
    SortedRectsSource sa(a.data(), a.size()), sb(b.data(), b.size());
    Structure active_a(region, strips), active_b(region, strips);
    const auto t0 = std::chrono::steady_clock::now();
    *pairs = SweepJoinRun(sa, sb, active_a, active_b,
                          [](const RectF&, const RectF&) {}, [] {})
                 .output_count;
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(
        best, std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  return best;
}

void SweepStructureRows(const BenchConfig& config, std::vector<Row>* rows) {
  for (const std::string& name : config.datasets) {
    const LoadedDataset& data = GetDataset(name, config.scale);
    std::vector<RectF> roads = data.roads, hydro = data.hydro;
    std::sort(roads.begin(), roads.end(), OrderByYLo());
    std::sort(hydro.begin(), hydro.end(), OrderByYLo());
    RectF region = RectF::Empty();
    for (const RectF& r : roads) region.ExtendTo(r);
    for (const RectF& r : hydro) region.ExtendTo(r);
    // The strips SSSJ's sweep takes for these records.
    const uint32_t strips = SweepStrips(roads.size() + hydro.size(),
                                        JoinOptions().striped_strips);
    uint64_t forward_pairs = 0, striped_pairs = 0;
    const double forward =
        SweepMs<ForwardSweep>(roads, hydro, region, 0, &forward_pairs);
    const double striped =
        SweepMs<StripedSweep>(roads, hydro, region, strips, &striped_pairs);
    SJ_CHECK(forward_pairs == striped_pairs) << name << ": sweeps disagree";
    const double speedup = forward / striped;
    rows->push_back({"s3_1.striped@" + name, "§3.1",
                     "Striped-Sweep (SSSJ's strips) is 2-5x faster than "
                     "Forward-Sweep",
                     Format("%.2fx (%.2f vs %.2f ms, %u strips)", speedup,
                            forward, striped, strips),
                     speedup >= 2 && speedup <= 5, Kind::kHost});
  }
}

// ---------------------------------------------------------------------------
// §4, §6.2 and §6.3: one dataset each (DISK1 when configured).
// ---------------------------------------------------------------------------

const std::string& SectionDataset(const BenchConfig& config) {
  for (const std::string& name : config.datasets) {
    if (name == "DISK1") return name;
  }
  return config.datasets.front();
}

/// §4: a 3-way Roads x Hydro x Landuse join as one chain of lazy sweeps,
/// against the two-phase plan that materializes Roads x Hydro first.
void MultiwayRows(const BenchConfig& config, std::vector<Row>* rows) {
  const std::string& name = SectionDataset(config);
  const LoadedDataset& data = GetDataset(name, config.scale);
  const auto landuse =
      ClusteredRects(std::max<uint64_t>(1, data.hydro.size() / 2),
                     TigerGenerator::DefaultRegion(), 400, 0.4f, 0.05f,
                     data.spec.seed + 77);
  Workload w = MakeWorkload(data, MachineModel::Machine3(),
                            /*build_trees=*/true);
  auto landuse_pager = MakeMemoryPager(w.disk.get(), "landuse");
  DatasetRef landuse_ref = WriteRelation(landuse_pager.get(), landuse);
  landuse_ref.extent = TigerGenerator::DefaultRegion();

  SpatialJoiner joiner(w.disk.get(), JoinOptions());
  CountingTupleSink chained_sink;
  auto chained = JoinQuery(joiner)
                     .Input(w.RoadsInput(true))
                     .Input(w.HydroInput(true))
                     .Input(JoinInput::FromStream(landuse_ref))
                     .Run(&chained_sink);
  SJ_CHECK(chained.ok()) << chained.status().ToString();

  // Two-phase: PQ join materializing the intersection rectangles, then
  // sort them and sweep against Landuse.
  auto inter_pager = MakeMemoryPager(w.disk.get(), "intermediate");
  StreamWriter<RectF> inter_writer(inter_pager.get());
  RTreePQSource ra(&*w.roads_tree), rb(&*w.hydro_tree);
  auto pair_source = MakePairSource(&ra, &rb, SweepStructureKind::kStriped,
                                    w.roads.extent, 1024);
  uint64_t intermediate = 0;
  while (auto r = pair_source->Next()) {
    RectF rect = *r;
    rect.id = static_cast<ObjectId>(intermediate++);
    inter_writer.Append(rect);
  }
  auto inter_n = inter_writer.Finish();
  SJ_CHECK(inter_n.ok());
  const StreamRange inter{inter_pager.get(), inter_writer.first_page(),
                          inter_n.value()};
  auto scratch = MakeMemoryPager(w.disk.get(), "mw.scratch");
  auto sorted_pager = MakeMemoryPager(w.disk.get(), "mw.sorted");
  auto sorted_inter = SortRectsByYLo(inter, scratch.get(), sorted_pager.get(),
                                     12u << 20);
  auto sorted_land = SortRectsByYLo(landuse_ref.range, scratch.get(),
                                    sorted_pager.get(), 12u << 20);
  SJ_CHECK(sorted_inter.ok() && sorted_land.ok());
  SortedStreamSource si(*sorted_inter), sl(*sorted_land);
  CountingSink two_phase;
  SJ_CHECK(PQJoinSources(&si, &sl, w.roads.extent, w.disk.get(), JoinOptions(),
                         &two_phase)
               .ok());

  rows->push_back({"s4.kway@" + name, "§4",
                   "the k-way chain finds the two-phase plan's tuples",
                   Format("%llu chained vs %llu two-phase triples",
                          U(chained->output_count), U(two_phase.count())),
                   chained->output_count == two_phase.count() &&
                       two_phase.count() > 0,
                   Kind::kModeled});
}

/// §6.2: trees built by Guttman insertion against the paper's Hilbert
/// bulk load, each joined with ST on Machine 3 at the default options,
/// whose buffer pool holds either index.
void IndexQualityRows(const BenchConfig& config, std::vector<Row>* rows) {
  for (const std::string& name : config.datasets) {
    // Insertion writes O(n) pages with quadratic splits: skip the sets
    // larger than DISK1.
    if (name != "NJ" && name != "NY" && name != "DISK1") continue;
    const LoadedDataset& data = GetDataset(name, config.scale);
    Workload w = MakeWorkload(data, MachineModel::Machine3(),
                              /*build_trees=*/true);
    auto roads_pager = MakeMemoryPager(w.disk.get(), "roads.insert");
    auto hydro_pager = MakeMemoryPager(w.disk.get(), "hydro.insert");
    auto build = [](Pager* pager, const std::vector<RectF>& rects) {
      auto tree = RTree::CreateEmpty(pager, RTreeParams());
      SJ_CHECK(tree.ok());
      for (const RectF& r : rects) SJ_CHECK_OK(tree->Insert(r));
      return std::move(tree).value();
    };
    const RTree roads = build(roads_pager.get(), data.roads);
    const RTree hydro = build(hydro_pager.get(), data.hydro);

    const JoinStats bulk =
        Price(w.disk.get(), JoinOptions(), w.RoadsInput(true),
              w.HydroInput(true), JoinAlgorithm::kST);
    const JoinStats insert =
        Price(w.disk.get(), JoinOptions(), JoinInput::FromRTree(&roads),
              JoinInput::FromRTree(&hydro), JoinAlgorithm::kST);
    const uint64_t bulk_nodes =
        w.roads_tree->node_count() + w.hydro_tree->node_count();
    const uint64_t insert_nodes = roads.node_count() + hydro.node_count();
    const double bulk_seq = SequentialShare(bulk.disk);
    const double insert_seq = SequentialShare(insert.disk);
    rows->push_back(
        {"s6_2.insert_tree@" + name, "§6.2",
         "insert-built trees are larger than bulk-loaded ones and cut ST's "
         "sequential share",
         Format("nodes %llu vs %llu; ST pages %llu vs %llu; sequential reads "
                "%.0f %% vs %.0f %%",
                U(insert_nodes), U(bulk_nodes), U(insert.index_pages_read),
                U(bulk.index_pages_read), 100 * insert_seq, 100 * bulk_seq),
         insert_nodes > bulk_nodes && insert_seq < bulk_seq,
         Kind::kModeled});
  }
}

/// §6.3: the whole Roads index against Hydro restricted to windows of
/// growing area. PQ traverses the index pruned to the window and sorts
/// the local Hydro stream; SSSJ ignores the index and sorts the Roads
/// stream. Both run as forced JoinQuery plans at the default options.
void CrossoverRows(const BenchConfig& config, std::vector<Row>* rows) {
  const std::string& name = SectionDataset(config);
  const int m = std::find(config.machines.begin(), config.machines.end(), 1) !=
                        config.machines.end()
                    ? 1
                    : config.machines.front();
  const MachineModel machine = MachineByIndex(m);
  const double f_star = CostModel(machine).IndexBreakEvenFraction();
  const LoadedDataset& data = GetDataset(name, config.scale);
  Workload w = MakeWorkload(data, machine, /*build_trees=*/true);

  struct Window {
    double leaf_fraction, pq_s, sssj_s;
  };
  std::vector<Window> windows;
  for (double area : {0.02, 0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0}) {
    const RectF extent = w.roads.extent;
    const float side = static_cast<float>(std::sqrt(area));
    const RectF window(extent.xlo, extent.ylo,
                       extent.xlo + side * (extent.xhi - extent.xlo),
                       extent.ylo + side * (extent.yhi - extent.ylo));
    std::vector<RectF> local;
    for (const RectF& r : data.hydro) {
      if (r.Intersects(window)) local.push_back(r);
    }
    auto local_pager = MakeMemoryPager(w.disk.get(), "hydro.local");
    const JoinInput hydro =
        JoinInput::FromStream(WriteRelation(local_pager.get(), local));
    const JoinStats pq = Price(w.disk.get(), JoinOptions(), w.RoadsInput(true),
                               hydro, JoinAlgorithm::kPQ);
    const JoinStats sssj = Price(w.disk.get(), JoinOptions(),
                                 w.RoadsInput(false), hydro,
                                 JoinAlgorithm::kSSSJ);
    windows.push_back({static_cast<double>(pq.index_pages_read) /
                           static_cast<double>(w.roads_tree->node_count()),
                       pq.disk.io_seconds, sssj.disk.io_seconds});
  }

  const Window& small = windows.front();
  const Window& full = windows.back();
  rows->push_back(
      {"s6_3.ends@" + name, "§6.3",
       "modeled I/O: SSSJ wins at full overlap, PQ at the smallest window",
       Format("%s; leaf fraction %.2f: SSSJ %.3f vs PQ %.3f s; %.2f: PQ "
              "%.3f vs SSSJ %.3f s",
              machine.name.c_str(), full.leaf_fraction, full.sssj_s, full.pq_s,
              small.leaf_fraction, small.pq_s, small.sssj_s),
       full.sssj_s < full.pq_s && small.pq_s < small.sssj_s,
       Kind::kModeled});

  // The crossover: the first window where SSSJ is cheaper, bracketed by
  // the window before it. "Near" f* means within 0.1 of the bracket.
  size_t cross = 0;
  while (cross < windows.size() &&
         windows[cross].pq_s <= windows[cross].sssj_s) {
    ++cross;
  }
  std::string measured;
  bool near = false;
  if (cross == windows.size()) {
    measured = Format("PQ cheaper at every window; f* = %.2f", f_star);
  } else {
    const double lo = cross > 0 ? windows[cross - 1].leaf_fraction : 0.0;
    const double hi = windows[cross].leaf_fraction;
    measured = Format(
        "SSSJ first cheaper between leaf fraction %.2f and %.2f; f* = %.2f",
        lo, hi, f_star);
    near = lo - 0.1 <= f_star && f_star <= hi + 0.1;
  }
  rows->push_back({"s6_3.crossover@" + name, "§6.3",
                   "the crossover sits near the cost model's break-even "
                   "fraction f*",
                   measured, near, Kind::kModeled});
}

// ---------------------------------------------------------------------------
// Report and gate.
// ---------------------------------------------------------------------------

int Report(const BenchConfig& config, const std::vector<Row>& rows) {
  std::printf("== The paper's claims, checked (scale %.4g) ==\n", config.scale);
  int holds = 0, pinned = 0, host = 0;
  std::vector<std::string> mismatches;
  for (const Row& row : rows) {
    const KnownDeviation* known = FindDeviation(row.id);
    const bool modeled = row.kind == Kind::kModeled;
    std::printf("\n[%s] %-7s %-11s %s\n  %s\n  measured: %s\n",
                row.holds ? "holds   " : "deviates",
                modeled ? "modeled" : "host", row.section, row.id.c_str(),
                row.claim, row.measured.c_str());
    if (known != nullptr) {
      std::printf("  known deviation (pinned %s): %s\n", known->measured,
                  known->reason);
    }
    if (!modeled) {
      ++host;
    } else if (row.holds != (known == nullptr)) {
      mismatches.push_back(row.id + (row.holds ? " holds but has a known "
                                                 "deviation"
                                               : " deviates without a known "
                                                 "deviation"));
    } else {
      ++(row.holds ? holds : pinned);
    }
  }
  std::printf(
      "\n%zu rows: %d modeled hold, %d modeled deviate as pinned, %d host "
      "(not gated)\n",
      rows.size(), holds, pinned, host);
  for (const std::string& m : mismatches) {
    std::printf("GATE: %s\n", m.c_str());
  }
  return mismatches.empty() ? 0 : 1;
}

int Run(const BenchConfig& config) {
  std::vector<Row> rows;
  const std::vector<DatasetRuns> ladder = RunLadder(config);
  TableRows(ladder, &rows);
  FigureRows(ladder, &rows);
  FusionAndGridRows(ladder, &rows);
  SweepStructureRows(config, &rows);
  MultiwayRows(config, &rows);
  IndexQualityRows(config, &rows);
  CrossoverRows(config, &rows);
  return Report(config, rows);
}

}  // namespace
}  // namespace bench
}  // namespace sj

int main(int argc, char** argv) {
  sj::bench::BenchConfig defaults;
  defaults.scale = 0.02;
  defaults.datasets = {"NJ", "DISK1", "DISK1-6"};
  return sj::bench::Run(sj::bench::BenchConfig::FromArgs(argc, argv, defaults));
}
