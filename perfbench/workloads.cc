// The three benchmark workloads. Each one builds its inputs from the seed,
// computes reference answers by a different path, runs one kind of query
// over a fixed query list, and checks every result. Untraced runs report
// the end-to-end metrics; traced runs replay each query as the sequence
// of public layer calls it is made of and report the per-layer metrics.
#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.h"
#include "core/join_query.h"
#include "core/pipeline_query.h"
#include "core/spatial_join.h"
#include "datagen/tiger_gen.h"
#include "histogram/grid_histogram.h"
#include "io/pager.h"
#include "io/prefetch.h"
#include "io/storage.h"
#include "io/stream.h"
#include "join/pbsm.h"
#include "join/pq_join.h"
#include "join/sources.h"
#include "refine/feature_store.h"
#include "refine/refine.h"
#include "rtree/rtree.h"
#include "service/spatial_service.h"
#include "sort/external_sort.h"
#include "sweep/sweep_join.h"
#include "util/random.h"

namespace perfbench {
namespace {

using namespace sj;  // NOLINT(build/namespaces)

constexpr size_t kMiB = size_t{1} << 20;

// Workload parameters; RECORD.md records why each was chosen.
constexpr double kSpillScale = 0.01;    // DISK1-6 rung: 291k roads, 74k hydro.
constexpr double kIndexedScale = 0.02;  // DISK1-6 rung: 582k roads, 148k hydro.
constexpr size_t kSpillBudget = 2 * kMiB;
constexpr size_t kSpillInstances = 4;
constexpr size_t kQueryBudget = 4 * kMiB;
constexpr uint32_t kQueryThreads = 2;
// indexed_refine runs its ms-scale standalone queries on one thread. With
// two, each query starts private per-call thread pools, and its wall time
// followed the shared host's steal: over ten seeds throughput ranged from
// 166 to 245 queries/s while CPU per query ranged from 5.5 to 6.6 ms.
constexpr uint32_t kIndexedThreads = 1;
constexpr size_t kWindowCount = 256;
constexpr size_t kWindowPool = 32;  // Candidate windows drawn per list entry.
constexpr double kLadderMinCandidates = 200;
constexpr double kLadderMaxCandidates = 30000;
// Roads under a window's hydro extent grow with its candidates as about
// exp(4.59) * C^0.43 (fit over the pools of seeds 1-6, residual sd 0.37
// in log space); the ladder asks for that typical count at each rung.
constexpr double kLadderRoadsLog = 4.59;
constexpr double kLadderRoadsExponent = 0.43;
constexpr float kWindowDegrees = 2.0f;
constexpr uint32_t kHistogramCells = 256;
constexpr int kServiceClients = 3;
constexpr uint32_t kServiceWorkers = 2;
constexpr size_t kServiceBudget = 2 * kQueryBudget;
constexpr uint32_t kAggregateCells = 32;
constexpr size_t kTopK = 8;
constexpr size_t kSetupSortBytes = 16 * kMiB;

MachineModel Machine() { return MachineModel::Machine3(); }

[[noreturn]] void Die(const char* what, const Status& status) {
  std::fprintf(stderr, "perfbench: %s failed: %s\n", what,
               status.ToString().c_str());
  std::exit(1);
}

template <typename T>
T Must(Result<T> result, const char* what) {
  if (!result.ok()) Die(what, result.status());
  return std::move(result).value();
}

uint64_t Scaled(uint64_t n, double scale) {
  return std::max<uint64_t>(1, static_cast<uint64_t>(n * scale + 0.5));
}

RectF ExtentOf(const std::vector<RectF>& rects) {
  RectF extent = RectF::Empty();
  for (const RectF& r : rects) extent.ExtendTo(r);
  return extent;
}

DatasetRef WriteStream(Pager* pager, const std::vector<RectF>& rects) {
  StreamWriter<RectF> writer(pager);
  const PageId first = writer.first_page();
  for (const RectF& r : rects) writer.Append(r);
  DatasetRef ref;
  ref.range = StreamRange{pager, first, Must(writer.Finish(), "stream write")};
  ref.extent = ExtentOf(rects);
  return ref;
}

std::string AlgorithmKey(JoinAlgorithm algorithm) {
  std::string key = ToString(algorithm);
  for (char& c : key) c = static_cast<char>(std::tolower(c));
  return key;
}

/// The planner's estimate for the plan it chose.
double ChosenEstimate(const PlanDecision& d) {
  switch (d.algorithm) {
    case JoinAlgorithm::kPBSM:
      return d.pbsm_cost_seconds;
    case JoinAlgorithm::kST:
    case JoinAlgorithm::kPQ:
      return d.index_cost_seconds;
    default:
      return d.stream_cost_seconds;
  }
}

class DigestSink final : public JoinSink {
 public:
  void Emit(ObjectId a, ObjectId b) override { digest.Add(a, b); }
  PairDigest digest;
};

/// Builds `setups` complete environments, keeping the last; setup_s is
/// the median of their wall times.
template <typename Env, typename Build>
std::unique_ptr<Env> SetUp(const Config& config, SetupTimes* times,
                           Trace* trace, Build&& build) {
  std::unique_ptr<Env> env;
  for (int k = 0; k < std::max(1, config.setups); ++k) {
    env.reset();
    const double t0 = WallNow();
    env = build(config, times, trace);
    times->EndSetup(WallNow() - t0);
  }
  return env;
}

/// Records one checked query outcome.
void Check(Report* report, bool ok, const std::string& why) {
  report->attempted++;
  if (!ok) {
    report->failed++;
    report->Fail(why);
  }
}

/// Per-position modeled I/O of single-client runs: the first timed pass
/// sets each position's value, later passes must repeat it exactly. A
/// query's io_seconds is a delta of the DiskModel's running double, which
/// drifts in its last bits as the total grows, so single-client runs zero
/// the counters (DiskModel::ResetStats keeps the stream state that prices
/// the next request) before every query and replay.
class ModeledIo {
 public:
  explicit ModeledIo(size_t positions) : first_(positions) {}
  void Record(size_t position, double io_seconds) {
    if (!first_[position].has_value()) {
      first_[position] = io_seconds;
    } else if (*first_[position] != io_seconds) {
      unstable_++;
    }
  }
  double Mean() const {
    double sum = 0.0;
    for (const auto& v : first_) sum += v.value_or(0.0);
    return first_.empty() ? 0.0 : sum / static_cast<double>(first_.size());
  }
  uint64_t unstable() const { return unstable_; }

 private:
  std::vector<std::optional<double>> first_;
  uint64_t unstable_ = 0;
};

void AddModeledIo(Report* report, const ModeledIo& io) {
  report->Metric("modeled_io_s_per_query", io.Mean(), "s");
  report->Detail("modeled_io_unstable_queries", std::to_string(io.unstable()));
}

// ---------------------------------------------------------------------------
// Traced replay: a pairwise JoinQuery as the public layer calls its
// executor makes, with a span around each.
// ---------------------------------------------------------------------------

/// A pairwise query's inputs in query order and the histograms attached
/// to them.
struct PairwiseSpec {
  std::vector<JoinInput> inputs;
  std::vector<const GridHistogram*> histograms;
};

/// What one replay produced, for comparison with the query it replays.
struct ReplayResult {
  PairDigest digest;
  /// Comparable to the query's JoinStats::disk: the filter algorithm's
  /// own measurement plus refinement.
  DiskStats disk;
};

/// An R-tree's leaf entries as a stream, as the stream executors flatten
/// an indexed input.
Result<DatasetRef> ExtractLeaves(const RTree& tree, StorageFactory* storage,
                                 DiskModel* disk,
                                 std::vector<std::unique_ptr<Pager>>* pagers) {
  std::vector<RectF> all;
  SJ_RETURN_IF_ERROR(tree.CollectAll(&all));
  SJ_ASSIGN_OR_RETURN(auto pager, MakePager(storage, disk, "extract.leaves"));
  DatasetRef ref = WriteStream(pager.get(), all);
  ref.extent = tree.bounding_box();
  pagers->push_back(std::move(pager));
  return ref;
}

/// Replays `query` (whose inputs `spec` describes) for the algorithm its
/// Explain() chooses, so a plan that flips still replays: SSSJ as an
/// external sort of each input then the plane sweep; PQ as the stream
/// side's sort then PQJoinSources over R-tree traversals and sorted
/// streams; PBSM as its one join call. Indexed inputs of SSSJ/PBSM are
/// flattened first, outside the join's measurement, as the executors do.
/// Refinement follows when the query refines.
Result<ReplayResult> ReplayPairwise(JoinQuery& query, const PairwiseSpec& spec,
                                    DiskModel* disk, Trace* trace,
                                    uint64_t qid, LayerTotals* totals) {
  SpanScope query_span(trace, "query", qid);
  PlanDecision decision;
  {
    SpanScope span(trace, "core.plan", qid, query_span.id());
    SJ_ASSIGN_OR_RETURN(decision, query.Explain());
  }
  totals->plan_estimate_seconds += ChosenEstimate(decision);
  const JoinOptions& options = query.options();
  StorageFactory* storage = options.storage.get();
  const PrefetchContext prefetch = PrefetchContextOf(options);
  const SortConfig sort_config = SortConfigOf(options);
  MemoryArbiter arbiter(options.memory_bytes);
  CollectingSink candidates;
  DigestSink unrefined;
  JoinSink* filter_sink = options.refine ? static_cast<JoinSink*>(&candidates)
                                         : &unrefined;
  std::vector<std::unique_ptr<Pager>> pagers;
  SortStats sort_stats;
  JoinStats filter;
  {
    SpanScope join_span(trace, "join", qid, query_span.id());
    auto sort = [&](const StreamRange& input, const char* runs_name,
                    const char* out_name) -> Result<StreamRange> {
      SpanScope span(trace, "sort", qid, join_span.id());
      SJ_ASSIGN_OR_RETURN(auto runs, MakePager(storage, disk, runs_name));
      SJ_ASSIGN_OR_RETURN(auto out, MakePager(storage, disk, out_name));
      SJ_ASSIGN_OR_RETURN(
          StreamRange sorted,
          SortRectsByYLo(input, runs.get(), out.get(), options.memory_bytes / 2,
                         &arbiter, prefetch, sort_config, &sort_stats));
      totals->sort_records += input.count;
      pagers.push_back(std::move(runs));
      pagers.push_back(std::move(out));
      return sorted;
    };
    switch (decision.algorithm) {
      case JoinAlgorithm::kPQ: {
        std::unique_ptr<SortedRectSource> sources[2];
        RTreePQSource* traversals[2] = {nullptr, nullptr};
        RectF filters[2];
        for (int i = 0; i < 2; ++i) {
          const JoinInput& input = spec.inputs[i];
          if (input.indexed()) {
            // Pruned by the other side's extent and histogram.
            RTreePQSource::Options pq_options;
            filters[i] = spec.inputs[1 - i].extent();
            if (filters[i].Valid()) pq_options.filter = &filters[i];
            pq_options.occupancy = spec.histograms[1 - i];
            auto source =
                std::make_unique<RTreePQSource>(input.rtree(), pq_options);
            traversals[i] = source.get();
            sources[i] = std::move(source);
          } else if (input.kind() == JoinInput::Kind::kSortedStream) {
            sources[i] =
                std::make_unique<SortedStreamSource>(input.stream().range);
          } else {
            SJ_ASSIGN_OR_RETURN(StreamRange sorted,
                                sort(input.stream().range, "join.sort.runs",
                                     "join.sort.out"));
            sources[i] = std::make_unique<SortedStreamSource>(sorted);
          }
        }
        RectF extent = spec.inputs[0].extent();
        extent.ExtendTo(spec.inputs[1].extent());
        SJ_ASSIGN_OR_RETURN(
            filter, PQJoinSources(sources[0].get(), sources[1].get(), extent,
                                  disk, options, filter_sink, &arbiter));
        for (const RTreePQSource* t : traversals) {
          if (t != nullptr) totals->rtree_pages += t->pages_read();
        }
        break;
      }
      case JoinAlgorithm::kSSSJ:
      case JoinAlgorithm::kPBSM: {
        DatasetRef streams[2];
        for (int i = 0; i < 2; ++i) {
          if (spec.inputs[i].indexed()) {
            SpanScope span(trace, "rtree.extract", qid, join_span.id());
            SJ_ASSIGN_OR_RETURN(streams[i],
                                ExtractLeaves(*spec.inputs[i].rtree(), storage,
                                              disk, &pagers));
          } else {
            streams[i] = spec.inputs[i].stream();
          }
        }
        if (decision.algorithm == JoinAlgorithm::kPBSM) {
          SJ_ASSIGN_OR_RETURN(
              filter, PBSMJoin(streams[0], streams[1], disk, options,
                               filter_sink, spec.histograms[0],
                               spec.histograms[1], &arbiter));
          break;
        }
        const DiskStats before = disk->stats();
        SJ_ASSIGN_OR_RETURN(
            StreamRange sa,
            sort(streams[0].range, "sssj.runs.a", "sssj.sorted.a"));
        SJ_ASSIGN_OR_RETURN(
            StreamRange sb,
            sort(streams[1].range, "sssj.runs.b", "sssj.sorted.b"));
        SJ_ASSIGN_OR_RETURN(RectF extent,
                            CombinedExtent(streams[0], streams[1]));
        SweepRunStats sweep;
        {
          SpanScope span(trace, "sweep", qid, join_span.id());
          PrefetchingStreamReader<RectF> source_a(sa.pager, sa.first_page,
                                                  sa.count, prefetch);
          PrefetchingStreamReader<RectF> source_b(sb.pager, sb.first_page,
                                                  sb.count, prefetch);
          sweep = SweepJoinWithKind(
              options.stream_sweep, extent, options.striped_strips, source_a,
              source_b, [filter_sink](const RectF& a, const RectF& b) {
                filter_sink->Emit(a.id, b.id);
              });
        }
        filter.disk = disk->stats() - before;
        filter.output_count = sweep.output_count;
        filter.max_sweep_bytes = sweep.max_structure_bytes;
        totals->sweep_pairs += sweep.output_count;
        break;
      }
      case JoinAlgorithm::kST:  // Needs two indexes; no workload has them.
      case JoinAlgorithm::kAuto:
        return Status::Internal(std::string("no replay for plan ") +
                                ToString(decision.algorithm));
    }
  }
  totals->sort_runs = std::max(totals->sort_runs, sort_stats.runs);
  totals->sort_merge_passes =
      std::max(totals->sort_merge_passes, sort_stats.merge_passes);
  totals->sort_parallel_units =
      std::max(totals->sort_parallel_units, sort_stats.parallel_units);
  totals->sweep_max_bytes =
      std::max(totals->sweep_max_bytes, filter.max_sweep_bytes);
  totals->candidates += filter.output_count;

  ReplayResult out;
  out.disk = filter.disk;
  if (!options.refine) {
    out.digest = unrefined.digest;
  } else {
    SpanScope span(trace, "refine", qid, query_span.id());
    DigestSink results;
    SJ_ASSIGN_OR_RETURN(
        RefineStats refined,
        RefinePairs(candidates.pairs(), *spec.inputs[0].features(),
                    *spec.inputs[1].features(), options, &results,
                    PredicateSpec{}, &arbiter));
    out.digest = results.digest;
    out.disk += refined.disk;
    totals->refine_candidates += refined.candidates;
    totals->refine_results += refined.results;
    totals->refine_pages += refined.pages_read;
  }
  totals->disk += out.disk;
  return out;
}

/// The body both single-client workloads share, over a query list of
/// reference.size() queries: a warm-up pass, then timed passes of either
/// the untraced queries (end-to-end metrics) or their traced replays
/// (per-layer metrics), every result checked against `reference`.
template <typename MakeQuery, typename MakeSpec>
void RunSingleClient(const Config& config, DiskModel* disk, size_t budget,
                     const std::vector<PairDigest>& reference,
                     MakeQuery&& make_query, MakeSpec&& make_spec,
                     const SetupTimes& times, Trace* trace, Report* report) {
  const size_t n = reference.size();
  auto run_checked = [&](size_t i, JoinStats* stats) {
    DigestSink sink;
    disk->ResetStats();
    const double t0 = WallNow();
    Result<JoinStats> result = make_query(i).Run(&sink);
    const double latency = WallNow() - t0;
    Check(report, result.ok() && sink.digest == reference[i],
          result.ok() ? "query " + std::to_string(i) + ": pairs " +
                            sink.digest.ToString() + " != reference " +
                            reference[i].ToString()
                      : result.status().ToString());
    if (result.ok()) *stats = result.value();
    return latency;
  };

  // Warm-up pass. Traced runs then record each query's result and modeled
  // I/O in a second pass, where each query has the predecessor its replay
  // will have (the DiskModel prices a request by the stream state the
  // requests before it left).
  std::vector<JoinStats> expected(n);
  for (int pass = 0; pass < (trace != nullptr ? 2 : 1); ++pass) {
    for (size_t i = 0; i < n; ++i) run_checked(i, &expected[i]);
  }
  if (trace == nullptr) {
    ModeledIo io(n);
    const TimedPhase phase = RunPasses(n, config.seconds, [&](size_t i) {
      JoinStats stats;
      const double latency = run_checked(i, &stats);
      io.Record(i, stats.disk.io_seconds);
      return latency;
    });
    AddSetupMetrics(report, times, false);
    AddEndToEnd(report, "", phase);
    AddModeledIo(report, io);
    return;
  }

  LayerTotals totals;
  for (size_t i = 0; i < n; ++i) {
    Result<PlanDecision> decision = make_query(i).Explain();
    if (decision.ok()) totals.plans[AlgorithmKey(decision->algorithm)]++;
    totals.peak_grant_share =
        std::max(totals.peak_grant_share,
                 static_cast<double>(expected[i].peak_memory_bytes) / budget);
  }
  uint64_t next_qid = 0;
  const TimedPhase phase = RunPasses(n, config.seconds, [&](size_t i) {
    const PairwiseSpec spec = make_spec(i);
    disk->ResetStats();
    const double t0 = WallNow();
    JoinQuery query = make_query(i);
    Result<ReplayResult> replay =
        ReplayPairwise(query, spec, disk, trace, next_qid++, &totals);
    const double latency = WallNow() - t0;
    totals.observed_seconds += expected[i].ObservedSeconds(Machine());
    Check(report,
          replay.ok() && replay->digest == reference[i] &&
              replay->disk.io_seconds == expected[i].disk.io_seconds,
          !replay.ok() ? "replay: " + replay.status().ToString()
                       : "query " + std::to_string(i) + ": replay pairs " +
                             replay->digest.ToString() + " io " +
                             std::to_string(replay->disk.io_seconds) +
                             " != query " +
                             std::to_string(expected[i].disk.io_seconds));
    return latency;
  });
  totals.queries = phase.queries();
  AddSetupMetrics(report, times, true);
  AddLayerMetrics(report, totals, trace->SelfSeconds());
  AddEndToEnd(report, "traced.", phase);
}

// ---------------------------------------------------------------------------
// spill_stream_join
// ---------------------------------------------------------------------------

/// One DISK1-6 @ 0.01 relation pair, as plain streams.
struct SpillInstance {
  std::unique_ptr<Pager> roads_pager;
  std::unique_ptr<Pager> hydro_pager;
  DatasetRef roads;
  DatasetRef hydro;
};

struct SpillEnv {
  std::unique_ptr<DiskModel> disk;
  /// The query list: one overlay per instance. The seed decides how
  /// dense the generator's biggest clusters are, and with it a join's
  /// pair count (1.1M to 2.2M at DISK1-6 @ 0.02 over seeds 1-8); a list
  /// of independently seeded instances averages that out of every run.
  std::vector<SpillInstance> instances;
  std::shared_ptr<StorageFactory> scratch;
  std::unique_ptr<SpatialJoiner> joiner;
};

std::unique_ptr<SpillEnv> BuildSpillEnv(const Config& config,
                                        SetupTimes* times, Trace* trace) {
  auto env = std::make_unique<SpillEnv>();
  env->disk = std::make_unique<DiskModel>(Machine());
  const TigerSpec spec = PaperDataset("DISK1-6", kSpillScale * config.scale);
  std::vector<std::vector<RectF>> roads(kSpillInstances), hydro(kSpillInstances);
  {
    PhaseTimer phase(times, trace, "datagen.generate");
    for (size_t k = 0; k < kSpillInstances; ++k) {
      // Instance 0 uses the seed itself, so the seed's own overlay is in
      // every list.
      TigerGenerator gen(config.seed + k * 0x9e3779b97f4a7c15ULL);
      gen.GenerateRoads(spec.road_count, &roads[k]);
      gen.GenerateHydro(spec.hydro_count, &hydro[k]);
    }
  }
  {
    PhaseTimer phase(times, trace, "io.load");
    for (size_t k = 0; k < kSpillInstances; ++k) {
      SpillInstance instance;
      instance.roads_pager = MakeMemoryPager(env->disk.get(), "roads");
      instance.hydro_pager = MakeMemoryPager(env->disk.get(), "hydro");
      instance.roads = WriteStream(instance.roads_pager.get(), roads[k]);
      instance.hydro = WriteStream(instance.hydro_pager.get(), hydro[k]);
      env->instances.push_back(std::move(instance));
    }
    env->scratch = Must(TmpFileStorageFactory::Make(config.tmp_dir),
                        "scratch directory");
  }
  env->joiner = std::make_unique<SpatialJoiner>(env->disk.get(), JoinOptions());
  return env;
}

JoinQuery SpillQuery(SpillEnv& env, size_t i) {
  JoinQuery query(*env.joiner);
  query.Input(JoinInput::FromStream(env.instances[i].roads))
      .Input(JoinInput::FromStream(env.instances[i].hydro))
      .Threads(kQueryThreads)
      .MemoryBytes(kSpillBudget)
      .Storage(env.scratch);
  return query;
}

}  // namespace

Report RunSpillStreamJoin(const Config& config, Trace* trace) {
  Report report;
  SetupTimes times;
  std::unique_ptr<SpillEnv> env =
      SetUp<SpillEnv>(config, &times, trace, BuildSpillEnv);

  // Reference answers by a different algorithm: forced PBSM.
  std::vector<PairDigest> reference;
  uint64_t checksum = 0;
  for (size_t i = 0; i < env->instances.size(); ++i) {
    DigestSink sink;
    Result<JoinStats> stats =
        SpillQuery(*env, i).Algorithm(JoinAlgorithm::kPBSM).Run(&sink);
    if (!stats.ok()) {
      report.Fail("reference PBSM: " + stats.status().ToString());
      return report;
    }
    reference.push_back(sink.digest);
    checksum = CombineDigest(checksum, sink.digest.sum ^ sink.digest.count);
  }
  report.Detail("result_checksum", Hex(checksum));
  RunSingleClient(
      config, env->disk.get(), kSpillBudget, reference,
      [&](size_t i) { return SpillQuery(*env, i); },
      [&](size_t i) {
        return PairwiseSpec{{JoinInput::FromStream(env->instances[i].roads),
                             JoinInput::FromStream(env->instances[i].hydro)},
                            {nullptr, nullptr}};
      },
      times, trace, &report);
  return report;
}

namespace {

// ---------------------------------------------------------------------------
// indexed_refine and service_windows share the DISK1-6 @ 0.02 inputs.
// ---------------------------------------------------------------------------

struct TigerEnv {
  std::unique_ptr<DiskModel> disk;
  std::unique_ptr<Pager> roads_pager;
  std::unique_ptr<Pager> hydro_pager;
  std::unique_ptr<Pager> local_pager;
  std::unique_ptr<Pager> roads_tree_pager;
  std::unique_ptr<Pager> hydro_tree_pager;
  std::unique_ptr<Pager> roads_geom_pager;
  std::unique_ptr<Pager> hydro_geom_pager;
  DatasetRef roads;
  DatasetRef hydro;
  std::optional<RTree> roads_tree;
  std::optional<RTree> hydro_tree;
  std::optional<GridHistogram> roads_hist;
  std::optional<GridHistogram> hydro_hist;
  std::optional<FeatureStore> roads_store;
  std::optional<FeatureStore> hydro_store;
  /// The query list: one window per query.
  std::vector<RectF> windows;
  /// indexed_refine: per window, the hydro features inside it.
  std::vector<DatasetRef> locals;
  std::unique_ptr<SpatialJoiner> joiner;
  /// service_windows: the shared service (declared last, so it stops
  /// before the data it reads goes away).
  std::unique_ptr<SpatialService> service;
};

RTree BulkLoad(DiskModel* disk, Pager* tree_pager, const DatasetRef& input) {
  auto scratch = MakeMemoryPager(disk, "bulkload.scratch");
  return Must(RTree::BulkLoadHilbert(tree_pager, input.range, scratch.get(),
                                     RTreeParams(), kSetupSortBytes),
              "R-tree bulk load");
}

/// Each hydro feature's join degree: the roads whose MBRs meet its MBR,
/// from one SSSJ over the full relations. A window's candidate pairs are
/// the degrees of the hydro features inside it.
std::vector<uint32_t> HydroDegrees(TigerEnv& env, size_t hydro_count) {
  class DegreeSink final : public JoinSink {
   public:
    explicit DegreeSink(std::vector<uint32_t>* degree) : degree_(degree) {}
    void Emit(ObjectId, ObjectId h) override { (*degree_)[h]++; }

   private:
    std::vector<uint32_t>* degree_;
  };
  std::vector<uint32_t> degree(hydro_count);
  DegreeSink sink(&degree);
  Must(JoinQuery(*env.joiner)
           .Input(JoinInput::FromStream(env.roads))
           .Input(JoinInput::FromStream(env.hydro))
           .Algorithm(JoinAlgorithm::kSSSJ)
           .Threads(kQueryThreads)
           .MemoryBytes(kSetupSortBytes)
           .Run(&sink),
       "window calibration join");
  return degree;
}

/// The query list: kWindowCount 2x2-degree windows centred on random
/// roads, chosen so their work follows a fixed geometric ladder of
/// candidate pairs (200 to 30k) and roads. Windows drawn plainly from
/// the data follow its density, and a few dense clusters, whose size and
/// spread the seed decides, then set the whole tail: across seeds the
/// 90th percentile of candidates per window moved 2x and the modeled I/O
/// per query 3x.
/// Matching a seed-independent ladder from a large pool keeps the heavy
/// tail and makes the per-query work, and with it every end-to-end
/// metric, repeat across seeds.
std::vector<RectF> PickWindows(const Config& config, TigerEnv& env,
                               const std::vector<RectF>& roads,
                               const std::vector<RectF>& hydro) {
  const std::vector<uint32_t> degree = HydroDegrees(env, hydro.size());
  // Hydro features bucketed by the 1-degree cell of their lower corner.
  const RectF region = TigerGenerator::DefaultRegion();
  const int nx = static_cast<int>(std::ceil(region.xhi - region.xlo));
  const int ny = static_cast<int>(std::ceil(region.yhi - region.ylo));
  auto cell_x = [&](float x) {
    return std::clamp(static_cast<int>(std::floor(x - region.xlo)), 0, nx - 1);
  };
  auto cell_y = [&](float y) {
    return std::clamp(static_cast<int>(std::floor(y - region.ylo)), 0, ny - 1);
  };
  std::vector<std::vector<uint32_t>> cells(static_cast<size_t>(nx * ny));
  float max_w = 0.0f, max_h = 0.0f;
  for (uint32_t k = 0; k < hydro.size(); ++k) {
    const RectF& h = hydro[k];
    cells[static_cast<size_t>(cell_y(h.ylo) * nx + cell_x(h.xlo))].push_back(k);
    max_w = std::max(max_w, h.xhi - h.xlo);
    max_h = std::max(max_h, h.yhi - h.ylo);
  }
  // Roads per 0.1-degree cell, as a summed-area table.
  constexpr int kFine = 10;
  const int fx = nx * kFine, fy = ny * kFine;
  std::vector<uint64_t> road_sum(static_cast<size_t>((fx + 1) * (fy + 1)));
  auto fine_x = [&](float x) {
    return std::clamp(static_cast<int>(std::floor((x - region.xlo) * kFine)),
                      0, fx - 1);
  };
  auto fine_y = [&](float y) {
    return std::clamp(static_cast<int>(std::floor((y - region.ylo) * kFine)),
                      0, fy - 1);
  };
  auto at = [&](int x, int y) -> uint64_t& {
    return road_sum[static_cast<size_t>(y * (fx + 1) + x)];
  };
  for (const RectF& r : roads) at(fine_x(r.xlo) + 1, fine_y(r.ylo) + 1)++;
  for (int y = 1; y <= fy; ++y) {
    for (int x = 1; x <= fx; ++x) {
      at(x, y) += at(x - 1, y) + at(x, y - 1) - at(x - 1, y - 1);
    }
  }
  // A window's work, in logs: its candidate pairs (the sweep's output and
  // refinement's input) and the roads under its hydro features' extent
  // (the pruned R-tree traversal and the sweep's input).
  struct Work {
    double log_candidates;
    double log_roads;
    RectF window;
  };
  auto work = [&](const RectF& w) {
    double candidates = 0.0;
    RectF extent = RectF::Empty();
    for (int y = cell_y(w.ylo - max_h); y <= cell_y(w.yhi); ++y) {
      for (int x = cell_x(w.xlo - max_w); x <= cell_x(w.xhi); ++x) {
        for (uint32_t k : cells[static_cast<size_t>(y * nx + x)]) {
          if (hydro[k].Intersects(w)) {
            candidates += degree[k];
            extent.ExtendTo(hydro[k]);
          }
        }
      }
    }
    double road_count = 0.0;
    if (extent.Valid()) {
      const int x0 = fine_x(extent.xlo), x1 = fine_x(extent.xhi) + 1;
      const int y0 = fine_y(extent.ylo), y1 = fine_y(extent.yhi) + 1;
      road_count = static_cast<double>(at(x1, y1) - at(x0, y1) -
                                       at(x1, y0) + at(x0, y0));
    }
    return Work{std::log(candidates + 1.0), std::log(road_count + 1.0), w};
  };

  const size_t count = Scaled(kWindowCount, std::min(1.0, 4 * config.scale));
  Random rng(config.seed * 0x9e3779b97f4a7c15ULL + 17);
  std::vector<Work> pool;
  const float half = kWindowDegrees / 2;
  for (size_t i = 0; i < kWindowPool * count; ++i) {
    const RectF& road = roads[rng.Uniform(roads.size())];
    const float cx = 0.5f * (road.xlo + road.xhi);
    const float cy = 0.5f * (road.ylo + road.yhi);
    pool.push_back(work(RectF(cx - half, cy - half, cx + half, cy + half)));
  }
  // Candidates scale with the square of the data size, roads linearly.
  const double log_scale = std::log(config.scale);
  std::vector<bool> used(pool.size());
  std::vector<RectF> windows;
  for (size_t j = 0; j < count; ++j) {
    const double f = count > 1 ? double(j) / double(count - 1) : 0.0;
    const double log_c = std::log(kLadderMinCandidates) +
                         f * std::log(kLadderMaxCandidates / kLadderMinCandidates);
    const double want_c = log_c + 2 * log_scale;
    const double want_r =
        kLadderRoadsLog + kLadderRoadsExponent * log_c + log_scale;
    size_t best = pool.size();
    double best_d = 0.0;
    for (size_t p = 0; p < pool.size(); ++p) {
      if (used[p]) continue;
      const double dc = pool[p].log_candidates - want_c;
      const double dr = pool[p].log_roads - want_r;
      const double d = dc * dc + dr * dr;
      if (best == pool.size() || d < best_d) {
        best = p;
        best_d = d;
      }
    }
    used[best] = true;
    windows.push_back(pool[best].window);
  }
  // Interleave light and heavy queries.
  for (size_t j = windows.size(); j > 1; --j) {
    std::swap(windows[j - 1], windows[rng.Uniform(j)]);
  }
  return windows;
}

/// `service_mode` indexes both relations and starts the service;
/// otherwise hydro is cut into one local stream per window.
std::unique_ptr<TigerEnv> BuildTigerEnv(const Config& config,
                                        bool service_mode, SetupTimes* times,
                                        Trace* trace) {
  auto env = std::make_unique<TigerEnv>();
  env->disk = std::make_unique<DiskModel>(Machine());
  DiskModel* disk = env->disk.get();
  env->joiner = std::make_unique<SpatialJoiner>(disk, JoinOptions());
  const TigerSpec spec = PaperDataset("DISK1-6", kIndexedScale * config.scale);
  std::vector<RectF> roads, hydro;
  std::vector<Segment> roads_geom, hydro_geom;
  {
    PhaseTimer phase(times, trace, "datagen.generate");
    TigerGenerator gen(config.seed);
    gen.GenerateRoadsWithGeometry(spec.road_count, &roads, &roads_geom);
    gen.GenerateHydroWithGeometry(spec.hydro_count, &hydro, &hydro_geom);
  }
  {
    PhaseTimer phase(times, trace, "io.load");
    env->roads_pager = MakeMemoryPager(disk, "roads");
    env->hydro_pager = MakeMemoryPager(disk, "hydro");
    env->roads = WriteStream(env->roads_pager.get(), roads);
    env->hydro = WriteStream(env->hydro_pager.get(), hydro);
  }
  {
    PhaseTimer phase(times, trace, "datagen.generate");
    env->windows = PickWindows(config, *env, roads, hydro);
  }
  if (!service_mode) {
    PhaseTimer phase(times, trace, "io.load");
    env->local_pager = MakeMemoryPager(disk, "hydro.local");
    std::vector<RectF> local;
    for (const RectF& window : env->windows) {
      local.clear();
      for (const RectF& h : hydro) {
        if (h.Intersects(window)) local.push_back(h);
      }
      env->locals.push_back(WriteStream(env->local_pager.get(), local));
    }
  }
  {
    PhaseTimer phase(times, trace, "rtree.bulkload");
    env->roads_tree_pager = MakeMemoryPager(disk, "roads.rtree");
    env->roads_tree.emplace(
        BulkLoad(disk, env->roads_tree_pager.get(), env->roads));
    if (service_mode) {
      env->hydro_tree_pager = MakeMemoryPager(disk, "hydro.rtree");
      env->hydro_tree.emplace(
          BulkLoad(disk, env->hydro_tree_pager.get(), env->hydro));
    }
  }
  {
    PhaseTimer phase(times, trace, "histogram.build");
    const RectF region = TigerGenerator::DefaultRegion();
    env->roads_hist.emplace(Must(GridHistogram::Build(env->roads.range, region,
                                                      kHistogramCells,
                                                      kHistogramCells),
                                 "roads histogram"));
    if (service_mode) {
      env->hydro_hist.emplace(Must(
          GridHistogram::Build(env->hydro.range, region, kHistogramCells,
                               kHistogramCells),
          "hydro histogram"));
    }
  }
  {
    PhaseTimer phase(times, trace, "refine.store_build");
    env->roads_geom_pager = MakeMemoryPager(disk, "roads.geom");
    env->hydro_geom_pager = MakeMemoryPager(disk, "hydro.geom");
    env->roads_store.emplace(Must(
        FeatureStore::Build(env->roads_geom_pager.get(), roads_geom, "roads"),
        "roads feature store"));
    env->hydro_store.emplace(Must(
        FeatureStore::Build(env->hydro_geom_pager.get(), hydro_geom, "hydro"),
        "hydro feature store"));
  }
  if (service_mode) {
    PhaseTimer phase(times, trace, "service.start");
    ServiceOptions options;
    options.global_memory_bytes = kServiceBudget;
    options.worker_threads = kServiceWorkers;
    options.degraded_min_bytes = 0;
    env->service = std::make_unique<SpatialService>(options);
  }
  return env;
}

// ---------------------------------------------------------------------------
// indexed_refine
// ---------------------------------------------------------------------------

JoinQuery IndexedQuery(TigerEnv& env, size_t i) {
  JoinQuery query(*env.joiner);
  query
      .Input(JoinInput::FromRTree(&*env.roads_tree)
                 .WithFeatures(&*env.roads_store))
      .Input(JoinInput::FromStream(env.locals[i])
                 .WithFeatures(&*env.hydro_store))
      .WithHistogram(0, &*env.roads_hist)
      .Refine(true)
      .Threads(kIndexedThreads)
      .MemoryBytes(kQueryBudget);
  return query;
}

/// Reference answers for every window from one forced-SSSJ join of the
/// roads stream against all local streams at once: the local features
/// are concatenated under fresh dense ids (with a matching FeatureStore),
/// and each result pair is routed back to its window and original hydro
/// id. One join instead of one per window keeps the reference pass short.
Status ReferenceSSSJ(TigerEnv& env, std::vector<PairDigest>* reference) {
  std::vector<RectF> rects;
  std::vector<ObjectId> hydro_ids;
  std::vector<uint32_t> window_of;
  for (size_t w = 0; w < env.locals.size(); ++w) {
    const StreamRange& range = env.locals[w].range;
    StreamReader<RectF> reader(range.pager, range.first_page, range.count);
    while (std::optional<RectF> r = reader.Next()) {
      hydro_ids.push_back(r->id);
      window_of.push_back(static_cast<uint32_t>(w));
      r->id = static_cast<ObjectId>(rects.size());
      rects.push_back(*r);
    }
  }
  std::vector<Segment> geom;
  SJ_RETURN_IF_ERROR(env.hydro_store->FetchBatch(hydro_ids, &geom).status());
  auto union_pager = MakeMemoryPager(env.disk.get(), "reference.hydro");
  auto geom_pager = MakeMemoryPager(env.disk.get(), "reference.geom");
  const DatasetRef all = WriteStream(union_pager.get(), rects);
  SJ_ASSIGN_OR_RETURN(FeatureStore store,
                      FeatureStore::Build(geom_pager.get(), geom, "reference"));

  class RoutingSink final : public JoinSink {
   public:
    RoutingSink(const std::vector<ObjectId>& hydro_ids,
                const std::vector<uint32_t>& window_of,
                std::vector<PairDigest>* out)
        : hydro_ids_(hydro_ids), window_of_(window_of), out_(out) {}
    void Emit(ObjectId road, ObjectId k) override {
      (*out_)[window_of_[k]].Add(road, hydro_ids_[k]);
    }

   private:
    const std::vector<ObjectId>& hydro_ids_;
    const std::vector<uint32_t>& window_of_;
    std::vector<PairDigest>* out_;
  } sink(hydro_ids, window_of, reference);
  JoinQuery query(*env.joiner);
  query.Input(JoinInput::FromStream(env.roads).WithFeatures(&*env.roads_store))
      .Input(JoinInput::FromStream(all).WithFeatures(&store))
      .Algorithm(JoinAlgorithm::kSSSJ)
      .Refine(true)
      .Threads(kQueryThreads)
      .MemoryBytes(kQueryBudget);
  return query.Run(&sink).status();
}

}  // namespace

Report RunIndexedRefine(const Config& config, Trace* trace) {
  Report report;
  SetupTimes times;
  std::unique_ptr<TigerEnv> env = SetUp<TigerEnv>(
      config, &times, trace,
      [](const Config& c, SetupTimes* t, Trace* tr) {
        return BuildTigerEnv(c, /*service_mode=*/false, t, tr);
      });
  const size_t n = env->windows.size();

  // Reference answers by a different path: forced SSSJ over the roads
  // stream instead of PQ over the roads R-tree.
  std::vector<PairDigest> reference(n);
  Status status = ReferenceSSSJ(*env, &reference);
  if (!status.ok()) {
    report.Fail("reference SSSJ: " + status.ToString());
    return report;
  }
  uint64_t checksum = 0;
  for (const PairDigest& d : reference) {
    checksum = CombineDigest(checksum, d.sum ^ d.count);
  }
  report.Detail("result_checksum", Hex(checksum));

  RunSingleClient(
      config, env->disk.get(), kQueryBudget, reference,
      [&](size_t i) { return IndexedQuery(*env, i); },
      [&](size_t i) {
        return PairwiseSpec{{JoinInput::FromRTree(&*env->roads_tree)
                                 .WithFeatures(&*env->roads_store),
                             JoinInput::FromStream(env->locals[i])
                                 .WithFeatures(&*env->hydro_store)},
                            {&*env->roads_hist, nullptr}};
      },
      times, trace, &report);
  return report;
}

namespace {

// ---------------------------------------------------------------------------
// service_windows
// ---------------------------------------------------------------------------

PipelineQuery WindowPipeline(TigerEnv& env, size_t i) {
  const RectF& w = env.windows[i];
  PipelineQuery pipeline(*env.joiner);
  pipeline.Input(JoinInput::FromRTree(&*env.roads_tree))
      .Input(JoinInput::FromRTree(&*env.hydro_tree))
      .Window(w)
      .WithHistogram(0, &*env.roads_hist)
      .WithHistogram(1, &*env.hydro_hist)
      .WithFeatures(0, &*env.roads_store)
      .WithFeatures(1, &*env.hydro_store)
      .Refine(true)
      .Threads(kQueryThreads)
      .MemoryBytes(kQueryBudget)
      .AggregateByCell(AggregateMode::kCount, kAggregateCells, kAggregateCells)
      .TopKByDistance(kTopK, 0.5f * (w.xlo + w.xhi), 0.5f * (w.ylo + w.yhi));
  return pipeline;
}

uint64_t RoundUp(uint64_t v, uint64_t m) { return (v + m - 1) / m * m; }

/// Closed-loop clients over a query list. Each client claims the next
/// sequence number k and runs list entry k % list_size; `run(k)` returns
/// the query's latency. Once `seconds` have passed, the clients finish
/// the current pass (and at least kMinTimedQueries), so the run measures
/// whole passes. seconds <= 0 runs exactly one pass. Samples come back in
/// completion order.
template <typename Fn>
TimedPhase RunClientPasses(size_t list_size, double seconds, Fn&& run) {
  std::mutex mu;
  uint64_t next = 0;                                        // Guarded by mu.
  uint64_t limit = seconds > 0 ? ~uint64_t{0} : list_size;  // Guarded by mu.
  std::vector<std::vector<QuerySample>> samples(kServiceClients);
  TimedPhase phase;
  phase.list_size = list_size;
  phase.start_cpu = ProcessCpuSeconds();
  phase.start_wall = WallNow();
  std::vector<std::thread> clients;
  for (int c = 0; c < kServiceClients; ++c) {
    clients.emplace_back([&, c] {
      for (;;) {
        uint64_t k = 0;
        {
          std::lock_guard<std::mutex> lock(mu);
          if (next >= limit) return;
          k = next++;
        }
        QuerySample sample;
        sample.latency = run(k);
        sample.done_wall = WallNow();
        sample.done_cpu = ProcessCpuSeconds();
        samples[c].push_back(sample);
      }
    });
  }
  if (seconds > 0) {
    while (WallNow() - phase.start_wall < seconds) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    std::lock_guard<std::mutex> lock(mu);
    limit = std::max(RoundUp(next, list_size),
                     RoundUp(kMinTimedQueries, list_size));
  }
  for (std::thread& t : clients) t.join();
  for (const auto& v : samples) {
    phase.samples.insert(phase.samples.end(), v.begin(), v.end());
  }
  std::sort(phase.samples.begin(), phase.samples.end(),
            [](const QuerySample& a, const QuerySample& b) {
              return a.done_wall < b.done_wall;
            });
  return phase;
}

/// Sums of one pipeline execution's counters into the layer totals.
void FoldPipelineStats(const PipelineStats& s, LayerTotals* t) {
  t->disk += s.disk;
  t->candidates += s.candidate_count;
  t->refine_candidates += s.candidate_count;
  t->refine_pages += s.refine_pages_read;
  for (const OperatorStats& op : s.operators) {
    t->op_rows_in += op.rows_in;
    t->op_pages_read += op.pages_read;
    t->op_spill_pages += op.spill_pages;
    // The join operator's input rows are the refined join results.
    if (op.name.rfind("SpatialJoin", 0) == 0) t->refine_results += op.rows_in;
  }
  t->peak_grant_share =
      std::max(t->peak_grant_share,
               static_cast<double>(s.peak_memory_bytes) / kQueryBudget);
}

}  // namespace

Report RunServiceWindows(const Config& config, Trace* trace) {
  Report report;
  SetupTimes times;
  std::unique_ptr<TigerEnv> env = SetUp<TigerEnv>(
      config, &times, trace,
      [](const Config& c, SetupTimes* t, Trace* tr) {
        return BuildTigerEnv(c, /*service_mode=*/true, t, tr);
      });
  const size_t n = env->windows.size();

  // Reference answers by a different path: each pipeline run standalone,
  // outside the shared service.
  std::vector<uint64_t> reference(n);
  std::vector<JoinAlgorithm> algorithms(n);
  uint64_t checksum = 0;
  for (size_t i = 0; i < n; ++i) {
    CollectingRowSink rows;
    Result<PipelineStats> stats = WindowPipeline(*env, i).Run(&rows);
    if (!stats.ok()) {
      report.Fail("reference pipeline: " + stats.status().ToString());
      return report;
    }
    reference[i] = RowsDigest(rows.rows());
    algorithms[i] = stats->join_algorithm;
    checksum = CombineDigest(checksum, reference[i]);
  }
  report.Detail("result_checksum", Hex(checksum));

  SubmitOptions submit;
  submit.allow_degraded = false;
  std::mutex report_mu;
  auto check = [&](size_t i, const Result<PipelineStats>& result,
                   const CollectingRowSink& rows) {
    const bool ok = result.ok() && RowsDigest(rows.rows()) == reference[i];
    std::lock_guard<std::mutex> lock(report_mu);
    Check(&report, ok,
          result.ok() ? "window " + std::to_string(i) +
                            " rows differ from the standalone run"
                      : result.status().ToString());
  };
  double io_total = 0.0;
  uint64_t io_count = 0;
  auto run_untraced = [&](uint64_t k) {
    const size_t i = k % n;
    CollectingRowSink rows;
    const double t0 = WallNow();
    Result<PipelineStats> result =
        env->service->Run(WindowPipeline(*env, i), &rows, submit);
    const double latency = WallNow() - t0;
    check(i, result, rows);
    if (result.ok()) {
      std::lock_guard<std::mutex> lock(report_mu);
      io_total += result->disk.io_seconds;
      io_count++;
    }
    return latency;
  };

  RunClientPasses(n, 0.0, run_untraced);  // Warm-up pass.
  if (trace == nullptr) {
    io_total = 0.0;
    io_count = 0;
    const TimedPhase phase = RunClientPasses(n, config.seconds, run_untraced);
    AddSetupMetrics(&report, times, false);
    AddEndToEnd(&report, "", phase);
    // Under concurrency each query's modeled I/O is a delta of the shared
    // DiskModel and includes its neighbours' I/O, so this is the mean
    // over every timed query, not a per-position exact value.
    report.Metric("modeled_io_s_per_query",
                  io_count > 0 ? io_total / static_cast<double>(io_count) : 0.0,
                  "s");
    return report;
  }

  LayerTotals totals;
  for (size_t i = 0; i < n; ++i) totals.plans[AlgorithmKey(algorithms[i])]++;
  const ServiceStats before = env->service->stats();
  std::mutex totals_mu;
  const TimedPhase phase = RunClientPasses(n, config.seconds, [&](uint64_t k) {
    const size_t i = k % n;
    SpanScope query_span(trace, "query", k);
    PipelineQuery pipeline = WindowPipeline(*env, i);
    double estimate = 0.0;
    {
      SpanScope span(trace, "core.plan", k, query_span.id());
      Result<PipelinePlan> plan = pipeline.Explain();
      if (plan.ok()) estimate = plan->total_cost_seconds;
    }
    CollectingRowSink rows;
    const double t0 = WallNow();
    SubmittedPipeline handle = env->service->Submit(pipeline, &rows, submit);
    {
      SpanScope span(trace, "service.wait", k, query_span.id());
      while (!handle.done() && handle.granted_bytes() == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    {
      SpanScope span(trace, "service.exec", k, query_span.id());
      handle.Wait();
    }
    const double latency = WallNow() - t0;
    const Result<PipelineStats>& result = handle.Result();
    check(i, result, rows);
    if (result.ok()) {
      std::lock_guard<std::mutex> lock(totals_mu);
      FoldPipelineStats(*result, &totals);
      totals.plan_estimate_seconds += estimate;
      totals.observed_seconds += result->ObservedSeconds(Machine());
    }
    return latency;
  });
  const ServiceStats after = env->service->stats();
  totals.queries = phase.queries();
  totals.wait_seconds = trace->Durations("service.wait");
  totals.exec_seconds = trace->Durations("service.exec");
  totals.admitted = (after.admitted_full + after.admitted_degraded) -
                    (before.admitted_full + before.admitted_degraded);
  totals.rejected = after.rejected - before.rejected;
  totals.expired = after.deadline_expired - before.deadline_expired;
  totals.global_peak_share =
      static_cast<double>(after.global_peak_bytes) / kServiceBudget;
  AddSetupMetrics(&report, times, true);
  AddLayerMetrics(&report, totals, trace->SelfSeconds());
  AddEndToEnd(&report, "traced.", phase);
  return report;
}

}  // namespace perfbench
