#ifndef USJ_BENCH_BENCH_COMMON_H_
#define USJ_BENCH_BENCH_COMMON_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/spatial_join.h"
#include "datagen/tiger_gen.h"
#include "io/machine_model.h"
#include "join/join_types.h"
#include "rtree/rtree.h"

namespace sj {
namespace bench {

/// Shared command-line configuration for the benches.
///
///   --scale=F       dataset ladder scale (default 0.05; 1.0 = the paper's
///                   object counts — only sensible on a large machine)
///   --datasets=A,B  subset of NJ,NY,DISK1,DISK4-6,DISK1-3,DISK1-6
///   --machines=1,3  subset of the paper's machine configurations
struct BenchConfig {
  double scale = 0.05;
  std::vector<std::string> datasets = {"NJ",      "NY",      "DISK1",
                                       "DISK4-6", "DISK1-3", "DISK1-6"};
  std::vector<int> machines = {1, 2, 3};

  /// Parses the flags above over `defaults`, the values a flag that is
  /// not given keeps.
  static BenchConfig FromArgs(int argc, char** argv, BenchConfig defaults);

  /// Join options whose memory parameters shrink with the dataset scale,
  /// preserving the paper's data-to-memory ratios: the 22 MB buffer pool
  /// (which determines ST's re-read behaviour, Table 4) and the 24 MB
  /// algorithm memory (which determines SSSJ's run count and PBSM's
  /// partition count). A floor keeps PQ's in-memory structures — which
  /// scale sublinearly — comfortably inside the budget.
  JoinOptions ScaledOptions() const;
};

MachineModel MachineByIndex(int index);

/// A generated dataset pair (machine-independent rectangle vectors, cached
/// per process so multiple machines reuse the same data).
struct LoadedDataset {
  TigerSpec spec;
  std::vector<RectF> roads;
  std::vector<RectF> hydro;
};

const LoadedDataset& GetDataset(const std::string& name, double scale);

/// Writes `rects` as a stream on `pager`, with their extent.
DatasetRef WriteRelation(Pager* pager, const std::vector<RectF>& rects);

/// One experiment environment: a simulated machine, both relations stored
/// as streams, and (optionally) bulk-loaded R-trees over both.
struct Workload {
  std::unique_ptr<DiskModel> disk;
  std::unique_ptr<Pager> roads_pager;
  std::unique_ptr<Pager> hydro_pager;
  std::unique_ptr<Pager> roads_tree_pager;
  std::unique_ptr<Pager> hydro_tree_pager;
  DatasetRef roads;
  DatasetRef hydro;
  std::optional<RTree> roads_tree;
  std::optional<RTree> hydro_tree;

  JoinInput RoadsInput(bool indexed) const {
    return indexed ? JoinInput::FromRTree(&*roads_tree)
                   : JoinInput::FromStream(roads);
  }
  JoinInput HydroInput(bool indexed) const {
    return indexed ? JoinInput::FromRTree(&*hydro_tree)
                   : JoinInput::FromStream(hydro);
  }
};

/// Builds a workload for `machine`. Tree construction I/O is excluded from
/// subsequent join measurements (stats are reset), matching the paper.
Workload MakeWorkload(const LoadedDataset& data, const MachineModel& machine,
                      bool build_trees);

/// Runs one algorithm on a workload (counting sink) and returns its stats.
Result<JoinStats> RunJoin(Workload* w, JoinAlgorithm algo,
                          const JoinOptions& options);

void PrintHeaderRule(int width);

}  // namespace bench
}  // namespace sj

#endif  // USJ_BENCH_BENCH_COMMON_H_
