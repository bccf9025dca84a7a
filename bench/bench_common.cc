#include "bench_common.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <sstream>

#include "core/join_query.h"
#include "io/stream.h"
#include "util/logging.h"

namespace sj {
namespace bench {
namespace {

std::vector<std::string> SplitCsv(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

}  // namespace

BenchConfig BenchConfig::FromArgs(int argc, char** argv,
                                  BenchConfig defaults) {
  BenchConfig config = std::move(defaults);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--scale=", 0) == 0) {
      config.scale = std::stod(arg.substr(8));
    } else if (arg.rfind("--datasets=", 0) == 0) {
      config.datasets = SplitCsv(arg.substr(11));
    } else if (arg.rfind("--machines=", 0) == 0) {
      config.machines.clear();
      for (const std::string& m : SplitCsv(arg.substr(11))) {
        config.machines.push_back(std::stoi(m));
      }
    } else if (arg == "--help") {
      std::printf(
          "usage: %s [--scale=F] [--datasets=NJ,NY,...] [--machines=1,2,3]\n",
          argv[0]);
      std::exit(0);
    }
  }
  return config;
}

JoinOptions BenchConfig::ScaledOptions() const {
  JoinOptions options;
  options.buffer_pool_pages = std::max<size_t>(
      8, static_cast<size_t>((22u << 20) * scale) / kPageSize);
  options.memory_bytes =
      std::max<size_t>(4u << 20, static_cast<size_t>((24u << 20) * scale));
  return options;
}

MachineModel MachineByIndex(int index) {
  switch (index) {
    case 1:
      return MachineModel::Machine1();
    case 2:
      return MachineModel::Machine2();
    case 3:
      return MachineModel::Machine3();
    default:
      SJ_CHECK(false) << "unknown machine index" << index;
      return MachineModel::Machine3();
  }
}

const LoadedDataset& GetDataset(const std::string& name, double scale) {
  static std::map<std::string, LoadedDataset>* cache =
      new std::map<std::string, LoadedDataset>();
  const std::string key = name + "@" + std::to_string(scale);
  auto it = cache->find(key);
  if (it != cache->end()) return it->second;

  LoadedDataset data;
  data.spec = PaperDataset(name, scale);
  TigerGenerator gen(data.spec.seed);
  gen.GenerateRoads(data.spec.road_count, &data.roads);
  gen.GenerateHydro(data.spec.hydro_count, &data.hydro);
  return cache->emplace(key, std::move(data)).first->second;
}

DatasetRef WriteRelation(Pager* pager, const std::vector<RectF>& rects) {
  StreamWriter<RectF> writer(pager);
  const PageId first = writer.first_page();
  RectF extent = RectF::Empty();
  for (const RectF& r : rects) {
    writer.Append(r);
    extent.ExtendTo(r);
  }
  auto n = writer.Finish();
  SJ_CHECK(n.ok());
  DatasetRef ref;
  ref.range = StreamRange{pager, first, n.value()};
  ref.extent = extent;
  return ref;
}

Workload MakeWorkload(const LoadedDataset& data, const MachineModel& machine,
                      bool build_trees) {
  Workload w;
  w.disk = std::make_unique<DiskModel>(machine);
  w.roads_pager = MakeMemoryPager(w.disk.get(), "roads");
  w.hydro_pager = MakeMemoryPager(w.disk.get(), "hydro");
  w.roads = WriteRelation(w.roads_pager.get(), data.roads);
  w.hydro = WriteRelation(w.hydro_pager.get(), data.hydro);

  if (build_trees) {
    w.roads_tree_pager = MakeMemoryPager(w.disk.get(), "roads.rtree");
    w.hydro_tree_pager = MakeMemoryPager(w.disk.get(), "hydro.rtree");
    auto scratch = MakeMemoryPager(w.disk.get(), "bulkload.scratch");
    const RTreeParams params;  // The paper's 400/75 %/20 % configuration.
    auto roads_tree =
        RTree::BulkLoadHilbert(w.roads_tree_pager.get(), w.roads.range,
                               scratch.get(), params, 24u << 20);
    auto hydro_tree =
        RTree::BulkLoadHilbert(w.hydro_tree_pager.get(), w.hydro.range,
                               scratch.get(), params, 24u << 20);
    SJ_CHECK(roads_tree.ok() && hydro_tree.ok());
    w.roads_tree.emplace(std::move(roads_tree).value());
    w.hydro_tree.emplace(std::move(hydro_tree).value());
  }
  // Preprocessing I/O (data load, bulk load) is not part of the join.
  w.disk->ResetStats();
  return w;
}

Result<JoinStats> RunJoin(Workload* w, JoinAlgorithm algo,
                          const JoinOptions& options) {
  SpatialJoiner joiner(w->disk.get(), options);
  const bool indexed = algo == JoinAlgorithm::kST || algo == JoinAlgorithm::kPQ;
  SJ_CHECK(!indexed || w->roads_tree.has_value())
      << "workload built without trees";
  CountingSink sink;
  return JoinQuery(joiner)
      .Input(w->RoadsInput(indexed))
      .Input(w->HydroInput(indexed))
      .Algorithm(algo)
      .Run(&sink);
}

void PrintHeaderRule(int width) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

}  // namespace bench
}  // namespace sj
