#ifndef USJ_SORT_EXTERNAL_SORT_H_
#define USJ_SORT_EXTERNAL_SORT_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/memory_arbiter.h"
#include "geometry/rect.h"
#include "io/pager.h"
#include "io/prefetch.h"
#include "io/stream.h"
#include "sort/loser_tree.h"
#include "sort/radix_sort.h"
#include "sort/run_layout.h"
#include "sort/sort_config.h"
#include "util/logging.h"
#include "util/result.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace sj {

/// A contiguous run of records within a pager, the unit passed between
/// sort phases and join inputs.
struct StreamRange {
  Pager* pager = nullptr;
  PageId first_page = 0;
  uint64_t count = 0;
};

/// The "sort.runs" grant an ExternalSorter with a `memory_bytes` budget
/// requests from its arbiter.
inline GrantRequest SortGrantRequest(size_t memory_bytes) {
  return GrantRequest{grants::kSortRuns, memory_bytes,
                      RunLayout::kMinSortMemoryBytes};
}

/// External multiway mergesort, the sorting component of SSSJ and of the
/// R-tree bulk loader.
///
/// Phase 1 (run formation) carves the input into run-capacity chunks,
/// sorts each chunk (SortChunk: a radix sort for RectF in the sweep
/// order, std::sort otherwise) and writes it as a sorted run (sequential
/// write). Phase 2 merges up to the planned fan-in runs at a time with a
/// loser tree; reads during a merge alternate between runs and are
/// therefore charged as non-sequential requests — exactly the paper's
/// "one non-sequential read pass" accounting for SSSJ. For every
/// experiment in the paper one merge pass suffices; multi-pass merging
/// exists for robustness and is covered by tests.
///
/// Two perf layers, both bit-identical to the serial pipeline in output
/// bytes and modeled io_seconds:
///
///  * Parallel run formation (SortConfig::threads > 1): chunks are sorted
///    and written as independent units on the worker pool. Chunk
///    boundaries are fixed at RunCapacity() records regardless of thread
///    count, unit extents are pre-allocated in unit order (reproducing the
///    serial pager layout), workers move bytes through the raw backend
///    (wall-timed only), and the coordinator replays the exact serial
///    modeled-charge sequence afterwards — so run contents, page images
///    and DiskModel state match the serial path request for request.
///    Units model the serial machine: the reported grant usage is the
///    serial-equivalent footprint (one chunk + one write block), the same
///    convention the strip/partition parallelism uses; real transient
///    memory is threads x that. Units that run off the calling thread
///    report their thread CPU in SortStats::worker_cpu_seconds.
///  * Loser-tree merge: one leaf-to-root path (ceil(log2 k) comparisons)
///    per record instead of two heap sifts, stable on (key, source), fed
///    by a RunLayout::PlanMerge fan-in that trades pass count against
///    read-block size under the grant.
///
/// T must be trivially copyable; Less must be a strict weak ordering
/// (ties break by source run, so even non-total orders merge
/// deterministically at any fan-in).
template <typename T, typename Less>
class ExternalSorter {
 public:
  /// `scratch` receives runs; `output` receives the final sorted stream.
  /// They may be distinct pagers (distinct devices) or the same pager.
  /// Budgets below 4 pages are clamped up (the merge needs at least two
  /// input blocks and one output block; see RunLayout for the shared
  /// sizing arithmetic). When `arbiter` is given, the sorter acquires its
  /// budget as a tracked grant — shrunk to what the arbiter has left —
  /// and reports its run-buffer usage against it.
  ExternalSorter(size_t memory_bytes, Pager* scratch, Less less = Less(),
                 MemoryArbiter* arbiter = nullptr,
                 const SortConfig& config = SortConfig())
      : scratch_(scratch), less_(less), config_(config) {
    if (arbiter != nullptr) {
      grant_ = arbiter->AcquireShrinkable(SortGrantRequest(memory_bytes));
      memory_bytes = grant_.bytes();
    }
    layout_ = RunLayout::For(memory_bytes, sizeof(T));
  }

  /// Sorts `input` and writes the result to `output`'s end; returns the
  /// sorted range.
  Result<StreamRange> Sort(const StreamRange& input, Pager* output) {
    stats_ = SortStats();
    std::vector<StreamRange> runs;
    SJ_RETURN_IF_ERROR(FormRuns(input, &runs));
    stats_.runs = static_cast<uint32_t>(runs.size());
    if (runs.empty()) {
      return StreamRange{output, output->Allocate(0), 0};
    }
    const RunLayout::MergePlan plan =
        layout_.PlanMerge(runs.size(), config_.merge_fan_in);
    if (runs.size() > 1) {
      stats_.merge_fan_in = static_cast<uint32_t>(plan.fan_in);
      stats_.merge_passes = plan.passes;
    }
    // Merge passes until a single run remains; the final pass targets
    // `output`.
    while (runs.size() > 1) {
      std::vector<StreamRange> next;
      for (size_t i = 0; i < runs.size(); i += plan.fan_in) {
        const size_t k = std::min(plan.fan_in, runs.size() - i);
        std::vector<StreamRange> group(runs.begin() + i, runs.begin() + i + k);
        const bool last_pass = runs.size() <= plan.fan_in;
        Pager* target = last_pass ? output : scratch_;
        SJ_ASSIGN_OR_RETURN(StreamRange merged,
                            MergeRuns(group, target, plan));
        next.push_back(merged);
      }
      runs = std::move(next);
    }
    if (runs.size() == 1 && runs[0].pager != output) {
      // Single run formed directly in scratch: copy it to output so the
      // caller owns a range in the pager it asked for.
      SJ_ASSIGN_OR_RETURN(StreamRange copied, CopyRun(runs[0], output));
      return copied;
    }
    return runs[0];
  }

  /// Number of runs the merge phase can combine at once: one input block
  /// per run plus one output block must fit in memory.
  size_t MaxFanIn() const { return layout_.fan_in; }

  /// Pages per merge-reader block (derived from the memory budget).
  uint32_t merge_block_pages() const { return layout_.block_pages; }

  /// Records per in-memory sorted run (the budget minus one open
  /// streaming block; see RunLayout).
  uint64_t RunCapacity() const { return layout_.run_records; }

  /// What the last Sort()/FormRuns() did.
  const SortStats& stats() const { return stats_; }

  /// Phase 1 only: forms sorted runs in the scratch pager. Exposed so SSSJ
  /// can fuse the final merge with its plane sweep (see MergingReader).
  Status FormRuns(const StreamRange& input, std::vector<StreamRange>* runs) {
    const uint64_t cap = RunCapacity();
    // The chunk buffer reserves min(cap, count) records up front and the
    // run writer holds one write block next to it: report the reserved
    // footprint, not the transient fill level (a short final chunk still
    // owns its full reservation).
    grant_.NoteUsage(std::min<uint64_t>(cap, input.count) * sizeof(T) +
                     uint64_t{layout_.write_block_pages} * kPageSize);
    const uint64_t units = (input.count + cap - 1) / cap;
    if (units >= 2 && FormationThreads() >= 2) {
      return FormRunsParallel(input, units, runs);
    }
    return FormRunsSerial(input, runs);
  }

 private:
  static constexpr uint32_t kRecordsPerPage = StreamWriter<T>::kRecordsPerPage;

  uint32_t FormationThreads() const {
    return std::max<uint32_t>(1, config_.threads);
  }

  /// Pages a run of `count` records occupies: the serial writer flushes in
  /// write_block_pages-sized blocks, every one full except the last.
  uint64_t RunPages(uint64_t count) const {
    const uint64_t per_block =
        uint64_t{layout_.write_block_pages} * kRecordsPerPage;
    const uint64_t full = count / per_block;
    const uint64_t rem = count % per_block;
    return full * layout_.write_block_pages +
           (rem + kRecordsPerPage - 1) / kRecordsPerPage;
  }

  /// Sorts one run chunk under `less_`. A RectF chunk in the sweep order
  /// radix-sorts (sort/radix_sort.h) when it holds at least
  /// kRadixSortMinRecords records and its scratch copy fits the write
  /// block the layout reserves beside the chunk: the run writer opens
  /// only after the sort, so the reported footprint (chunk + write block)
  /// covers the scratch unchanged. Every other chunk and ordering uses
  /// std::sort.
  void SortChunk(std::vector<T>* chunk) const {
    if constexpr (std::is_same_v<T, RectF> &&
                  std::is_same_v<Less, OrderByYLo>) {
      const size_t n = chunk->size();
      if (n >= kRadixSortMinRecords &&
          n * sizeof(T) <= size_t{layout_.write_block_pages} * kPageSize) {
        std::vector<T> scratch(n);
        RadixSortByYLo(chunk->data(), n, scratch.data());
        return;
      }
    }
    std::sort(chunk->begin(), chunk->end(), less_);
  }

  Status FormRunsSerial(const StreamRange& input,
                        std::vector<StreamRange>* runs) {
    StreamReader<T> reader(input.pager, input.first_page, input.count);
    const uint64_t cap = RunCapacity();
    std::vector<T> chunk;
    chunk.reserve(std::min<uint64_t>(cap, input.count));
    while (true) {
      std::optional<T> rec = reader.Next();
      if (rec.has_value()) chunk.push_back(*rec);
      if ((!rec.has_value() && !chunk.empty()) || chunk.size() >= cap) {
        SortChunk(&chunk);
        StreamWriter<T> writer(scratch_, layout_.write_block_pages);
        const PageId first = writer.first_page();
        for (const T& t : chunk) writer.Append(t);
        SJ_ASSIGN_OR_RETURN(uint64_t n, writer.Finish());
        runs->push_back(StreamRange{scratch_, first, n});
        chunk.clear();
      }
      if (!rec.has_value()) break;
    }
    return reader.status();
  }

  /// One run formed off the coordinator thread.
  struct FormationUnit {
    uint64_t first_record = 0;
    uint64_t count = 0;
    PageId out_first = 0;
    double read_wall = 0.0;
    double write_wall = 0.0;
    /// Thread CPU of the unit when it ran off the calling thread.
    double cpu_seconds = 0.0;
  };

  Status FormRunsParallel(const StreamRange& input, uint64_t units,
                          std::vector<StreamRange>* runs) {
    const uint64_t cap = RunCapacity();
    std::vector<FormationUnit> plan(units);
    for (uint64_t u = 0; u < units; ++u) {
      plan[u].first_record = u * cap;
      plan[u].count = std::min<uint64_t>(cap, input.count - u * cap);
      // Pre-allocating every run's extent in unit order reproduces the
      // serial pager layout exactly (serial flushes allocate
      // consecutively), so downstream page ids are thread-count
      // independent.
      plan[u].out_first = scratch_->Allocate(
          static_cast<uint32_t>(RunPages(plan[u].count)));
    }
    const std::thread::id caller = std::this_thread::get_id();
    SJ_RETURN_IF_ERROR(ParallelFor(
        config_.pool, FormationThreads(), units, [&](uint64_t u) {
          ThreadCpuTimer cpu;
          Status formed = FormOneRun(input, &plan[u]);
          // Units on the calling thread are already on its caller's clock.
          if (std::this_thread::get_id() != caller) {
            plan[u].cpu_seconds = cpu.Elapsed();
          }
          return formed;
        }));
    ReplayFormationCharges(input, plan);
    for (const FormationUnit& u : plan) {
      runs->push_back(StreamRange{scratch_, u.out_first, u.count});
      stats_.worker_cpu_seconds += u.cpu_seconds;
    }
    stats_.parallel_units = static_cast<uint32_t>(units);
    return Status::OK();
  }

  /// Worker body: reads the unit's records through the raw backend
  /// (uncharged, wall-timed), sorts them, and writes the run's pages into
  /// its pre-allocated extent with exactly the page images a serial
  /// StreamWriter would produce (records at slot offsets, zeroed
  /// page-tail slack, zeroed tail after the last record).
  Status FormOneRun(const StreamRange& input, FormationUnit* unit) {
    std::vector<T> chunk;
    chunk.reserve(unit->count);
    const uint64_t first_page = unit->first_record / kRecordsPerPage;
    const uint64_t last_page =
        (unit->first_record + unit->count - 1) / kRecordsPerPage;
    std::vector<uint8_t> buf(size_t{kStreamBlockPages} * kPageSize);
    StorageBackend* in = input.pager->backend();
    uint64_t rec = unit->first_record;
    const uint64_t end = unit->first_record + unit->count;
    for (uint64_t p = first_page; p <= last_page; p += kStreamBlockPages) {
      const uint32_t n = static_cast<uint32_t>(
          std::min<uint64_t>(kStreamBlockPages, last_page - p + 1));
      WallTimer read_wall;
      for (uint32_t i = 0; i < n; ++i) {
        SJ_RETURN_IF_ERROR(in->ReadPage(
            static_cast<PageId>(input.first_page + p + i),
            buf.data() + size_t{i} * kPageSize));
      }
      unit->read_wall += read_wall.Elapsed();
      // Records within a page are contiguous slots, so each page's span
      // copies in one shot.
      while (rec < end && rec / kRecordsPerPage < p + n) {
        const uint64_t page = rec / kRecordsPerPage;
        const uint32_t slot = static_cast<uint32_t>(rec % kRecordsPerPage);
        const uint64_t page_end =
            std::min<uint64_t>(end, (page + 1) * kRecordsPerPage);
        const size_t take = static_cast<size_t>(page_end - rec);
        const size_t at = chunk.size();
        chunk.resize(at + take);
        std::memcpy(chunk.data() + at,
                    buf.data() + (page - p) * kPageSize + slot * sizeof(T),
                    take * sizeof(T));
        rec = page_end;
      }
    }
    SortChunk(&chunk);

    const uint64_t per_block =
        uint64_t{layout_.write_block_pages} * kRecordsPerPage;
    std::vector<uint8_t> out(size_t{layout_.write_block_pages} * kPageSize, 0);
    StorageBackend* sb = scratch_->backend();
    uint64_t written = 0;
    uint64_t page_off = 0;
    while (written < chunk.size()) {
      const uint64_t take =
          std::min<uint64_t>(per_block, chunk.size() - written);
      const uint32_t npages = static_cast<uint32_t>(
          (take + kRecordsPerPage - 1) / kRecordsPerPage);
      for (uint32_t pib = 0; pib < npages; ++pib) {
        const uint64_t first = uint64_t{pib} * kRecordsPerPage;
        const size_t in_page = static_cast<size_t>(
            std::min<uint64_t>(kRecordsPerPage, take - first));
        std::memcpy(out.data() + pib * kPageSize,
                    chunk.data() + written + first, in_page * sizeof(T));
      }
      const uint64_t used_last = take - uint64_t{npages - 1} * kRecordsPerPage;
      std::memset(out.data() + (npages - 1) * kPageSize +
                      used_last * sizeof(T),
                  0, kPageSize - used_last * sizeof(T));
      WallTimer write_wall;
      for (uint32_t i = 0; i < npages; ++i) {
        SJ_RETURN_IF_ERROR(sb->WritePage(
            static_cast<PageId>(unit->out_first + page_off + i),
            out.data() + size_t{i} * kPageSize));
      }
      unit->write_wall += write_wall.Elapsed();
      page_off += npages;
      written += take;
    }
    return Status::OK();
  }

  /// Replays the serial modeled-charge sequence on the coordinator after
  /// the workers moved the bytes, in the exact order the serial pipeline
  /// issues it: the input stream reader charges a 64-page block whenever
  /// the next record is beyond the buffered range, so each unit first
  /// charges the read blocks needed to cover its records, then its run's
  /// flush-block writes. Replaying in that interleaving (not merely the
  /// same multiset of requests) keeps io_seconds bit-identical to the
  /// serial sum — floating-point accumulation is order-sensitive even
  /// when every individual charge matches.
  void ReplayFormationCharges(const StreamRange& input,
                              const std::vector<FormationUnit>& units) {
    const uint64_t total_pages =
        (input.count + kRecordsPerPage - 1) / kRecordsPerPage;
    // Records covered by charged read blocks so far (block boundaries do
    // not align with unit boundaries; a straddling block is charged when
    // its first record is needed, exactly like the serial reader).
    uint64_t covered = 0;
    uint64_t read_page_off = 0;
    const uint64_t per_write_block =
        uint64_t{layout_.write_block_pages} * kRecordsPerPage;
    double read_wall = 0.0;
    double write_wall = 0.0;
    for (const FormationUnit& u : units) {
      const uint64_t unit_end = u.first_record + u.count;
      while (covered < unit_end) {
        const uint32_t npages = static_cast<uint32_t>(std::min<uint64_t>(
            kStreamBlockPages, total_pages - read_page_off));
        input.pager->ChargeRead(
            static_cast<PageId>(input.first_page + read_page_off), npages);
        read_page_off += npages;
        covered = std::min<uint64_t>(
            input.count, read_page_off * uint64_t{kRecordsPerPage});
      }
      uint64_t written = 0;
      uint64_t poff = 0;
      while (written < u.count) {
        const uint64_t take =
            std::min<uint64_t>(per_write_block, u.count - written);
        const uint32_t npages = static_cast<uint32_t>(
            (take + kRecordsPerPage - 1) / kRecordsPerPage);
        scratch_->ChargeWrite(static_cast<PageId>(u.out_first + poff),
                              npages);
        poff += npages;
        written += take;
      }
      read_wall += u.read_wall;
      write_wall += u.write_wall;
    }
    input.pager->disk()->AddIoWall(read_wall);
    scratch_->disk()->AddIoWall(write_wall);
  }

  Result<StreamRange> MergeRuns(const std::vector<StreamRange>& runs,
                                Pager* output,
                                const RunLayout::MergePlan& plan) {
    std::vector<std::unique_ptr<StreamReader<T>>> readers;
    readers.reserve(runs.size());
    // One read block per run plus the output writer's block.
    grant_.NoteUsage((runs.size() * uint64_t{plan.read_block_pages} +
                      layout_.write_block_pages) *
                     kPageSize);
    std::vector<std::optional<T>> heads;
    heads.reserve(runs.size());
    for (size_t i = 0; i < runs.size(); ++i) {
      readers.push_back(std::make_unique<StreamReader<T>>(
          runs[i].pager, runs[i].first_page, runs[i].count,
          plan.read_block_pages));
      heads.push_back(readers[i]->Next());
    }
    LoserTree<T, Less> tree(std::move(heads), less_);
    StreamWriter<T> writer(output, layout_.write_block_pages);
    const PageId first = writer.first_page();
    while (!tree.Empty()) {
      const size_t source = tree.TopSource();
      writer.Append(tree.Top());
      tree.ReplaceTop(readers[source]->Next());
    }
    const Status read = FirstReadError(readers);
    SJ_ASSIGN_OR_RETURN(uint64_t n, writer.Finish());
    SJ_RETURN_IF_ERROR(read);
    return StreamRange{output, first, n};
  }

  /// Block-level page copy for the single-run-in-scratch case. A finished
  /// run's pages are exactly the images a fresh StreamWriter would
  /// produce for the same records (contiguous slots, zeroed tails), so
  /// copying pages wholesale replaces the old record-at-a-time
  /// read/append cycle without changing a byte of output.
  Result<StreamRange> CopyRun(const StreamRange& run, Pager* output) {
    const uint64_t total_pages =
        (run.count + kRecordsPerPage - 1) / kRecordsPerPage;
    const PageId first = output->Allocate(static_cast<uint32_t>(total_pages));
    std::vector<uint8_t> buf(size_t{layout_.write_block_pages} * kPageSize);
    uint64_t off = 0;
    while (off < total_pages) {
      const uint32_t n = static_cast<uint32_t>(std::min<uint64_t>(
          layout_.write_block_pages, total_pages - off));
      SJ_RETURN_IF_ERROR(run.pager->ReadRun(
          static_cast<PageId>(run.first_page + off), n, buf.data()));
      SJ_RETURN_IF_ERROR(
          output->WriteRun(static_cast<PageId>(first + off), n, buf.data()));
      off += n;
    }
    return StreamRange{output, first, run.count};
  }

  Pager* scratch_;
  Less less_;
  SortConfig config_;
  RunLayout layout_;
  MemoryGrant grant_;
  SortStats stats_;
};

/// Pull-based k-way merge over sorted runs: yields records in sorted order
/// via Next() without materializing the merged stream.
///
/// SSSJ's fuse_merge_sweep option plugs this directly into the plane
/// sweep, eliminating one write pass and one read pass per input relative
/// to the paper's materializing implementation. Selection runs on the
/// same stable loser tree as the materializing merge.
template <typename T, typename Less>
class MergingReader {
 public:
  MergingReader(std::vector<StreamRange> runs, uint32_t block_pages,
                Less less = Less()) {
    readers_.reserve(runs.size());
    std::vector<std::optional<T>> heads;
    heads.reserve(runs.size());
    for (size_t i = 0; i < runs.size(); ++i) {
      readers_.push_back(std::make_unique<StreamReader<T>>(
          runs[i].pager, runs[i].first_page, runs[i].count, block_pages));
      heads.push_back(readers_[i]->Next());
    }
    tree_.emplace(std::move(heads), less);
  }

  std::optional<T> Next() {
    if (tree_->Empty()) return std::nullopt;
    const size_t source = tree_->TopSource();
    T out = tree_->Top();
    tree_->ReplaceTop(readers_[source]->Next());
    return out;
  }

  /// The first read error among the runs (a failed run ends early).
  Status status() const { return FirstReadError(readers_); }

 private:
  std::vector<std::unique_ptr<StreamReader<T>>> readers_;
  std::optional<LoserTree<T, Less>> tree_;
};

/// Convenience: sorts RectF records by lower y coordinate (the sweep
/// order). With an arbiter, the sort memory is a tracked grant; `config`
/// carries the formation threads and merge fan-in, and `stats` (when set)
/// receives what the sort did.
inline Result<StreamRange> SortRectsByYLo(
    const StreamRange& input, Pager* scratch, Pager* output,
    size_t memory_bytes, MemoryArbiter* arbiter = nullptr,
    const SortConfig& config = SortConfig(), SortStats* stats = nullptr) {
  ExternalSorter<RectF, OrderByYLo> sorter(memory_bytes, scratch,
                                           OrderByYLo(), arbiter, config);
  Result<StreamRange> out = sorter.Sort(input, output);
  if (stats != nullptr) stats->Fold(sorter.stats());
  return out;
}

/// The same, with the empty context the benchmark driver passes (see
/// io/prefetch.h).
inline Result<StreamRange> SortRectsByYLo(
    const StreamRange& input, Pager* scratch, Pager* output,
    size_t memory_bytes, MemoryArbiter* arbiter, const PrefetchContext&,
    const SortConfig& config, SortStats* stats) {
  return SortRectsByYLo(input, scratch, output, memory_bytes, arbiter, config,
                        stats);
}

}  // namespace sj

#endif  // USJ_SORT_EXTERNAL_SORT_H_
