#ifndef USJ_SORT_EXTERNAL_PQ_H_
#define USJ_SORT_EXTERNAL_PQ_H_

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include "core/memory_arbiter.h"
#include "io/pager.h"
#include "io/stream.h"
#include "sort/external_sort.h"
#include "sort/run_layout.h"
#include "util/logging.h"

namespace sj {

/// A bounded-memory priority queue that spills to disk.
///
/// The paper's PQ join assumes its priority queues fit in memory and notes
/// (§4) that overflow can be handled gracefully with an external priority
/// queue [2, 9]. This is that component: a merge-based external PQ —
///
///   * inserts go to an in-memory min-heap;
///   * when the heap exceeds its budget, its larger half is written out
///     as a sorted run (one sequential write) behind a streaming cursor;
///   * the minimum is the smaller of the heap front and the run cursors'
///     heads.
///
/// Every element is written and read at most once, so a workload of N
/// inserts costs O(N/B) extra I/O only when the budget is actually
/// exceeded — zero overhead in the in-memory regime the paper measures.
/// Each ExtractMin scans the open cursors, so the structure is intended
/// for the moderate run counts this access pattern produces (the heap
/// always holds the recent half of the live elements).
///
/// The heap capacity and spill-block sizes come from RunLayout — the same
/// arithmetic ExternalSorter uses — so the heap plus one open streaming
/// block fit the budget (the two components historically copied this
/// computation and diverged by that one block).
///
/// T must be trivially copyable; Less must be a strict weak ordering.
template <typename T, typename Less>
class ExternalPriorityQueue {
 public:
  /// Spilled runs are appended to `spill` (which must outlive the queue).
  /// `memory_bytes` bounds the in-memory heap; each spilled run adds one
  /// small streaming buffer on top. With an arbiter, the budget is
  /// acquired as a tracked "pq.queue" grant (shrunk to what is left).
  ExternalPriorityQueue(size_t memory_bytes, Pager* spill, Less less = Less(),
                        MemoryArbiter* arbiter = nullptr)
      : less_(less), spill_(spill) {
    if (arbiter != nullptr) {
      grant_ = arbiter->AcquireShrinkable(grants::kPqQueue, memory_bytes,
                                          kMinHeapRecords * sizeof(T));
      memory_bytes = grant_.bytes();
    }
    const RunLayout layout = RunLayout::For(memory_bytes, sizeof(T));
    // The PQ's budget floor is records, not sort pages: tiny queues are
    // legitimate (they just spill sooner), so undercut the layout's
    // page-clamped capacity when the caller's budget is smaller.
    heap_capacity_ = std::min<uint64_t>(
        layout.run_records,
        std::max<uint64_t>(kMinHeapRecords, memory_bytes / sizeof(T)));
    run_block_pages_ = layout.block_pages;
  }

  void Push(const T& value) {
    heap_.push_back(value);
    std::push_heap(heap_.begin(), heap_.end(), HeapGreater{less_});
    size_++;
    if (heap_.size() > heap_capacity_) Spill();
  }

  /// Removes and returns the smallest element, or nullopt when empty.
  std::optional<T> PopMin() {
    const int source = MinSource();
    if (source == kNone) return std::nullopt;
    size_--;
    if (source == kHeap) {
      std::pop_heap(heap_.begin(), heap_.end(), HeapGreater{less_});
      T out = heap_.back();
      heap_.pop_back();
      return out;
    }
    RunCursor& cursor = cursors_[static_cast<size_t>(source)];
    T out = *cursor.head;
    cursor.head = cursor.reader->Next();
    if (!cursor.head.has_value()) {
      cursors_.erase(cursors_.begin() + source);
    }
    return out;
  }

  /// Returns the smallest element without removing it.
  std::optional<T> PeekMin() {
    const int source = MinSource();
    if (source == kNone) return std::nullopt;
    if (source == kHeap) return heap_.front();
    return cursors_[static_cast<size_t>(source)].head;
  }

  bool Empty() const { return size_ == 0; }
  uint64_t Size() const { return size_; }
  size_t SpilledRuns() const { return total_runs_; }
  size_t OpenRuns() const { return cursors_.size(); }

  /// Current in-memory footprint (heap + run cursor buffers).
  size_t MemoryBytes() const {
    return heap_.size() * sizeof(T) +
           cursors_.size() * run_block_pages_ * kPageSize;
  }

 private:
  struct HeapGreater {
    Less less;
    bool operator()(const T& a, const T& b) const { return less(b, a); }
  };
  struct RunCursor {
    std::unique_ptr<StreamReader<T>> reader;
    std::optional<T> head;
  };

  static constexpr uint64_t kMinHeapRecords = 64;
  static constexpr int kNone = -2;
  static constexpr int kHeap = -1;

  // Index of the cursor holding the overall minimum, kHeap for the
  // in-memory heap, kNone when empty.
  int MinSource() const {
    int best = kNone;
    const T* best_value = nullptr;
    if (!heap_.empty()) {
      best = kHeap;
      best_value = &heap_.front();
    }
    for (size_t i = 0; i < cursors_.size(); ++i) {
      const T& head = *cursors_[i].head;
      if (best_value == nullptr || less_(head, *best_value)) {
        best = static_cast<int>(i);
        best_value = &head;
      }
    }
    return best;
  }

  void Spill() {
    // Keep the smaller half in memory (needed soonest); spill the larger
    // half as a sorted run with an open streaming cursor.
    grant_.NoteUsage(MemoryBytes());
    std::sort(heap_.begin(), heap_.end(), less_);
    const size_t keep = heap_.size() / 2;
    StreamWriter<T> writer(spill_, run_block_pages_);
    const PageId first = writer.first_page();
    for (size_t i = keep; i < heap_.size(); ++i) writer.Append(heap_[i]);
    auto n = writer.Finish();
    SJ_CHECK(n.ok()) << n.status().ToString();
    heap_.resize(keep);
    std::make_heap(heap_.begin(), heap_.end(), HeapGreater{less_});

    RunCursor cursor;
    cursor.reader = std::make_unique<StreamReader<T>>(spill_, first, n.value(),
                                                      run_block_pages_);
    cursor.head = cursor.reader->Next();
    SJ_CHECK(cursor.head.has_value());
    cursors_.push_back(std::move(cursor));
    total_runs_++;
  }

  Less less_;
  Pager* spill_;
  size_t heap_capacity_ = kMinHeapRecords;
  uint32_t run_block_pages_ = 1;
  std::vector<T> heap_;
  std::vector<RunCursor> cursors_;
  size_t total_runs_ = 0;
  uint64_t size_ = 0;
  MemoryGrant grant_;
};

}  // namespace sj

#endif  // USJ_SORT_EXTERNAL_PQ_H_
