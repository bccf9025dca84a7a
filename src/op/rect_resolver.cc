#include "op/rect_resolver.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "io/stream.h"
#include "sort/external_sort.h"
#include "util/logging.h"

namespace sj {

namespace {

/// Materializes an R-tree's data rectangles as a stream on `pager` so the
/// external sorter can run over them (same transient-materialization
/// precedent as the executor layer's leaf extraction).
Result<StreamRange> TreeToStream(const RTree& tree, Pager* pager) {
  std::vector<RectF> all;
  SJ_RETURN_IF_ERROR(tree.CollectAll(&all));
  StreamWriter<RectF> writer(pager);
  const PageId first = writer.first_page();
  for (const RectF& r : all) writer.Append(r);
  SJ_ASSIGN_OR_RETURN(uint64_t n, writer.Finish());
  return StreamRange{pager, first, n};
}

}  // namespace

Result<std::unique_ptr<RectResolver>> RectResolver::Build(
    const JoinInput& input, DiskModel* disk, MemoryArbiter* arbiter,
    StorageFactory* storage, const std::string& name,
    const SortConfig& sort_config) {
  SJ_CHECK(disk != nullptr && arbiter != nullptr);
  auto resolver = std::unique_ptr<RectResolver>(new RectResolver());
  resolver->count_ = input.count();
  const uint64_t table_bytes = resolver->count_ * sizeof(RectF);

  // One grant governs the resolver whichever path it takes: the full
  // sorted table in memory, or (shrunk) the page index plus one page
  // buffer of the external path.
  resolver->grant_ = arbiter->AcquireShrinkable(
      grants::kOpRectMap, static_cast<size_t>(table_bytes), 2 * kPageSize);

  if (resolver->grant_.bytes() >= table_bytes) {
    // In-memory: load, sort by id, binary-search lookups.
    resolver->sorted_.reserve(static_cast<size_t>(resolver->count_));
    if (input.indexed()) {
      SJ_RETURN_IF_ERROR(input.rtree()->CollectAll(&resolver->sorted_));
    } else {
      const DatasetRef& ref = input.stream();
      StreamReader<RectF> reader(ref.range.pager, ref.range.first_page,
                                 ref.range.count);
      while (std::optional<RectF> r = reader.Next()) {
        resolver->sorted_.push_back(*r);
      }
    }
    std::sort(resolver->sorted_.begin(), resolver->sorted_.end(), OrderById());
    resolver->grant_.NoteUsage(resolver->sorted_.size() * sizeof(RectF));
    return resolver;
  }

  // External: id-sort the relation into a scratch pager and keep only the
  // per-page first ids in memory.
  resolver->external_ = true;
  SJ_ASSIGN_OR_RETURN(resolver->scratch_,
                      MakePager(storage, disk, name + ".rectmap"));
  StreamRange raw;
  if (input.indexed()) {
    SJ_ASSIGN_OR_RETURN(raw,
                        TreeToStream(*input.rtree(), resolver->scratch_.get()));
  } else {
    raw = input.stream().range;
  }
  ExternalSorter<RectF, OrderById> sorter(resolver->grant_.bytes(),
                                          resolver->scratch_.get(), OrderById(),
                                          arbiter, sort_config);
  SJ_ASSIGN_OR_RETURN(StreamRange sorted,
                      sorter.Sort(raw, resolver->scratch_.get()));
  resolver->first_page_ = sorted.first_page;
  resolver->count_ = sorted.count;

  // Index pass: the first id of every sorted page (one sequential scan;
  // 4 bytes of index per 8 KB page).
  constexpr uint32_t kPerPage = StreamWriter<RectF>::kRecordsPerPage;
  const uint64_t npages = (sorted.count + kPerPage - 1) / kPerPage;
  resolver->page_first_ids_.reserve(static_cast<size_t>(npages));
  StreamReader<RectF> reader(sorted.pager, sorted.first_page, sorted.count);
  uint64_t i = 0;
  while (std::optional<RectF> r = reader.Next()) {
    if (i % kPerPage == 0) resolver->page_first_ids_.push_back(r->id);
    i++;
  }
  resolver->page_buf_.resize(kPageSize);
  resolver->grant_.NoteUsage(resolver->page_first_ids_.size() *
                                 sizeof(ObjectId) +
                             kPageSize);
  return resolver;
}

Status RectResolver::Lookup(const std::vector<ObjectId>& ids,
                            std::vector<RectF>* out) {
  out->resize(ids.size());
  if (external_) return LookupExternal(ids, out);
  for (size_t i = 0; i < ids.size(); ++i) {
    const RectF probe(0, 0, 0, 0, ids[i]);
    auto it = std::lower_bound(sorted_.begin(), sorted_.end(), probe,
                               OrderById());
    if (it == sorted_.end() || it->id != ids[i]) {
      return Status::Internal("RectResolver: id " + std::to_string(ids[i]) +
                              " not in input");
    }
    (*out)[i] = *it;
  }
  return Status::OK();
}

Status RectResolver::LookupExternal(const std::vector<ObjectId>& ids,
                                    std::vector<RectF>* out) {
  constexpr uint32_t kPerPage = StreamWriter<RectF>::kRecordsPerPage;
  // Process the batch in ascending id order so page fetches are monotone
  // and consecutive ids share one read.
  std::vector<std::pair<ObjectId, size_t>> order(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) order[i] = {ids[i], i};
  std::sort(order.begin(), order.end());

  for (const auto& [id, pos] : order) {
    // The page holding `id` is the last one whose first id is <= id.
    auto it = std::upper_bound(page_first_ids_.begin(), page_first_ids_.end(),
                               id);
    if (it == page_first_ids_.begin()) {
      return Status::Internal("RectResolver: id " + std::to_string(id) +
                              " not in input");
    }
    const uint64_t page =
        static_cast<uint64_t>(it - page_first_ids_.begin()) - 1;
    if (page != cached_page_) {
      SJ_RETURN_IF_ERROR(scratch_->ReadPage(
          static_cast<PageId>(first_page_ + page), page_buf_.data()));
      cached_page_ = page;
      lookup_pages_read_++;
    }
    const uint64_t first_rec = page * kPerPage;
    const uint32_t in_page = static_cast<uint32_t>(
        std::min<uint64_t>(kPerPage, count_ - first_rec));
    auto record_at = [this](uint32_t slot) {
      RectF r;
      std::memcpy(&r, page_buf_.data() + slot * sizeof(RectF), sizeof(RectF));
      return r;
    };
    // Binary search within the page (records are id-sorted).
    uint32_t lo = 0, hi = in_page;
    while (lo < hi) {
      const uint32_t mid = (lo + hi) / 2;
      if (record_at(mid).id < id) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo == in_page) {
      return Status::Internal("RectResolver: id " + std::to_string(id) +
                              " not in input");
    }
    const RectF hit = record_at(lo);
    if (hit.id != id) {
      return Status::Internal("RectResolver: id " + std::to_string(id) +
                              " not in input");
    }
    (*out)[pos] = hit;
  }
  return Status::OK();
}

}  // namespace sj
