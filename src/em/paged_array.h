// PagedArray<T>: a fixed-capacity array of trivially-copyable records laid
// out across pager blocks, with no record straddling a block boundary.
//
// This is the building block for node payloads: pilot sets, representative
// blocks, sketch blocks, child tables. The array is a *view*: the owner keeps
// the block-id list inside its own node block and reconstructs the view on
// access, so no per-node state lives in RAM.

#ifndef TOKRA_EM_PAGED_ARRAY_H_
#define TOKRA_EM_PAGED_ARRAY_H_

#include <cstring>
#include <span>
#include <type_traits>
#include <vector>

#include "em/pager.h"
#include "util/bits.h"

namespace tokra::em {

template <typename T>
class PagedArray {
  static_assert(std::is_trivially_copyable_v<T>);
  static_assert(sizeof(T) % sizeof(word_t) == 0,
                "records must be whole words so ranks map to word offsets");

 public:
  static constexpr std::uint32_t kWordsPerElem = sizeof(T) / sizeof(word_t);

  /// Elements that fit one block of `block_words` words.
  static std::uint32_t ElemsPerBlock(std::uint32_t block_words) {
    std::uint32_t e = block_words / kWordsPerElem;
    TOKRA_CHECK(e >= 1);
    return e;
  }

  /// Blocks needed for `capacity` elements.
  static std::uint32_t BlocksFor(std::uint32_t block_words,
                                 std::uint32_t capacity) {
    if (capacity == 0) return 0;
    return static_cast<std::uint32_t>(
        CeilDiv(capacity, ElemsPerBlock(block_words)));
  }

  /// Allocates the backing blocks for `capacity` elements.
  static std::vector<BlockId> AllocateBlocks(Pager* pager,
                                             std::uint32_t capacity) {
    std::vector<BlockId> ids(BlocksFor(pager->B(), capacity));
    for (BlockId& id : ids) id = pager->Allocate();
    return ids;
  }

  /// A view over existing blocks. `blocks` must outlive the view.
  PagedArray(Pager* pager, std::span<const BlockId> blocks)
      : pager_(pager),
        blocks_(blocks),
        per_block_(ElemsPerBlock(pager->B())) {}

  std::uint32_t capacity() const {
    return static_cast<std::uint32_t>(blocks_.size()) * per_block_;
  }

  T Get(std::uint32_t i) const {
    TOKRA_DCHECK(i < capacity());
    PageRef page = pager_->Fetch(blocks_[i / per_block_]);
    T out;
    std::memcpy(static_cast<void*>(&out), page.words().data() + Offset(i),
                sizeof(T));
    return out;
  }

  void Set(std::uint32_t i, const T& v) {
    TOKRA_DCHECK(i < capacity());
    PageRef page = pager_->Fetch(blocks_[i / per_block_]);
    std::memcpy(page.mutable_words().data() + Offset(i),
                static_cast<const void*>(&v), sizeof(T));
  }

  /// Reads [begin, end) touching each backing block once. A multi-block
  /// range is prefetched first, so its misses are loaded (and their dirty
  /// victims written back) in one pool call. Each block's records are
  /// copied out with one memcpy from the read-only page view — on a
  /// borrowed (mmap) frame that view is the device mapping itself, so the
  /// only copy left on the whole path is mapping -> caller vector.
  void ReadRange(std::uint32_t begin, std::uint32_t end,
                 std::vector<T>* out) const {
    TOKRA_DCHECK(begin <= end && end <= capacity());
    out->clear();
    if (begin == end) return;
    out->resize(end - begin);
    PrefetchSpan(begin, end);
    std::uint32_t i = begin;
    while (i < end) {
      std::uint32_t b = i / per_block_;
      std::uint32_t last = std::min(end, (b + 1) * per_block_);
      PageRef page = pager_->Fetch(blocks_[b]);
      std::memcpy(static_cast<void*>(out->data() + (i - begin)),
                  page.words().data() + Offset(i),
                  std::size_t{last - i} * sizeof(T));
      i = last;
    }
  }

  /// Writes `vals` starting at `begin`, touching each backing block once.
  /// Blocks are fetched before modification (a record may share its block
  /// with records outside the range), so the misses are prefetched as one
  /// batch here too. A block whose segment already holds the new bytes is
  /// left clean: no write-back, and under COW no redirect.
  void WriteRange(std::uint32_t begin, std::span<const T> vals) {
    TOKRA_DCHECK(begin + vals.size() <= capacity());
    if (vals.empty()) return;
    const std::uint32_t end = begin + static_cast<std::uint32_t>(vals.size());
    PrefetchSpan(begin, end);
    std::uint32_t i = begin;
    while (i < end) {
      std::uint32_t b = i / per_block_;
      std::uint32_t last = std::min(end, (b + 1) * per_block_);
      PageRef page = pager_->Fetch(blocks_[b]);
      const void* src = &vals[i - begin];
      const std::size_t bytes = std::size_t{last - i} * sizeof(T);
      if (std::memcmp(page.words().data() + Offset(i), src, bytes) != 0) {
        std::memcpy(page.mutable_words().data() + Offset(i), src, bytes);
      }
      i = last;
    }
  }

 private:
  std::uint32_t Offset(std::uint32_t i) const {
    return (i % per_block_) * kWordsPerElem;
  }

  /// Batch-loads the backing blocks of element range [begin, end) when it
  /// spans more than one block (a single block would be one read either way).
  void PrefetchSpan(std::uint32_t begin, std::uint32_t end) const {
    std::uint32_t b0 = begin / per_block_;
    std::uint32_t b1 = (end - 1) / per_block_;
    if (b1 > b0) pager_->Prefetch(blocks_.subspan(b0, b1 - b0 + 1));
  }

  Pager* pager_;
  std::span<const BlockId> blocks_;
  std::uint32_t per_block_;
};

}  // namespace tokra::em

#endif  // TOKRA_EM_PAGED_ARRAY_H_
