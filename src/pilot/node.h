// Private record layouts of the pilot PST (Lemma 1 structure).
//
// The structure is a weight-balanced base tree T whose internal nodes each
// carry a secondary binary tree T(u) over their children; concatenating the
// T(u)'s yields the conceptual big tree "script-T" of Section 2. We
// materialize each T(u) as a fixed-capacity array of TNodeRec records stored
// in pager blocks; the array doubles as the paper's "representative blocks"
// because every record carries its pilot set's representative and size, so
// one O(1)-block read exposes all representatives of T(u).

#ifndef TOKRA_PILOT_NODE_H_
#define TOKRA_PILOT_NODE_H_

#include <bit>
#include <cstdint>

#include "em/options.h"

namespace tokra::pilot {

/// Index of a T-node inside its base node's array.
using TIndex = std::uint32_t;
inline constexpr TIndex kNoTNode = ~TIndex{0};

/// Global identity of a T-node: (base node, index in its array).
struct TRef {
  em::BlockId base = em::kNullBlock;
  TIndex idx = kNoTNode;

  bool valid() const { return base != em::kNullBlock; }
  bool operator==(const TRef& o) const { return base == o.base && idx == o.idx; }
};

/// Pilot block slots per record: the capacity of a set of 2B points of 2
/// words each. Push-downs carry displaced points through the cascade in
/// scratch memory, so a pilot set never materializes above 2B points. This
/// is a cap, not a reservation: a set of c points holds exactly
/// PagedArray<Point>::BlocksFor(B, c) blocks in slots [0, that), and every
/// other slot is em::kNullBlock (an empty set holds none).
inline constexpr std::uint32_t kPilotBlocks = 4;

/// One node of a secondary tree T(u). All fields are single words so the
/// record maps onto PagedArray<TNodeRec>. 16 words.
struct TNodeRec {
  std::uint64_t left = ~std::uint64_t{0};        ///< TIndex or kNoTNode
  std::uint64_t right = ~std::uint64_t{0};       ///< TIndex or kNoTNode
  std::uint64_t parent = ~std::uint64_t{0};      ///< TIndex or kNoTNode
  std::uint64_t base_child = em::kNullBlock;     ///< leaf-slab: child base id
  std::uint64_t pilot_count = 0;
  std::uint64_t rep_bits = 0;                    ///< bit-cast score of the rep
  std::uint64_t lo_x_bits = 0;                   ///< slab [lo_x, hi_x)
  std::uint64_t hi_x_bits = 0;
  std::uint64_t pilot_blocks[kPilotBlocks] = {em::kNullBlock, em::kNullBlock,
                                             em::kNullBlock, em::kNullBlock};
  std::uint64_t ins_tokens = 0;  ///< Lemma 3 accounting (TOKRA_PARANOID)
  std::uint64_t del_tokens = 0;
  std::uint64_t max_bits = 0;  ///< bit-cast max pilot score (3-sided pruning)
  std::uint64_t pad1 = 0;

  bool is_slab() const { return base_child != em::kNullBlock; }
  double rep() const { return std::bit_cast<double>(rep_bits); }
  void set_rep(double v) { rep_bits = std::bit_cast<std::uint64_t>(v); }
  double pmax() const { return std::bit_cast<double>(max_bits); }
  void set_pmax(double v) { max_bits = std::bit_cast<std::uint64_t>(v); }
  double lo_x() const { return std::bit_cast<double>(lo_x_bits); }
  double hi_x() const { return std::bit_cast<double>(hi_x_bits); }
  void set_lo_x(double v) { lo_x_bits = std::bit_cast<std::uint64_t>(v); }
  void set_hi_x(double v) { hi_x_bits = std::bit_cast<std::uint64_t>(v); }
};
static_assert(sizeof(TNodeRec) == 16 * sizeof(std::uint64_t));

// --- base node header block layout (word offsets) ----------------------
// Common:   [0] kind (0 internal / 1 leaf)   [1] level   [2] weight
//           [3] parent base id               [4] parent_slab idx
// Leaf:     [5] m (#x keys)  [6] n_xblocks   [7..) x block ids
// Internal: [5] f (#children)  [6] root tnode idx  [7] n_tnodes
//           [8] tnode_cap      [9] n_tblocks       [10..) tnode block ids
inline constexpr std::size_t kHKind = 0;
inline constexpr std::size_t kHLevel = 1;
inline constexpr std::size_t kHWeight = 2;
inline constexpr std::size_t kHParent = 3;
inline constexpr std::size_t kHParentSlab = 4;
inline constexpr std::size_t kHLeafM = 5;
inline constexpr std::size_t kHLeafNX = 6;
inline constexpr std::size_t kHLeafXIds = 7;
inline constexpr std::size_t kHIntF = 5;
inline constexpr std::size_t kHIntRoot = 6;
inline constexpr std::size_t kHIntNT = 7;
inline constexpr std::size_t kHIntCap = 8;
inline constexpr std::size_t kHIntNTB = 9;
inline constexpr std::size_t kHIntTIds = 10;

// --- meta block layout -------------------------------------------------
inline constexpr std::size_t kMRoot = 0;
inline constexpr std::size_t kMLive = 1;
inline constexpr std::size_t kMKeys = 2;
inline constexpr std::size_t kMBranch = 3;  // a
inline constexpr std::size_t kMLeafCap = 4;  // b
inline constexpr std::size_t kMPhi = 5;
inline constexpr std::size_t kMHeight = 6;  // base-tree levels (root level)

}  // namespace tokra::pilot

#endif  // TOKRA_PILOT_NODE_H_
