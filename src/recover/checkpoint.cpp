#include "recover/checkpoint.h"

#include <algorithm>

#include "support/error.h"

namespace revft::recover {

void restore_cells(StateVector& state, const StateVector& snapshot,
                   const std::vector<std::uint32_t>& cells) {
  REVFT_CHECK_MSG(state.width() == snapshot.width(),
                  "restore_cells: width mismatch");
  for (const std::uint32_t cell : cells) state.set_bit(cell, snapshot.bit(cell));
}

void PackedCheckpoint::capture(const PackedState& state) {
  width_ = state.width();
  lane_words_ = state.lane_words();
  words_.resize(static_cast<std::size_t>(width_) * lane_words_);
  if (width_ != 0)
    std::copy(state.words(0), state.words(0) + words_.size(), words_.begin());
}

void PackedCheckpoint::restore_all(PackedState& state) const {
  REVFT_CHECK_MSG(state.width() == width_ && state.lane_words() == lane_words_,
                  "restore_all: geometry mismatch");
  if (width_ != 0) std::copy(words_.begin(), words_.end(), state.words(0));
}

void blend_lanes(PackedState& dst, const PackedState& src,
                 std::uint64_t lane_mask) {
  REVFT_CHECK_MSG(dst.width() == src.width(), "blend_lanes: width mismatch");
  REVFT_CHECK_MSG(dst.lane_words() == 1 && src.lane_words() == 1,
                  "blend_lanes: single-word overload on a wide state");
  for (std::uint32_t cell = 0; cell < dst.width(); ++cell)
    dst.word(cell) =
        (dst.word(cell) & ~lane_mask) | (src.word(cell) & lane_mask);
}

void blend_cells_lanes(PackedState& dst, const PackedState& src,
                       const std::vector<std::uint32_t>& cells,
                       std::uint64_t lane_mask) {
  REVFT_CHECK_MSG(dst.width() == src.width(),
                  "blend_cells_lanes: width mismatch");
  REVFT_CHECK_MSG(dst.lane_words() == 1 && src.lane_words() == 1,
                  "blend_cells_lanes: single-word overload on a wide state");
  for (const std::uint32_t cell : cells)
    dst.word(cell) =
        (dst.word(cell) & ~lane_mask) | (src.word(cell) & lane_mask);
}

void blend_lanes(PackedState& dst, const PackedState& src,
                 const LaneMask& lane_mask) {
  REVFT_CHECK_MSG(dst.width() == src.width(), "blend_lanes: width mismatch");
  REVFT_CHECK_MSG(
      dst.lane_words() == src.lane_words() &&
          lane_mask.words() == dst.lane_words(),
      "blend_lanes: lane_words mismatch");
  const unsigned W = dst.lane_words();
  for (std::uint32_t cell = 0; cell < dst.width(); ++cell) {
    std::uint64_t* d = dst.words(cell);
    const std::uint64_t* s = src.words(cell);
    for (unsigned w = 0; w < W; ++w) {
      const std::uint64_t m = lane_mask.word(w);
      d[w] = (d[w] & ~m) | (s[w] & m);
    }
  }
}

void blend_cells_lanes(PackedState& dst, const PackedState& src,
                       const std::vector<std::uint32_t>& cells,
                       const LaneMask& lane_mask) {
  REVFT_CHECK_MSG(dst.width() == src.width(),
                  "blend_cells_lanes: width mismatch");
  REVFT_CHECK_MSG(
      dst.lane_words() == src.lane_words() &&
          lane_mask.words() == dst.lane_words(),
      "blend_cells_lanes: lane_words mismatch");
  const unsigned W = dst.lane_words();
  for (const std::uint32_t cell : cells) {
    std::uint64_t* d = dst.words(cell);
    const std::uint64_t* s = src.words(cell);
    for (unsigned w = 0; w < W; ++w) {
      const std::uint64_t m = lane_mask.word(w);
      d[w] = (d[w] & ~m) | (s[w] & m);
    }
  }
}

void lane_indices(const LaneMask& mask, std::vector<std::uint16_t>& out) {
  out.clear();
  for_each_lane(mask, [&](unsigned lane) {
    out.push_back(static_cast<std::uint16_t>(lane));
  });
}

namespace {

/// `lanes` (ascending) must index the wide batch and fit the narrow
/// state.
void check_compaction(const PackedState& narrow, std::uint32_t width,
                      unsigned wide_words,
                      const std::vector<std::uint16_t>& lanes,
                      const char* what) {
  REVFT_CHECK_MSG(narrow.width() == width, what << ": width mismatch");
  REVFT_CHECK_MSG(lanes.size() <= narrow.lanes(),
                  what << ": " << lanes.size() << " lanes exceed the "
                       << narrow.lanes() << "-lane narrow state");
  REVFT_CHECK_MSG(lanes.empty() || lanes.back() < 64 * wide_words,
                  what << ": lane " << lanes.back() << " outside the "
                       << 64 * wide_words << "-lane batch");
}

// Both moves build each destination word in locals and store it once:
// dst may alias src as far as the compiler knows, so a per-lane
// read-modify-write of dst would reload and store every lane.

void gather_cell(std::uint64_t* dst, unsigned dst_words,
                 const std::uint64_t* src,
                 const std::vector<std::uint16_t>& lanes) {
  const std::size_t n = lanes.size();
  for (unsigned w = 0; w < dst_words; ++w) {
    const std::size_t first = 64 * static_cast<std::size_t>(w);
    const std::size_t last = std::min(n, first + 64);
    std::uint64_t word = 0;
    for (std::size_t j = first; j < last; ++j) {
      const unsigned lane = lanes[j];
      word |= ((src[lane >> 6] >> (lane & 63u)) & 1ULL) << (j - first);
    }
    dst[w] = word;
  }
}

void scatter_cell(std::uint64_t* dst, unsigned dst_words,
                  const std::uint64_t* src,
                  const std::vector<std::uint16_t>& lanes,
                  const LaneMask& accept) {
  std::uint64_t clear[kMaxLaneWords] = {};
  std::uint64_t set[kMaxLaneWords] = {};
  for_each_lane(accept, [&](unsigned j) {
    const unsigned lane = lanes[j];
    const std::uint64_t bit = 1ULL << (lane & 63u);
    clear[lane >> 6] |= bit;
    if ((src[j >> 6] >> (j & 63u)) & 1ULL) set[lane >> 6] |= bit;
  });
  for (unsigned w = 0; w < dst_words; ++w)
    if (clear[w] != 0) dst[w] = (dst[w] & ~clear[w]) | set[w];
}

void check_scatter(const PackedState& dst, const PackedState& src,
                   const std::vector<std::uint16_t>& lanes,
                   const LaneMask& accept) {
  check_compaction(src, dst.width(), dst.lane_words(), lanes,
                   "scatter_lanes");
  REVFT_CHECK_MSG(accept.words() == src.lane_words(),
                  "scatter_lanes: accept mask is not at the narrow width");
  REVFT_DASSERT((accept & LaneMask::first_n(accept.words(), lanes.size())) ==
                accept);
}

}  // namespace

void gather_cells_lanes(PackedState& dst, const PackedCheckpoint& src,
                        const std::vector<std::uint32_t>& cells,
                        const std::vector<std::uint16_t>& lanes) {
  check_compaction(dst, src.width(), src.lane_words(), lanes,
                   "gather_lanes");
  for (const std::uint32_t cell : cells)
    gather_cell(dst.words(cell), dst.lane_words(), src.words(cell), lanes);
}

void gather_lanes(PackedState& dst, const PackedCheckpoint& src,
                  const std::vector<std::uint16_t>& lanes) {
  check_compaction(dst, src.width(), src.lane_words(), lanes,
                   "gather_lanes");
  for (std::uint32_t cell = 0; cell < dst.width(); ++cell)
    gather_cell(dst.words(cell), dst.lane_words(), src.words(cell), lanes);
}

void scatter_cells_lanes(PackedState& dst, const PackedState& src,
                         const std::vector<std::uint32_t>& cells,
                         const std::vector<std::uint16_t>& lanes,
                         const LaneMask& accept) {
  check_scatter(dst, src, lanes, accept);
  for (const std::uint32_t cell : cells)
    scatter_cell(dst.words(cell), dst.lane_words(), src.words(cell), lanes,
                 accept);
}

void scatter_lanes(PackedState& dst, const PackedState& src,
                   const std::vector<std::uint16_t>& lanes,
                   const LaneMask& accept) {
  check_scatter(dst, src, lanes, accept);
  for (std::uint32_t cell = 0; cell < dst.width(); ++cell)
    scatter_cell(dst.words(cell), dst.lane_words(), src.words(cell), lanes,
                 accept);
}

}  // namespace revft::recover
