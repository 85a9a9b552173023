// revft/recover/checkpoint.h
//
// Checkpoint/restore for both simulation engines — the state layer of
// the block-local retry protocol (recover/plan.h explains the
// protocol; this header only moves bits).
//
// A checkpoint is a full-width snapshot taken at an ACCEPTED recovery
// boundary: every check evaluated there passed, so the snapshot is the
// certified prefix a retry may legally restart from. Restores come in
// two granularities:
//
//   * whole-state  — a whole-program restart (or the scratch copy a
//     packed replay begins from);
//   * cell subset  — the block-local path: only the fired component's
//     footprint cells (its rails' group cells, every cell its segment
//     ops touch, and its rail bits) are re-prepared, because every
//     other cell is still vouched for by its own passed checks.
//
// The packed engine restores PER LANE on top of per cell: trial t
// lives in bit t%64 of lane word t/64 of every cell, so "roll lane t
// back" is a one-mask blend per word — the lane-parallel analogue of
// copying a scalar state. Multi-word states (lane_words > 1,
// noise/lanes.h) blend under a LaneMask; the uint64_t overloads are
// the legacy single-word forms. All operations are exact bit moves;
// nothing here draws randomness, so the sharded determinism contract
// of the Monte-Carlo engines is untouched.
#pragma once

#include <cstdint>
#include <vector>

#include "noise/lanes.h"
#include "noise/packed_sim.h"
#include "rev/simulator.h"

namespace revft::recover {

/// Restore `cells` of `state` from `snapshot` (both at the same
/// width). The scalar block-local restore: untouched cells keep their
/// current values.
void restore_cells(StateVector& state, const StateVector& snapshot,
                   const std::vector<std::uint32_t>& cells);

/// Full-width snapshot of a PackedState (every lane of every cell).
class PackedCheckpoint {
 public:
  PackedCheckpoint() = default;

  /// Overwrite the snapshot with the current state (resizes on first
  /// use; later captures at the same geometry reuse the buffer).
  void capture(const PackedState& state);

  std::uint32_t width() const noexcept { return width_; }
  unsigned lane_words() const noexcept { return lane_words_; }

  /// Legacy single-word accessor (lane_words() == 1 captures only).
  std::uint64_t word(std::uint32_t cell) const {
    REVFT_DASSERT(lane_words_ == 1);
    return words_[cell];
  }
  /// Lane words of `cell` (contiguous, lane_words() long).
  const std::uint64_t* words(std::uint32_t cell) const {
    REVFT_DASSERT(cell < width_);
    return words_.data() + static_cast<std::size_t>(cell) * lane_words_;
  }

  /// Copy the snapshot back into `state` wholesale (every cell, every
  /// lane) — the start of a packed replay or program restart.
  void restore_all(PackedState& state) const;

 private:
  std::vector<std::uint64_t> words_;
  std::uint32_t width_ = 0;
  unsigned lane_words_ = 1;
};

/// Blend lanes of `src` into `dst` for every cell: lanes set in
/// `lane_mask` take src's bits, the rest keep dst's. The whole-program
/// merge: an accepted restart's final state is folded back into the
/// main state for exactly the lanes that consumed it. Legacy
/// single-word form (lane_words() == 1).
void blend_lanes(PackedState& dst, const PackedState& src,
                 std::uint64_t lane_mask);

/// Same blend restricted to `cells` — the block-local merge: only the
/// replayed component's footprint moves, every other cell keeps the
/// already-accepted values. Legacy single-word form.
void blend_cells_lanes(PackedState& dst, const PackedState& src,
                       const std::vector<std::uint32_t>& cells,
                       std::uint64_t lane_mask);

/// Multi-word blends: lane_mask.words() must equal the states'
/// lane_words(). Identical semantics per lane word.
void blend_lanes(PackedState& dst, const PackedState& src,
                 const LaneMask& lane_mask);
void blend_cells_lanes(PackedState& dst, const PackedState& src,
                       const std::vector<std::uint32_t>& cells,
                       const LaneMask& lane_mask);

// --- lane compaction ---------------------------------------------------
//
// A retry that serves only a few lanes of a wide batch runs in a
// narrower state: lane j of the narrow state stands for batch lane
// lanes[j] (a lane index list, ascending as lane_indices() builds it).
// Gathers read a checkpoint of the wide batch; scatters write accepted
// narrow lanes back into the wide state. Pure bit moves, like the
// blends.

/// The set lanes of `mask` in ascending order, written over `out` — the
/// lane index list the gathers and scatters below take.
void lane_indices(const LaneMask& mask, std::vector<std::uint16_t>& out);

/// For every cell in `cells`: lane j of `dst` takes lane lanes[j] of
/// `src` for j < lanes.size(), and dst's remaining lanes of the cell
/// are cleared. Cells not listed keep their values. Requires
/// lanes.size() <= dst.lanes() and equal widths.
void gather_cells_lanes(PackedState& dst, const PackedCheckpoint& src,
                        const std::vector<std::uint32_t>& cells,
                        const std::vector<std::uint16_t>& lanes);
/// gather_cells_lanes over every cell.
void gather_lanes(PackedState& dst, const PackedCheckpoint& src,
                  const std::vector<std::uint16_t>& lanes);

/// For every cell in `cells` and every narrow lane j set in `accept`
/// (a mask at src's lane_words, j < lanes.size()): lane lanes[j] of
/// `dst` takes lane j of `src`. Every other lane and cell of dst keeps
/// its value — the compacted counterpart of blend_cells_lanes.
void scatter_cells_lanes(PackedState& dst, const PackedState& src,
                         const std::vector<std::uint32_t>& cells,
                         const std::vector<std::uint16_t>& lanes,
                         const LaneMask& accept);
/// scatter_cells_lanes over every cell (the compacted blend_lanes).
void scatter_lanes(PackedState& dst, const PackedState& src,
                   const std::vector<std::uint16_t>& lanes,
                   const LaneMask& accept);

}  // namespace revft::recover
