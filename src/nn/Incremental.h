//===- nn/Incremental.h - Dirty regions for incremental inference -*- C++ -*-===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The bookkeeping of incremental inference (DESIGN.md §16). A one-pixel
/// query differs from the classifier's base image in one pixel, so at every
/// layer it differs from the base image's activations only inside that
/// pixel's receptive-field cone. Layer::forwardDelta carries, per batch
/// item, the part of the current feature map that may differ from the base
/// map: a short list of disjoint rectangles, or Full. Everything outside
/// the rectangles is bit-identical to the base map, which is what lets
/// Conv2d copy it instead of recomputing it.
///
//===----------------------------------------------------------------------===//

#ifndef OPPSLA_NN_INCREMENTAL_H
#define OPPSLA_NN_INCREMENTAL_H

#include <cstddef>
#include <vector>

namespace oppsla {

/// Half-open rectangle of a feature map: rows [R0, R1), columns [C0, C1).
struct DirtyRect {
  size_t R0, R1, C0, C1;
};

/// Where one batch item's feature map may differ from the base image's:
/// the whole map (Full), or the union of disjoint Rects (possibly none,
/// when the item equals the base image there).
struct DirtyRegion {
  bool Full = true;
  std::vector<DirtyRect> Rects;

  /// Adds \p R, merging overlapping rectangles into their bounding box
  /// until the list is disjoint.
  void add(DirtyRect R);
  /// Sets this region to the union with \p O.
  void unite(const DirtyRegion &O);
};

/// The state one incremental forward threads through the layers.
struct DeltaBatch {
  static constexpr size_t NoBase = static_cast<size_t>(-1);

  /// One region per batch item, in the coordinates of the current map.
  std::vector<DirtyRegion> Items;
  /// The batch item that becomes the new base image: every layer that
  /// keeps base activations copies this item's output after computing the
  /// batch. NoBase keeps the current base.
  size_t NewBase = NoBase;

  bool allFull() const;
  void markAllFull();
  /// Maps every item's region through a window op (convolution or
  /// pooling) with the given geometry onto its \p OH x \p OW output. An
  /// item whose region then covers more than half of the output turns
  /// Full: recomputing most of a map costs more than running it in full.
  void mapWindow(size_t Kernel, size_t Stride, size_t Pad, size_t OH,
                 size_t OW);
  /// Sets every item's region to its union with \p O's (same batch).
  void unite(const DeltaBatch &O);
};

} // namespace oppsla

#endif // OPPSLA_NN_INCREMENTAL_H
