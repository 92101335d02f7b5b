//===- nn/Incremental.cpp - Dirty regions for incremental inference --------===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "nn/Incremental.h"

#include <algorithm>

using namespace oppsla;

namespace {

bool overlaps(const DirtyRect &A, const DirtyRect &B) {
  return A.R0 < B.R1 && B.R0 < A.R1 && A.C0 < B.C1 && B.C0 < A.C1;
}

/// Turns \p R Full when it covers more than half of an \p H x \p W map.
void fallBackIfLarge(DirtyRegion &R, size_t H, size_t W) {
  size_t Area = 0;
  for (const DirtyRect &Rc : R.Rects)
    Area += (Rc.R1 - Rc.R0) * (Rc.C1 - Rc.C0);
  if (2 * Area > H * W) {
    R.Full = true;
    R.Rects.clear();
  }
}

/// Output rows [Lo, Hi) of a window op whose windows read input rows
/// [O*Stride - Pad, O*Stride - Pad + Kernel): exactly the outputs whose
/// window meets input rows [R0, R1), clamped to [0, Out).
void windowSpan(size_t R0, size_t R1, size_t Kernel, size_t Stride,
                size_t Pad, size_t Out, size_t &Lo, size_t &Hi) {
  // First O with O*Stride - Pad + Kernel - 1 >= R0.
  const size_t Need = R0 + Pad + 1;
  Lo = Need <= Kernel ? 0 : (Need - Kernel + Stride - 1) / Stride;
  // Last O with O*Stride - Pad <= R1 - 1.
  Hi = std::min(Out, (R1 - 1 + Pad) / Stride + 1);
}

} // namespace

void DirtyRegion::add(DirtyRect R) {
  if (Full || R.R0 >= R.R1 || R.C0 >= R.C1)
    return;
  // A merged box can overlap rectangles the original missed, so keep
  // folding until nothing overlaps. The lists stay a few entries long.
  for (size_t I = 0; I != Rects.size();) {
    const DirtyRect &O = Rects[I];
    if (!overlaps(R, O)) {
      ++I;
      continue;
    }
    R = {std::min(R.R0, O.R0), std::max(R.R1, O.R1), std::min(R.C0, O.C0),
         std::max(R.C1, O.C1)};
    Rects.erase(Rects.begin() + static_cast<std::ptrdiff_t>(I));
    I = 0;
  }
  Rects.push_back(R);
}

void DirtyRegion::unite(const DirtyRegion &O) {
  if (O.Full) {
    Full = true;
    Rects.clear();
    return;
  }
  for (const DirtyRect &R : O.Rects)
    add(R);
}

bool DeltaBatch::allFull() const {
  return std::all_of(Items.begin(), Items.end(),
                     [](const DirtyRegion &R) { return R.Full; });
}

void DeltaBatch::markAllFull() {
  for (DirtyRegion &R : Items) {
    R.Full = true;
    R.Rects.clear();
  }
}

void DeltaBatch::mapWindow(size_t Kernel, size_t Stride, size_t Pad,
                           size_t OH, size_t OW) {
  for (DirtyRegion &Item : Items) {
    if (Item.Full)
      continue;
    DirtyRegion Out;
    Out.Full = false;
    for (const DirtyRect &R : Item.Rects) {
      DirtyRect M;
      windowSpan(R.R0, R.R1, Kernel, Stride, Pad, OH, M.R0, M.R1);
      windowSpan(R.C0, R.C1, Kernel, Stride, Pad, OW, M.C0, M.C1);
      Out.add(M);
    }
    fallBackIfLarge(Out, OH, OW);
    Item = std::move(Out);
  }
}

void DeltaBatch::unite(const DeltaBatch &O) {
  for (size_t I = 0; I != Items.size(); ++I)
    Items[I].unite(O.Items[I]);
}
