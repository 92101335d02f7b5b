//===- nn/Linear.h - Fully connected layer ---------------------*- C++ -*-===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#ifndef OPPSLA_NN_LINEAR_H
#define OPPSLA_NN_LINEAR_H

#include "nn/Layer.h"

#include <vector>

namespace oppsla {

class Rng;

/// Fully connected layer: Out = In * W^T + b over a {N, InF} batch.
/// Rank-4 inputs are accepted and flattened per sample.
class Linear : public Layer {
public:
  Linear(size_t InF, size_t OutF, Rng &R);

  Tensor forward(const Tensor &In, bool Train) override;
  Tensor backward(const Tensor &GradOut) override;
  void collectParams(const std::string &Prefix,
                     std::vector<ParamRef> &Params) override;
  void freeze() override { Frozen = true; }
  std::string name() const override { return "linear"; }

  size_t inFeatures() const { return InF; }
  size_t outFeatures() const { return OutF; }
  Tensor &weight() { return Weight; }
  Tensor &bias() { return Bias; }

private:
  size_t InF, OutF;
  Tensor Weight, WeightGrad; ///< {OutF, InF}
  Tensor Bias, BiasGrad;     ///< {OutF}
  Tensor CachedIn;           ///< {N, InF} from the last training forward
  // Inference scratch for the packed-GEMM path: the tile-major weight
  // pack (built once when frozen) and the {InF, N} input transpose.
  bool Frozen = false;
  std::vector<float> PackedWeight;
  std::vector<float> ScratchInT;
};

} // namespace oppsla

#endif // OPPSLA_NN_LINEAR_H
