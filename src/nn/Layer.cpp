//===- nn/Layer.cpp - Neural network layer interface ----------------------===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "nn/Layer.h"

using namespace oppsla;

Layer::~Layer() = default;

Tensor Layer::forwardDelta(const Tensor &In, DeltaBatch &D) {
  D.markAllFull();
  return forward(In, /*Train=*/false);
}

void Layer::collectParams(const std::string &Prefix,
                          std::vector<ParamRef> &Params) {
  // Parameterless layers contribute nothing.
  (void)Prefix;
  (void)Params;
}

void Layer::collectBuffers(
    const std::string &Prefix,
    std::vector<std::pair<std::string, Tensor *>> &Buffers) {
  (void)Prefix;
  (void)Buffers;
}

void oppsla::zeroGrads(const std::vector<ParamRef> &Params) {
  for (const ParamRef &P : Params)
    P.Grad->zero();
}
