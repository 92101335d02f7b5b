//===- classify/NNClassifier.h - nn::Sequential adapter ---------*- C++ -*-===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#ifndef OPPSLA_CLASSIFY_NNCLASSIFIER_H
#define OPPSLA_CLASSIFY_NNCLASSIFIER_H

#include "classify/Classifier.h"
#include "nn/Sequential.h"

#include <functional>
#include <memory>
#include <string>

namespace oppsla {

/// Adapts a trained Sequential CNN to the black-box Classifier interface.
/// Runs inference mode (running batchnorm statistics, no dropout) and
/// returns softmax probabilities, so the DSL's score_diff thresholds live
/// in [0,1] like the paper's example program.
///
/// The weights are fixed from construction (the model is frozen), which is
/// what makes incremental inference sound (DESIGN.md §16): the classifier
/// keeps the activations of a base image, the last image it ran in full,
/// and answers a query that differs from it in a few pixels by
/// recomputing only those pixels' receptive-field cones. Every answer is
/// bit-identical to a full forward; --naive-kernels always runs in full.
class NNClassifier : public Classifier {
public:
  /// Builds a structurally identical untrained model; weight contents are
  /// irrelevant (clone() overwrites them from the source model).
  using ModelBuilder = std::function<std::unique_ptr<Sequential>()>;

  /// Takes ownership of \p Model and freezes its weights. \p Name is used
  /// in logs and tables.
  NNClassifier(std::unique_ptr<Sequential> Model, size_t NumClasses,
               std::string Name);

  std::vector<float> scores(const Image &Img) override;

  /// Batched inference: assembles one {N, 3, H, W} tensor and runs a
  /// single forward through the Sequential, with the patch GEMMs of every
  /// incremental item merged per layer. Every layer treats batch items
  /// independently with identical accumulation order, so result[i] is
  /// bit-identical to scores(Imgs[i]) — verified per architecture by
  /// tests/classify/BatchForwardTest.cpp and IncrementalForwardTest.cpp.
  std::vector<std::vector<float>> scoresBatch(
      std::span<const Image> Imgs) override;

  size_t numClasses() const override { return Classes; }

  /// Installs the architecture rebuilder that makes this classifier
  /// cloneable (layers carry forward-pass scratch state, so clones need a
  /// fresh structural copy, not a pointer share). makeVictim() installs
  /// one automatically.
  void setModelBuilder(ModelBuilder B) { Builder = std::move(B); }

  /// Deep copy: rebuilds the architecture via the installed ModelBuilder
  /// and copies every parameter and persistent buffer (not the base
  /// activations). Returns nullptr if no builder was installed.
  std::unique_ptr<Classifier> clone() const override;

  const std::string &name() const { return ModelName; }

private:
  /// Softmax probabilities {N, Classes} of \p Imgs (N >= 1).
  Tensor probabilities(std::span<const Image> Imgs);
  /// Diffs each image against Base: items within MaxDeltaPixels changed
  /// pixels get one dirty rectangle per pixel, the others are Full and the
  /// last of them becomes the new base.
  DeltaBatch diffAgainstBase(std::span<const Image> Imgs) const;

  std::unique_ptr<Sequential> Model;
  size_t Classes;
  std::string ModelName;
  ModelBuilder Builder;
  Tensor InputScratch; ///< reused {N,3,H,W} input batch
  Image Base;          ///< the base image; empty until the first forward
};

} // namespace oppsla

#endif // OPPSLA_CLASSIFY_NNCLASSIFIER_H
