//===- tests/classify/IncrementalForwardTest.cpp - delta == full, bitwise -===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// NNClassifier answers a query that differs from its base image in a few
// pixels by recomputing only their receptive-field cones (DESIGN.md §16).
// The contract is BIT-identity with a full forward, so every comparison
// below is a memcmp against a fresh clone, whose first query always runs
// in full: every pixel position of every zoo architecture (borders and
// every stride phase included), several changed pixels near and far
// apart, a diff of zero, base switches, and mixed batches.
//
//===----------------------------------------------------------------------===//

#include "classify/NNClassifier.h"
#include "nn/ModelZoo.h"
#include "support/Rng.h"

#include "TestUtil.h"
#include <cstring>
#include <gtest/gtest.h>

using namespace oppsla;
using test::randomImage;

namespace {

constexpr size_t Classes = 5;

struct ArchCase {
  Arch A;
  size_t Side;
};

// 32 is the benchmark resolution; 16 keeps the slower nets' sweep short
// while still crossing every stride phase and border.
const ArchCase Cases[] = {
    {Arch::MiniVGG, 32},       {Arch::MiniResNet, 32},
    {Arch::MiniGoogLeNet, 16}, {Arch::MiniDenseNet, 16},
    {Arch::MiniResNet50, 16},  {Arch::Mlp, 16},
};

/// An untrained victim with non-trivial batchnorm statistics, so the fused
/// affine really scales and shifts.
std::unique_ptr<NNClassifier> makeVictim(const ArchCase &C) {
  Rng R(0x1c4e + static_cast<uint64_t>(C.A));
  auto Model = buildModel(C.A, Classes, C.Side, R);
  for (auto &[Name, Buf] : Model->buffers())
    for (float &V : Buf->vec())
      V = Name.find("running_var") != std::string::npos
              ? static_cast<float>(R.uniform(0.2, 2.0))
              : static_cast<float>(R.normal(0.0, 0.5));
  auto N = std::make_unique<NNClassifier>(std::move(Model), Classes,
                                          archName(C.A));
  const Arch A = C.A;
  const size_t Side = C.Side;
  N->setModelBuilder([A, Side] {
    Rng Throwaway(0);
    return buildModel(A, Classes, Side, Throwaway);
  });
  return N;
}

/// The full-forward answer: a fresh clone has no base image.
std::vector<float> fullScores(const NNClassifier &Victim, const Image &X) {
  return Victim.clone()->scores(X);
}

bool bitIdentical(const std::vector<float> &A, const std::vector<float> &B) {
  return A.size() == B.size() &&
         std::memcmp(A.data(), B.data(), A.size() * sizeof(float)) == 0;
}

/// One of the eight RGB corners, cycling with \p I.
Pixel corner(size_t I) {
  return Pixel{static_cast<float>(I & 1), static_cast<float>((I >> 1) & 1),
               static_cast<float>((I >> 2) & 1)};
}

class IncrementalForwardTest : public ::testing::TestWithParam<ArchCase> {};

} // namespace

TEST_P(IncrementalForwardTest, EveryPixelMatchesFullForward) {
  const ArchCase C = GetParam();
  auto Victim = makeVictim(C);
  const Image X = randomImage(C.Side, C.Side, 0x5eed);
  ASSERT_TRUE(bitIdentical(Victim->scores(X), fullScores(*Victim, X)));
  for (size_t Row = 0; Row != C.Side; ++Row)
    for (size_t Col = 0; Col != C.Side; ++Col) {
      const Image Y = X.withPixel(Row, Col, corner(Row * C.Side + Col));
      ASSERT_TRUE(bitIdentical(Victim->scores(Y), fullScores(*Victim, Y)))
          << archName(C.A) << " pixel (" << Row << ", " << Col << ")";
    }
}

TEST_P(IncrementalForwardTest, SeveralPixelsZeroDiffAndBaseSwitches) {
  const ArchCase C = GetParam();
  auto Victim = makeVictim(C);
  const size_t S = C.Side;
  const Image X = randomImage(S, S, 0xa11);
  const Image Z = randomImage(S, S, 0xb22);

  std::vector<Image> Queries;
  Queries.push_back(X);                                 // sets the base
  Queries.push_back(X);                                 // diff of 0
  Queries.push_back(X.withPixel(0, 0, corner(7)));      // corner, 1 pixel
  Image Blue = X;                                       // one channel only
  Blue.raw()[(5 * S + 6) * 3 + 2] = 1.0f;
  Queries.push_back(Blue);
  Image Green = X;
  Green.raw()[(S - 1) * 3 + 1] = 0.0f;
  Queries.push_back(Green);
  Image Two = X.withPixel(0, S - 1, corner(1));         // far apart
  Two.setPixel(S - 1, 0, corner(2));
  Queries.push_back(Two);
  Image Three = Two;                                    // 3 far apart
  Three.setPixel(S / 2, S / 2, corner(4));
  Queries.push_back(Three);
  Image Adjacent = X.withPixel(3, 3, corner(5));        // overlapping cones
  Adjacent.setPixel(3, 4, corner(6));
  Adjacent.setPixel(4, 3, corner(3));
  Queries.push_back(Adjacent);
  Image Eight = X;                                      // delta limit
  for (size_t I = 0; I != 8; ++I)
    Eight.setPixel(I, (3 * I) % S, corner(I));
  Image Nine = Eight;
  Nine.setPixel(8, (3 * 8) % S, corner(8));
  Queries.push_back(Eight);
  Queries.push_back(Nine);                              // runs in full
  Queries.push_back(Z);                                 // unrelated: switch
  Queries.push_back(Z.withPixel(S - 1, S - 1, corner(3)));
  Queries.push_back(X.withPixel(1, 2, corner(6)));      // switch back
  Queries.push_back(X.withPixel(S - 2, 1, corner(0)));

  for (size_t I = 0; I != Queries.size(); ++I)
    ASSERT_TRUE(bitIdentical(Victim->scores(Queries[I]),
                             fullScores(*Victim, Queries[I])))
        << archName(C.A) << " query " << I;
}

TEST_P(IncrementalForwardTest, MixedBatchesMatchFullForward) {
  const ArchCase C = GetParam();
  auto Victim = makeVictim(C);
  const size_t S = C.Side;
  const Image X = randomImage(S, S, 0xc33);

  size_t Seed = 0;
  for (const size_t BatchSize : {1u, 2u, 7u, 7u}) {
    // Mostly one-pixel deltas of the base X, with an unrelated image (a
    // new base mid-batch) and an exact repeat of X mixed in.
    Victim->scores(X);
    std::vector<Image> Imgs;
    for (size_t I = 0; I != BatchSize; ++I, ++Seed) {
      if (I == 3)
        Imgs.push_back(randomImage(S, S, 0xd00 + Seed));
      else if (I == 5)
        Imgs.push_back(X);
      else
        Imgs.push_back(X.withPixel((5 * Seed) % S, (11 * Seed) % S,
                                   corner(Seed)));
    }
    const std::vector<std::vector<float>> Batched =
        Victim->scoresBatch(std::span<const Image>(Imgs));
    ASSERT_EQ(Batched.size(), BatchSize);
    for (size_t I = 0; I != BatchSize; ++I)
      ASSERT_TRUE(bitIdentical(Batched[I], fullScores(*Victim, Imgs[I])))
          << archName(C.A) << " batch " << BatchSize << " item " << I;
  }
}

INSTANTIATE_TEST_SUITE_P(AllArchitectures, IncrementalForwardTest,
                         ::testing::ValuesIn(Cases),
                         [](const ::testing::TestParamInfo<ArchCase> &Info) {
                           return std::string(archName(Info.param.A));
                         });
