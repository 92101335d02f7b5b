//===- tensor/Gemm.h - Packed, register-blocked SGEMM ----------*- C++ -*-===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The hardware-fast inference GEMM behind nn::Conv2d. The scalar loops in
/// TensorOps.h stay as the reference ("naive") path; this file adds:
///
///   - gemmPackA: packs the row-major A operand (conv weights) into
///     MR-row panels so the microkernel streams it contiguously;
///   - gemmPacked / gemmPackedConvOut: a register-blocked {MR=6, NR=16}
///     microkernel over the packed panels with a fused epilogue
///     (per-row bias + batchnorm affine + ReLU) applied as each output
///     tile leaves the registers — the conv hot path writes the output
///     tensor exactly once. A column tail narrower than NR is copied
///     into a zero-padded NR-wide block and runs the same microkernel,
///     so narrow products (batch-1 Linear, patch GEMMs) pay no scalar
///     path;
///   - column-range threading over the existing ThreadPool, deterministic
///     at any thread count because output columns partition disjointly;
///   - the process-wide naive-kernels escape hatch behind the CLI's
///     --naive-kernels flag.
///
/// Determinism contract: every output element is the chain
///   acc_k = fma(A[i,k], B[k,j], acc_{k-1}),  k ascending, acc_{-1} = 0
/// followed by `v = acc + bias`, `v = fma(v, scale, shift)`, and
/// `v = v > 0 ? v : 0` for the enabled epilogue stages. The reference
/// matmul and the BatchNorm2d inference loop use the same explicit
/// std::fma chains, so the fast and naive paths agree bit for bit at any
/// shape and thread count (enforced by tests/tensor/GemmTest.cpp,
/// tests/nn/FusedForwardTest.cpp, and the cli_eval_kernels_identical
/// ctest).
///
//===----------------------------------------------------------------------===//

#ifndef OPPSLA_TENSOR_GEMM_H
#define OPPSLA_TENSOR_GEMM_H

#include <cstddef>
#include <cstdint>

namespace oppsla {

class ArgParse;

namespace kernels {

/// Microkernel register block: MR output rows by NR output columns
/// (NR floats = two 8-lane AVX2 vectors; 12 accumulator registers).
inline constexpr size_t MR = 6;
inline constexpr size_t NR = 16;

/// Columns are handed to worker threads in NC-aligned ranges; NC is also
/// the cache-blocking hint (a K x NC B-panel of the deepest zoo conv is
/// ~330 KB, L2-resident on the targeted hosts).
inline constexpr size_t NC = 144; // multiple of NR

/// When true, every conv/GEMM routes through the scalar reference loops
/// in TensorOps.cpp (the CLI's --naive-kernels). Default false.
bool naive();
void setNaive(bool Enabled);

/// Process-wide default worker-thread budget for column partitioning
/// (1 = no threading). The engine overrides it per physical batch via
/// ScopedColumnThreads.
size_t columnThreads();
void setColumnThreads(size_t Threads);

/// Thread-local column-thread override for the current forward, used by
/// the QueryEngine's batch-size-aware dispatch: chunk-parallel forwards
/// pin their kernels to one thread, single-chunk forwards donate the
/// engine's thread budget to the GEMM column loop.
class ScopedColumnThreads {
public:
  explicit ScopedColumnThreads(size_t Threads);
  ~ScopedColumnThreads();
  ScopedColumnThreads(const ScopedColumnThreads &) = delete;
  ScopedColumnThreads &operator=(const ScopedColumnThreads &) = delete;

private:
  size_t Saved;
};

/// Shared `--naive-kernels` wiring for the CLI and bench binaries.
void configureFromArgs(const ArgParse &Args);

} // namespace kernels

/// Fused epilogue applied to each output tile as it leaves the registers.
/// All pointers are per-output-row (the conv's OutC dimension) and must
/// stay valid for the duration of the gemm call; nullptr disables the
/// stage. Stage order mirrors the unfused reference path exactly:
/// bias add (0.0f when absent), then the batchnorm affine, then ReLU.
struct GemmEpilogue {
  const float *Bias = nullptr;  ///< v = acc + Bias[i] (0.0f when null)
  const float *Scale = nullptr; ///< v = fma(v, Scale[i], Shift[i])
  const float *Shift = nullptr; ///< must be set iff Scale is set
  bool Relu = false;            ///< v = v > 0 ? v : 0
};

/// Floats needed to hold A (M x K) packed into MR-row panels.
size_t gemmPackedSize(size_t M, size_t K);

/// Packs row-major A (M x K) into MR-row panels: panel p holds rows
/// [p*MR, p*MR+MR) interleaved k-major (Pack[p][k][r]); rows past M are
/// zero-filled so the microkernel never reads uninitialized memory.
void gemmPackA(const float *A, size_t M, size_t K, float *Pack);

/// C (M x N, row-major) = A * B with \p Ep fused into the tile store.
/// \p Pack is gemmPackA(A); B is K x N row-major. C is overwritten.
void gemmPacked(const float *Pack, const float *B, float *C, size_t M,
                size_t K, size_t N, const GemmEpilogue &Ep);

/// The conv-forward variant: B is the im2col matrix {K, NB*Plane} whose
/// column (b*Plane + p) is output pixel p of batch item b, and the result
/// is scattered directly into an NCHW tensor {NB, M, Plane} at \p Out —
/// GEMM, bias, batchnorm, ReLU, and the NCHW scatter in one pass.
void gemmPackedConvOut(const float *Pack, const float *B, float *Out,
                       size_t M, size_t K, size_t NB, size_t Plane,
                       const GemmEpilogue &Ep);

} // namespace oppsla

#endif // OPPSLA_TENSOR_GEMM_H
