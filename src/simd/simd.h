#ifndef DBSVEC_SIMD_SIMD_H_
#define DBSVEC_SIMD_SIMD_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace dbsvec::simd {

/// Width of one structure-of-arrays block: the batched micro-kernels always
/// process `kBlockWidth` points at a time (one cache line of doubles per
/// dimension).
inline constexpr size_t kBlockWidth = 8;

/// Available micro-kernel implementations.
enum class Backend {
  kScalar,  ///< Portable fallback; the reference operation order.
  kAvx2,    ///< AVX2 256-bit lanes (x86-64, runtime-detected).
  kAvx512,  ///< AVX-512F 512-bit lanes: one whole block per register.
};

/// Human-readable backend name ("scalar", "avx2", "avx512").
const char* BackendName(Backend backend);

/// True when this build contains the AVX2 kernels and the running CPU
/// (and OS) support them.
bool Avx2Available();

/// True when this build contains the AVX-512 kernels and the running CPU
/// (and OS) support AVX-512F.
bool Avx512Available();

/// The backend the dispatch table currently points at. Resolved once on
/// first use: the best available backend, unless the `DBSVEC_SIMD`
/// environment variable says otherwise (`off`/`0`/`scalar`/`false` force
/// the scalar fallback; `avx2`/`avx512` force that backend and fall back
/// with a warning if unavailable; `on`/`auto`/`1`/`true` select the best;
/// any other value warns once and selects automatically).
Backend ActiveBackend();

/// Test/bench hook: repoints the dispatch table at `backend` (must be
/// available). Not thread-safe against concurrent kernel calls — switch
/// between runs, never during one.
void ForceBackend(Backend backend);

/// The batched micro-kernel dispatch table. One entry per primitive; all
/// entries of a table come from the same backend so mixed-backend
/// accumulation cannot occur.
///
/// Block layout contract (see SoaBlockView): a block is `kBlockWidth * dim`
/// doubles, 64-byte aligned, holding dimension j of its 8 points at
/// `block[8 * j + lane]`.
struct Ops {
  const char* name;

  /// out[lane] = squared Euclidean distance from `query` (length `dim`)
  /// to block lane `lane`, for all 8 lanes. `out` need not be aligned.
  void (*squared_distance_block)(const double* query, const double* block,
                                 int dim, double* out);

  /// Number of lanes selected by `lane_mask` (bit l = lane l) whose squared
  /// distance to `query` is <= `eps_sq`.
  uint32_t (*count_within_block)(const double* query, const double* block,
                                 int dim, uint32_t lane_mask, double eps_sq);

  /// y[k] += a * x[k] for k in [0, n) — float row into double accumulator
  /// (the SMO gradient initialization product).
  void (*axpy_float)(double a, const float* x, double* y, size_t n);

  /// y[k] += a * (xi[k] - xj[k]) for k in [0, n), with the subtraction in
  /// float exactly as written (the SMO gradient update row product).
  void (*gradient_update)(double a, const float* xi, const float* xj,
                          double* y, size_t n);

  /// out[k] = KernelExp(-d2[k] * c) for k in [0, n) — Gaussian kernel
  /// values (Eq. 6) from squared distances, with c = 1/(2σ²). `out` may
  /// equal `d2`; neither needs to be aligned.
  void (*kernel_exp)(const double* d2, double c, double* out, size_t n);
};

/// The active dispatch table (env-resolved on first call, see
/// ActiveBackend).
const Ops& ActiveOps();

/// exp(x) for the Gaussian kernel's exponents x = −d²/(2σ²) ≤ 0: the
/// scalar reference of `Ops::kernel_exp`, and bit-identical to it on every
/// backend (docs/PERFORMANCE.md, determinism rule 3). Within 1 ulp of the
/// exact value wherever exp(x) ≥ DBL_MIN; smaller results flush to +0, so
/// −∞ gives +0. exp(±0) is exactly 1 and NaN is returned unchanged.
/// Arguments x > 0 are outside the domain.
double KernelExp(double x);

/// RAII lease of a thread-local double buffer of at least `n` elements,
/// used by index leaf scans for per-leaf distance batches. Leases nest
/// (each lease gets a distinct buffer), so a range query issued from inside
/// a visitor callback cannot clobber the caller's distances; buffers are
/// returned to a per-thread freelist on destruction, so steady-state leaf
/// scans allocate nothing.
class ScratchLease {
 public:
  explicit ScratchLease(size_t n);
  ~ScratchLease();

  ScratchLease(const ScratchLease&) = delete;
  ScratchLease& operator=(const ScratchLease&) = delete;

  double* data() { return buffer_->data(); }
  std::span<double> span(size_t n) { return {buffer_->data(), n}; }

 private:
  std::vector<double>* buffer_;
};

}  // namespace dbsvec::simd

#endif  // DBSVEC_SIMD_SIMD_H_
