// Runtime backend selection for the batched micro-kernels: a function
// pointer table chosen once at first use from (a) what this build compiled
// in, (b) what the running CPU supports (cpuid), and (c) the DBSVEC_SIMD
// environment variable. Tests and benchmarks can repoint the table with
// ForceBackend to compare backends inside one process.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <vector>

#include "simd/simd_kernels.h"

namespace dbsvec::simd {
namespace {

constexpr Ops kScalarOps = {
    .name = "scalar",
    .squared_distance_block = &SquaredDistanceBlockScalar,
    .count_within_block = &CountWithinBlockScalar,
    .axpy_float = &AxpyFloatScalar,
    .gradient_update = &GradientUpdateScalar,
    .kernel_exp = &KernelExpScalar,
};

#if defined(DBSVEC_HAVE_AVX2)
constexpr Ops kAvx2Ops = {
    .name = "avx2",
    .squared_distance_block = &SquaredDistanceBlockAvx2,
    .count_within_block = &CountWithinBlockAvx2,
    .axpy_float = &AxpyFloatAvx2,
    .gradient_update = &GradientUpdateAvx2,
    .kernel_exp = &KernelExpAvx2,
};
#endif

#if defined(DBSVEC_HAVE_AVX512)
constexpr Ops kAvx512Ops = {
    .name = "avx512",
    .squared_distance_block = &SquaredDistanceBlockAvx512,
    .count_within_block = &CountWithinBlockAvx512,
    .axpy_float = &AxpyFloatAvx512,
    .gradient_update = &GradientUpdateAvx512,
    .kernel_exp = &KernelExpAvx512,
};
#endif

const Ops* TableFor(Backend backend) {
#if defined(DBSVEC_HAVE_AVX512)
  if (backend == Backend::kAvx512) {
    return &kAvx512Ops;
  }
#endif
#if defined(DBSVEC_HAVE_AVX2)
  if (backend == Backend::kAvx2) {
    return &kAvx2Ops;
  }
#endif
  (void)backend;
  return &kScalarOps;
}

Backend BestAvailable() {
  if (Avx512Available()) {
    return Backend::kAvx512;
  }
  return Avx2Available() ? Backend::kAvx2 : Backend::kScalar;
}

/// Backend requested by the DBSVEC_SIMD environment variable (auto when
/// unset; an unrecognized value warns and falls back to auto-detect).
Backend ResolveDefault() {
  const Backend best = BestAvailable();
  const char* env = std::getenv("DBSVEC_SIMD");
  if (env == nullptr || *env == '\0') {
    return best;
  }
  if (std::strcmp(env, "off") == 0 || std::strcmp(env, "0") == 0 ||
      std::strcmp(env, "scalar") == 0 || std::strcmp(env, "false") == 0) {
    return Backend::kScalar;
  }
  if (std::strcmp(env, "avx2") == 0) {
    if (!Avx2Available()) {
      std::fprintf(stderr,
                   "dbsvec: DBSVEC_SIMD=avx2 but AVX2 is unavailable on "
                   "this CPU/build; falling back to scalar\n");
      return Backend::kScalar;
    }
    return Backend::kAvx2;
  }
  if (std::strcmp(env, "avx512") == 0) {
    if (!Avx512Available()) {
      std::fprintf(stderr,
                   "dbsvec: DBSVEC_SIMD=avx512 but AVX-512F is unavailable "
                   "on this CPU/build; falling back to %s\n",
                   BackendName(best));
      return best;
    }
    return Backend::kAvx512;
  }
  if (std::strcmp(env, "on") == 0 || std::strcmp(env, "auto") == 0 ||
      std::strcmp(env, "1") == 0 || std::strcmp(env, "true") == 0) {
    return best;
  }
  std::fprintf(stderr,
               "dbsvec: unrecognized DBSVEC_SIMD value \"%s\" (accepted: "
               "off|0|scalar|false, avx2, avx512, on|auto|1|true); "
               "auto-detecting %s\n",
               env, BackendName(best));
  return best;
}

std::atomic<const Ops*>& ActiveTable() {
  static std::atomic<const Ops*> table{TableFor(ResolveDefault())};
  return table;
}

}  // namespace

bool Avx2Available() {
#if defined(DBSVEC_HAVE_AVX2)
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

bool Avx512Available() {
#if defined(DBSVEC_HAVE_AVX512)
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx512f") != 0;
#else
  return false;
#endif
}

const char* BackendName(Backend backend) {
  switch (backend) {
    case Backend::kScalar:
      return "scalar";
    case Backend::kAvx2:
      return "avx2";
    case Backend::kAvx512:
      return "avx512";
  }
  return "unknown";
}

Backend ActiveBackend() {
  const Ops* ops = ActiveTable().load(std::memory_order_acquire);
  if (std::strcmp(ops->name, "avx512") == 0) {
    return Backend::kAvx512;
  }
  return std::strcmp(ops->name, "avx2") == 0 ? Backend::kAvx2
                                             : Backend::kScalar;
}

void ForceBackend(Backend backend) {
  if (backend == Backend::kAvx2 && !Avx2Available()) {
    std::fprintf(stderr,
                 "dbsvec: ForceBackend(avx2) ignored — AVX2 unavailable\n");
    return;
  }
  if (backend == Backend::kAvx512 && !Avx512Available()) {
    std::fprintf(
        stderr, "dbsvec: ForceBackend(avx512) ignored — AVX-512 unavailable\n");
    return;
  }
  ActiveTable().store(TableFor(backend), std::memory_order_release);
}

const Ops& ActiveOps() {
  return *ActiveTable().load(std::memory_order_acquire);
}

namespace {

/// Per-thread freelist of scratch buffers. Leases pop from the tail and
/// push back on release; nested leases simply take distinct buffers.
thread_local std::vector<std::unique_ptr<std::vector<double>>> g_scratch_pool;

}  // namespace

ScratchLease::ScratchLease(size_t n) {
  if (g_scratch_pool.empty()) {
    g_scratch_pool.push_back(std::make_unique<std::vector<double>>());
  }
  std::unique_ptr<std::vector<double>> buffer =
      std::move(g_scratch_pool.back());
  g_scratch_pool.pop_back();
  if (buffer->size() < n) {
    buffer->resize(n);
  }
  // Ownership parks on the heap for the lease's lifetime; the raw pointer
  // stays valid even if the pool vector reallocates under a nested lease.
  buffer_ = buffer.release();
}

ScratchLease::~ScratchLease() {
  g_scratch_pool.emplace_back(buffer_);
}

}  // namespace dbsvec::simd
