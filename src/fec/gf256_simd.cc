// Backend selection for the GF(256) buffer kernels: builds the split-nibble
// tables, probes CPU support once, honors the JQOS_GF_BACKEND knob, and
// hands gf256.cc a pair of kernel function pointers. This TU contains no
// ISA-specific code itself — the SSSE3/AVX2 kernels live in their own TUs so
// only those are built with -mssse3/-mavx2.
#include "fec/gf256_simd.h"

#include <atomic>
#include <optional>
#include <string_view>

#include "common/knobs.h"
#include "fec/gf256_simd_impl.h"

namespace jqos::fec {
namespace detail {
namespace {

NibbleTables build_nibble_tables() {
  NibbleTables t;
  for (int c = 0; c < 256; ++c) {
    for (int x = 0; x < 16; ++x) {
      t.lo[c][x] = gf_mul(static_cast<Gf>(c), static_cast<Gf>(x));
      t.hi[c][x] = gf_mul(static_cast<Gf>(c), static_cast<Gf>(x << 4));
    }
  }
  return t;
}

bool cpu_supports(GfBackend b) {
#if JQOS_GF_X86 && defined(__GNUC__)
  switch (b) {
    case GfBackend::kScalar:
      return true;
    case GfBackend::kSsse3:
      return __builtin_cpu_supports("ssse3") != 0;
    case GfBackend::kAvx2:
      return __builtin_cpu_supports("avx2") != 0;
  }
  return false;
#else
  return b == GfBackend::kScalar;
#endif
}

struct Dispatch {
  GfBackend backend;
  KernelFn addmul;
  KernelFn mul_buf;
  RowKernelFn rs_row;
};

// One immutable Dispatch per backend. gf_set_backend() swings an atomic
// pointer between these rather than mutating a shared struct in place, so a
// backend switch racing concurrent encoders (the sharded scenario runner
// runs one shard per thread) is data-race-free: every reader sees one
// coherent (backend, kernels) tuple, old or new, never a torn mix.
const Dispatch& dispatch_entry(GfBackend b) {
  static const Dispatch kAvx2{GfBackend::kAvx2, &gf_addmul_avx2, &gf_mul_buf_avx2,
                              &gf_rs_row_avx2};
  static const Dispatch kSsse3{GfBackend::kSsse3, &gf_addmul_ssse3, &gf_mul_buf_ssse3,
                               &gf_rs_row_ssse3};
  static const Dispatch kScalar{GfBackend::kScalar, &gf_addmul_scalar, &gf_mul_buf_scalar,
                                &gf_rs_row_scalar};
  switch (b) {
    case GfBackend::kAvx2:
      return kAvx2;
    case GfBackend::kSsse3:
      return kSsse3;
    case GfBackend::kScalar:
      break;
  }
  return kScalar;
}

std::atomic<const Dispatch*>& active_dispatch() {
  // Thread-safe lazy init: the first caller probes the CPU and the env
  // override; later callers (any thread) do a plain acquire load.
  static std::atomic<const Dispatch*> d{&dispatch_entry(gf_best_backend())};
  return d;
}

const Dispatch& dispatch() {
  return *active_dispatch().load(std::memory_order_acquire);
}

}  // namespace

const NibbleTables& nibble_tables() {
  static const NibbleTables t = build_nibble_tables();
  return t;
}

KernelFn gf_addmul_kernel() { return dispatch().addmul; }
KernelFn gf_mul_buf_kernel() { return dispatch().mul_buf; }
RowKernelFn gf_rs_row_kernel() { return dispatch().rs_row; }

}  // namespace detail

bool gf_backend_available(GfBackend b) {
  switch (b) {
    case GfBackend::kScalar:
      return true;
    case GfBackend::kSsse3:
      return detail::gf_ssse3_compiled() && detail::cpu_supports(b);
    case GfBackend::kAvx2:
      return detail::gf_avx2_compiled() && detail::cpu_supports(b);
  }
  return false;
}

std::vector<GfBackend> gf_available_backends() {
  std::vector<GfBackend> out;
  for (GfBackend b : {GfBackend::kScalar, GfBackend::kSsse3, GfBackend::kAvx2}) {
    if (gf_backend_available(b)) out.push_back(b);
  }
  return out;
}

GfBackend gf_best_backend() {
  const GfBackend best = gf_available_backends().back();
  const GfBackend forced =
      knobs::read(knobs::kGfBackend, best, [best](std::string_view v) -> std::optional<GfBackend> {
        if (v == "auto") return best;
        for (const GfBackend b : {GfBackend::kScalar, GfBackend::kSsse3, GfBackend::kAvx2}) {
          if (v == gf_backend_name(b)) return b;
        }
        return std::nullopt;
      });
  // A valid backend this CPU lacks is a platform fact, not bad input.
  return gf_backend_available(forced) ? forced : best;
}

bool gf_set_backend(GfBackend b) {
  if (!gf_backend_available(b)) return false;
  detail::active_dispatch().store(&detail::dispatch_entry(b), std::memory_order_release);
  return true;
}

GfBackend gf_backend() { return detail::dispatch().backend; }

const char* gf_backend_name(GfBackend b) {
  switch (b) {
    case GfBackend::kScalar:
      return "scalar";
    case GfBackend::kSsse3:
      return "ssse3";
    case GfBackend::kAvx2:
      return "avx2";
  }
  return "unknown";
}

const char* gf_backend_name() { return gf_backend_name(gf_backend()); }

}  // namespace jqos::fec
