// RAII guards for the process-global knobs tests are allowed to touch.
//
// The test binaries run under `ctest --schedule-random -j`: any test that
// flips a process-global default -- the GF(256) kernel backend or a JQOS_*
// environment variable a resolver reads -- MUST restore it on every exit
// path, or an unrelated test scheduled after it inherits the setting and
// fails (or worse, silently tests the wrong configuration). These guards
// make the save/restore automatic; tests should never call the raw setters
// directly.
#pragma once

#include <cstdlib>
#include <optional>
#include <string>

#include "fec/gf256_simd.h"
#include "netsim/event_queue.h"

namespace jqos::testing {

// Pins the GF(256) kernel backend, restoring whatever backend was active
// before (the SIMD tests iterate backends; a mid-test failure must not leave
// the scalar kernel installed for the throughput-sensitive tests after it).
class GfBackendGuard {
 public:
  GfBackendGuard() : saved_(fec::gf_backend()) {}
  explicit GfBackendGuard(fec::GfBackend backend) : saved_(fec::gf_backend()) {
    fec::gf_set_backend(backend);
  }
  ~GfBackendGuard() { fec::gf_set_backend(saved_); }
  GfBackendGuard(const GfBackendGuard&) = delete;
  GfBackendGuard& operator=(const GfBackendGuard&) = delete;

 private:
  fec::GfBackend saved_;
};

// Sets (or unsets, via nullopt) one environment variable, restoring the
// prior value on destruction. Used to force a JQOS_* knob (see
// src/common/knobs.h) without leaking the value into tests scheduled after.
class EnvVarGuard {
 public:
  EnvVarGuard(const char* name, std::optional<std::string> value) : name_(name) {
    if (const char* old = std::getenv(name)) saved_ = old;
    apply(value);
  }
  ~EnvVarGuard() { apply(saved_); }
  EnvVarGuard(const EnvVarGuard&) = delete;
  EnvVarGuard& operator=(const EnvVarGuard&) = delete;

 private:
  void apply(const std::optional<std::string>& v) {
    if (v) {
      ::setenv(name_.c_str(), v->c_str(), /*overwrite=*/1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }

  std::string name_;
  std::optional<std::string> saved_;
};

// Forces the default EventQueue backend through JQOS_EVQ_BACKEND for the
// guard's lifetime, then restores the variable (and so the CI
// forced-backend matrices) as it was.
class EvqBackendGuard {
 public:
  explicit EvqBackendGuard(netsim::EvqBackend backend)
      : env_("JQOS_EVQ_BACKEND", std::string(netsim::evq_backend_name(backend))) {}

 private:
  EnvVarGuard env_;
};

}  // namespace jqos::testing
