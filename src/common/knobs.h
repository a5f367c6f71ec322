// The JQOS_* environment knobs: one table, one read path, one reject policy.
//
// Each knob picks which code runs: threads, pooling and the two backends
// never change a result; the cc and qdisc knobs pick the policy wherever a
// config leaves it unset. The user-facing copy of this table, with defaults
// and effects, is "Environment overrides" in docs/BENCHMARKING.md; CI checks
// both list the same variables.
//
// Policy, the same for every row: unset resolves to the calling module's
// default; a set value the module's parser rejects (including "" and wrong
// case) throws std::invalid_argument naming the variable, the value and the
// accepted forms. Nothing is cached here: a value is read whenever its module
// asks. JQOS_* names not in the table are never read.
#pragma once

#include <optional>
#include <string_view>

namespace jqos::knobs {

struct Knob {
  const char* name;      // The environment variable.
  const char* expected;  // Accepted forms, quoted in the rejection.
};

inline constexpr Knob kSimThreads{"JQOS_SIM_THREADS",
                                  "a positive integer thread count (e.g. 1, 4, 16)"};
inline constexpr Knob kPacketPool{"JQOS_OBJ_POOL", "0 (pooling off) or 1 (pooling on)"};
inline constexpr Knob kEvqBackend{"JQOS_EVQ_BACKEND", "heap, ladder or auto"};
inline constexpr Knob kGfBackend{"JQOS_GF_BACKEND", "scalar, ssse3, avx2 or auto"};
inline constexpr Knob kTcpCc{"JQOS_TCP_CC", "reno, rack or bbr (alias bbrlite, bbr-lite)"};
inline constexpr Knob kQdisc{"JQOS_QDISC", "taildrop (alias fifo), red or codel"};

inline constexpr Knob kAll[] = {kSimThreads, kPacketPool, kEvqBackend, kGfBackend, kTcpCc, kQdisc};

// The variable's value, or nullptr when unset.
const char* raw(const Knob& knob);

// Throws "<VAR>='<value>' is not a valid setting; expected <forms>. Unset
// <VAR> to use the default."
[[noreturn]] void reject(const Knob& knob, std::string_view value);

// Unset -> `fallback`; set -> parse(value), a std::optional<T> that is
// nullopt for anything the module does not accept.
template <class T, class Parse>
T read(const Knob& knob, T fallback, Parse&& parse) {
  const char* v = raw(knob);
  if (v == nullptr) return fallback;
  const std::optional<T> parsed = parse(std::string_view(v));
  if (!parsed) reject(knob, v);
  return *parsed;
}

}  // namespace jqos::knobs
