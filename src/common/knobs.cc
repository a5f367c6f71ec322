#include "common/knobs.h"

#include <cstdlib>
#include <stdexcept>
#include <string>

namespace jqos::knobs {

const char* raw(const Knob& knob) { return std::getenv(knob.name); }

void reject(const Knob& knob, std::string_view value) {
  // A knob that is set but broken must fail loudly: falling back to the
  // default silently turns a typo into a configuration nobody asked for.
  const std::string var(knob.name);
  throw std::invalid_argument(var + "='" + std::string(value) +
                              "' is not a valid setting; expected " + knob.expected +
                              ". Unset " + var + " to use the default.");
}

}  // namespace jqos::knobs
