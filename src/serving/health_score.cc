#include "serving/health_score.h"

#include <stdexcept>

namespace olympian::serving {

void Validate(const HealthScoreOptions& options) {
  if (!options.enabled) return;
  if (!(options.rtt_alpha > 0.0) || options.rtt_alpha > 1.0) {
    throw std::invalid_argument("health score rtt_alpha must be in (0, 1]");
  }
  if (!(options.degrade_below > 0.0) || options.degrade_below >= 1.0 ||
      !(options.recover_above > 0.0) || options.recover_above >= 1.0) {
    throw std::invalid_argument("health score thresholds must be in (0, 1)");
  }
  if (options.degrade_below >= options.recover_above) {
    throw std::invalid_argument(
        "degrade_below must sit strictly below recover_above (hysteresis)");
  }
}

}  // namespace olympian::serving
