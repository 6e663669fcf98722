/**
 * @file
 * Parsers for the MEMTIER_* environment overrides. A malformed value is
 * a configuration error that fatal()s, never a silent default.
 */

#ifndef MEMTIER_BASE_ENV_H_
#define MEMTIER_BASE_ENV_H_

#include <optional>

namespace memtier {

/**
 * On/off switch @p name: unset, empty, 0, OFF or off is false; 1, ON
 * or on is true; any other value fatal()s.
 */
bool envFlag(const char *name);

/**
 * Decimal integer @p name in [@p lo, @p hi], or nullopt when unset or
 * empty; any other value fatal()s.
 */
std::optional<long> envInt(const char *name, long lo, long hi);

}  // namespace memtier

#endif  // MEMTIER_BASE_ENV_H_
