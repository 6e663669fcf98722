#include "base/env.h"

#include <cstdlib>
#include <string>

#include "base/logging.h"

namespace memtier {

bool
envFlag(const char *name)
{
    const char *env = std::getenv(name);
    if (env == nullptr)
        return false;
    const std::string value(env);
    if (value.empty() || value == "0" || value == "OFF" || value == "off")
        return false;
    if (value == "1" || value == "ON" || value == "on")
        return true;
    fatal("%s='%s' is not a switch (ON/on/1 or OFF/off/0)", name, env);
}

std::optional<long>
envInt(const char *name, long lo, long hi)
{
    const char *env = std::getenv(name);
    if (env == nullptr || *env == '\0')
        return std::nullopt;
    char *end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end == env || *end != '\0' || v < lo || v > hi)
        fatal("%s='%s' is not an integer in %ld..%ld", name, env, lo, hi);
    return v;
}

}  // namespace memtier
