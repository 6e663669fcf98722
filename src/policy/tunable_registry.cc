#include "policy/tunable_registry.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "base/logging.h"
#include "policy/tunables.h"

namespace memtier {

void
TunableRegistry::add(Tunable t)
{
    MEMTIER_ASSERT(!t.key.empty(), "tunable needs a key");
    MEMTIER_ASSERT(t.get != nullptr && t.apply != nullptr,
                   "tunable needs get and apply accessors");
    MEMTIER_ASSERT(t.minValue <= t.maxValue,
                   "tunable clamp range is inverted");
    if (tunables_.count(t.key) != 0)
        fatal("duplicate tunable key '%s'", t.key.c_str());
    tunables_.emplace(t.key, std::move(t));
}

bool
TunableRegistry::contains(const std::string &key) const
{
    return tunables_.count(key) != 0;
}

const TunableRegistry::Tunable *
TunableRegistry::find(const std::string &key) const
{
    const auto it = tunables_.find(key);
    return it == tunables_.end() ? nullptr : &it->second;
}

std::vector<std::string>
TunableRegistry::keys() const
{
    std::vector<std::string> out;
    out.reserve(tunables_.size());
    for (const auto &[key, t] : tunables_) {
        (void)t;
        out.push_back(key);
    }
    return out;  // std::map iteration order is already sorted.
}

std::vector<std::string>
TunableRegistry::keysOwnedBy(const std::string &owner) const
{
    std::vector<std::string> out;
    for (const auto &[key, t] : tunables_) {
        if (t.owner == owner)
            out.push_back(key);
    }
    return out;
}

double
TunableRegistry::value(const std::string &key) const
{
    const Tunable *t = find(key);
    if (t == nullptr)
        fatal("unknown tunable '%s'", key.c_str());
    return t->get();
}

double
TunableRegistry::set(const std::string &key, double v, Cycles now)
{
    const auto it = tunables_.find(key);
    if (it == tunables_.end())
        fatal("unknown tunable '%s'", key.c_str());
    Tunable &t = it->second;

    double clamped = std::min(std::max(v, t.minValue), t.maxValue);
    if (t.integerValued)
        clamped = std::floor(clamped + 0.5);
    if (clamped == t.get())
        return clamped;  // No-op proposal: no apply, no side effects.

    t.apply(clamped);
    ++mutations_;
    if (observer_)
        observer_(t, now);
    return clamped;
}

void
TunableRegistry::setFromString(const std::string &key,
                               const std::string &value)
{
    const auto it = tunables_.find(key);
    if (it == tunables_.end())
        fatal("unknown tunable '%s'", key.c_str());
    Tunable &t = it->second;

    // Route the parse through the PolicyTunables getters so the
    // accepted grammar and the fatal diagnostics stay byte-identical
    // to the pre-registry construction-time translation.
    PolicyTunables one;
    one.set(key, value);
    const double v = t.integerValued
                         ? static_cast<double>(one.getU64(key, 0))
                         : one.getDouble(key, 0.0);
    t.apply(v);  // Unclamped: the legacy path never clamped either.
}

std::string
TunableRegistry::formatValue(const std::string &key) const
{
    const Tunable *t = find(key);
    if (t == nullptr)
        fatal("unknown tunable '%s'", key.c_str());
    char buf[64];
    if (t->integerValued) {
        std::snprintf(buf, sizeof(buf), "%llu",
                      static_cast<unsigned long long>(
                          std::llround(t->get())));
    } else {
        std::snprintf(buf, sizeof(buf), "%.6g", t->get());
    }
    return buf;
}

}  // namespace memtier
