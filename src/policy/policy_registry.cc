#include "policy/policy_registry.h"

#include <algorithm>

#include "base/logging.h"
#include "policy/autotune_policy.h"
#include "policy/dynamic_tiering.h"
#include "policy/exchange_policy.h"
#include "policy/static_policies.h"
#include "policy/tunable_registry.h"

namespace memtier {

namespace {

/**
 * Register every AutoNumaParams field of @p p as a live tunable.
 * AutoNuma lives below src/policy and cannot name the registry itself,
 * so the registration happens here; the setters it exposes restore
 * construction-equivalent state (threshold sync, token-bucket refill).
 */
void
registerAutoNumaTunables(AutoNuma &p, TunableRegistry &r)
{
    const char *owner = p.name();
    r.add({"scan_period_ms", "cycles between scan rounds (ms)", owner,
           0.05, 1000.0, false, /*rearmScan=*/true,
           [&p] { return cyclesToSeconds(p.config().scanPeriod) * 1e3; },
           [&p](double v) {
               p.setScanPeriod(secondsToCycles(v / 1000.0));
           }});
    r.add({"scan_pages", "pages marked PROT_NONE per scan round", owner,
           16.0, 4096.0, /*integerValued=*/true, false,
           [&p] {
               return static_cast<double>(p.config().scanPagesPerRound);
           },
           [&p](double v) {
               p.setScanPagesPerRound(static_cast<std::uint32_t>(v));
           }});
    r.add({"hot_threshold_ms",
           "initial hint-fault hotness threshold (ms)", owner, 0.01,
           1000.0, false, false,
           [&p] {
               return cyclesToSeconds(p.config().initialThreshold) * 1e3;
           },
           [&p](double v) {
               p.setHotThreshold(secondsToCycles(v / 1000.0));
           }});
    r.add({"threshold_min_ms", "lower clamp of the adaptive threshold",
           owner, 0.01, 100.0, false, false,
           [&p] {
               return cyclesToSeconds(p.config().thresholdMin) * 1e3;
           },
           [&p](double v) {
               p.setThresholdMin(secondsToCycles(v / 1000.0));
           }});
    r.add({"threshold_max_ms", "upper clamp of the adaptive threshold",
           owner, 1.0, 5000.0, false, false,
           [&p] {
               return cyclesToSeconds(p.config().thresholdMax) * 1e3;
           },
           [&p](double v) {
               p.setThresholdMax(secondsToCycles(v / 1000.0));
           }});
    r.add({"rate_limit_kib", "promotion rate limit (KiB per second)",
           owner, 64.0, 1048576.0, /*integerValued=*/true, false,
           [&p] {
               return static_cast<double>(
                   p.config().rateLimitBytesPerSec / kKiB);
           },
           [&p](double v) {
               p.setRateLimit(static_cast<std::uint64_t>(v) * kKiB);
           }});
    r.add({"adjust_period_ms", "threshold adjustment interval (ms)",
           owner, 0.1, 1000.0, false, false,
           [&p] {
               return cyclesToSeconds(p.config().adjustPeriod) * 1e3;
           },
           [&p](double v) {
               p.setAdjustPeriod(secondsToCycles(v / 1000.0));
           }});
    r.add({"failure_holdoff_ms",
           "promotion holdoff after a DRAM frame retirement (ms)", owner,
           0.0, 1000.0, false, false,
           [&p] {
               return cyclesToSeconds(p.config().failureHoldoff) * 1e3;
           },
           [&p](double v) {
               p.setFailureHoldoff(secondsToCycles(v / 1000.0));
           }});
}

/** Apply every CLI assignment through the registry's construction
 *  path (legacy parse semantics, no clamping). */
void
applyAssignments(const PolicyContext &ctx, TunableRegistry &reg)
{
    for (const auto &[key, value] : ctx.tunables.items())
        reg.setFromString(key, value);
}

/** ctx.registry when the caller wired one, else @p local. */
TunableRegistry &
pickRegistry(const PolicyContext &ctx, TunableRegistry &local)
{
    return ctx.registry != nullptr ? *ctx.registry : local;
}

/** Tuner meta-parameters ("autotune"'s own keys, never registered). */
const std::vector<std::string> kAutotuneKeys = {
    "base",     "epoch_ms",  "max_restarts", "max_steps",
    "min_gain", "min_step",  "seed",         "step"};

bool
isAutotuneKey(const std::string &key)
{
    return std::find(kAutotuneKeys.begin(), kAutotuneKeys.end(), key) !=
           kAutotuneKeys.end();
}

}  // namespace

PolicyRegistry::PolicyRegistry()
{
    add("autonuma",
        "AutoNUMA tiering (the paper's baseline): hint-fault driven "
        "promotion with adaptive threshold and rate limit; demotion "
        "through reclaim",
        {"scan_period_ms", "scan_pages", "hot_threshold_ms",
         "threshold_min_ms", "threshold_max_ms", "rate_limit_kib",
         "adjust_period_ms", "failure_holdoff_ms"},
        [](const PolicyContext &ctx) -> std::unique_ptr<TieringPolicy> {
            auto p = std::make_unique<AutoNuma>(ctx.kernel,
                                                ctx.autonumaDefaults);
            TunableRegistry local;
            TunableRegistry &reg = pickRegistry(ctx, local);
            registerAutoNumaTunables(*p, reg);
            applyAssignments(ctx, reg);
            return p;
        });

    add("exchange",
        "AutoTiering-style hot/cold page exchange: hot NVM pages swap "
        "with the coldest DRAM page directly, bypassing reclaim",
        {"scan_period_ms", "scan_pages", "hot_threshold_ms",
         "exchange_batch", "protect_ms", "failure_holdoff_ms"},
        [](const PolicyContext &ctx) -> std::unique_ptr<TieringPolicy> {
            ExchangePolicyParams ep;
            // Inherit the machine's scan cadence so exchange and
            // autonuma see the same page-access information by default.
            ep.scanPeriod = ctx.autonumaDefaults.scanPeriod;
            ep.scanPagesPerRound = ctx.autonumaDefaults.scanPagesPerRound;
            ep.hotThreshold = ctx.autonumaDefaults.initialThreshold;
            auto p = std::make_unique<ExchangePolicy>(ctx.kernel, ep);
            TunableRegistry local;
            TunableRegistry &reg = pickRegistry(ctx, local);
            p->registerTunables(reg);
            applyAssignments(ctx, reg);
            return p;
        });

    add("dram-only",
        "Static DRAM-first placement: pack DRAM to the last frame, "
        "overflow to NVM, never migrate",
        {},
        [](const PolicyContext &ctx) -> std::unique_ptr<TieringPolicy> {
            return std::make_unique<DramOnlyPolicy>(ctx.kernel);
        });

    add("interleave",
        "Static page-interleaved placement across DRAM and NVM "
        "(MPOL_INTERLEAVE), never migrate",
        {"dram_stride", "nvm_stride"},
        [](const PolicyContext &ctx) -> std::unique_ptr<TieringPolicy> {
            auto p = std::make_unique<InterleavePolicy>(ctx.kernel);
            TunableRegistry local;
            TunableRegistry &reg = pickRegistry(ctx, local);
            p->registerTunables(reg);
            applyAssignments(ctx, reg);
            return p;
        });

    add("object-dynamic",
        "online object-level tiering: ranks live objects by windowed "
        "external accesses per byte and migrates them whole under a "
        "per-interval page budget; demotion through reclaim",
        {},
        [](const PolicyContext &ctx) -> std::unique_ptr<TieringPolicy> {
            return std::make_unique<DynamicObjectTiering>(ctx.kernel);
        });

    add("autotune",
        "online hill-climbing tuner: wraps a base policy and adjusts "
        "its registered tunables per epoch, with revert-on-regression "
        "and successive-halving restarts",
        kAutotuneKeys,
        [](const PolicyContext &ctx) -> std::unique_ptr<TieringPolicy> {
            const PolicyTunables &t = ctx.tunables;
            const std::string baseName = t.getString("base", "autonuma");
            if (baseName == "autotune")
                fatal("autotune cannot wrap itself");

            AutoTuneParams p;
            p.epochPeriod = t.getMillis("epoch_ms", p.epochPeriod);
            p.seed = t.getU64("seed", p.seed);
            p.step = t.getDouble("step", p.step);
            p.minStep = t.getDouble("min_step", p.minStep);
            p.minGain = t.getDouble("min_gain", p.minGain);
            p.maxSteps = t.getU64("max_steps", p.maxSteps);
            p.maxRestarts = t.getU64("max_restarts", p.maxRestarts);

            // Standalone construction (no engine-provided registry)
            // still works: the wrapper owns a private registry that the
            // base registers into.
            std::unique_ptr<TunableRegistry> owned;
            TunableRegistry *reg = ctx.registry;
            if (reg == nullptr) {
                owned = std::make_unique<TunableRegistry>();
                reg = owned.get();
            }

            PolicyContext basectx{ctx.kernel, ctx.autonumaDefaults,
                                  PolicyTunables{}, reg};
            for (const auto &[key, value] : t.items()) {
                if (!isAutotuneKey(key))
                    basectx.tunables.set(key, value);
            }
            std::string err;
            auto base = PolicyRegistry::instance().create(baseName,
                                                          basectx, &err);
            if (base == nullptr)
                fatal("autotune: %s", err.c_str());
            return std::make_unique<AutoTunePolicy>(
                ctx.kernel, std::move(base), p, ctx.registry,
                std::move(owned));
        },
        [](const PolicyTunables &t) {
            // Accept the tuner's own keys plus whatever the selected
            // base policy accepts, so unknown-key rejection still
            // works through the wrapper.
            std::vector<std::string> keys = kAutotuneKeys;
            const std::vector<std::string> base =
                PolicyRegistry::instance().tunableKeys(
                    t.getString("base", "autonuma"));
            keys.insert(keys.end(), base.begin(), base.end());
            return keys;
        });
}

PolicyRegistry &
PolicyRegistry::instance()
{
    static PolicyRegistry registry;
    return registry;
}

void
PolicyRegistry::add(const std::string &name,
                    const std::string &description,
                    std::vector<std::string> tunable_keys,
                    PolicyFactory factory, TunableKeysFn keys_fn)
{
    MEMTIER_ASSERT(find(name) == nullptr, "duplicate policy name");
    entries.push_back({name, description, std::move(tunable_keys),
                       std::move(factory), std::move(keys_fn)});
}

const PolicyRegistry::Entry *
PolicyRegistry::find(const std::string &name) const
{
    for (const Entry &e : entries) {
        if (e.name == name)
            return &e;
    }
    return nullptr;
}

std::unique_ptr<TieringPolicy>
PolicyRegistry::create(const std::string &name, const PolicyContext &ctx,
                       std::string *error) const
{
    const Entry *entry = find(name);
    if (entry == nullptr) {
        if (error != nullptr) {
            std::string known;
            for (const std::string &n : names())
                known += (known.empty() ? "" : ", ") + n;
            *error = "unknown policy '" + name + "' (available: " +
                     known + ")";
        }
        return nullptr;
    }
    const std::vector<std::string> allowed =
        entry->keysFn ? entry->keysFn(ctx.tunables) : entry->tunableKeys;
    const std::vector<std::string> unknown =
        ctx.tunables.unknownKeys(allowed);
    if (!unknown.empty()) {
        if (error != nullptr) {
            *error = "policy '" + name +
                     "' does not understand tunable '" + unknown.front() +
                     "'";
        }
        return nullptr;
    }
    return entry->factory(ctx);
}

bool
PolicyRegistry::contains(const std::string &name) const
{
    return find(name) != nullptr;
}

std::vector<std::string>
PolicyRegistry::names() const
{
    std::vector<std::string> out;
    out.reserve(entries.size());
    for (const Entry &e : entries)
        out.push_back(e.name);
    std::sort(out.begin(), out.end());
    return out;
}

std::string
PolicyRegistry::description(const std::string &name) const
{
    const Entry *entry = find(name);
    return entry != nullptr ? entry->description : "";
}

std::vector<std::string>
PolicyRegistry::tunableKeys(const std::string &name) const
{
    const Entry *entry = find(name);
    return entry != nullptr ? entry->tunableKeys
                            : std::vector<std::string>{};
}

}  // namespace memtier
