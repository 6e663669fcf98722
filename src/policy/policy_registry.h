/**
 * @file
 * Name -> factory registry of tiering policies. The experiment runner,
 * benches and CLIs select a policy by name ("--policy=exchange") and
 * configure it through a string-keyed tunables map instead of
 * constructing concrete policy classes; each policy declares the
 * tunable keys it understands so unknown keys are rejected up front.
 * A factory only constructs: create() registers the new policy's
 * tunables and applies the assignments, the same way for every policy.
 */

#ifndef MEMTIER_POLICY_POLICY_REGISTRY_H_
#define MEMTIER_POLICY_POLICY_REGISTRY_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "os/kernel_hooks.h"
#include "policy/autonuma.h"
#include "policy/tunables.h"

namespace memtier {

class Kernel;
class TunableRegistry;

/** Everything a policy factory may draw on. */
struct PolicyContext
{
    /** Kernel whose pages the policy will manage. */
    Kernel &kernel;

    /**
     * Machine-level AutoNUMA parameter block (SystemConfig::autonuma).
     * Factories use it as the base their tunables override, so code
     * that configures AutoNumaParams directly keeps working.
     */
    AutoNumaParams autonumaDefaults;

    /** String-keyed tunables from the CLI/config. */
    PolicyTunables tunables;

    /** Live tunable registry create() registers the policy's tunables
     *  into and applies the assignments through. */
    TunableRegistry &registry;
};

/** Builds one configured policy instance. */
using PolicyFactory =
    std::function<std::unique_ptr<TieringPolicy>(const PolicyContext &)>;

/**
 * Computes the allowed tunable keys from the assignments themselves,
 * for policies whose key set depends on another tunable (autotune
 * accepts its own keys plus whatever its "base" policy accepts).
 */
using TunableKeysFn =
    std::function<std::vector<std::string>(const PolicyTunables &)>;

/** Process-wide registry of tiering policies. */
class PolicyRegistry
{
  public:
    /** The singleton, with the built-in policies registered. */
    static PolicyRegistry &instance();

    /**
     * Register a policy.
     *
     * @param name registry key (the "--policy=" value).
     * @param description one-line summary for listings.
     * @param tunable_keys tunable keys the policy understands.
     * @param factory instance builder.
     * @param keys_fn optional dynamic key computation; when set it
     *        replaces @p tunable_keys for create()-time validation.
     */
    void add(const std::string &name, const std::string &description,
             std::vector<std::string> tunable_keys,
             PolicyFactory factory, TunableKeysFn keys_fn = nullptr);

    /**
     * Build the policy registered under @p name, register its tunables
     * into ctx.registry, and apply each assignment whose key it
     * registered (unclamped, through TunableRegistry::setFromString).
     * The caller installs the policy in the kernel.
     *
     * @param name registry key.
     * @param ctx construction context (kernel, defaults, tunables,
     *        registry).
     * @param error receives a human-readable message on failure
     *        (unknown name, unknown tunable key); may be nullptr.
     * @return the policy, or nullptr on failure.
     */
    std::unique_ptr<TieringPolicy> create(const std::string &name,
                                          const PolicyContext &ctx,
                                          std::string *error
                                          = nullptr) const;

    /** True when @p name is registered. */
    bool contains(const std::string &name) const;

    /** Registered names, sorted. */
    std::vector<std::string> names() const;

    /** Description of @p name (empty when unknown). */
    std::string description(const std::string &name) const;

    /** Tunable keys of @p name (empty when unknown). */
    std::vector<std::string> tunableKeys(const std::string &name) const;

  private:
    PolicyRegistry();

    struct Entry
    {
        std::string name;
        std::string description;
        std::vector<std::string> tunableKeys;
        PolicyFactory factory;
        TunableKeysFn keysFn;
    };

    const Entry *find(const std::string &name) const;

    std::vector<Entry> entries;
};

}  // namespace memtier

#endif  // MEMTIER_POLICY_POLICY_REGISTRY_H_
