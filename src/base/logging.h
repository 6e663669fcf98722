/**
 * @file
 * Status-message and error helpers, following the gem5 fatal/panic split:
 * fatal() is for user/configuration errors (clean exit), panic() is for
 * internal invariant violations (abort).
 */

#ifndef MEMTIER_BASE_LOGGING_H_
#define MEMTIER_BASE_LOGGING_H_

#include <cstdarg>
#include <string>

namespace memtier {

/** Verbosity of inform() output; warnings and errors always print. */
enum class LogLevel {
    Quiet = 0,
    Normal = 1,
    Verbose = 2,
};

/** Set the global log verbosity. */
void setLogLevel(LogLevel level);

/** Current global log verbosity. */
LogLevel logLevel();

/**
 * Terminate because of a user/configuration error (exit(1)). Safe to
 * call from several threads at once: the first caller prints and
 * exits, any other blocks until the process is gone.
 * @param fmt printf-style format for the error message.
 */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Terminate because of an internal invariant violation (abort()).
 * @param fmt printf-style format for the error message.
 */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Print a warning about suspicious but survivable behaviour. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Print a normal status message (suppressed when LogLevel::Quiet). */
void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** printf into a std::string. */
std::string strprintf(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace memtier

/**
 * Checked invariant: panics with location info when @p cond is false.
 * Active in all build types (simulation correctness beats a few cycles).
 */
#define MEMTIER_ASSERT(cond, msg)                                          \
    do {                                                                   \
        if (!(cond)) {                                                     \
            ::memtier::panic("assertion failed at %s:%d: %s (%s)",         \
                             __FILE__, __LINE__, #cond, msg);              \
        }                                                                  \
    } while (0)

/**
 * MEMTIER_ASSERT in builds without NDEBUG (Debug, the sanitizer CI
 * stage); compiled out, with @p cond unevaluated, otherwise. For
 * preconditions whose check would cost the hot path a scan.
 */
#ifdef NDEBUG
#define MEMTIER_DEBUG_ASSERT(cond, msg)                                    \
    do {                                                                   \
        (void)sizeof(cond);                                                \
    } while (0)
#else
#define MEMTIER_DEBUG_ASSERT(cond, msg) MEMTIER_ASSERT(cond, msg)
#endif

#endif  // MEMTIER_BASE_LOGGING_H_
