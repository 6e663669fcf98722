#include "base/logging.h"

#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <vector>

namespace memtier {

namespace {

LogLevel g_level = LogLevel::Normal;

/**
 * Taken by the first fatal() and never released: one thread prints and
 * runs exit(), a concurrent caller blocks until the process is gone.
 */
std::mutex g_fatal_mu;

std::string
vformat(const char *fmt, va_list args)
{
    va_list copy;
    va_copy(copy, args);
    const int needed = std::vsnprintf(nullptr, 0, fmt, copy);
    va_end(copy);
    if (needed < 0)
        return "<format error>";
    std::vector<char> buf(static_cast<size_t>(needed) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, args);
    return std::string(buf.data(), static_cast<size_t>(needed));
}

}  // namespace

void
setLogLevel(LogLevel level)
{
    g_level = level;
}

LogLevel
logLevel()
{
    return g_level;
}

void
fatal(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    const std::string msg = vformat(fmt, args);
    va_end(args);
    g_fatal_mu.lock();
    std::fprintf(stderr, "fatal: %s\n", msg.c_str());
    std::exit(1);
}

void
panic(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    const std::string msg = vformat(fmt, args);
    va_end(args);
    std::fprintf(stderr, "panic: %s\n", msg.c_str());
    std::abort();
}

void
warn(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    const std::string msg = vformat(fmt, args);
    va_end(args);
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
inform(const char *fmt, ...)
{
    if (g_level == LogLevel::Quiet)
        return;
    va_list args;
    va_start(args, fmt);
    const std::string msg = vformat(fmt, args);
    va_end(args);
    std::fprintf(stderr, "info: %s\n", msg.c_str());
}

std::string
strprintf(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string msg = vformat(fmt, args);
    va_end(args);
    return msg;
}

}  // namespace memtier
