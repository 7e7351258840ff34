#include "common/logging.hh"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <sstream>
#include <utility>
#include <vector>

namespace hwdbg
{

namespace
{

bool quietMode = false;

std::mutex sinkMutex;
LogSink logSink;

void
emit(LogLevel level, const std::string &msg)
{
    std::lock_guard<std::mutex> lock(sinkMutex);
    if (logSink) {
        logSink(level, msg);
        return;
    }
    std::fprintf(stderr, "%s: %s\n",
                 level == LogLevel::Warn ? "warn" : "info", msg.c_str());
}

} // namespace

std::string
vcsprintf(const char *fmt, va_list args)
{
    va_list args_copy;
    va_copy(args_copy, args);
    int needed = std::vsnprintf(nullptr, 0, fmt, args_copy);
    va_end(args_copy);
    if (needed < 0)
        return std::string(fmt);
    std::vector<char> buf(static_cast<size_t>(needed) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, args);
    return std::string(buf.data(), static_cast<size_t>(needed));
}

std::string
csprintf(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string result = vcsprintf(fmt, args);
    va_end(args);
    return result;
}

void
fatal(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string msg = vcsprintf(fmt, args);
    va_end(args);
    throw HdlError(msg);
}

void
panic(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string msg = vcsprintf(fmt, args);
    va_end(args);
    std::fprintf(stderr, "panic: %s\n", msg.c_str());
    std::abort();
}

void
warn(const char *fmt, ...)
{
    if (quietMode)
        return;
    va_list args;
    va_start(args, fmt);
    std::string msg = vcsprintf(fmt, args);
    va_end(args);
    emit(LogLevel::Warn, msg);
}

void
inform(const char *fmt, ...)
{
    if (quietMode)
        return;
    va_list args;
    va_start(args, fmt);
    std::string msg = vcsprintf(fmt, args);
    va_end(args);
    emit(LogLevel::Inform, msg);
}

void
setQuiet(bool quiet)
{
    quietMode = quiet;
}

LogSink
setLogSink(LogSink sink)
{
    std::lock_guard<std::mutex> lock(sinkMutex);
    LogSink previous = std::move(logSink);
    logSink = std::move(sink);
    return previous;
}

std::string
readFileOrFatal(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal("cannot open '%s'", path.c_str());
    std::ostringstream body;
    body << in.rdbuf();
    return body.str();
}

void
writeFileOrFatal(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        fatal("cannot write '%s'", path.c_str());
    out << text;
}

uint64_t
parseU64(const std::string &text, const char *what)
{
    char *end = nullptr;
    errno = 0;
    unsigned long long value = std::strtoull(text.c_str(), &end, 10);
    if (errno || end == text.c_str() || *end != '\0')
        fatal("invalid %s '%s'", what, text.c_str());
    return value;
}

std::vector<std::string>
splitCsv(const std::string &text)
{
    std::vector<std::string> out;
    std::string item;
    std::istringstream in(text);
    while (std::getline(in, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

} // namespace hwdbg
