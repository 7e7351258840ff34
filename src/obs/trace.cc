#include "obs/trace.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "common/logging.hh"
#include "obs/json.hh"
#include "obs/jsoncheck.hh"

namespace hwdbg::obs
{

namespace
{

using Clock = std::chrono::steady_clock;

struct TraceEvent
{
    std::string name;
    char ph; ///< 'B' or 'E'
    double ts; ///< microseconds since session start
};

/** One per thread, owned by the registry, alive for the process. */
struct TraceBuffer
{
    std::mutex lock;
    uint32_t tid;
    std::string threadName;
    std::vector<TraceEvent> events;
    /** Session generation the buffered events belong to. */
    uint64_t session = 0;
};

struct TraceRegistry
{
    std::mutex lock;
    std::vector<std::unique_ptr<TraceBuffer>> buffers;
    Clock::time_point start;
};

/** Session generation: 0 = disarmed; each startTrace() bumps it. */
std::atomic<uint64_t> currentSession{0};
std::atomic<bool> armed{false};
std::atomic<uint64_t> sessionCounter{0};

TraceRegistry &
traceRegistry()
{
    static TraceRegistry *r = new TraceRegistry;
    return *r;
}

TraceBuffer &
myBuffer()
{
    thread_local TraceBuffer *buf = nullptr;
    if (!buf) {
        TraceRegistry &r = traceRegistry();
        std::lock_guard<std::mutex> guard(r.lock);
        r.buffers.push_back(std::make_unique<TraceBuffer>());
        buf = r.buffers.back().get();
        buf->tid = static_cast<uint32_t>(r.buffers.size());
    }
    return *buf;
}

/** Buffer backing track @p tid; null when the id was never issued. */
TraceBuffer *
bufferByTid(uint32_t tid)
{
    TraceRegistry &r = traceRegistry();
    std::lock_guard<std::mutex> guard(r.lock);
    if (tid == 0 || tid > r.buffers.size())
        return nullptr;
    return r.buffers[tid - 1].get();
}

double
nowUs()
{
    return std::chrono::duration<double, std::micro>(
               Clock::now() - traceRegistry().start)
        .count();
}

void
append(TraceBuffer &buf, TraceEvent event, uint64_t session)
{
    std::lock_guard<std::mutex> guard(buf.lock);
    if (buf.session != session) {
        // First event of a new session: drop leftovers from the old one.
        buf.events.clear();
        buf.session = session;
    }
    buf.events.push_back(std::move(event));
}

} // namespace

bool
traceEnabled()
{
    return armed.load(std::memory_order_relaxed);
}

void
startTrace()
{
    TraceRegistry &r = traceRegistry();
    std::lock_guard<std::mutex> guard(r.lock);
    r.start = Clock::now();
    uint64_t session = sessionCounter.fetch_add(1) + 1;
    currentSession.store(session, std::memory_order_relaxed);
    armed.store(true, std::memory_order_release);
}

std::string
stopTrace()
{
    armed.store(false, std::memory_order_release);
    uint64_t session = currentSession.load(std::memory_order_relaxed);
    double endTs = nowUs();

    struct Flat
    {
        uint32_t tid;
        TraceEvent event;
    };
    std::vector<Flat> all;
    std::vector<std::pair<uint32_t, std::string>> names;

    TraceRegistry &r = traceRegistry();
    {
        std::lock_guard<std::mutex> guard(r.lock);
        for (auto &buf : r.buffers) {
            std::lock_guard<std::mutex> bufGuard(buf->lock);
            if (buf->session != session) {
                buf->events.clear();
                continue;
            }
            // Balance spans the session cut off mid-flight.
            int depth = 0;
            for (const auto &event : buf->events)
                depth += event.ph == 'B' ? 1 : -1;
            for (; depth > 0; --depth)
                buf->events.push_back(
                    TraceEvent{"<unfinished>", 'E', endTs});
            if (!buf->threadName.empty())
                names.emplace_back(buf->tid, buf->threadName);
            else if (buf->tid == 1)
                names.emplace_back(buf->tid, "main");
            for (auto &event : buf->events)
                all.push_back(Flat{buf->tid, std::move(event)});
            buf->events.clear();
        }
    }
    // Stable: events of one tid come from one buffer in program order,
    // so equal timestamps never reorder a thread's B/E nesting.
    std::stable_sort(all.begin(), all.end(),
                     [](const Flat &a, const Flat &b) {
                         return a.event.ts < b.event.ts;
                     });

    std::string out;
    JsonWriter w(out, JsonWriter::Style::Spaced);
    w.beginObject().key("build").raw(buildInfoJson());
    w.newline(0).key("traceEvents").beginArray();
    if (names.empty() && all.empty())
        w.newline(0);
    for (const auto &[tid, name] : names) {
        w.newline(0).beginObject()
            .member("name", "thread_name")
            .member("ph", "M")
            .member("pid", 1)
            .member("tid", tid)
            .key("args").beginObject().member("name", name).endObject()
            .endObject();
    }
    for (const auto &flat : all) {
        w.newline(0).beginObject()
            .member("name", flat.event.name)
            .member("cat", "hwdbg")
            .member("ph", std::string_view(&flat.event.ph, 1))
            .key("ts").fixed(flat.event.ts, 3)
            .member("pid", 1)
            .member("tid", flat.tid)
            .endObject();
    }
    w.newline(0).endArray().member("displayTimeUnit", "ms").endObject();
    out += '\n';
    return out;
}

namespace
{

/** Metadata events need a thread name; B/E events a time and track. */
std::string
eventRule(const JsonValue &event)
{
    if (event["ph"].text == "M") {
        const JsonValue *args = event.get("args");
        if (event["name"].text == "thread_name" &&
            !(args && args->get("name")))
            return "thread_name without args.name";
        return "";
    }
    for (const char *key : {"ts", "pid", "tid"})
        if (!event.get(key))
            return std::string(".") + key + ": missing";
    if (event["ph"].text == "B" && event["name"].text.empty())
        return ".name: B event with empty name";
    return "";
}

/** Per-tid B/E balance and non-decreasing timestamps. */
std::string
spanRule(const JsonValue &events)
{
    struct TidState
    {
        int depth = 0;
        double lastTs = -1;
    };
    std::map<double, TidState> perTid;
    size_t spans = 0;
    for (size_t i = 0; i < events.elems.size(); ++i) {
        const JsonValue &event = *events.elems[i];
        if (event["ph"].text == "M")
            continue;
        auto tid = static_cast<long long>(event["tid"].number);
        TidState &state = perTid[event["tid"].number];
        if (event["ts"].number < state.lastTs)
            return csprintf("[%zu]: timestamps not monotonic on tid %lld",
                            i, tid);
        state.lastTs = event["ts"].number;
        if (event["ph"].text == "B") {
            ++state.depth;
            ++spans;
        } else if (--state.depth < 0) {
            return csprintf("[%zu]: E event without a matching B on "
                            "tid %lld",
                            i, tid);
        }
    }
    for (const auto &[tid, state] : perTid)
        if (state.depth != 0)
            return csprintf("unbalanced spans on tid %lld (%d unclosed)",
                            static_cast<long long>(tid), state.depth);
    return spans ? "" : "trace contains no spans";
}

} // namespace

std::string
checkTraceJson(const std::string &text)
{
    static const Schema schema = ordered({
        {"build", buildSchema()},
        {"traceEvents",
         arrayOf(ordered({{"name", string()},
                          {"cat", string(), false},
                          {"ph", oneOf({"M", "B", "E"})},
                          {"ts", number(), false},
                          {"pid", number(), false},
                          {"tid", number(), false},
                          {"args", object({{"name", string(), false}}),
                           false}},
                         eventRule),
                 spanRule)},
        {"displayTimeUnit", string(), false},
    });
    return checkJson(schema, text);
}

bool
writeTrace(const std::string &path)
{
    std::string json = stopTrace();
    std::ofstream out(path);
    if (!out) {
        warn("cannot write trace file '%s'", path.c_str());
        return false;
    }
    out << json;
    return static_cast<bool>(out);
}

void
setTraceThreadName(const std::string &name)
{
    TraceBuffer &buf = myBuffer();
    std::lock_guard<std::mutex> guard(buf.lock);
    buf.threadName = name;
}

uint32_t
traceRegisterTrack(const std::string &name)
{
    TraceRegistry &r = traceRegistry();
    std::lock_guard<std::mutex> guard(r.lock);
    r.buffers.push_back(std::make_unique<TraceBuffer>());
    TraceBuffer *buf = r.buffers.back().get();
    buf->tid = static_cast<uint32_t>(r.buffers.size());
    buf->threadName = name;
    return buf->tid;
}

void
ObsSpan::begin(const char *name)
{
    if (!armed.load(std::memory_order_relaxed))
        return;
    uint64_t session = currentSession.load(std::memory_order_relaxed);
    TraceBuffer *buf = track_ ? bufferByTid(track_) : &myBuffer();
    if (!buf)
        return;
    append(*buf, TraceEvent{name, 'B', nowUs()}, session);
    session_ = session;
}

ObsSpan::ObsSpan(const char *name)
{
    begin(name);
}

ObsSpan::ObsSpan(const std::string &name)
{
    begin(name.c_str());
}

ObsSpan::ObsSpan(const char *name, uint32_t track) : track_(track)
{
    begin(name);
}

ObsSpan::ObsSpan(const std::string &name, uint32_t track) : track_(track)
{
    begin(name.c_str());
}

ObsSpan::~ObsSpan()
{
    if (!session_)
        return;
    // Only close the span if the session it opened in is still live;
    // stopTrace() balances anything it cut off.
    if (!armed.load(std::memory_order_relaxed) ||
        currentSession.load(std::memory_order_relaxed) != session_)
        return;
    TraceBuffer *buf = track_ ? bufferByTid(track_) : &myBuffer();
    if (buf)
        append(*buf, TraceEvent{"", 'E', nowUs()}, session_);
}

} // namespace hwdbg::obs
