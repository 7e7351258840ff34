/**
 * @file
 * Hierarchical trace spans emitted as Chrome/Perfetto trace-event JSON.
 *
 * Usage: wrap a phase in an ObsSpan and it shows up as one slice on the
 * calling thread's track, nested under whatever span encloses it:
 *
 *     obs::ObsSpan span("elaborate");
 *     ... work ...
 *
 * A session is process-global: startTrace() arms it, stopTrace()
 * disarms it and returns the JSON ({"traceEvents": [...]}), loadable
 * directly in https://ui.perfetto.dev or chrome://tracing. The CLI
 * binds a session to --trace FILE.
 *
 * Threading: each thread appends to its own buffer (registered once,
 * guarded by a per-buffer mutex that is uncontended on the hot path),
 * so spans from the fuzz worker pool never serialize against each
 * other. setTraceThreadName() labels the calling thread's track.
 *
 * The disabled path is branch-on-null: when no session is armed, an
 * ObsSpan is one relaxed atomic load in the constructor and one in the
 * destructor — cheap enough to leave every span compiled into the
 * tier-1 build.
 */

#ifndef HWDBG_OBS_TRACE_HH
#define HWDBG_OBS_TRACE_HH

#include <string>

namespace hwdbg::obs
{

/** True while a trace session is armed (one relaxed load). */
bool traceEnabled();

/** Arm a session; clears events from any previous session. */
void startTrace();

/**
 * Disarm the session and render every recorded event as Chrome
 * trace-event JSON. Spans still open when the session stops get a
 * synthetic end so the stream stays balanced.
 */
std::string stopTrace();

/** stopTrace() straight to a file; false (and a warning) on IO error. */
bool writeTrace(const std::string &path);

/**
 * Check @p text against the schema of stopTrace()'s output: a `name`
 * on every event, B/E events with ts/pid/tid, per-tid B/E balance,
 * non-decreasing per-tid timestamps, and at least one span. Returns ""
 * when valid, else the first violation.
 */
std::string checkTraceJson(const std::string &text);

/** Label the calling thread's track (e.g. "fuzz-worker-3"). */
void setTraceThreadName(const std::string &name);

/**
 * Register a named virtual track that is not bound to any thread —
 * e.g. one track per serve session, written by whichever connection
 * thread handles a command. Returns the track id for the ObsSpan
 * track overloads. Tracks live for the process, so callers that mint
 * them per logical entity should only do so while traceEnabled().
 */
uint32_t traceRegisterTrack(const std::string &name);

/** RAII span on the calling thread's track, or on a virtual track. */
class ObsSpan
{
  public:
    explicit ObsSpan(const char *name);
    explicit ObsSpan(const std::string &name);
    /** Record onto virtual track @p track (0 = the calling thread). */
    ObsSpan(const char *name, uint32_t track);
    ObsSpan(const std::string &name, uint32_t track);
    ~ObsSpan();

    ObsSpan(const ObsSpan &) = delete;
    ObsSpan &operator=(const ObsSpan &) = delete;

  private:
    void begin(const char *name);
    /** Session generation this span recorded into; 0 = inactive. */
    uint64_t session_ = 0;
    /** Virtual track the span records on; 0 = thread-local buffer. */
    uint32_t track_ = 0;
};

} // namespace hwdbg::obs

#endif // HWDBG_OBS_TRACE_HH
