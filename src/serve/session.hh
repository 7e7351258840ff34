/**
 * @file
 * Serve sessions: one attached client activity over a cached design.
 *
 * A `debug` session owns a live Engine + ProtocolHandler pair built on
 * a clone of the cached master module; routed requests (`"session":N`
 * or a bare `@N ` prefix) dispatch into its handler under the session
 * mutex, so two channels can safely share one session. One-shot kinds
 * (`cover`, `trace`, `analyze`) run their whole job at open time on
 * their own clone, keep the result summary, and stay listed until
 * closed so `sessions` shows what the server has done.
 */

#ifndef HWDBG_SERVE_SESSION_HH
#define HWDBG_SERVE_SESSION_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "debug/engine.hh"
#include "debug/handler.hh"
#include "serve/cache.hh"

namespace hwdbg::serve
{

struct Session
{
    int64_t id = 0;
    /** debug | cover | trace | analyze */
    std::string kind;
    std::shared_ptr<const CachedDesign> design;
    /** Whether the attach was served from the design cache. */
    bool cacheHit = false;

    /** Live debugger state (kind == "debug" only). */
    std::unique_ptr<debug::Engine> engine;
    std::unique_ptr<debug::ProtocolHandler> handler;

    /** One-shot result summary, pre-rendered JSON (non-debug kinds). */
    std::string summaryJson;

    /** Perfetto virtual track id; 0 when tracing was off at open. */
    uint32_t track = 0;
    /** Server-uptime stamp at open (µs), for the stats uptime field. */
    uint64_t openedUs = 0;
    /** Routed commands dispatched into this session / failures among
     *  them. Atomics: channels sharing the session race on these. */
    std::atomic<uint64_t> cmds{0};
    std::atomic<uint64_t> errs{0};

    /** Serializes routed commands; channels may share a session. */
    std::mutex mu;
};

class SessionRegistry
{
  public:
    /** Allocate the next session id and register an empty session. */
    std::shared_ptr<Session> create(const std::string &kind);
    std::shared_ptr<Session> find(int64_t id) const;
    bool close(int64_t id);
    /** Sessions sorted by id (stable listing for transcripts). */
    std::vector<std::shared_ptr<Session>> list() const;
    size_t count() const;
    /** Total sessions ever opened (monotonic). */
    uint64_t opened() const;

    /** Count one routed dispatch into @p sess. The invariant
     *  dispatched() == sum(live cmds) + retiredCmds() holds whenever
     *  the server is quiescent; the stats concurrency test asserts it. */
    void noteDispatch(Session &sess, bool ok);
    /** Routed commands dispatched into any session, ever. */
    uint64_t dispatched() const;
    /** Command/error counts accumulated from closed sessions. */
    uint64_t retiredCmds() const;
    uint64_t retiredErrs() const;

  private:
    mutable std::mutex mu_;
    std::map<int64_t, std::shared_ptr<Session>> sessions_;
    int64_t nextId_ = 1;
    uint64_t opened_ = 0;
    uint64_t retiredCmds_ = 0;
    uint64_t retiredErrs_ = 0;
    std::atomic<uint64_t> dispatched_{0};
};

} // namespace hwdbg::serve

#endif // HWDBG_SERVE_SESSION_HH
