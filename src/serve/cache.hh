/**
 * @file
 * Shared design cache: elaborate once, serve many.
 *
 * Serve sessions attach to designs through this cache, keyed by
 * source and bug variant: the backend is not part of the key, since a
 * build is backend-independent and every session picks its own engine.
 * The cached value is the debug::Workload of that design, built once:
 * the elaborated and instrumented modules with their analyze::Contexts,
 * the elaborated constants, the debug tape, and the one-shot stimulus.
 * Recording a bug workload is a full simulation run, so sharing the
 * tape is where most of the warm-attach speedup comes from. Sessions
 * share the Contexts too, so each static fact of a cached design (the
 * FSMs behind the coverage goals, the graph behind `backtrace`) is
 * built once, by whichever session first reads it.
 *
 * The build-once guarantee is strict: for a given key the builder runs
 * exactly once even under concurrent attaches — later callers block on
 * a condition variable until the first build finishes. Failed builds
 * are negatively cached (the error string is replayed to every later
 * attach) so a bad design stays deterministic and cheap.
 *
 * Cached modules are masters: sessions must simulate a
 * hdl::cloneModule() copy, never the master itself, because lowering
 * annotates the AST in place.
 */

#ifndef HWDBG_SERVE_CACHE_HH
#define HWDBG_SERVE_CACHE_HH

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "debug/workload.hh"

namespace hwdbg::serve
{

/** One fully-prepared design, shared read-only between sessions. */
using CachedDesign = debug::Workload;

class DesignCache
{
  public:
    using Builder = std::function<CachedDesign()>;

    struct Attach
    {
        std::shared_ptr<const CachedDesign> design;
        /** False exactly once per key: the attach that built it. */
        bool hit = false;
    };

    /**
     * Return the cached design for @p key, building it with @p build
     * on the first attach. Concurrent attaches for the same key wait
     * for the in-flight build. Build failures (HdlError) are cached
     * and rethrown verbatim to every subsequent attach.
     */
    Attach getOrBuild(const std::string &key, const Builder &build);

    struct Stats
    {
        uint64_t hits = 0;
        uint64_t misses = 0;
        uint64_t builds = 0;
        uint64_t buildMicros = 0;
    };
    Stats stats() const;
    size_t size() const;

  private:
    struct Entry
    {
        std::shared_ptr<const CachedDesign> design;
        /** Negative cache: non-empty replays the build failure. */
        std::string error;
        bool building = false;
    };

    mutable std::mutex mu_;
    std::condition_variable built_;
    std::map<std::string, Entry> entries_;
    Stats stats_;
};

} // namespace hwdbg::serve

#endif // HWDBG_SERVE_CACHE_HH
