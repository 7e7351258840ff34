#include "serve/cache.hh"

#include <chrono>

#include "common/logging.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace hwdbg::serve
{

DesignCache::Attach
DesignCache::getOrBuild(const std::string &key, const Builder &build)
{
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
        auto it = entries_.find(key);
        if (it == entries_.end())
            break;
        Entry &entry = it->second;
        if (entry.building) {
            built_.wait(lock);
            continue; // re-check: the build may have failed + erased
        }
        if (!entry.error.empty()) {
            ++stats_.hits;
            HWDBG_STAT_INC("serve.cache.hits", 1);
            throw HdlError(entry.error);
        }
        ++stats_.hits;
        HWDBG_STAT_INC("serve.cache.hits", 1);
        return {entry.design, true};
    }

    // First attach for this key: claim the build slot, then run the
    // expensive builder outside the lock so other keys stay live.
    entries_[key].building = true;
    ++stats_.misses;
    HWDBG_STAT_INC("serve.cache.misses", 1);
    lock.unlock();

    CachedDesign built;
    std::string error;
    auto start = std::chrono::steady_clock::now();
    try {
        obs::ObsSpan span("serve.cache.build:" + key);
        built = build();
    } catch (const HdlError &e) {
        error = e.what();
    }
    auto micros =
        static_cast<uint64_t>(std::chrono::duration_cast<
                                  std::chrono::microseconds>(
                                  std::chrono::steady_clock::now() -
                                  start)
                                  .count());

    lock.lock();
    Entry &entry = entries_[key];
    entry.building = false;
    stats_.buildMicros += micros;
    HWDBG_STAT_HIST("serve.cache.build_us", micros);
    if (!error.empty()) {
        entry.error = error;
        ++stats_.builds;
        HWDBG_STAT_INC("serve.cache.builds", 1);
        built_.notify_all();
        throw HdlError(error);
    }
    entry.design =
        std::make_shared<const CachedDesign>(std::move(built));
    ++stats_.builds;
    HWDBG_STAT_INC("serve.cache.builds", 1);
    built_.notify_all();
    return {entry.design, false};
}

DesignCache::Stats
DesignCache::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

size_t
DesignCache::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.size();
}

} // namespace hwdbg::serve
