/**
 * @file
 * hwdbg_perfbench: the benchmark's measuring binary.
 *
 *   hwdbg_perfbench --workload W --seed N --seconds S
 *                   [--cli-backend interp|bytecode] [--trace-out FILE]
 *
 * Runs one workload in-process through the library's public entry
 * points and prints one JSON object of raw samples on stdout (see
 * bench.hh). With --trace-out the run is the traced one: it runs
 * untraced, then for the last few seconds with an obs trace session
 * armed, and writes the trace to FILE. The two phases give the tracing
 * overhead; the trace gives the per-layer split. run.py drives this
 * binary and computes the reported metrics.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <sstream>
#include <string>

#include "bench.hh"
#include "common/logging.hh"
#include "obs/json.hh"
#include "obs/trace.hh"

using namespace perfbench;

namespace perfbench
{

CpuRotor::CpuRotor()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
            if (CPU_ISSET(cpu, &set))
                cpus_.push_back(cpu);
    if (cpus_.size() > 1)
        thread_ = std::thread(&CpuRotor::rotate, this, int(gettid()));
}

CpuRotor::~CpuRotor()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stop_ = true;
    }
    wake_.notify_all();
    if (thread_.joinable())
        thread_.join();
}

void
CpuRotor::rotate(int tid)
{
    std::unique_lock<std::mutex> lock(mu_);
    for (size_t next = 0;
         !wake_.wait_for(lock, std::chrono::milliseconds(50),
                         [this] { return stop_; });
         ++next) {
        cpu_set_t set;
        CPU_ZERO(&set);
        CPU_SET(cpus_[next % cpus_.size()], &set);
        sched_setaffinity(tid, sizeof set, &set);
    }
}

void
Samples::add(double us)
{
    ++count_;
    sum_ += us;
    if (kept_.size() < kCap)
        kept_.push_back(us);
    else if (uint64_t slot = rng_.below(count_); slot < kCap)
        kept_[slot] = us;
}

void
Report::check(bool ok, const std::string &error)
{
    ++attempted;
    if (ok)
        return;
    ++failed;
    if (errors.size() < 8)
        errors.push_back(error);
}

void
Report::mergeChecks(const Report &other)
{
    attempted += other.attempted;
    failed += other.failed;
    for (const auto &error : other.errors)
        if (errors.size() < 8)
            errors.push_back(error);
}

namespace
{

void
appendNumbers(std::ostringstream &out, const std::vector<double> &values)
{
    out << "[";
    char buf[40];
    for (size_t i = 0; i < values.size(); ++i) {
        std::snprintf(buf, sizeof buf, "%s%.3f", i ? "," : "",
                      values[i]);
        out << buf;
    }
    out << "]";
}

} // namespace

std::string
Report::json() const
{
    std::ostringstream out;
    out << "{\"attempted\":" << attempted << ",\"failed\":" << failed
        << ",\"errors\":[";
    for (size_t i = 0; i < errors.size(); ++i)
        out << (i ? "," : "") << "\"" << hwdbg::obs::jsonEscape(errors[i])
            << "\"";
    out << "],\"setup_s\":[";
    char buf[64];
    for (size_t i = 0; i < setupS.size(); ++i) {
        std::snprintf(buf, sizeof buf, "%s%.9f", i ? "," : "",
                      setupS[i]);
        out << buf;
    }
    std::snprintf(buf, sizeof buf, "%.9f", measureS);
    out << "],\"measure_s\":" << buf << ",\"samples\":{";
    bool first = true;
    for (const auto &[group, groupSamples] : samples) {
        std::snprintf(buf, sizeof buf, "%.6f", groupSamples.sum());
        out << (first ? "" : ",") << "\""
            << hwdbg::obs::jsonEscape(group)
            << "\":{\"count\":" << groupSamples.count()
            << ",\"sum\":" << buf << ",\"kept\":";
        appendNumbers(out, groupSamples.kept());
        out << "}";
        first = false;
    }
    out << "},\"values\":{";
    first = true;
    for (const auto &[name, value] : values) {
        std::snprintf(buf, sizeof buf, "%.17g", value);
        out << (first ? "" : ",") << "\"" << hwdbg::obs::jsonEscape(name)
            << "\":" << buf;
        first = false;
    }
    out << "}}";
    return out.str();
}

} // namespace perfbench

namespace
{

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: hwdbg_perfbench --workload W --seed N "
                 "--seconds S [--cli-backend interp|bytecode] "
                 "[--trace-out FILE]\n"
                 "workloads: testbed_cli corpus_sim serve_debug\n");
    std::exit(2);
}

double
meanOf(const Samples &samples)
{
    return samples.count() ? samples.sum() / double(samples.count()) : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    std::string traceOut;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (i + 1 >= argc)
            usage();
        std::string value = argv[++i];
        if (arg == "--workload")
            opts.workload = value;
        else if (arg == "--seed")
            opts.seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (arg == "--seconds")
            opts.seconds = std::atof(value.c_str());
        else if (arg == "--trace-out")
            traceOut = value;
        else if (arg == "--cli-backend")
            opts.cliBackend = value;
        else
            usage();
    }
    if (opts.seconds <= 0 ||
        (opts.cliBackend != "interp" && opts.cliBackend != "bytecode"))
        usage();
    hwdbg::setQuiet(true);

    try {
        std::unique_ptr<Workload> workload;
        if (opts.workload == "testbed_cli")
            workload = makeTestbedCli(opts);
        else if (opts.workload == "corpus_sim")
            workload = makeCorpusSim(opts);
        else if (opts.workload == "serve_debug")
            workload = makeServeDebug(opts);
        else
            usage();

        Report rep;
        workload->setup(rep);
        if (traceOut.empty()) {
            workload->measure(opts.seconds, false, rep);
        } else {
            // A few seconds of trace give the split; a longer one only
            // makes the trace file bigger.
            double tracedS = std::min(opts.seconds / 2, 3.0);
            Report untraced;
            workload->measure(opts.seconds - tracedS, true, untraced);
            rep.mergeChecks(untraced);
            hwdbg::obs::startTrace();
            workload->measure(tracedS, true, rep);
            if (!hwdbg::obs::writeTrace(traceOut))
                return 1;
            rep.values["untraced_op_us_mean"] =
                meanOf(untraced.samples["op"]);
            rep.values["traced_op_us_mean"] = meanOf(rep.samples["op"]);
        }
        workload->finish(rep);

        rusage self{};
        getrusage(RUSAGE_SELF, &self);
        rep.values["peak_rss_kb"] = static_cast<double>(self.ru_maxrss);
        std::printf("%s\n", rep.json().c_str());
    } catch (const std::exception &err) {
        std::fprintf(stderr, "hwdbg_perfbench: %s\n", err.what());
        return 1;
    }
    return 0;
}
