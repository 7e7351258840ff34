#include "bugbase/workloads.hh"

#include <vector>

#include "common/logging.hh"

namespace hwdbg::bugs
{

using sim::Simulator;

namespace
{

void
tick(Simulator &sim)
{
    sim.poke("clk", uint64_t(0));
    sim.eval();
    sim.poke("clk", uint64_t(1));
    sim.eval();
}

void
resetDesign(Simulator &sim)
{
    sim.poke("clk", uint64_t(0));
    sim.eval();
    sim.poke("rst", uint64_t(1));
    tick(sim);
    sim.poke("rst", uint64_t(0));
}

// -------------------------------------------------------------------
// rsd (D1)
// -------------------------------------------------------------------

WorkloadResult
wlRsd(Simulator &sim)
{
    WorkloadResult result;
    resetDesign(sim);

    std::vector<uint64_t> bytes;
    for (int i = 0; i < 10; ++i)
        bytes.push_back(static_cast<uint64_t>(i * 7 + 3) & 0xff);
    uint64_t parity = 0;
    for (int i = 0; i < 8; ++i)
        parity ^= bytes[i];

    sim.poke("expected_parity", parity);
    sim.poke("mode_ext", uint64_t(1));
    sim.poke("inject_dbg", uint64_t(0));

    size_t fed = 0;
    bool got_output = false;
    uint64_t out = 0;
    int drain = 3; // keep clocking briefly after the result appears
    for (int cycle = 0; cycle < 120 && drain > 0; ++cycle) {
        if (got_output)
            --drain;
        bool ready = sim.peekU64("ready") != 0;
        bool accept = ready && fed < bytes.size();
        sim.poke("in_valid", uint64_t(accept));
        if (accept)
            sim.poke("in_data", bytes[fed]);
        tick(sim);
        if (accept) {
            ++fed;
            ++result.inputsAccepted;
        }
        if (sim.peekU64("out_valid")) {
            got_output = true;
            out = sim.peekU64("out_data");
            ++result.outputsProduced;
        }
    }

    if (!got_output) {
        result.observed.insert(Symptom::Stuck);
        if (result.inputsAccepted >= 8)
            result.observed.insert(Symptom::DataLoss);
        result.detail = "decoder never produced a block result";
    } else if (out != parity) {
        result.observed.insert(Symptom::IncorrectOutput);
        result.detail = "parity output mismatch";
    } else {
        result.passed = true;
    }
    return result;
}

void
gtRsd(Simulator &sim)
{
    resetDesign(sim);
    sim.poke("expected_parity", uint64_t(0));
    sim.poke("mode_ext", uint64_t(0));
    sim.poke("inject_dbg", uint64_t(0));
    // Partial block: four symbols, then quiesce (trivially passing).
    for (int i = 0; i < 4; ++i) {
        sim.poke("in_valid", uint64_t(1));
        sim.poke("in_data", uint64_t(0x20 + i));
        tick(sim);
    }
    sim.poke("in_valid", uint64_t(0));
    for (int i = 0; i < 10; ++i)
        tick(sim);
}

// -------------------------------------------------------------------
// grayscale (D2)
// -------------------------------------------------------------------

struct PendingResp
{
    int due;
    uint64_t tag;
    uint64_t data;
};

WorkloadResult
runGrayscale(Simulator &sim, bool gentle)
{
    WorkloadResult result;
    resetDesign(sim);

    std::vector<uint64_t> pixels;
    for (int i = 0; i < 8; ++i)
        pixels.push_back(static_cast<uint64_t>(16 + i * 3));

    sim.poke("start", uint64_t(1));
    tick(sim);
    sim.poke("start", uint64_t(0));

    std::vector<PendingResp> pending;
    int requests_seen = 0;
    std::vector<uint64_t> outputs;
    bool done = false;

    for (int cycle = 0; cycle < 250 && !done; ++cycle) {
        sim.poke("rd_resp_valid", uint64_t(0));
        for (const auto &resp : pending) {
            if (resp.due == cycle) {
                sim.poke("rd_resp_valid", uint64_t(1));
                sim.poke("rd_resp_tag", resp.tag);
                sim.poke("rd_resp_data", resp.data);
            }
        }
        bool consumer_ready = gentle || cycle >= 40;
        sim.poke("wr_ready", uint64_t(consumer_ready));
        tick(sim);
        if (sim.peekU64("rd_req_valid") && requests_seen < 8) {
            int latency = gentle ? 4 + requests_seen * 3 : 2;
            pending.push_back(PendingResp{
                cycle + latency, sim.peekU64("rd_req_tag"),
                pixels[static_cast<size_t>(requests_seen)]});
            ++requests_seen;
            ++result.inputsAccepted;
        }
        if (sim.peekU64("wr_valid")) {
            outputs.push_back(sim.peekU64("wr_data"));
            ++result.outputsProduced;
        }
        if (sim.peekU64("done"))
            done = true;
    }

    bool correct = outputs.size() == pixels.size();
    if (correct)
        for (size_t i = 0; i < pixels.size(); ++i)
            if (outputs[i] != (pixels[i] >> 1))
                correct = false;

    if (!done) {
        result.observed.insert(Symptom::Stuck);
        if (outputs.size() < pixels.size())
            result.observed.insert(Symptom::DataLoss);
        result.detail = "write FSM never finished";
    } else if (!correct) {
        result.observed.insert(Symptom::IncorrectOutput);
        result.detail = "pixel outputs mismatch";
    } else {
        result.passed = true;
    }
    return result;
}

// -------------------------------------------------------------------
// optimus (D3, C2)
// -------------------------------------------------------------------

WorkloadResult
wlOptimusD3(Simulator &sim, bool gentle)
{
    WorkloadResult result;
    resetDesign(sim);
    sim.poke("resp0_valid", uint64_t(0));
    sim.poke("resp1_valid", uint64_t(0));

    std::vector<uint64_t> reqs;
    for (int i = 0; i < 8; ++i)
        reqs.push_back(static_cast<uint64_t>(0x100 + i));

    size_t sent = 0;
    std::vector<uint64_t> seen;
    for (int cycle = 0; cycle < 120; ++cycle) {
        bool host_ready = gentle || cycle >= 12;
        sim.poke("host_ready", uint64_t(host_ready));
        bool vm_ready = sim.peekU64("vm0_ready") != 0;
        bool spaced = !gentle || cycle % 2 == 0;
        bool send = vm_ready && sent < reqs.size() && spaced;
        sim.poke("vm0_valid", uint64_t(send));
        if (send)
            sim.poke("vm0_data", reqs[sent]);
        tick(sim);
        if (send) {
            ++sent;
            ++result.inputsAccepted;
        }
        if (sim.peekU64("req_valid")) {
            seen.push_back(sim.peekU64("req_data"));
            ++result.outputsProduced;
        }
    }

    bool external = sim.peekU64("err_overflow") != 0;
    bool all_delivered = seen == reqs;
    if (external)
        result.observed.insert(Symptom::ExternalError);
    if (seen.size() < reqs.size())
        result.observed.insert(Symptom::DataLoss);
    else if (!all_delivered)
        result.observed.insert(Symptom::IncorrectOutput);
    result.passed = all_delivered && !external;
    if (!result.passed)
        result.detail = csprintf("%zu/%zu MMIO requests delivered",
                                 seen.size(), reqs.size());
    return result;
}

WorkloadResult
wlOptimusC2(Simulator &sim, bool gentle)
{
    WorkloadResult result;
    resetDesign(sim);
    sim.poke("host_ready", uint64_t(1));
    sim.poke("vm0_valid", uint64_t(0));
    sim.poke("vm1_valid", uint64_t(0));

    // Response traffic: two response pairs. In the trigger the pairs
    // are simultaneous (the second arrival exposes the overwrite); in
    // the ground truth they are spaced apart.
    int got0 = 0, got1 = 0;
    for (int cycle = 0; cycle < 60; ++cycle) {
        bool fire0 = cycle == 5 || cycle == 9;
        bool fire1 = gentle ? (cycle == 7 || cycle == 12)
                            : (cycle == 5 || cycle == 9);
        sim.poke("resp0_valid", uint64_t(fire0));
        sim.poke("resp1_valid", uint64_t(fire1));
        if (fire0)
            sim.poke("resp0_data", uint64_t(0xAA));
        if (fire1)
            sim.poke("resp1_data", uint64_t(0xBB));
        if (fire0 || fire1)
            ++result.inputsAccepted;
        tick(sim);
        if (sim.peekU64("resp_valid")) {
            ++result.outputsProduced;
            if (sim.peekU64("resp_vm") == 0 &&
                sim.peekU64("resp_data") == 0xAA)
                ++got0;
            if (sim.peekU64("resp_vm") == 1 &&
                sim.peekU64("resp_data") == 0xBB)
                ++got1;
        }
    }

    if (got0 < 2 || got1 < 2) {
        // The guest whose response vanished spins forever.
        result.observed.insert(Symptom::Stuck);
        result.observed.insert(Symptom::DataLoss);
        result.detail = "a VM response was lost";
    } else {
        result.passed = true;
    }
    return result;
}

// -------------------------------------------------------------------
// sha512 (D5, D10)
// -------------------------------------------------------------------

struct ShaJob
{
    uint64_t totalBits;
    uint64_t baseAddr;
    std::vector<uint64_t> words;
};

struct ShaResult
{
    bool done = false;
    uint64_t digest = 0;
    uint64_t wbAddr = 0;
};

uint64_t
shaGoldenDigest(const ShaJob &job)
{
    uint64_t acc = 0;
    for (uint64_t word : job.words)
        acc = (((acc << 3) | (acc >> 29)) & 0xffffffffull) ^ word;
    uint64_t msg_words =
        (job.totalBits & 0xffffffffffffull) >> 6;
    return (acc ^ (msg_words & 0xffffffffull) ^
            ((msg_words >> 32) & 0xffffull)) & 0xffffffffull;
}

uint64_t
shaGoldenAddr(const ShaJob &job)
{
    uint64_t msg_words = (job.totalBits & 0xffffffffffffull) >> 6;
    return (job.baseAddr + msg_words) & 0xffffffffffffull;
}

ShaResult
runShaJob(Simulator &sim, const ShaJob &job)
{
    ShaResult out;
    sim.poke("start", uint64_t(1));
    sim.poke("total_bits", Bits(64, job.totalBits));
    sim.poke("base_addr", Bits(48, job.baseAddr));
    tick(sim);
    sim.poke("start", uint64_t(0));

    size_t fed = 0;
    for (int cycle = 0; cycle < 60; ++cycle) {
        bool ready = sim.peekU64("w_ready") != 0;
        bool send = ready && fed < job.words.size();
        sim.poke("w_valid", uint64_t(send));
        if (send)
            sim.poke("w_data", job.words[fed]);
        tick(sim);
        if (send)
            ++fed;
        if (sim.peekU64("digest_valid")) {
            out.done = true;
            out.digest = sim.peekU64("digest");
            out.wbAddr = sim.peekU64("wb_addr");
            break;
        }
    }
    return out;
}

WorkloadResult
wlSha(Simulator &sim, bool big_length)
{
    WorkloadResult result;
    resetDesign(sim);

    ShaJob job1;
    job1.totalBits =
        big_length ? ((uint64_t(1) << 46) | 0x1240) : 0x1240;
    job1.baseAddr = 0x10000;
    for (int i = 0; i < 8; ++i)
        job1.words.push_back(
            static_cast<uint64_t>(0x01010101u * (i + 1)) & 0xffffffffu);
    ShaJob job2 = job1;
    job2.words.clear();
    for (int i = 0; i < 8; ++i)
        job2.words.push_back(
            static_cast<uint64_t>(0x00f0f00fu + 77 * i) & 0xffffffffu);

    for (const ShaJob &job : {job1, job2}) {
        ShaResult got = runShaJob(sim, job);
        result.inputsAccepted += job.words.size();
        if (!got.done) {
            result.observed.insert(Symptom::Stuck);
            result.detail = "hash job never completed";
            return result;
        }
        ++result.outputsProduced;
        if (got.wbAddr != shaGoldenAddr(job)) {
            // The shell rejects the out-of-range write-back address.
            result.observed.insert(Symptom::ExternalError);
        }
        if (got.digest != shaGoldenDigest(job))
            result.observed.insert(Symptom::IncorrectOutput);
    }
    result.passed = result.observed.empty();
    return result;
}

// -------------------------------------------------------------------
// fft (D6)
// -------------------------------------------------------------------

WorkloadResult
wlFft(Simulator &sim)
{
    WorkloadResult result;
    resetDesign(sim);

    struct Sample
    {
        uint64_t re, im, twre, twim;
    };
    std::vector<Sample> samples = {
        {200, 13, 150, 9},   {90, 201, 33, 180},
        {255, 255, 255, 255}, {1, 2, 3, 4},
        {170, 55, 201, 140},
    };

    std::vector<std::pair<uint64_t, uint64_t>> outputs;
    for (size_t i = 0; i <= samples.size() + 2; ++i) {
        bool send = i < samples.size();
        sim.poke("in_valid", uint64_t(send));
        if (send) {
            sim.poke("in_re", samples[i].re);
            sim.poke("in_im", samples[i].im);
            sim.poke("tw_re", samples[i].twre);
            sim.poke("tw_im", samples[i].twim);
            ++result.inputsAccepted;
        }
        tick(sim);
        if (sim.peekU64("out_valid")) {
            outputs.emplace_back(sim.peekU64("out_re"),
                                 sim.peekU64("out_im"));
            ++result.outputsProduced;
        }
    }

    bool correct = outputs.size() == samples.size();
    for (size_t i = 0; correct && i < samples.size(); ++i) {
        uint64_t pre = samples[i].re * samples[i].twre +
                       samples[i].im * samples[i].twim;
        uint64_t pim = samples[i].re * samples[i].twim +
                       samples[i].im * samples[i].twre;
        if (outputs[i].first != ((pre >> 8) & 0xff) ||
            outputs[i].second != ((pim >> 8) & 0xff))
            correct = false;
    }
    if (correct) {
        result.passed = true;
    } else {
        result.observed.insert(Symptom::IncorrectOutput);
        result.detail = "butterfly outputs mismatch";
    }
    return result;
}

// -------------------------------------------------------------------
// fadd (D7)
// -------------------------------------------------------------------

uint64_t
faddGolden(uint64_t a, uint64_t b)
{
    uint64_t exp_a = (a >> 10) & 0x1f;
    uint64_t exp_b = (b >> 10) & 0x1f;
    uint64_t frac_a = a & 0x3ff;
    uint64_t frac_b = b & 0x3ff;
    bool a_ge_b = exp_a >= exp_b;
    uint64_t exp_big = a_ge_b ? exp_a : exp_b;
    uint64_t diff = a_ge_b ? exp_a - exp_b : exp_b - exp_a;
    uint64_t frac_big = a_ge_b ? frac_a : frac_b;
    uint64_t frac_small = (a_ge_b ? frac_b : frac_a) >> diff;
    uint64_t frac_sum = (frac_big + frac_small) & 0xfff;
    if (frac_sum & 0x800)
        return (((exp_big + 1) & 0x1f) << 10) | ((frac_sum >> 1) & 0x3ff);
    return ((exp_big & 0x1f) << 10) | (frac_sum & 0x3ff);
}

WorkloadResult
wlFadd(Simulator &sim)
{
    WorkloadResult result;
    resetDesign(sim);
    std::vector<std::pair<uint64_t, uint64_t>> pairs = {
        {(5u << 10) | 0x155, (3u << 10) | 0x2aa}, // odd exponent: bug hits
        {(7u << 10) | 0x3ff, (7u << 10) | 0x3ff},
        {(1u << 10) | 0x001, (9u << 10) | 0x200},
    };
    bool correct = true;
    for (const auto &[a, b] : pairs) {
        sim.poke("in_valid", uint64_t(1));
        sim.poke("a", a);
        sim.poke("b", b);
        tick(sim);
        sim.poke("in_valid", uint64_t(0));
        tick(sim);
        ++result.inputsAccepted;
        ++result.outputsProduced;
        if (sim.peekU64("sum") != faddGolden(a, b))
            correct = false;
    }
    if (correct) {
        result.passed = true;
    } else {
        result.observed.insert(Symptom::IncorrectOutput);
        result.detail = "float sum mismatch";
    }
    return result;
}

// -------------------------------------------------------------------
// axis_switch (D8)
// -------------------------------------------------------------------

WorkloadResult
wlAxisSwitch(Simulator &sim)
{
    WorkloadResult result;
    resetDesign(sim);

    // Frame 1 header routes to port 1 (bit4 set, bit3 clear); frame 2
    // routes to port 0 (bit4 clear, bit3 set - the buggy decode bit).
    struct Frame
    {
        std::vector<uint64_t> beats;
        int port;
    };
    std::vector<Frame> frames = {
        {{0x10, 0x41, 0x42}, 1},
        {{0x08, 0x51}, 0},
    };

    bool correct = true;
    for (const auto &frame : frames) {
        std::vector<uint64_t> got0, got1;
        for (size_t i = 0; i < frame.beats.size() + 2; ++i) {
            bool send = i < frame.beats.size();
            sim.poke("s_valid", uint64_t(send));
            if (send) {
                sim.poke("s_data", frame.beats[i]);
                sim.poke("s_last",
                         uint64_t(i + 1 == frame.beats.size()));
                ++result.inputsAccepted;
            }
            tick(sim);
            if (sim.peekU64("m0_valid"))
                got0.push_back(sim.peekU64("m0_data"));
            if (sim.peekU64("m1_valid"))
                got1.push_back(sim.peekU64("m1_data"));
        }
        result.outputsProduced += got0.size() + got1.size();
        const auto &expect = frame.beats;
        if (frame.port == 0 && (got0 != expect || !got1.empty()))
            correct = false;
        if (frame.port == 1 && (got1 != expect || !got0.empty()))
            correct = false;
    }
    if (correct) {
        result.passed = true;
    } else {
        result.observed.insert(Symptom::IncorrectOutput);
        result.detail = "frame routed to the wrong port";
    }
    return result;
}

// -------------------------------------------------------------------
// sdspi (D9, C1, C3)
// -------------------------------------------------------------------

WorkloadResult
wlSdspi(Simulator &sim)
{
    WorkloadResult result;
    resetDesign(sim);

    // Wait for command acceptance.
    sim.poke("cmd_valid", uint64_t(1));
    sim.poke("cmd_index", uint64_t(17));
    bool accepted = false;
    for (int cycle = 0; cycle < 50 && !accepted; ++cycle) {
        bool ready = sim.peekU64("cmd_ready") != 0;
        tick(sim);
        if (ready)
            accepted = true;
    }
    sim.poke("cmd_valid", uint64_t(0));
    if (!accepted) {
        result.observed.insert(Symptom::Stuck);
        result.detail = "command engine never became ready";
        return result;
    }
    ++result.inputsAccepted;

    // Card sends: data byte, CRC high byte, CRC low byte.
    std::vector<uint64_t> bytes = {0x5a, 0xde, 0xad};
    uint64_t sum_seen = 0;
    bool sum_valid_seen = false;
    bool resp_seen = false;
    size_t fed = 0;
    for (int cycle = 0; cycle < 40; ++cycle) {
        bool send = fed < bytes.size() && cycle % 2 == 0;
        sim.poke("byte_valid", uint64_t(send));
        if (send)
            sim.poke("byte_data", bytes[fed]);
        tick(sim);
        if (send)
            ++fed;
        if (sim.peekU64("sum_valid") && !sum_valid_seen) {
            sum_valid_seen = true;
            sum_seen = sim.peekU64("sum_data");
        }
        if (sim.peekU64("resp_valid"))
            resp_seen = true;
    }

    if (!resp_seen) {
        result.observed.insert(Symptom::Stuck);
        result.detail = "no response produced";
        return result;
    }
    ++result.outputsProduced;

    bool correct = true;
    if (sim.peekU64("resp_data") != 0x5a)
        correct = false;
    if (sim.peekU64("resp_crc") != 0xdead)
        correct = false;
    if (!sum_valid_seen || sum_seen != (0x5aull ^ 0xadull))
        correct = false;
    if (correct) {
        result.passed = true;
    } else {
        result.observed.insert(Symptom::IncorrectOutput);
        result.detail = "response/CRC/summary mismatch";
    }
    return result;
}

// -------------------------------------------------------------------
// frame_fifo (D4, D11, D12)
// -------------------------------------------------------------------

struct FrameSpec
{
    int length;
    bool bad;
};

struct FrameFifoObservation
{
    std::vector<std::pair<uint64_t, bool>> beats; // (data, last)
    std::vector<uint64_t> lens;
};

FrameFifoObservation
driveFrameFifo(Simulator &sim, const std::vector<FrameSpec> &frames,
               WorkloadResult *result)
{
    FrameFifoObservation obs;
    resetDesign(sim);
    sim.poke("m_ready", uint64_t(1));

    uint64_t next_byte = 1;
    auto step = [&](bool valid, uint64_t data, bool last, bool bad) {
        sim.poke("s_valid", uint64_t(valid));
        sim.poke("s_data", data);
        sim.poke("s_last", uint64_t(last));
        sim.poke("s_bad", uint64_t(bad));
        tick(sim);
        if (sim.peekU64("m_valid")) {
            obs.beats.emplace_back(sim.peekU64("m_data"),
                                   sim.peekU64("m_last") != 0);
            if (result)
                ++result->outputsProduced;
        }
        if (sim.peekU64("len_valid"))
            obs.lens.push_back(sim.peekU64("m_len"));
    };

    for (const auto &frame : frames) {
        for (int i = 0; i < frame.length; ++i) {
            bool last = i + 1 == frame.length;
            step(true, next_byte, last, last && frame.bad);
            ++next_byte;
            if (result)
                ++result->inputsAccepted;
        }
        for (int i = 0; i < 24; ++i)
            step(false, 0, false, false);
    }
    for (int i = 0; i < 8; ++i)
        step(false, 0, false, false);
    return obs;
}

/** Golden model of the *fixed* frame FIFO for a frame sequence where
 *  the drain gaps guarantee the memory is empty between frames. */
FrameFifoObservation
frameFifoGolden(const std::vector<FrameSpec> &frames)
{
    FrameFifoObservation golden;
    uint64_t next_byte = 1;
    for (const auto &frame : frames) {
        bool deliver = !frame.bad && frame.length <= 16;
        for (int i = 0; i < frame.length; ++i) {
            if (deliver)
                golden.beats.emplace_back(next_byte,
                                          i + 1 == frame.length);
            ++next_byte;
        }
        if (deliver)
            golden.lens.push_back(static_cast<uint64_t>(frame.length));
    }
    return golden;
}

WorkloadResult
wlFrameFifo(Simulator &sim, const std::vector<FrameSpec> &frames)
{
    WorkloadResult result;
    FrameFifoObservation got = driveFrameFifo(sim, frames, &result);
    FrameFifoObservation want = frameFifoGolden(frames);

    bool beats_match = got.beats == want.beats;
    bool lens_match = got.lens == want.lens;

    // Is the delivered stream an in-order subsequence of the golden one
    // (i.e. only missing beats, nothing corrupted)?
    bool subsequence = true;
    {
        size_t pos = 0;
        for (const auto &beat : got.beats) {
            while (pos < want.beats.size() && want.beats[pos] != beat)
                ++pos;
            if (pos == want.beats.size()) {
                subsequence = false;
                break;
            }
            ++pos;
        }
    }

    // Content loss: the FIFO claimed to deliver more frame bytes than
    // distinct input bytes actually reached the output (overwritten
    // slots never come out). Input bytes are globally unique.
    uint64_t claimed = 0;
    for (uint64_t len : got.lens)
        claimed += len;
    std::set<uint64_t> present;
    for (const auto &[data, last] : got.beats)
        present.insert(data);

    if (got.lens.size() < want.lens.size() ||
        (!subsequence && claimed > present.size()))
        result.observed.insert(Symptom::DataLoss);
    if (!beats_match || !lens_match)
        if (!subsequence || (beats_match && !lens_match))
            result.observed.insert(Symptom::IncorrectOutput);
    result.passed = beats_match && lens_match;
    if (!result.passed)
        result.detail =
            csprintf("%zu/%zu frame beats delivered", got.beats.size(),
                     want.beats.size());
    return result;
}

// -------------------------------------------------------------------
// frame_len (D13)
// -------------------------------------------------------------------

WorkloadResult
wlFrameLen(Simulator &sim)
{
    WorkloadResult result;
    resetDesign(sim);
    std::vector<int> frames = {3, 5, 2};
    std::vector<uint64_t> lens;
    for (int length : frames) {
        for (int i = 0; i < length; ++i) {
            sim.poke("s_valid", uint64_t(1));
            sim.poke("s_last", uint64_t(i + 1 == length));
            tick(sim);
            ++result.inputsAccepted;
            if (sim.peekU64("len_valid"))
                lens.push_back(sim.peekU64("len"));
        }
        sim.poke("s_valid", uint64_t(0));
        tick(sim);
        if (sim.peekU64("len_valid"))
            lens.push_back(sim.peekU64("len"));
    }
    result.outputsProduced = lens.size();
    std::vector<uint64_t> want = {3, 5, 2};
    if (lens == want) {
        result.passed = true;
    } else {
        result.observed.insert(Symptom::IncorrectOutput);
        result.detail = "frame lengths drift";
    }
    return result;
}

// -------------------------------------------------------------------
// axis_fifo (C4)
// -------------------------------------------------------------------

WorkloadResult
runAxisFifo(Simulator &sim, bool gentle)
{
    WorkloadResult result;
    resetDesign(sim);

    std::vector<uint64_t> beats = {1, 2, 3, 4, 5, 6};
    size_t fed = 0;
    std::vector<uint64_t> got;
    for (int cycle = 0; cycle < 60; ++cycle) {
        bool m_ready = gentle || !(cycle >= 3 && cycle <= 6);
        sim.poke("m_ready", uint64_t(m_ready));
        bool s_ready = sim.peekU64("s_ready") != 0;
        bool send = s_ready && fed < beats.size();
        sim.poke("s_valid", uint64_t(send));
        if (send) {
            sim.poke("s_data", beats[fed]);
            sim.poke("s_last", uint64_t(fed + 1 == beats.size()));
        }
        tick(sim);
        if (send) {
            ++fed;
            ++result.inputsAccepted;
        }
        if (sim.peekU64("m_valid") && m_ready) {
            got.push_back(sim.peekU64("m_data"));
            ++result.outputsProduced;
        }
    }

    // De-duplicate held beats: m_valid && m_ready can only repeat a
    // value when the producer stalls; compare against the handshake
    // count instead.
    if (result.outputsProduced < result.inputsAccepted) {
        result.observed.insert(Symptom::DataLoss);
        result.detail = csprintf("%llu beats in, %llu beats out",
                                 (unsigned long long)
                                     result.inputsAccepted,
                                 (unsigned long long)
                                     result.outputsProduced);
    } else if (got.size() >= beats.size() &&
               std::vector<uint64_t>(got.begin(),
                                     got.begin() +
                                         static_cast<long>(
                                             beats.size())) != beats) {
        result.observed.insert(Symptom::IncorrectOutput);
    } else {
        result.passed = true;
    }
    return result;
}

// -------------------------------------------------------------------
// axil_demo (S1)
// -------------------------------------------------------------------

WorkloadResult
wlAxilDemo(Simulator &sim)
{
    WorkloadResult result;
    resetDesign(sim);

    // Write 0xBEEF to register 5 with a master that raises bready two
    // cycles after the address/data handshake.
    sim.poke("awvalid", uint64_t(1));
    sim.poke("awaddr", uint64_t(5));
    sim.poke("wvalid", uint64_t(1));
    sim.poke("wdata", uint64_t(0xbeef));
    sim.poke("bready", uint64_t(0));

    bool aw_done = false;
    bool b_done = false;
    bool checker_error = false;
    int handshake_cycle = -1;
    for (int cycle = 0; cycle < 40 && !b_done; ++cycle) {
        if (aw_done) {
            sim.poke("awvalid", uint64_t(0));
            sim.poke("wvalid", uint64_t(0));
        }
        bool bready = aw_done && cycle >= handshake_cycle + 2;
        sim.poke("bready", uint64_t(bready));
        // Sample the bus as a slave-clocked master would: pre-edge.
        sim.eval();
        bool awready = sim.peekU64("awready") != 0;
        bool bvalid_pre = sim.peekU64("bvalid") != 0;
        tick(sim);
        bool bvalid_post = sim.peekU64("bvalid") != 0;
        if (!aw_done && awready) {
            aw_done = true;
            handshake_cycle = cycle;
            ++result.inputsAccepted;
        }
        // Protocol checker: bvalid must stay asserted until bready.
        if (bvalid_pre && !bready && !bvalid_post)
            checker_error = true;
        if (bvalid_pre && bready) {
            b_done = true;
            ++result.outputsProduced;
        }
    }
    sim.poke("bready", uint64_t(0));
    sim.poke("awvalid", uint64_t(0));
    sim.poke("wvalid", uint64_t(0));

    // Read back register 5.
    bool read_ok = false;
    sim.poke("arvalid", uint64_t(1));
    sim.poke("araddr", uint64_t(5));
    sim.poke("rready", uint64_t(1));
    for (int cycle = 0; cycle < 10; ++cycle) {
        tick(sim);
        if (sim.peekU64("rvalid")) {
            sim.poke("arvalid", uint64_t(0));
            read_ok = sim.peekU64("rdata") == 0xbeef;
            break;
        }
    }

    if (checker_error)
        result.observed.insert(Symptom::ExternalError);
    if (!b_done) {
        result.observed.insert(Symptom::Stuck);
        result.detail = "master never saw the write response";
    }
    if (b_done && !read_ok)
        result.observed.insert(Symptom::IncorrectOutput);
    result.passed = b_done && read_ok && !checker_error;
    return result;
}

// -------------------------------------------------------------------
// axis_demo (S2)
// -------------------------------------------------------------------

WorkloadResult
wlAxisDemo(Simulator &sim)
{
    WorkloadResult result;
    resetDesign(sim);

    sim.poke("nbeats", uint64_t(4));
    sim.poke("start", uint64_t(1));
    tick(sim);
    sim.poke("start", uint64_t(0));

    std::vector<uint64_t> got;
    bool checker_error = false;
    bool prev_stalled = false;
    uint64_t prev_data = 0;
    bool finished = false;
    for (int cycle = 0; cycle < 40 && !finished; ++cycle) {
        bool tready = cycle % 3 == 0;
        sim.poke("tready", uint64_t(tready));
        // Pre-edge view: what the consumer latches at this clock edge.
        sim.eval();
        bool tvalid = sim.peekU64("tvalid") != 0;
        uint64_t tdata = sim.peekU64("tdata");
        bool tlast = sim.peekU64("tlast") != 0;
        // Stability rule: tdata must hold while tvalid && !tready.
        if (prev_stalled && tvalid && tdata != prev_data)
            checker_error = true;
        if (tvalid && tready) {
            got.push_back(tdata);
            ++result.outputsProduced;
            if (tlast)
                finished = true;
        }
        prev_stalled = tvalid && !tready;
        prev_data = tdata;
        tick(sim);
    }

    std::vector<uint64_t> want = {0, 1, 2, 3};
    if (checker_error)
        result.observed.insert(Symptom::ExternalError);
    if (got != want)
        result.observed.insert(Symptom::IncorrectOutput);
    result.passed = !checker_error && got == want;
    return result;
}

// -------------------------------------------------------------------
// axis_adapter (S3)
// -------------------------------------------------------------------

WorkloadResult
wlAxisAdapter(Simulator &sim)
{
    WorkloadResult result;
    resetDesign(sim);

    struct Beat
    {
        uint64_t data;
        uint64_t keep;
        bool last;
    };
    std::vector<Beat> beats = {
        {0xbbaa, 3, false},
        {0x00cc, 1, true}, // single-byte final beat
    };
    std::vector<std::pair<uint64_t, bool>> want = {
        {0xaa, false}, {0xbb, false}, {0xcc, true}};

    std::vector<std::pair<uint64_t, bool>> got;
    size_t fed = 0;
    for (int cycle = 0; cycle < 20; ++cycle) {
        bool ready = sim.peekU64("s_ready") != 0;
        bool send = ready && fed < beats.size();
        sim.poke("s_valid", uint64_t(send));
        if (send) {
            sim.poke("s_data", beats[fed].data);
            sim.poke("s_keep", beats[fed].keep);
            sim.poke("s_last", uint64_t(beats[fed].last));
        }
        tick(sim);
        if (send) {
            ++fed;
            ++result.inputsAccepted;
        }
        if (sim.peekU64("m_valid")) {
            got.emplace_back(sim.peekU64("m_data"),
                             sim.peekU64("m_last") != 0);
            ++result.outputsProduced;
        }
    }

    if (got == want) {
        result.passed = true;
    } else {
        result.observed.insert(Symptom::IncorrectOutput);
        result.detail = "adapter emitted a wrong byte stream";
    }
    return result;
}

} // namespace

WorkloadResult
runWorkload(const TestbedBug &bug, Simulator &sim)
{
    if (bug.id == "D1")
        return wlRsd(sim);
    if (bug.id == "D2")
        return runGrayscale(sim, false);
    if (bug.id == "D3")
        return wlOptimusD3(sim, false);
    if (bug.id == "D4")
        return wlFrameFifo(sim, {{20, false}, {8, false}});
    if (bug.id == "D5")
        return wlSha(sim, true);
    if (bug.id == "D6")
        return wlFft(sim);
    if (bug.id == "D7")
        return wlFadd(sim);
    if (bug.id == "D8")
        return wlAxisSwitch(sim);
    if (bug.id == "D9")
        return wlSdspi(sim);
    if (bug.id == "D10")
        return wlSha(sim, false);
    if (bug.id == "D11")
        return wlFrameFifo(sim, {{20, false}, {4, false}, {5, false}});
    if (bug.id == "D12")
        return wlFrameFifo(sim, {{4, false}, {5, false}});
    if (bug.id == "D13")
        return wlFrameLen(sim);
    if (bug.id == "C1")
        return wlSdspi(sim);
    if (bug.id == "C2")
        return wlOptimusC2(sim, false);
    if (bug.id == "C3")
        return wlSdspi(sim);
    if (bug.id == "C4")
        return runAxisFifo(sim, false);
    if (bug.id == "S1")
        return wlAxilDemo(sim);
    if (bug.id == "S2")
        return wlAxisDemo(sim);
    if (bug.id == "S3")
        return wlAxisAdapter(sim);
    fatal("no workload for bug '%s'", bug.id.c_str());
}

sim::Stimulus
workloadStimulus(const TestbedBug &bug, bool buggy)
{
    sim::Stimulus stim;
    stim.label = "bug:" + bug.id + (buggy ? "" : ":fixed");
    stim.live = [&bug](Simulator &sim) { runWorkload(bug, sim); };
    return stim;
}

void
driveGroundTruth(const TestbedBug &bug, Simulator &sim)
{
    if (bug.id == "D1") {
        gtRsd(sim);
        return;
    }
    if (bug.id == "D2") {
        runGrayscale(sim, true);
        return;
    }
    if (bug.id == "D3") {
        wlOptimusD3(sim, true);
        return;
    }
    if (bug.id == "D4") {
        // Short frames only: no drops of any kind on the buggy design.
        driveFrameFifo(sim, {{4, false}, {6, false}}, nullptr);
        return;
    }
    if (bug.id == "D11") {
        // The developer's test covers the *intentional* drop: a bad
        // frame whose reverted bytes are later overwritten.
        driveFrameFifo(sim, {{4, true}, {4, false}}, nullptr);
        return;
    }
    if (bug.id == "C2") {
        wlOptimusC2(sim, true);
        return;
    }
    if (bug.id == "C4") {
        runAxisFifo(sim, true);
        return;
    }
    fatal("no ground-truth stimulus for bug '%s'", bug.id.c_str());
}

} // namespace hwdbg::bugs
