/**
 * @file
 * Golden bytes of the two run-result codecs.
 *
 * A run result leaves the process in two encodings: the journal
 * payload (binary, exec/journal) and the serve wire's `result` object
 * (JSON, serve/protocol). tests/golden/result_codecs.txt pins both for
 * a handful of fixed points, so a codec refactor that moves one byte
 * fails here. Each golden line also has to decode back to itself.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "exec/engine.h"
#include "exec/journal.h"
#include "models/zoo.h"
#include "serve/protocol.h"
#include "sys/machines.h"

namespace {

using namespace mlps;

struct CodecCase {
    std::string label;
    sys::SystemConfig system;
    std::string workload;
    int gpus;
    hw::Precision precision;
    bool reference_code;
    bool profiled;
};

/** The points of tests/golden/result_codecs.txt, in file order. */
std::vector<CodecCase>
codecCases()
{
    const sys::SystemConfig pod = sys::withPod(sys::c4140M(), 16, 8);
    return {
        {"box8_mixed", sys::dss8440(), "MLPf_Res50_MX", 8,
         hw::Precision::Mixed, false, false},
        {"pod512", pod, "MLPf_Res50_MX", 512, hw::Precision::Mixed, false,
         false},
        // Two NVLink edges of one host down: its ring reroutes twice.
        {"pod_reroutes",
         sys::withNvlinkEdgeDown(
             sys::withNvlinkEdgeDown(sys::withPod(sys::c4140M(), 2, 4), 2), 5),
         "MLPf_XFMR_Py", 32, hw::Precision::Mixed, false, false},
        {"profiled", sys::dss8440(), "MLPf_NCF_Py", 2,
         hw::Precision::Mixed, false, true},
        {"fp32_reference", sys::mlperfReference(), "MLPf_GNMT_Py", 1,
         hw::Precision::FP32, true, false},
    };
}

exec::RunResult
evaluate(const CodecCase &c, exec::Fingerprint *key)
{
    exec::RunRequest req;
    req.system = c.system;
    req.workload = *models::findWorkload(c.workload);
    req.options.num_gpus = c.gpus;
    req.options.precision = c.precision;
    req.options.reference_code = c.reference_code;
    req.profiled = c.profiled;
    *key = req.key();
    exec::Engine engine;
    exec::RunResult result = engine.runOne(req);
    // Volatile cells are pinned so the wire line is deterministic.
    result.cache_hit = false;
    result.from_journal = false;
    result.wall_seconds = 0.0;
    return result;
}

std::string
hex(const std::string &bytes)
{
    std::string out;
    char buf[3];
    for (unsigned char c : bytes) {
        std::snprintf(buf, sizeof(buf), "%02x", c);
        out += buf;
    }
    return out;
}

std::string
unhex(const std::string &text)
{
    std::string out;
    for (std::size_t i = 0; i + 1 < text.size(); i += 2)
        out += static_cast<char>(std::stoi(text.substr(i, 2), nullptr, 16));
    return out;
}

struct GoldenLine {
    std::string label, journal_hex, wire;
};

/** label <TAB> journal payload hex <TAB> wire result line. */
std::vector<GoldenLine>
readGolden()
{
    std::ifstream in(std::string(MLPSIM_GOLDEN_DIR) + "/result_codecs.txt");
    std::vector<GoldenLine> out;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        GoldenLine g;
        std::getline(fields, g.label, '\t');
        std::getline(fields, g.journal_hex, '\t');
        std::getline(fields, g.wire);
        out.push_back(std::move(g));
    }
    return out;
}

TEST(ResultCodecGolden, JournalAndWireBytesMatch)
{
    const std::vector<CodecCase> cases = codecCases();
    const std::vector<GoldenLine> golden = readGolden();
    ASSERT_EQ(golden.size(), cases.size());
    for (std::size_t i = 0; i < cases.size(); ++i) {
        const CodecCase &c = cases[i];
        ASSERT_EQ(golden[i].label, c.label);
        exec::Fingerprint key;
        exec::RunResult result = evaluate(c, &key);
        const std::string payload = exec::encodeJournalPayload(key, result);
        EXPECT_EQ(hex(payload), golden[i].journal_hex) << c.label;
        EXPECT_EQ(serve::encodeResult(c.label, result), golden[i].wire)
            << c.label;
    }
}

TEST(ResultCodecGolden, GoldenLinesDecodeToThemselves)
{
    for (const GoldenLine &g : readGolden()) {
        const std::string payload = unhex(g.journal_hex);
        exec::Fingerprint key;
        exec::RunResult journal;
        ASSERT_TRUE(exec::decodeJournalPayload(payload, &key, &journal))
            << g.label;
        EXPECT_EQ(exec::encodeJournalPayload(key, journal), payload)
            << g.label;

        serve::Response response;
        std::string error;
        ASSERT_TRUE(serve::decodeResponse(g.wire, &response, &error))
            << g.label << ": " << error;
        exec::RunResult wire;
        wire.train = response.train;
        EXPECT_EQ(serve::encodeResult(g.label, wire), g.wire) << g.label;
        EXPECT_EQ(serve::canonicalResultLine(response.train),
                  serve::canonicalResultLine(journal.train))
            << g.label;
    }
}

} // namespace
