/**
 * @file
 * Telemetry artifact checker, used by the CI telemetry smoke job.
 *
 *   manifest_check manifest <run_manifest.json>
 *   manifest_check metrics <metrics.json>
 *   manifest_check deterministic <file>
 *
 * `manifest` / `metrics` validate that the file is well-formed JSON
 * (through the tree's one JSON parser, sim::jsonValid, which the tests
 * use too) and carries
 * the required schema markers and keys. `deterministic` prints the
 * file's deterministic section — the fixed-indentation block both
 * writers emit first — so a shell script can byte-compare it across
 * worker counts and cache warmth without a JSON parser.
 *
 * Exit codes: 0 valid, 1 check failed, 2 usage/IO error.
 */

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/json.h"

namespace {

bool
readFile(const std::string &path, std::string *out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream os;
    os << in.rdbuf();
    *out = os.str();
    return true;
}

/** Fail with a message naming the file and the violated rule. */
int
fail(const std::string &path, const std::string &why)
{
    std::fprintf(stderr, "manifest_check: %s: %s\n", path.c_str(),
                 why.c_str());
    return 1;
}

bool
contains(const std::string &text, const std::string &needle)
{
    return text.find(needle) != std::string::npos;
}

int
checkJson(const std::string &path, const std::string &text,
          const std::vector<std::string> &required)
{
    std::string error;
    if (!mlps::sim::jsonValid(text, &error))
        return fail(path, "invalid JSON: " + error);
    for (const std::string &key : required)
        if (!contains(text, key))
            return fail(path, "missing required token " + key);
    std::printf("%s: ok (%zu bytes)\n", path.c_str(), text.size());
    return 0;
}

/**
 * Extract the deterministic section: every line from the one opening
 * `  "deterministic": ` up to and including its closing `  },` / `  ],`
 * at the same two-space indentation.
 */
int
printDeterministic(const std::string &path, const std::string &text)
{
    std::istringstream in(text);
    std::string line;
    bool inside = false, found = false;
    while (std::getline(in, line)) {
        if (!inside && line.rfind("  \"deterministic\": ", 0) == 0)
            inside = found = true;
        if (inside) {
            std::printf("%s\n", line.c_str());
            if (line == "  },"  || line == "  }" ||
                line == "  ]," || line == "  ]")
                inside = false;
        }
    }
    if (!found)
        return fail(path, "no deterministic section found");
    if (inside)
        return fail(path, "unterminated deterministic section");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 3) {
        std::fprintf(stderr,
                     "usage: manifest_check manifest|metrics|"
                     "deterministic <file>\n");
        return 2;
    }
    std::string mode = argv[1], path = argv[2];
    std::string text;
    if (!readFile(path, &text)) {
        std::fprintf(stderr, "manifest_check: cannot read '%s'\n",
                     path.c_str());
        return 2;
    }

    if (mode == "manifest")
        return checkJson(path, text,
                         {"\"mlpsim_run_manifest\"", "\"deterministic\"",
                          "\"volatile\"", "\"command\"",
                          "\"request_digest\"", "\"journal_format_version\"",
                          "\"argv\"", "\"jobs\"", "\"cache\"",
                          "\"phases\"", "\"build\""});
    if (mode == "metrics")
        return checkJson(path, text,
                         {"\"mlpsim-metrics-v1\"", "\"deterministic\"",
                          "\"volatile\"", "\"name\"", "\"kind\"",
                          "\"value\""});
    if (mode == "deterministic")
        return printDeterministic(path, text);

    std::fprintf(stderr, "manifest_check: unknown mode '%s'\n",
                 mode.c_str());
    return 2;
}
