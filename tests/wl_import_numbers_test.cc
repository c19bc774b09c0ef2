/**
 * @file
 * Importer number-grammar tests, linked into wl_import_test.
 *
 * They live in their own source file because the ctest names of
 * wl_import_test.cc's `Matrix/WlImportInvalid` cases print the
 * addresses of that file's string literals: a literal added there
 * renames those tests.
 */

#include <gtest/gtest.h>

#include <string>

#include "core/registry.h"
#include "wl/import/exporter.h"
#include "wl/import/importer.h"

namespace {

using namespace mlps;

/**
 * Res50's export with the first `key` value respelled `number`;
 * `at` gets the byte offset of the respelled value.
 */
std::string
respelledExport(const std::string &key, const std::string &number,
                std::size_t *at)
{
    core::Registry reg;
    std::string doc =
        wl::import::exportWorkload(reg.find("MLPf_Res50_MX")->spec());
    std::size_t value = doc.find("\"" + key + "\":");
    EXPECT_NE(value, std::string::npos) << key;
    value += key.size() + 3;
    std::size_t end = doc.find(',', value);
    *at = value;
    return doc.replace(value, end - value, number);
}

/** Import the respelled export; expect one bad-number diagnostic
 *  at the respelled value. */
void
expectBadNumber(const std::string &key, const std::string &number)
{
    std::size_t at = 0;
    wl::import::ImportResult res =
        wl::import::importWorkload(respelledExport(key, number, &at));
    ASSERT_FALSE(res.ok) << number << " was accepted";
    ASSERT_EQ(res.diagnostics.size(), 1u) << number;
    EXPECT_EQ(res.primaryCode(), "bad-number") << number;
    EXPECT_EQ(res.diagnostics[0].byte, at) << number;
}

// Only the JSON number grammar: strtod would read "134." as 134 and
// "035454208" as 35454208, and the file would import as another
// workload.
TEST(WlImportDiagnostics, BareFractionAndLeadingZeroAreBadNumbers)
{
    expectBadNumber("flops", "134.");
    expectBadNumber("param_bytes", "035454208");
}


} // namespace
