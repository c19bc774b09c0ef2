/**
 * @file
 * A per-test scratch directory that cleans up after itself.
 */

#ifndef MLPSIM_TESTS_SCRATCH_DIR_H
#define MLPSIM_TESTS_SCRATCH_DIR_H

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace mlps::test {

/**
 * The directory mlpsim_<name>_<pid> under the temp directory
 * ($TMPDIR or /tmp), emptied when made and removed when it goes out of
 * scope, unless the running test has failed by then: a failed test's
 * directory stays for a look. Making the directory is left to its
 * user.
 */
class ScratchDir
{
  public:
    explicit ScratchDir(const std::string &name)
        : path_((std::filesystem::temp_directory_path() /
                 ("mlpsim_" + name + "_" + std::to_string(::getpid())))
                    .string())
    {
        std::filesystem::remove_all(path_);
    }

    ~ScratchDir()
    {
        std::error_code ignored;
        if (!::testing::Test::HasFailure())
            std::filesystem::remove_all(path_, ignored);
    }

    ScratchDir(const ScratchDir &) = delete;
    ScratchDir &operator=(const ScratchDir &) = delete;

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

} // namespace mlps::test

#endif // MLPSIM_TESTS_SCRATCH_DIR_H
