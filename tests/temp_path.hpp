// Per-test scratch file paths. ctest runs every gtest case as its own
// process, several at once under `ctest -j`, so a fixed file name under
// ::testing::TempDir() would let concurrent cases delete or overwrite each
// other's files.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <string>

namespace fsml::test_util {

/// ::testing::TempDir() + "<Suite>.<Test>.<pid>.<name>": unique to the
/// running test case and process.
inline std::string unique_temp_path(const std::string& name) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string id = info != nullptr ? std::string(info->test_suite_name()) +
                                         "." + info->name()
                                   : "global";
  for (char& c : id)
    if (c == '/') c = '_';  // parameterized suites and cases
  return ::testing::TempDir() + id + "." + std::to_string(::getpid()) + "." +
         name;
}

}  // namespace fsml::test_util
