/// \file temp_store.h
/// \brief Process-unique temporary store paths that leave no files behind.
///
/// gtest_discover_tests runs every TEST as its own process and `ctest -j`
/// runs them concurrently, so a test's store path carries the process id.
/// Process ids are reused, and a store is more than its base file: shards
/// (`<name>.<h>.jsonl`) and a sidecar index per file.  A path is therefore
/// cleared of every file a store at it can hold when it is handed out — so
/// a test never resumes a store an earlier process with the same id left —
/// and again when the process exits.
#pragma once

#include <unistd.h>

#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "campaign/index.h"
#include "campaign/store.h"

namespace nbtisim::testsupport {

/// Removes every file a store rooted at \p path can hold: each file of
/// campaign::ShardedStore::files(path) and its sidecar index.
inline void remove_store(const std::string& path) {
  for (const std::string& file : campaign::ShardedStore::files(path)) {
    std::remove(file.c_str());
    std::remove(campaign::index_path(file).c_str());
  }
}

/// \p name under ::testing::TempDir(), prefixed with the process id, with
/// every store file at it removed now and again at process exit.
inline std::string temp_path(const std::string& name) {
  struct Handed {
    std::mutex mutex;
    std::vector<std::string> paths;
    ~Handed() {
      for (const std::string& path : paths) remove_store(path);
    }
  };
  static Handed handed;
  const std::string path = ::testing::TempDir() + "/" +
                           std::to_string(::getpid()) + "_" + name;
  remove_store(path);
  const std::lock_guard<std::mutex> lock(handed.mutex);
  handed.paths.push_back(path);
  return path;
}

}  // namespace nbtisim::testsupport
