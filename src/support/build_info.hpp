// Build provenance for the `stats` op, the Prometheus pmonge_build_info
// gauge and the bench --json host record: which source revision,
// compiler and build type produced the running binary.  Values are baked
// in at configure time by src/CMakeLists.txt (PMONGE_GIT_DESCRIBE /
// PMONGE_COMPILER / PMONGE_BUILD_TYPE compile definitions on
// build_info.cpp); a tarball build without git reports "unknown" rather
// than failing.
#pragma once

#include <string>

namespace pmonge::support {

/// `git describe --always --dirty` of the tree at configure time.
const std::string& build_git_describe();

/// Compiler id and version, e.g. "GNU 13.2.0".
const std::string& build_compiler();

/// CMAKE_BUILD_TYPE at configure time, e.g. "Release".
const std::string& build_type();

}  // namespace pmonge::support
