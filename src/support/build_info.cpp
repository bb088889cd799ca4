#include "support/build_info.hpp"

#ifndef PMONGE_GIT_DESCRIBE
#define PMONGE_GIT_DESCRIBE "unknown"
#endif
#ifndef PMONGE_COMPILER
#define PMONGE_COMPILER "unknown"
#endif
#ifndef PMONGE_BUILD_TYPE
#define PMONGE_BUILD_TYPE "unknown"
#endif

namespace pmonge::support {

const std::string& build_git_describe() {
  static const std::string v = PMONGE_GIT_DESCRIBE;
  return v;
}

const std::string& build_compiler() {
  static const std::string v = PMONGE_COMPILER;
  return v;
}

const std::string& build_type() {
  static const std::string v = PMONGE_BUILD_TYPE;
  return v;
}

}  // namespace pmonge::support
