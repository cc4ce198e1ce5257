#ifndef SCENEREC_TOOLS_SELFTEST_DIR_H_
#define SCENEREC_TOOLS_SELFTEST_DIR_H_

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <system_error>

namespace scenerec {

/// Runs a tool's `--selftest [dir]` body. A `dir` the caller named is used
/// as is and kept. Without one, the body runs in a fresh
/// /tmp/<prefix>_XXXXXX directory (mkdtemp) that is removed with everything
/// in it once the body returns, pass or fail, so repeated runs leave
/// nothing behind.
template <typename Body>
int RunInSelfTestDir(const std::string& dir, const char* prefix, Body body) {
  if (!dir.empty()) return body(dir);
  std::string tmpl = std::string("/tmp/") + prefix + "_XXXXXX";
  if (::mkdtemp(tmpl.data()) == nullptr) {
    std::fprintf(stderr, "FAIL cannot create temp dir\n");
    return 1;
  }
  const int code = body(tmpl);
  std::error_code ec;
  std::filesystem::remove_all(tmpl, ec);
  return code;
}

}  // namespace scenerec

#endif  // SCENEREC_TOOLS_SELFTEST_DIR_H_
