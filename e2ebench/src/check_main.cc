// Offline checker for a recorded benchmark history (e2e_proxy --history-out).
//
//   e2e_check HISTORY [--doctor alter_read|drop_write]
//
// Replays the history serially and compares every observed read and every
// read-back value (see history.h). With --doctor the history is first
// corrupted in the named way, so a correct checker must then fail.
// Exit codes: 0 = history consistent, 1 = inconsistent, 2 = usage / I/O
// error or nothing to corrupt.
#include <cstdio>
#include <cstring>
#include <string>

#include "src/history.h"

int main(int argc, char** argv) {
  std::string path;
  std::string doctor;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--doctor") == 0 && i + 1 < argc) {
      doctor = argv[++i];
    } else if (path.empty() && argv[i][0] != '-') {
      path = argv[i];
    } else {
      path.clear();
      break;
    }
  }
  if (path.empty()) {
    std::fprintf(stderr, "usage: e2e_check HISTORY [--doctor alter_read|drop_write]\n");
    return 2;
  }
  e2e::History h;
  if (!e2e::LoadHistory(path, &h)) {
    std::fprintf(stderr, "cannot read history %s\n", path.c_str());
    return 2;
  }
  if (!doctor.empty()) {
    std::string what;
    if (!e2e::Doctor(&h, doctor, &what)) {
      std::fprintf(stderr, "doctor %s: no place to corrupt\n", doctor.c_str());
      return 2;
    }
    std::printf("doctored: %s\n", what.c_str());
  }
  e2e::CheckResult r = e2e::ReplayAndCheck(h);
  std::printf("txns=%llu reads=%llu read_mismatches=%llu readback=%llu "
              "readback_mismatches=%llu\n",
              static_cast<unsigned long long>(r.txns),
              static_cast<unsigned long long>(r.reads_checked),
              static_cast<unsigned long long>(r.read_mismatches),
              static_cast<unsigned long long>(r.readback_checked),
              static_cast<unsigned long long>(r.readback_mismatches));
  for (const std::string& e : r.first_errors) {
    std::printf("  %s\n", e.c_str());
  }
  std::printf("%s\n", r.ok() ? "consistent" : "INCONSISTENT");
  return r.ok() ? 0 : 1;
}
