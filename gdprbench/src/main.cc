// gdprbench: runs one GDPRbench workload and prints its report.
//
//   gdprbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--git-sha <sha>] [--trace-dir <dir>]
//
// Standard output carries two JSON lines: the full report (host
// fingerprint, per-op-class counts, checks, metrics), then the summary
// {"correct", "attempted", "failed", "metrics"}. Progress and tables go to
// standard error. A failed correctness check names the check on standard
// error and exits 1; bad arguments exit 2.

#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace {

int Usage(const char* why) {
  fprintf(stderr, "gdprbench: %s\n", why);
  fprintf(stderr,
          "usage: gdprbench --workload <name> --seed <n> --seconds <s> "
          "--trace <0|1> [--git-sha <sha>] [--trace-dir <dir>]\n"
          "workloads:");
  for (const auto& n : gdprbench::WorkloadNames()) fprintf(stderr, " %s", n.c_str());
  fprintf(stderr, "\n");
  return 2;
}

bool ParseUint(const char* s, uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = strtoull(s, &end, 10);
  if (!*s || *end) return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
#ifdef M_ARENA_MAX
  // One malloc arena for every thread. Which of the store's short-lived
  // threads first allocates, and so whether glibc gives it an arena of its
  // own, depends on timing: processor-socket's peak_rss_mb read either
  // about 30 MB or about 41 MB from run to run with the default.
  mallopt(M_ARENA_MAX, 1);
#endif
  gdprbench::RunOptions opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const char* val = argv[++i];
    uint64_t n = 0;
    if (arg == "--workload") {
      opt.workload = val;
      have_workload = true;
    } else if (arg == "--seed") {
      if (!ParseUint(val, &n)) return Usage("--seed takes a whole number");
      opt.seed = n;
    } else if (arg == "--seconds") {
      char* end = nullptr;
      opt.seconds = strtod(val, &end);
      if (*end || !(opt.seconds > 0) || opt.seconds > 3600) {
        return Usage("--seconds takes a number in (0, 3600]");
      }
    } else if (arg == "--trace") {
      if (strcmp(val, "0") != 0 && strcmp(val, "1") != 0) {
        return Usage("--trace takes 0 or 1");
      }
      opt.trace = val[0] == '1';
    } else if (arg == "--git-sha") {
      opt.git_sha = val;
    } else if (arg == "--trace-dir") {
      opt.trace_dir = val;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload) return Usage("--workload is required");
  auto workload = gdprbench::MakeWorkload(opt.workload);
  if (!workload) return Usage(("unknown workload " + opt.workload).c_str());

  const gdprbench::RunResult r = gdprbench::RunWorkload(workload.get(), opt);

  std::string metrics;
  for (const auto& m : r.metrics) {
    char value[40];
    snprintf(value, sizeof(value), "%.10g", m.value);
    metrics += std::string(metrics.empty() ? "" : ", ") + "\"" + m.name +
               "\": {\"value\": " + value + ", \"unit\": \"" + m.unit + "\"}";
  }
  printf("%s\n", r.report_json.c_str());
  printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
         "\"metrics\": {%s}}\n",
         r.correct ? "true" : "false", (unsigned long long)r.attempted,
         (unsigned long long)r.failed, metrics.c_str());
  fflush(stdout);
  return r.correct ? 0 : 1;
}
