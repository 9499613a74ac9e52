// muzha_cli: run an arbitrary experiment from the command line and dump the
// results (optionally as CSV + gnuplot for the time series).
//
//   muzha_cli --variant muzha,newreno --topology chain --hops 8
//             --window 32 --duration 30 --seed 1 --loss 0.01
//             [--static-routing] [--csv prefix]
//
// One flow is created per comma-separated variant, all sharing the
// first-to-last path (chain) or the two arms (cross, first two variants).
//
// Malformed or out-of-range values are rejected before anything runs: the
// program prints a message naming the flag and exits with status 2.
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "scenario/experiment.h"
#include "stats/export.h"
#include "stats/fairness.h"

namespace {

using namespace muzha;

bool parse_variant(const std::string& s, TcpVariant* out) {
  const struct {
    const char* name;
    TcpVariant v;
  } table[] = {
      {"tahoe", TcpVariant::kTahoe},     {"reno", TcpVariant::kReno},
      {"newreno", TcpVariant::kNewReno}, {"sack", TcpVariant::kSack},
      {"vegas", TcpVariant::kVegas},     {"muzha", TcpVariant::kMuzha},
      {"door", TcpVariant::kDoor},       {"adtcp", TcpVariant::kAdtcp},
      {"jersey", TcpVariant::kJersey},   {"rovegas", TcpVariant::kRoVegas},
  };
  for (const auto& e : table) {
    if (s == e.name) {
      *out = e.v;
      return true;
    }
  }
  return false;
}

[[noreturn]] void reject(const char* flag, const char* expected,
                         const char* got) {
  std::fprintf(stderr, "muzha_cli: %s: expected %s, got '%s'\n", flag,
               expected, got);
  std::exit(2);
}

// The whole of `text` as a base-10 integer in [lo, hi], else reject().
long long int_flag(const char* flag, const char* text, long long lo,
                   long long hi, const char* expected) {
  errno = 0;
  char* end = nullptr;
  long long v = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || v < lo || v > hi) {
    reject(flag, expected, text);
  }
  return v;
}

// The whole of `text` as a finite number in [lo, hi], else reject().
double real_flag(const char* flag, const char* text, double lo, double hi,
                 const char* expected) {
  errno = 0;
  char* end = nullptr;
  double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || errno == ERANGE || !std::isfinite(v) ||
      v < lo || v > hi) {
    reject(flag, expected, text);
  }
  return v;
}

void usage(const char* prog) {
  std::fprintf(
      stderr,
      "usage: %s [--variant v1,v2,...] [--topology chain|cross]\n"
      "          [--hops N] [--window N] [--duration SECONDS] [--seed N]\n"
      "          [--loss RATE] [--static-routing] [--csv PREFIX]\n"
      "variants: tahoe reno newreno sack vegas muzha door adtcp jersey "
      "rovegas\n",
      prog);
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<TcpVariant> variants{TcpVariant::kMuzha};
  ExperimentConfig cfg;
  cfg.hops = 4;
  cfg.duration = SimTime::from_seconds(30.0);
  int window = 32;
  std::string csv_prefix;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage(argv[0]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--variant") {
      variants.clear();
      std::stringstream ss(next());
      std::string tok;
      while (std::getline(ss, tok, ',')) {
        TcpVariant v;
        if (!parse_variant(tok, &v)) {
          reject("--variant", "a comma-separated list of variants",
                 tok.c_str());
        }
        variants.push_back(v);
      }
    } else if (arg == "--topology") {
      const char* t = next();
      if (std::strcmp(t, "chain") == 0) {
        cfg.topology = TopologyKind::kChain;
      } else if (std::strcmp(t, "cross") == 0) {
        cfg.topology = TopologyKind::kCross;
      } else {
        reject("--topology", "chain or cross", t);
      }
    } else if (arg == "--hops") {
      cfg.hops = static_cast<int>(
          int_flag("--hops", next(), 1, INT_MAX, "an integer >= 1"));
    } else if (arg == "--window") {
      window = static_cast<int>(
          int_flag("--window", next(), 1, INT_MAX, "an integer >= 1"));
    } else if (arg == "--duration") {
      // SimTime counts whole nanoseconds in an int64.
      cfg.duration = SimTime::from_seconds(real_flag(
          "--duration", next(), 1e-9, 9e9, "seconds in [1e-9, 9e9]"));
    } else if (arg == "--seed") {
      cfg.seed = static_cast<std::uint64_t>(
          int_flag("--seed", next(), 0, LLONG_MAX, "an integer >= 0"));
    } else if (arg == "--loss") {
      cfg.uniform_error_rate =
          real_flag("--loss", next(), 0.0, 1.0, "a probability in [0, 1]");
    } else if (arg == "--static-routing") {
      cfg.static_routing = true;
    } else if (arg == "--csv") {
      csv_prefix = next();
    } else {
      usage(argv[0]);
      return 2;
    }
  }

  if (variants.empty()) {
    usage(argv[0]);
    return 2;
  }
  if (cfg.topology == TopologyKind::kCross && cfg.hops % 2 != 0) {
    reject("--hops", "an even count for the cross topology",
           std::to_string(cfg.hops).c_str());
  }

  // Flow placement: chain => all flows end-to-end; cross => first flow on
  // the horizontal arm, second on the vertical, rest alternate.
  for (std::size_t i = 0; i < variants.size(); ++i) {
    FlowSpec f;
    f.variant = variants[i];
    f.window = window;
    if (cfg.topology == TopologyKind::kCross && i % 2 == 1) {
      f.src = static_cast<std::size_t>(cfg.hops) + 1;
      f.dst = static_cast<std::size_t>(2 * cfg.hops);
    } else {
      f.src = 0;
      f.dst = static_cast<std::size_t>(cfg.hops);
    }
    cfg.flows.push_back(f);
  }

  ExperimentResult res = run_experiment(cfg);

  std::printf("%-10s %12s %10s %8s %8s\n", "variant", "kbps", "sent", "retx",
              "timeouts");
  for (const FlowResult& f : res.flows) {
    std::printf("%-10s %12.1f %10llu %8llu %8llu\n", variant_name(f.variant),
                f.throughput.value() / 1e3,
                static_cast<unsigned long long>(f.packets_sent),
                static_cast<unsigned long long>(f.retransmissions),
                static_cast<unsigned long long>(f.timeouts));
  }
  if (res.flows.size() > 1) {
    auto thr = res.flow_throughputs();
    std::printf("Jain fairness index: %.3f\n", jain_fairness_index(thr));
  }
  std::printf("substrate: %llu IFQ drops, %llu MAC retry drops, "
              "%llu collisions\n",
              static_cast<unsigned long long>(res.ifq_drops),
              static_cast<unsigned long long>(res.mac_retry_drops),
              static_cast<unsigned long long>(res.phy_collisions));

  if (!csv_prefix.empty()) {
    std::vector<NamedSeries> cwnd, thrput;
    for (const FlowResult& f : res.flows) {
      std::string name = variant_name(f.variant);
      cwnd.push_back({name + "_cwnd", f.cwnd_trace});
      thrput.push_back({name + "_bps", f.throughput_series});
    }
    bool ok = write_csv(csv_prefix + "_cwnd.csv", cwnd) &&
              write_csv(csv_prefix + "_throughput.csv", thrput) &&
              write_gnuplot_script(csv_prefix + "_cwnd.gp",
                                   csv_prefix + "_cwnd.csv",
                                   "congestion window", cwnd, "segments") &&
              write_gnuplot_script(csv_prefix + "_throughput.gp",
                                   csv_prefix + "_throughput.csv",
                                   "throughput", thrput, "bits/s");
    std::printf("%s CSV/gnuplot files with prefix '%s'\n",
                ok ? "wrote" : "FAILED to write", csv_prefix.c_str());
    if (!ok) return 1;
  }
  return 0;
}
