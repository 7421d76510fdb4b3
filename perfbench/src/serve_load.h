#pragma once

// The serve_mixed traffic: an in-process serve::Server on a Unix socket,
// a seeded request mix (hot set + fresh requests), and an open-loop
// generator that sends each request at its due time whether or not
// earlier replies have arrived.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "app/request.h"
#include "common.h"
#include "serve/server.h"

namespace perfbench {

/// Two connections and two pool workers, as in the daemon's smallest
/// useful deployment.
inline constexpr std::size_t kServeConnections = 2;
inline constexpr std::size_t kServeWorkers = 2;
/// Open-loop arrival rate of the timed window, requests per second.
/// Two connections sustain 1200-1600/s of this mix (4-core x86-64 VM, at
/// the commit that defined the benchmark), but a hit waits behind an
/// executing request on its connection about as often as that connection
/// is busy; near half of capacity that is half the time, and p50 flips
/// between a hit's latency and a queued one from run to run. At 200/s
/// the median request is an unqueued hit. The ladder spans about 1/4 to
/// 3/2 of capacity, one second per step; a rate passes when its p99
/// latency, measured from the due time, stays within kLatencyLimitMs and
/// the last request of the step is answered within the same limit.
inline constexpr double kReferenceRate = 200.0;
inline constexpr double kLadderRates[] = {400.0, 800.0, 1200.0, 1600.0, 2000.0, 2400.0};
inline constexpr double kLatencyLimitMs = 50.0;
/// Hot-set size and the share of arrivals drawn from it.
inline constexpr std::size_t kHotSetSize = 8;
inline constexpr double kHotShare = 0.8;

/// Distinct requests of one run. Index i < kHotSetSize is the hot set.
struct RequestSet {
  std::vector<std::string> payloads;  ///< wire frames' JSON payloads
  std::vector<std::string> ops;       ///< "verify" | "check"
  std::vector<std::vector<std::string>> options;
  [[nodiscard]] std::size_t size() const noexcept { return payloads.size(); }
};

/// The hot set for `seed`: half verify, half check (the golden property),
/// paper-default size, seeds derived from the benchmark seed.
[[nodiscard]] RequestSet hot_set(std::uint64_t seed);

/// Appends `count` arrivals at `rate` per second to `arrivals` (distinct
/// request indices), drawing kHotShare of them from the hot set and the
/// rest as fresh verify/check requests added to `requests`. `stream`
/// separates independent schedules of one seed.
void extend_mix(RequestSet& requests, std::vector<std::size_t>& arrivals,
                std::size_t count, std::uint64_t seed, std::uint64_t stream);

/// One in-process daemon with its hot set already answered once (so hot
/// requests are cache hits from then on).
class ServeFixture {
 public:
  ServeFixture(const std::string& socket_path, const RequestSet& hot);
  ~ServeFixture();
  ServeFixture(const ServeFixture&) = delete;
  ServeFixture& operator=(const ServeFixture&) = delete;

  [[nodiscard]] const std::string& socket_path() const noexcept {
    return path_;
  }

 private:
  std::string path_;
  std::unique_ptr<glva::serve::Server> server_;
};

/// One request's fate under the open loop; times in seconds from the
/// schedule start.
struct Outcome {
  std::size_t request = 0;  ///< distinct index
  double due = 0.0;
  double sent = 0.0;
  double done = 0.0;
  bool ok = false;
  bool cached = false;
  int exit_code = 0;
  [[nodiscard]] double latency_ms() const { return (done - due) * 1e3; }
  [[nodiscard]] double late_ms() const { return (sent - due) * 1e3; }
};

struct LoadResult {
  std::vector<Outcome> outcomes;  ///< arrival order
  /// First body seen per distinct request ("" if none arrived).
  std::vector<std::string> bodies;
  std::vector<int> exit_codes;  ///< alongside `bodies`
  /// Distinct requests whose responses were not all byte-identical.
  std::vector<std::size_t> inconsistent;
  std::vector<std::string> errors;  ///< transport/protocol failures
  Clock::time_point start;  ///< schedule start (due time 0)
  double wall = 0.0;  ///< schedule start to last reply, seconds
};

/// Sends `arrivals` (indices into `requests`) at `rate` per second over
/// kServeConnections pipelined connections, arrival k on connection
/// k % kServeConnections, and collects every reply. Latency is measured
/// from each request's due time.
[[nodiscard]] LoadResult run_open_loop(const std::string& socket_path,
                                       const RequestSet& requests,
                                       const std::vector<std::size_t>& arrivals,
                                       double rate);

/// Latency by request class (cache hits vs executed requests) and how
/// late the generator sent, all from raw samples.
struct ServeBreakdown {
  Percentile hit_us_p50, hit_us_p99;
  Percentile cold_ms_p50, cold_ms_p99;
  Percentile late_ms_p99;
  Percentile all_ms_p99;
};
[[nodiscard]] ServeBreakdown breakdown(const LoadResult& load);
void print(const ServeBreakdown& b);

/// One flag per distinct request: its replies were not all identical, or
/// its body or exit code differs from app::execute on the same request
/// (computed on every hardware thread, after the timed window). Requests
/// that received no reply are not flagged; their arrivals are not ok.
[[nodiscard]] std::vector<char> bad_requests(const RequestSet& requests,
                                             const LoadResult& load);

}  // namespace perfbench
