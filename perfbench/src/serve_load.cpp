#include "serve_load.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <iostream>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "common.h"
#include "exec/thread_pool.h"
#include "serve/client.h"
#include "serve/protocol.h"

namespace perfbench {

namespace {

using glva::serve::Json;

void add_request(RequestSet& set, const char* op, std::uint64_t seed) {
  std::vector<std::string> options;
  if (std::string(op) == "check") {
    options = {"--property", kGoldenProperty};
  }
  options.insert(options.end(),
                 {"--seed", std::to_string(seed), "--no-timings"});
  std::vector<Json> wire_options;
  for (const std::string& o : options) wire_options.push_back(Json::of(o));
  set.payloads.push_back(
      Json::object_of({{"op", Json::of(op)},
                       {"target", Json::of(kCircuit)},
                       {"options", Json::array_of(std::move(wire_options))},
                       {"id", Json::of_u64(set.payloads.size())}})
          .dump());
  set.ops.emplace_back(op);
  set.options.push_back(std::move(options));
}

/// A raw pipelined connection: frames go out as soon as they are due, and
/// replies are read on another thread in send order (the server answers
/// one connection's frames in order).
class Pipe {
 public:
  explicit Pipe(const std::string& path) {
    sockaddr_un address{};
    if (path.size() >= sizeof(address.sun_path)) {
      throw std::runtime_error("socket path too long: " + path);
    }
    address.sun_family = AF_UNIX;
    std::memcpy(address.sun_path, path.c_str(), path.size() + 1);
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0 || ::connect(fd_, reinterpret_cast<const sockaddr*>(&address),
                             sizeof(address)) != 0) {
      const std::string why = std::strerror(errno);
      if (fd_ >= 0) ::close(fd_);
      throw std::runtime_error("cannot connect to " + path + ": " + why);
    }
    // A stalled daemon must not hang the benchmark past its time limit.
    timeval timeout{60, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  }
  ~Pipe() { ::close(fd_); }
  /// Unblocks a receive() waiting on this connection.
  void hang_up() noexcept { ::shutdown(fd_, SHUT_RDWR); }
  Pipe(const Pipe&) = delete;
  Pipe& operator=(const Pipe&) = delete;

  void send(const std::string& frame) {
    std::size_t sent = 0;
    while (sent < frame.size()) {
      const ssize_t n = ::send(fd_, frame.data() + sent, frame.size() - sent,
                               MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        throw std::runtime_error(std::string("send: ") + std::strerror(errno));
      }
      sent += static_cast<std::size_t>(n);
    }
  }

  /// Blocks for the next reply payload.
  std::string receive() {
    while (true) {
      if (auto frame = decoder_.take_frame()) return std::move(*frame);
      const ssize_t n = ::recv(fd_, buffer_, sizeof(buffer_), 0);
      if (n == 0) throw std::runtime_error("daemon closed the connection");
      if (n < 0) {
        if (errno == EINTR) continue;
        throw std::runtime_error(std::string("recv: ") + std::strerror(errno));
      }
      decoder_.feed(buffer_, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  glva::serve::FrameDecoder decoder_;
  char buffer_[64 * 1024];
};

}  // namespace

RequestSet hot_set(std::uint64_t seed) {
  RequestSet set;
  for (std::size_t h = 0; h < kHotSetSize; ++h) {
    // Bit 30 set: hot seeds never collide with fresh ones (bit 30 clear).
    add_request(set, h % 2 == 0 ? "verify" : "check",
                derive(seed, 1000 + h) | 0x40000000ULL);
  }
  return set;
}

void extend_mix(RequestSet& requests, std::vector<std::size_t>& arrivals,
                std::size_t count, std::uint64_t seed, std::uint64_t stream) {
  SeededRng rng(derive(seed, 5000 + stream));
  std::uint64_t fresh_seed = derive(seed, 6000 + stream);
  for (std::size_t k = 0; k < count; ++k) {
    if (rng.unit() < kHotShare) {
      arrivals.push_back(rng.below(kHotSetSize));
      continue;
    }
    fresh_seed = (fresh_seed + 1) & 0x3fffffffULL;
    add_request(requests, rng.below(2) == 0 ? "verify" : "check", fresh_seed);
    arrivals.push_back(requests.size() - 1);
  }
}

ServeFixture::ServeFixture(const std::string& socket_path, const RequestSet& hot)
    : path_(socket_path) {
  glva::serve::ServerOptions options;
  options.unix_path = socket_path;
  options.jobs = kServeWorkers;
  server_ = std::make_unique<glva::serve::Server>(options);
  server_->start();
  glva::serve::Client client = glva::serve::Client::connect_unix(socket_path);
  for (std::size_t i = 0; i < hot.size(); ++i) {
    const Json reply = client.round_trip(hot.payloads[i]);
    const Json* ok = reply.find("ok");
    if (ok == nullptr || !ok->boolean) {
      throw std::runtime_error("hot-set warm-up failed: " + reply.dump());
    }
  }
}

ServeFixture::~ServeFixture() { server_->stop(); }

LoadResult run_open_loop(const std::string& socket_path,
                         const RequestSet& requests,
                         const std::vector<std::size_t>& arrivals,
                         double rate) {
  LoadResult result;
  result.outcomes.resize(arrivals.size());
  result.bodies.assign(requests.size(), std::string());
  result.exit_codes.assign(requests.size(), 0);
  std::vector<char> seen(requests.size(), 0);
  std::vector<char> inconsistent(requests.size(), 0);
  std::mutex mutex;  // guards bodies/exit_codes/seen/inconsistent/errors

  std::vector<std::string> frames;
  frames.reserve(requests.size());
  for (const std::string& payload : requests.payloads) {
    frames.push_back(glva::serve::encode_frame(payload));
  }

  std::vector<std::unique_ptr<Pipe>> pipes;
  for (std::size_t c = 0; c < kServeConnections; ++c) {
    pipes.push_back(std::make_unique<Pipe>(socket_path));
  }
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  result.start = start;
  const auto at = [&](Clock::time_point t) {
    return std::chrono::duration<double>(t - start).count();
  };
  std::atomic<bool> abort{false};
  // Any failure ends the whole load: every connection is hung up so no
  // thread waits for replies that will never come.
  const auto give_up = [&](const std::exception& e) {
    abort = true;
    for (const auto& pipe : pipes) pipe->hang_up();
    std::lock_guard<std::mutex> lock(mutex);
    result.errors.emplace_back(e.what());
  };

  const auto sender = [&](std::size_t c) {
    try {
      for (std::size_t k = c; k < arrivals.size(); k += kServeConnections) {
        if (abort) return;
        const double due = static_cast<double>(k) / rate;
        // Sleep to just before the due time, then spin: a sleeping thread
        // woken on a busy machine can start milliseconds late.
        const Clock::time_point due_at =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(due));
        std::this_thread::sleep_until(due_at - std::chrono::milliseconds(2));
        while (Clock::now() < due_at) {
        }
        result.outcomes[k].request = arrivals[k];
        result.outcomes[k].due = due;
        result.outcomes[k].sent = at(Clock::now());
        pipes[c]->send(frames[arrivals[k]]);
      }
    } catch (const std::exception& e) {
      give_up(e);
    }
  };
  const auto receiver = [&](std::size_t c) {
    try {
      for (std::size_t k = c; k < arrivals.size(); k += kServeConnections) {
        if (abort) return;
        const std::string payload = pipes[c]->receive();
        Outcome& outcome = result.outcomes[k];
        outcome.done = at(Clock::now());
        const Json reply = glva::serve::parse_json(payload);
        const Json* ok = reply.find("ok");
        const Json* cached = reply.find("cached");
        const Json* exit_code = reply.find("exit_code");
        const Json* body = reply.find("body");
        outcome.ok = ok != nullptr && ok->boolean && body != nullptr &&
                     body->is_string() && exit_code != nullptr;
        if (!outcome.ok) continue;
        outcome.cached = cached != nullptr && cached->boolean;
        outcome.exit_code = std::stoi(exit_code->number);
        const std::size_t r = arrivals[k];
        std::lock_guard<std::mutex> lock(mutex);
        if (!seen[r]) {
          seen[r] = 1;
          result.bodies[r] = body->string;
          result.exit_codes[r] = outcome.exit_code;
        } else if (result.bodies[r] != body->string ||
                   result.exit_codes[r] != outcome.exit_code) {
          inconsistent[r] = 1;
        }
      }
    } catch (const std::exception& e) {
      give_up(e);
    }
  };

  {
    std::vector<std::jthread> threads;
    for (std::size_t c = 0; c < kServeConnections; ++c) {
      threads.emplace_back(sender, c);
      threads.emplace_back(receiver, c);
    }
  }
  for (const Outcome& o : result.outcomes) {
    result.wall = std::max(result.wall, o.done);
  }
  for (std::size_t r = 0; r < requests.size(); ++r) {
    if (inconsistent[r]) result.inconsistent.push_back(r);
  }
  return result;
}

ServeBreakdown breakdown(const LoadResult& load) {
  std::vector<double> hit_us, cold_ms, late_ms, all_ms;
  for (const Outcome& o : load.outcomes) {
    if (!o.ok) continue;
    (o.cached ? hit_us : cold_ms)
        .push_back(o.cached ? o.latency_ms() * 1e3 : o.latency_ms());
    late_ms.push_back(o.late_ms());
    all_ms.push_back(o.latency_ms());
  }
  ServeBreakdown b;
  b.hit_us_p50 = percentile(hit_us, 50.0);
  b.hit_us_p99 = percentile(hit_us, 99.0);
  b.cold_ms_p50 = percentile(cold_ms, 50.0);
  b.cold_ms_p99 = percentile(cold_ms, 99.0);
  b.late_ms_p99 = percentile(late_ms, 99.0);
  b.all_ms_p99 = percentile(all_ms, 99.0);
  return b;
}

void print(const ServeBreakdown& b) {
  std::cout << "serve hits " << describe(b.hit_us_p50, "us") << ", "
            << describe(b.hit_us_p99, "us") << "\n"
            << "serve executed " << describe(b.cold_ms_p50, "ms") << ", "
            << describe(b.cold_ms_p99, "ms") << "\n"
            << "generator lateness " << describe(b.late_ms_p99, "ms") << "\n";
}

std::vector<char> bad_requests(const RequestSet& requests,
                               const LoadResult& load) {
  std::vector<char> bad(requests.size(), 0);
  for (const std::size_t r : load.inconsistent) bad[r] = 1;
  std::atomic<std::size_t> next{0};
  {
    std::vector<std::jthread> workers;
    const std::size_t threads = glva::exec::ThreadPool::hardware_threads();
    for (std::size_t t = 0; t < threads; ++t) {
      workers.emplace_back([&] {
        for (std::size_t r = next++; r < requests.size(); r = next++) {
          if (load.bodies[r].empty()) continue;
          try {
            const glva::app::Request request = glva::app::parse_request(
                glva::app::parse_op(requests.ops[r]), kCircuit,
                requests.options[r]);
            const glva::app::Response expected = glva::app::execute(request);
            if (expected.body != load.bodies[r] ||
                expected.exit_code != load.exit_codes[r]) {
              bad[r] = 1;
            }
          } catch (const std::exception&) {
            bad[r] = 1;
          }
        }
      });
    }
  }
  return bad;
}

}  // namespace perfbench
