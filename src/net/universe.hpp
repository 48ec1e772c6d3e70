// mpi_lite runtime: a fixed set of ranks backed by threads.
//
// Universe owns the mailboxes and the barrier; Comm is the per-rank handle
// passed to the user function (the moral equivalent of MPI_COMM_WORLD plus
// a rank). Exceptions thrown by any rank are captured and rethrown from
// run() after all threads join, so a failing rank cannot deadlock the test
// suite -- remaining ranks blocked in receive() would hang, therefore a
// failing rank poisons the universe and wakes everyone.
#pragma once

#include <atomic>
#include <condition_variable>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "net/mailbox.hpp"

namespace jmh::net {

class Comm;

/// Aggregate traffic counters over one Universe::run.
struct CommStats {
  std::uint64_t messages = 0;  ///< point-to-point messages sent
  std::uint64_t elements = 0;  ///< total payload elements sent
  std::uint64_t barriers = 0;  ///< barrier episodes completed
};

class Universe {
 public:
  explicit Universe(int num_ranks);

  int size() const noexcept { return num_ranks_; }

  /// Runs @p fn once per rank, concurrently -- as a gang on the
  /// process-wide exec::ThreadPool -- and returns when all ranks finish.
  /// Rethrows the first exception raised by any rank.
  void run(const std::function<void(Comm&)>& fn);

  /// Traffic counters accumulated during the most recent run() (reset at
  /// the start of each run).
  CommStats stats() const;

 private:
  friend class Comm;

  Mailbox& mailbox(int rank);
  void barrier_wait();
  void poison(std::exception_ptr error);
  void check_poisoned() const;

  int num_ranks_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;

  // Reusable central barrier.
  std::mutex barrier_mu_;
  std::condition_variable barrier_cv_;
  int barrier_count_ = 0;
  std::uint64_t barrier_generation_ = 0;

  std::mutex error_mu_;
  std::exception_ptr first_error_;
  std::atomic<bool> poisoned_{false};

  std::atomic<std::uint64_t> sent_messages_{0};
  std::atomic<std::uint64_t> sent_elements_{0};
  std::atomic<std::uint64_t> barrier_episodes_{0};
};

/// Thrown in surviving ranks when another rank poisoned the universe.
struct UniversePoisoned : std::exception {
  const char* what() const noexcept override { return "another rank failed"; }
};

class Comm {
 public:
  Comm(Universe& universe, int rank) : universe_(&universe), rank_(rank) {}

  int rank() const noexcept { return rank_; }
  int size() const noexcept { return universe_->size(); }

  /// Asynchronous-buffered send (never blocks; mailbox queues are unbounded).
  void send(int dst, int tag, Payload data);
  void send(int dst, int tag, std::span<const double> data);
  void send_scalar(int dst, int tag, double value);

  /// Blocks until a message from @p src with @p tag arrives.
  Payload recv(int src, int tag);
  double recv_scalar(int src, int tag);

  /// Simultaneous exchange with a peer (both sides must call it).
  Payload sendrecv(int peer, int tag, std::span<const double> data);

  void barrier();

 private:
  Universe* universe_;
  int rank_;
  std::uint64_t send_seq_ = 0;
};

}  // namespace jmh::net
