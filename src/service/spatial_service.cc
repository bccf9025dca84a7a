#include "service/spatial_service.h"

#include <algorithm>
#include <functional>
#include <optional>
#include <utility>

#include "util/logging.h"

namespace sj {

namespace service_internal {

/// Pins the service for handle-side calls. A Submitted handle may outlive
/// its SpatialService, so after resolving a ticket the handle must not
/// touch the raw service pointer; instead it takes `mu` and calls through
/// `service` only while that is non-null. ~SpatialService nulls the
/// pointer under the same mutex (after draining the queue), so a handle
/// either reaches a live service or finds the pointer cleared — never a
/// dangling one. Lock order: gate mu before the service's mu_.
struct ServiceGate {
  std::mutex mu;
  SpatialService* service = nullptr;
};

/// One submission's scheduling state. Completion (outcome/state/cv) is
/// self-contained on the ticket so handles stay valid independently of
/// the service's internals; handle-side calls back into the service go
/// through the gate (see ServiceGate). Lock order: gate mu before
/// service mu_ before ticket mu, never the reverse.
struct TicketBase {
  TicketBase(std::shared_ptr<ServiceGate> gate_in, const JoinOptions& options)
      : gate(std::move(gate_in)),
        requested_bytes(options.memory_bytes),
        strict(options.strict_memory_accounting) {}
  virtual ~TicketBase() = default;
  TicketBase(const TicketBase&) = delete;
  TicketBase& operator=(const TicketBase&) = delete;

  /// Executes the admitted query on the calling thread and stores its
  /// outcome; the service finishes the ticket afterwards.
  virtual void Run() = 0;
  /// Stores the outcome of a ticket that ends without running.
  virtual void SetError(Status status) = 0;

  /// The one completion path, run exactly once: Cancel/expiry/rejection
  /// only resolve kQueued tickets and Execute only finishes the kRunning
  /// ticket it admitted, so the outcome is stored once and references
  /// returned by Result() stay valid. Caller must hold `mu`.
  void FinishLocked() {
    SJ_CHECK(state != State::kDone) << "double finish on query ticket";
    state = State::kDone;
    arbiter.reset();
    cv.notify_all();
  }
  /// Resolves the ticket with `status` (rejection, cancel, deadline,
  /// shutdown). Caller must hold `mu`.
  void FailLocked(Status status) {
    SetError(std::move(status));
    FinishLocked();
  }
  void Wait() const {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [this] { return state == State::kDone; });
  }

  std::shared_ptr<ServiceGate> gate;
  uint64_t id = 0;
  // Immutable once the ticket is published (set in Submit before the
  // ticket reaches the queue or a handle).
  size_t requested_bytes = 0;
  bool strict = false;
  bool allow_degraded = true;
  std::chrono::steady_clock::time_point deadline;

  enum class State { kQueued, kRunning, kDone };

  mutable std::mutex mu;
  mutable std::condition_variable cv;
  State state = State::kQueued;
  size_t granted_bytes = 0;
  bool degraded = false;
  /// Set (with kDone) by Cancel(); the scheduler folds it into
  /// ServiceStats::cancelled when it removes the ticket from its queue,
  /// so the count lives on the ticket and needs no service call.
  bool cancelled_by_handle = false;
  uint32_t pool_client = 0;
  std::shared_ptr<MemoryArbiter> arbiter;  // Carved child; reset when done.
};

/// A ticket with its one result slot. `run` owns the submitted query's
/// private copy (referenced inputs must outlive the submission) and is
/// dropped once the outcome is stored: after Run(), the query's reference
/// to the child arbiter is gone before FinishLocked resets the last one,
/// so admission sees the freed budget.
template <typename Stats>
struct Ticket final : TicketBase {
  using TicketBase::TicketBase;

  void Run() override {
    result.emplace(run(*this));
    run = nullptr;
  }
  void SetError(Status status) override {
    result.emplace(std::move(status));
    run = nullptr;
  }

  std::function<sj::Result<Stats>(const TicketBase&)> run;
  std::optional<sj::Result<Stats>> result;
};

}  // namespace service_internal

using service_internal::ServiceGate;
using service_internal::Ticket;
using service_internal::TicketBase;

template <typename Stats>
bool Submitted<Stats>::done() const {
  if (ticket_ == nullptr) return true;
  std::lock_guard<std::mutex> lock(ticket_->mu);
  return ticket_->state == TicketBase::State::kDone;
}

template <typename Stats>
void Submitted<Stats>::Wait() const {
  // Expiry is the scheduler's job: the service's reaper thread wakes at
  // the earliest queued deadline and resolves expired tickets (and its
  // destructor resolves everything still queued), so waiting handles
  // never need to touch the service.
  if (ticket_ != nullptr) ticket_->Wait();
}

template <typename Stats>
bool Submitted<Stats>::Cancel() {
  return SpatialService::CancelTicket(ticket_);
}

template <typename Stats>
const sj::Result<Stats>& Submitted<Stats>::Result() const {
  SJ_CHECK(ticket_ != nullptr) << "Result() on a default Submitted handle";
  ticket_->Wait();
  std::lock_guard<std::mutex> lock(ticket_->mu);
  return *ticket_->result;
}

template <typename Stats>
size_t Submitted<Stats>::granted_bytes() const {
  if (ticket_ == nullptr) return 0;
  std::lock_guard<std::mutex> lock(ticket_->mu);
  return ticket_->granted_bytes;
}

template <typename Stats>
bool Submitted<Stats>::degraded() const {
  if (ticket_ == nullptr) return false;
  std::lock_guard<std::mutex> lock(ticket_->mu);
  return ticket_->degraded;
}

template <typename Stats>
uint64_t Submitted<Stats>::id() const {
  return ticket_ == nullptr ? 0 : ticket_->id;
}

template class Submitted<JoinStats>;
template class Submitted<PipelineStats>;

/// The handle-side cancel: resolve a still-queued ticket with Cancelled,
/// then notify the scheduler through the gate so the queue slot frees
/// immediately and, if this was the head, the queries behind it get an
/// admission pass now rather than at the next submit/completion. The gate
/// pins the service: once its destructor nulls the pointer, the
/// destructor's drain has already folded this ticket's cancel into the
/// counters.
bool SpatialService::CancelTicket(const TicketPtr& ticket) {
  if (ticket == nullptr) return false;
  {
    std::lock_guard<std::mutex> lock(ticket->mu);
    if (ticket->state != TicketBase::State::kQueued) return false;
    ticket->cancelled_by_handle = true;
    ticket->FailLocked(Status::Cancelled(
        "query #" + std::to_string(ticket->id) +
        " cancelled while queued for admission"));
  }
  std::vector<TicketPtr> to_dispatch;
  SpatialService* service = nullptr;
  {
    std::lock_guard<std::mutex> gate_lock(ticket->gate->mu);
    service = ticket->gate->service;
    if (service != nullptr) {
      // Reap the cancelled ticket's queue slot now and re-run admission
      // for whatever was behind it. During shutdown the destructor's
      // drain owns the queue (and folds the cancel count itself).
      std::lock_guard<std::mutex> lock(service->mu_);
      if (!service->shutting_down_) to_dispatch = service->AdmitLocked();
    }
  }
  // Safe outside the gate: each dispatched ticket is already counted in
  // running_, which the service destructor waits on before returning.
  if (!to_dispatch.empty()) service->Dispatch(std::move(to_dispatch));
  return true;
}

SpatialService::SpatialService(const ServiceOptions& options)
    : options_(options),
      global_arbiter_(options.global_memory_bytes,
                      options.strict_memory_accounting),
      gate_(std::make_shared<ServiceGate>()) {
  gate_->service = this;
  if (options_.worker_threads > 0) {
    worker_pool_ = std::make_unique<ThreadPool>(options_.worker_threads);
  }
  if (options_.buffer_pool_pages > 0) {
    buffer_pool_ = std::make_unique<BufferPool>(options_.buffer_pool_pages);
  }
}

SpatialService::~SpatialService() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutting_down_ = true;
    reaper_stop_ = true;
    // Queued queries never run once shutdown starts; resolve them so no
    // handle blocks forever. Tickets a handle already cancelled (but the
    // scheduler has not reaped) get their count folded here — removal
    // from queue_ and the counter bump are atomic under mu_, so every
    // cancel is counted exactly once.
    for (const TicketPtr& t : queue_) {
      std::lock_guard<std::mutex> tl(t->mu);
      if (t->state == TicketBase::State::kQueued) {
        t->FailLocked(Status::Cancelled(
            "query #" + std::to_string(t->id) +
            " cancelled: the service shut down before admission"));
        counters_.cancelled++;
      } else if (t->state == TicketBase::State::kDone &&
                 t->cancelled_by_handle) {
        counters_.cancelled++;
      }
    }
    queue_.clear();
  }
  reaper_cv_.notify_all();
  if (reaper_.joinable()) reaper_.join();
  // Admitted queries run to completion.
  {
    std::unique_lock<std::mutex> lock(mu_);
    idle_cv_.wait(lock, [this] { return running_ == 0; });
  }
  // From here no handle may reach this service: Cancel() callers either
  // already passed the gate (their tickets were resolved and folded by
  // the drain above, so their reap is a no-op) or will find it closed.
  {
    std::lock_guard<std::mutex> gate_lock(gate_->mu);
    gate_->service = nullptr;
  }
  worker_pool_.reset();  // Joins workers before the shared pool dies.
}

template <typename Stats, typename Query, typename Sink>
Submitted<Stats> SpatialService::SubmitQuery(const Query& query, Sink* sink,
                                             const SubmitOptions& submit) {
  auto ticket = std::make_shared<Ticket<Stats>>(gate_, query.options());
  // The query runs with its options rewritten to the admission outcome:
  // granted budget, the carved child arbiter, and the shared pool(s).
  ticket->run = [this, query = query, sink](const TicketBase& t) mutable {
    query.MemoryBytes(t.granted_bytes);
    query.UseArbiter(t.arbiter);
    JoinOptions& o = query.mutable_options();
    if (worker_pool_ != nullptr) o.worker_pool = worker_pool_.get();
    if (buffer_pool_ != nullptr) {
      o.shared_buffer_pool = buffer_pool_.get();
      o.buffer_pool_client = t.pool_client;
    }
    // The service's storage backend is the default; a query that chose
    // its own keeps it.
    if (o.storage == nullptr) o.storage = options_.storage;
    return query.RunDirect(sink);
  };
  SubmitTicket(ticket, submit);
  return Submitted<Stats>(std::move(ticket));
}

SubmittedQuery SpatialService::Submit(const JoinQuery& query, JoinSink* sink,
                                      const SubmitOptions& submit) {
  return SubmitQuery<JoinStats>(query, sink, submit);
}

SubmittedPipeline SpatialService::Submit(const PipelineQuery& pipeline,
                                         RowSink* sink,
                                         const SubmitOptions& submit) {
  return SubmitQuery<PipelineStats>(pipeline, sink, submit);
}

void SpatialService::SubmitTicket(const TicketPtr& ticket,
                                  const SubmitOptions& submit) {
  ticket->allow_degraded =
      submit.allow_degraded && options_.degraded_min_bytes > 0;
  const double deadline_seconds = submit.queue_deadline_seconds >= 0.0
                                      ? submit.queue_deadline_seconds
                                      : options_.default_queue_deadline_seconds;
  ticket->deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(deadline_seconds));

  // Validation, enqueue, and admission form one continuous critical
  // section: the queue-limit and shutdown checks cannot go stale between
  // checking and enqueueing (N racing Submits each see the queue length
  // including the pushes that beat them, and no push can land after the
  // destructor's drain).
  std::vector<TicketPtr> to_dispatch;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ticket->id = next_id_++;
    counters_.submitted++;
    // Reap before measuring the queue so cancelled/expired stragglers do
    // not count against the limit (done outside the new ticket's lock —
    // only one ticket mutex is ever held at a time).
    ReapLocked(Clock::now());
    const Status rejection = [&]() -> Status {
      // Misuse, not contention: the floor the query layer enforces.
      SJ_RETURN_IF_ERROR(CheckMemoryFloor(ticket->requested_bytes));
      if (ticket->requested_bytes > options_.global_memory_bytes) {
        // Unsatisfiable at any queue position: no amount of waiting
        // frees more than the whole global budget.
        return Status::ResourceExhausted(
            "query asks for " + std::to_string(ticket->requested_bytes) +
            " B but the service's whole global budget is " +
            std::to_string(options_.global_memory_bytes) +
            " B; lower the query's MemoryBytes or grow "
            "ServiceOptions::global_memory_bytes");
      }
      if (shutting_down_) {
        return Status::FailedPrecondition("service is shutting down");
      }
      if (queue_.size() >= options_.admission_queue_limit) {
        return Status::ResourceExhausted(
            "admission queue is full (" +
            std::to_string(options_.admission_queue_limit) +
            " queries already waiting)");
      }
      return Status::OK();
    }();
    if (!rejection.ok()) {
      counters_.rejected++;
      std::lock_guard<std::mutex> tl(ticket->mu);
      ticket->FailLocked(rejection);
      return;
    }
    queue_.push_back(ticket);
    to_dispatch = AdmitLocked();
    if (!queue_.empty()) {
      // Someone stayed queued: the reaper owns their deadlines.
      EnsureReaperLocked();
      reaper_cv_.notify_one();  // New earliest deadline, maybe.
    }
  }
  Dispatch(std::move(to_dispatch));
}

void SpatialService::ReapLocked(Clock::time_point now) {
  auto it = queue_.begin();
  while (it != queue_.end()) {
    const TicketPtr& t = *it;
    std::lock_guard<std::mutex> tl(t->mu);
    if (t->state == TicketBase::State::kDone) {  // Handle-side cancel.
      if (t->cancelled_by_handle) counters_.cancelled++;
      it = queue_.erase(it);
      continue;
    }
    if (now >= t->deadline) {
      counters_.deadline_expired++;
      t->FailLocked(Status::DeadlineExceeded(
          "query #" + std::to_string(t->id) +
          " expired after waiting for admission; the global memory "
          "budget stayed occupied past the queue deadline"));
      it = queue_.erase(it);
      continue;
    }
    ++it;
  }
}

std::vector<SpatialService::TicketPtr> SpatialService::AdmitLocked() {
  // Clear cancelled/expired tickets anywhere in the queue first, so they
  // neither hold queue slots nor block the FIFO head.
  ReapLocked(Clock::now());
  std::vector<TicketPtr> out;
  while (!queue_.empty()) {
    const TicketPtr t = queue_.front();
    const AdmitOutcome outcome = TryAdmitOneLocked(t);
    // Strict FIFO: if the head cannot be admitted (even degraded),
    // nothing behind it is — a stream of small queries can never starve
    // an earlier big one.
    if (outcome == AdmitOutcome::kNoBudget) break;
    queue_.pop_front();
    if (outcome == AdmitOutcome::kAdmitted) out.push_back(t);
    // kResolvedMeanwhile: a Cancel() landed between ReapLocked and the
    // commit; the ticket is popped without dispatching.
  }
  return out;
}

SpatialService::AdmitOutcome SpatialService::TryAdmitOneLocked(
    const TicketPtr& t) {
  // requested_bytes / allow_degraded / strict are immutable once the
  // ticket is published, so reading them without the ticket lock is fine.
  const size_t available = global_arbiter_.available();
  size_t grant = 0;
  bool degraded = false;
  if (available >= t->requested_bytes) {
    grant = t->requested_bytes;
  } else if (t->allow_degraded) {
    // Admit with what is free instead of queueing, if that is at least
    // the documented degradation floor (executors spill more under the
    // smaller budget; results are identical).
    const size_t floor =
        std::max(options_.degraded_min_bytes, kMinMemoryBytes);
    if (available >= floor) {
      grant = std::min(t->requested_bytes, available);
      degraded = true;
    }
  }
  if (grant == 0) return AdmitOutcome::kNoBudget;

  auto child = global_arbiter_.CarveChild("query." + std::to_string(t->id),
                                          grant, t->strict);
  if (!child.ok()) return AdmitOutcome::kNoBudget;
  {
    std::lock_guard<std::mutex> tl(t->mu);
    // Recheck under the ticket lock: a Cancel() may have resolved the
    // ticket since this admission pass last looked at it. Committing
    // blindly would overwrite kDone with kRunning and run a cancelled
    // query. Dropping `child` here releases the carved budget.
    if (t->state != TicketBase::State::kQueued) {
      if (t->cancelled_by_handle) counters_.cancelled++;
      return AdmitOutcome::kResolvedMeanwhile;
    }
    t->state = TicketBase::State::kRunning;
    t->granted_bytes = grant;
    t->degraded = degraded;
    t->arbiter = std::move(child).value();
    if (buffer_pool_ != nullptr) {
      t->pool_client =
          buffer_pool_->RegisterClient("query." + std::to_string(t->id));
    }
  }
  if (degraded) {
    counters_.admitted_degraded++;
  } else {
    counters_.admitted_full++;
  }
  running_++;
  return AdmitOutcome::kAdmitted;
}

void SpatialService::EnsureReaperLocked() {
  if (!reaper_.joinable()) {
    // Lazily started on the first submission that actually queues, so
    // the single-query path (JoinQuery::Run over a fresh service) never
    // pays for a thread.
    reaper_ = std::thread(&SpatialService::ReaperLoop, this);
  }
}

void SpatialService::ReaperLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!reaper_stop_) {
    // Sleep until the earliest queued deadline (or a queue change).
    std::optional<Clock::time_point> next;
    for (const TicketPtr& t : queue_) {
      std::lock_guard<std::mutex> tl(t->mu);
      if (t->state == TicketBase::State::kQueued) {
        next = next.has_value() ? std::min(*next, t->deadline) : t->deadline;
      }
    }
    if (!next.has_value()) {
      reaper_cv_.wait(lock);
    } else {
      reaper_cv_.wait_until(lock, *next);
    }
    if (reaper_stop_) break;
    // Expire whatever is overdue and re-run admission: an expired head
    // must not keep admittable queries behind it waiting for the next
    // submit/completion.
    std::vector<TicketPtr> to_dispatch = AdmitLocked();
    if (!to_dispatch.empty()) {
      lock.unlock();
      Dispatch(std::move(to_dispatch));
      lock.lock();
    }
  }
}

void SpatialService::Dispatch(
    std::vector<TicketPtr> tickets) {
  for (TicketPtr& t : tickets) {
    if (worker_pool_ != nullptr) {
      TicketPtr ticket = std::move(t);
      worker_pool_->Submit(
          [this, ticket = std::move(ticket)] { Execute(ticket); });
    } else {
      Execute(t);  // Inline mode: the submitter's thread is the worker.
    }
  }
}

void SpatialService::Execute(const TicketPtr& ticket) {
  ticket->Run();
  std::vector<TicketPtr> to_dispatch;
  {
    std::lock_guard<std::mutex> lock(mu_);
    {
      std::lock_guard<std::mutex> tl(ticket->mu);
      ticket->FinishLocked();  // Frees the carved budget.
    }
    running_--;
    idle_cv_.notify_all();
    to_dispatch = AdmitLocked();  // The freed bytes may admit the head.
  }
  Dispatch(std::move(to_dispatch));
}

ServiceStats SpatialService::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ServiceStats s = counters_;
  s.global_in_use_bytes = global_arbiter_.in_use();
  s.global_peak_bytes = global_arbiter_.peak_bytes();
  if (buffer_pool_ != nullptr) s.pool = buffer_pool_->stats();
  return s;
}

}  // namespace sj
