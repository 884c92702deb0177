#include "obs/profiler.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "obs/events.h"
#include "obs/resource.h"
#include "obs/trace.h"

namespace patchecko::obs {

namespace {

std::atomic<bool> g_profiling{false};

// ---------------------------------------------------------------------------
// The label table. Span names become small integer ids so frames, trace
// records, trie nodes and path comparisons never touch strings on the push
// path. Ids are global and permanent (the set of distinct span names is a
// few dozen literals), so traces, and tries from different threads and
// captures, always agree on them.

struct InternTable {
  std::mutex mutex;
  std::unordered_map<std::string, std::uint32_t> ids;
  std::vector<std::string> names{"(root)"};  // id 0 = the root sentinel
};

InternTable& intern_table() {
  static InternTable* table = new InternTable();
  return *table;
}

std::uint32_t intern_slow(std::string_view name) {
  InternTable& table = intern_table();
  std::lock_guard<std::mutex> lock(table.mutex);
  std::string key(name);
  const auto it = table.ids.find(key);
  if (it != table.ids.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(table.names.size());
  table.names.push_back(key);
  table.ids.emplace(std::move(key), id);
  return id;
}

// Thread-local cache keyed by the name's address: a SpanLabel is a string
// literal, so the same call site hits the same slot without hashing the
// characters or taking the global lock.
struct InternCacheEntry {
  const char* data = nullptr;
  std::size_t size = 0;
  std::uint32_t id = 0;
};

std::uint32_t intern(std::string_view name) {
  constexpr std::size_t kCacheSize = 64;  // power of two
  thread_local InternCacheEntry cache[kCacheSize];
  const auto hash = reinterpret_cast<std::uintptr_t>(name.data());
  InternCacheEntry& entry = cache[(hash >> 4) & (kCacheSize - 1)];
  if (entry.data == name.data() && entry.size == name.size()) return entry.id;
  const std::uint32_t id = intern_slow(name);
  entry = InternCacheEntry{name.data(), name.size(), id};
  return id;
}

// ---------------------------------------------------------------------------
// Per-thread state: the one stack of open-span frames every ScopedSpan
// pushes and pops, the task base and request a TaskScope sets, and the trie
// of the capture the thread last took part in. Once the thread is
// registered with the profiler, what report()/stop() read and write
// (frames, base, trie, clock) changes only under `lock` (a spinlock:
// critical sections are a handful of loads/stores, and a reader must not
// block on a mutex the owner could hold across a malloc); before that, the
// owner is its only reader.

struct TrieNode {
  std::uint32_t name = 0;
  std::uint32_t parent = 0;
  std::uint32_t first_child = 0;   // node index; 0 = none
  std::uint32_t next_sibling = 0;  // node index; 0 = none
  double self_seconds = 0.0;
  std::uint64_t entries = 0;
  std::uint64_t alloc_count = 0;
  std::uint64_t alloc_bytes = 0;
};

// Set on the node of a frame whose trie entry was refused past a cap: the
// node is then the deepest recorded ancestor, and every frame pushed above
// inherits the refusal, so the trie stays balanced with a plain pop.
constexpr std::uint32_t kTruncated = 1u << 31;

struct Frame {
  std::uint64_t span = 0;     // tracer id
  std::uint32_t label = 0;    // interned name
  std::uint32_t node = 0;     // trie node while this frame is on top
  std::uint64_t capture = 0;  // capture `node` belongs to; 0 = none
};

struct ThreadState {
  std::atomic_flag lock = ATOMIC_FLAG_INIT;
  std::vector<Frame> frames;
  std::size_t base = 0;  // frames below it belong to enclosing tasks
  std::uint64_t request = 0;
  std::vector<TrieNode> nodes;  // [0] = root, once registered
  std::uint64_t capture = 0;    // the capture `nodes` belongs to
  std::uint64_t truncated = 0;  // trie entries refused past the caps
  // The running capture's clock; null once it stopped, so a boundary that
  // still saw profiling_enabled() never reads a clock that is gone.
  const Clock* clock = nullptr;
  double last_seconds = 0.0;  // clock value at the last boundary
  // Allocation-counter values at the last boundary. Unsynced after a
  // capture reset: the first boundary re-reads the counters instead of
  // flushing a delta that spans the reset. (Time needs no such flag: the
  // first interval after a reset is spent at the root, which is not
  // charged.)
  bool alloc_synced = false;
  std::uint64_t last_alloc_count = 0;
  std::uint64_t last_alloc_bytes = 0;
  bool registered = false;
};

// Locks `state` unless `engage` is false (an unregistered owner).
struct SpinGuard {
  explicit SpinGuard(ThreadState& state, bool engage = true)
      : state_(engage ? &state : nullptr) {
    if (state_ == nullptr) return;
    while (state_->lock.test_and_set(std::memory_order_acquire))
      std::this_thread::yield();
  }
  ~SpinGuard() {
    if (state_ != nullptr) state_->lock.clear(std::memory_order_release);
  }
  ThreadState* state_;
};

// Registry of live thread states plus the tries of already-exited threads
// (moved over on thread exit so their counts survive into the report).
// Leaked, like Tracer::global(): thread_local destructors may run during
// process teardown, after function-local statics would have been destroyed.
struct ProfRegistry {
  std::mutex mutex;
  std::vector<ThreadState*> threads;
  std::vector<std::vector<TrieNode>> retired;
  std::uint64_t retired_truncated = 0;
  std::uint64_t capture = 0;  // the latest capture; 0 = none yet
  const Clock* clock = nullptr;  // the running capture's; null = none
};

ProfRegistry& prof_registry() {
  static ProfRegistry* registry = new ProfRegistry();
  return *registry;
}

void reset_state_locked(ThreadState& state, std::uint64_t capture,
                        const Clock* clock) {
  const SpinGuard guard(state);
  state.nodes.assign(1, TrieNode{});
  state.capture = capture;
  state.truncated = 0;
  state.clock = clock;
  state.alloc_synced = false;
}

// The trie node the thread is inside: its top frame's when that frame
// belongs to the thread's capture (spans open when the capture started are
// invisible to it), else the root. Caller holds the lock or owns the state.
std::uint32_t top_node(const ThreadState& state) {
  if (state.frames.size() == state.base) return 0;
  const Frame& top = state.frames.back();
  return top.capture == state.capture ? top.node : 0;
}

// Charge the wall time since the thread's last boundary to the node it has
// been inside, and restart the interval at `now`. Time outside the
// capture's spans (the root) is not charged. Caller holds the spinlock.
void charge_time(ThreadState& state, double now) {
  const std::uint32_t node = top_node(state) & ~kTruncated;
  if (node != 0) state.nodes[node].self_seconds += now - state.last_seconds;
  state.last_seconds = now;
}

// Charge the interval since the last boundary — its allocation delta and,
// while the capture runs, its wall time — to the node that was active over
// it. Allocation counters are per thread, so only the owner can call this.
// Caller holds the spinlock.
void flush_interval(ThreadState& state) {
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
  thread_allocation_totals(&count, &bytes);
  if (state.alloc_synced) {
    TrieNode& node = state.nodes[top_node(state) & ~kTruncated];
    node.alloc_count += count - state.last_alloc_count;
    node.alloc_bytes += bytes - state.last_alloc_bytes;
  } else {
    state.alloc_synced = true;
  }
  state.last_alloc_count = count;
  state.last_alloc_bytes = bytes;
  if (state.clock != nullptr) charge_time(state, state.clock->now());
}

// The node a frame labelled `label` enters: the matching child of the node
// the thread is inside, created on first entry. Caller holds the spinlock.
std::uint32_t enter_node(ThreadState& state, std::uint32_t label) {
  const std::uint32_t parent = top_node(state);
  if ((parent & kTruncated) != 0) {
    ++state.truncated;
    return parent;
  }
  for (std::uint32_t c = state.nodes[parent].first_child; c != 0;
       c = state.nodes[c].next_sibling)
    if (state.nodes[c].name == label) {
      ++state.nodes[c].entries;
      return c;
    }
  std::size_t depth = 0;
  for (std::uint32_t n = parent; n != 0; n = state.nodes[n].parent) ++depth;
  if (depth >= Profiler::max_depth ||
      state.nodes.size() >= Profiler::max_nodes) {
    ++state.truncated;
    return parent | kTruncated;
  }
  const auto child = static_cast<std::uint32_t>(state.nodes.size());
  TrieNode node;
  node.name = label;
  node.parent = parent;
  node.next_sibling = state.nodes[parent].first_child;
  node.entries = 1;
  state.nodes.push_back(node);
  state.nodes[parent].first_child = child;
  return child;
}

// Owner-thread slot: retires its trie on exit if it ever registered.
struct ThreadSlot {
  ThreadState state;
  ~ThreadSlot() {
    if (!state.registered) return;
    ProfRegistry& registry = prof_registry();
    std::lock_guard<std::mutex> lock(registry.mutex);
    registry.threads.erase(
        std::remove(registry.threads.begin(), registry.threads.end(), &state),
        registry.threads.end());
    const SpinGuard guard(state);
    flush_interval(state);  // charge the tail since the last boundary
    if (state.nodes.size() > 1 || state.nodes[0].alloc_count > 0)
      registry.retired.push_back(std::move(state.nodes));
    registry.retired_truncated += state.truncated;
  }
};

ThreadState& local_state() {
  thread_local ThreadSlot slot;
  return slot.state;
}

// Makes the thread visible to report()/stop(); from here on its owner
// changes shared state only under the spinlock.
void register_thread(ThreadState& state) {
  if (state.registered) return;
  ProfRegistry& registry = prof_registry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  state.nodes.assign(1, TrieNode{});
  state.capture = registry.capture;
  state.clock = registry.clock;
  registry.threads.push_back(&state);
  state.registered = true;
}

// Applies `change` to the calling thread's state at a span or task
// boundary. While a capture runs, the thread registers with the profiler
// and the interval since its previous boundary is charged to the node it
// was inside.
template <typename Change>
void at_boundary(const Change& change) {
  ThreadState& state = local_state();
  const bool profiling = profiling_enabled();
  if (profiling) register_thread(state);
  const SpinGuard guard(state, state.registered);
  if (profiling) flush_interval(state);
  change(state, profiling);
}

// ---------------------------------------------------------------------------
// Merge per-thread tries into one name-resolved, name-sorted tree.

struct MergeNode {
  std::uint32_t name = 0;
  double self_seconds = 0.0;
  std::uint64_t entries = 0;
  std::uint64_t alloc_count = 0;
  std::uint64_t alloc_bytes = 0;
  std::unordered_map<std::uint32_t, std::size_t> children;  // name -> index
};

void merge_trie(std::vector<MergeNode>& merged,
                const std::vector<TrieNode>& trie) {
  if (trie.empty()) return;
  // (thread node, merged node) pairs still to walk.
  std::vector<std::pair<std::uint32_t, std::size_t>> stack{{0u, 0u}};
  while (!stack.empty()) {
    const auto [t_index, m_index] = stack.back();
    stack.pop_back();
    const TrieNode& from = trie[t_index];
    merged[m_index].self_seconds += from.self_seconds;
    merged[m_index].entries += from.entries;
    merged[m_index].alloc_count += from.alloc_count;
    merged[m_index].alloc_bytes += from.alloc_bytes;
    for (std::uint32_t c = from.first_child; c != 0;
         c = trie[c].next_sibling) {
      auto [it, inserted] =
          merged[m_index].children.emplace(trie[c].name, merged.size());
      if (inserted) {
        // NOTE: `merged` may reallocate; merged[m_index] is re-fetched via
        // index on the next loop iteration, never held across this.
        merged.push_back(MergeNode{trie[c].name, 0.0, 0, 0, 0, {}});
      }
      stack.push_back({c, it->second});
    }
  }
}

ProfileNode to_profile_node(const std::vector<MergeNode>& merged,
                            const std::vector<std::string>& names,
                            std::size_t index) {
  const MergeNode& from = merged[index];
  ProfileNode node;
  node.name = names[from.name];
  node.self_seconds = from.self_seconds;
  node.entries = from.entries;
  node.alloc_count = from.alloc_count;
  node.alloc_bytes = from.alloc_bytes;
  node.children.reserve(from.children.size());
  for (const auto& [name, child] : from.children)
    node.children.push_back(to_profile_node(merged, names, child));
  std::sort(node.children.begin(), node.children.end(),
            [](const ProfileNode& a, const ProfileNode& b) {
              return a.name < b.name;
            });
  return node;
}

double inclusive_seconds(const ProfileNode& node) {
  double total = node.self_seconds;
  for (const ProfileNode& child : node.children)
    total += inclusive_seconds(child);
  return total;
}

struct TableRow {
  std::string path;
  double self = 0.0;
  double inclusive = 0.0;
  std::uint64_t entries = 0;
  std::uint64_t alloc_count = 0;
  std::uint64_t alloc_bytes = 0;
};

void collect_rows(const ProfileNode& node, const std::string& prefix,
                  std::vector<TableRow>& rows) {
  for (const ProfileNode& child : node.children) {
    const std::string path =
        prefix.empty() ? child.name : prefix + ";" + child.name;
    rows.push_back(TableRow{path, child.self_seconds, inclusive_seconds(child),
                            child.entries, child.alloc_count,
                            child.alloc_bytes});
    collect_rows(child, path, rows);
  }
}

bool hot_rank_before(const TableRow& a, const TableRow& b) {
  if (a.self != b.self) return a.self > b.self;
  if (a.alloc_bytes != b.alloc_bytes) return a.alloc_bytes > b.alloc_bytes;
  if (a.entries != b.entries) return a.entries > b.entries;
  return a.path < b.path;
}

}  // namespace

bool profiling_enabled() {
  return g_profiling.load(std::memory_order_relaxed);
}

void ScopedSpan::begin(SpanLabel label, Tracer& tracer) {
  tracer_ = &tracer;
  id_ = tracer.next_id();
  start_seconds_ = tracer.since_epoch();
  const std::uint32_t label_id = intern(label.text());
  at_boundary([&](ThreadState& state, bool profiling) {
    Frame frame{id_, label_id, 0, 0};
    if (profiling) {
      frame.node = enter_node(state, label_id);
      frame.capture = state.capture;
    }
    state.frames.push_back(frame);
  });
}

void ScopedSpan::end() {
  Tracer::Record record{id_, 0, 0, 0, thread_ordinal(), start_seconds_, 0.0};
  at_boundary([&](ThreadState& state, bool) {
    // Spans nest strictly (RAII), so this span is the top frame.
    const std::size_t top = state.frames.size() - 1;
    record.label = state.frames[top].label;
    record.parent = top > state.base ? state.frames[top - 1].span : 0;
    record.request = state.request;
    state.frames.pop_back();
  });
  record.end_seconds = tracer_->since_epoch();
  tracer_->record(record);
}

namespace detail {

std::vector<std::string> label_names() {
  InternTable& table = intern_table();
  std::lock_guard<std::mutex> lock(table.mutex);
  return table.names;
}

}  // namespace detail

TaskScope::TaskScope(std::uint64_t request_id) {
  at_boundary([&](ThreadState& state, bool) {
    previous_base_ = state.base;
    previous_request_ = state.request;
    state.base = state.frames.size();
    state.request = request_id;
  });
}

TaskScope::~TaskScope() {
  at_boundary([&](ThreadState& state, bool) {
    state.base = previous_base_;
    state.request = previous_request_;
  });
}

std::uint64_t current_request_id() { return local_state().request; }

// ---------------------------------------------------------------------------

struct ProfilerImpl {
  mutable std::mutex control;  // start/stop/report serialization
  bool running = false;
  Profiler::Config config;
  double start_seconds = 0.0;
  ProfileReport last_report;
  std::optional<CaptureSummary> last_summary;
  std::uint64_t finished_captures = 0;
};

namespace {

ProfilerImpl& impl() {
  static ProfilerImpl* instance = new ProfilerImpl();
  return *instance;
}

const Clock& profiler_clock(const Profiler::Config& config) {
  return config.clock != nullptr ? *config.clock : Clock::real();
}

// Merges every trie of the running capture, first charging each live
// thread's open interval up to now. `finish` also detaches the capture's
// clock from every thread, so no boundary charges time after this report.
ProfileReport build_report(const Clock& clock, double start_seconds,
                           bool finish) {
  ProfileReport report;
  report.alloc_available = allocation_counting_available();

  std::vector<MergeNode> merged{MergeNode{}};
  ProfRegistry& registry = prof_registry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  if (finish) registry.clock = nullptr;
  report.truncated = registry.retired_truncated;
  for (const std::vector<TrieNode>& trie : registry.retired)
    merge_trie(merged, trie);
  for (ThreadState* state : registry.threads) {
    std::vector<TrieNode> copy;
    std::uint64_t truncated = 0;
    {
      const SpinGuard guard(*state);
      charge_time(*state, clock.now());
      if (finish) state->clock = nullptr;
      copy = state->nodes;
      truncated = state->truncated;
    }
    merge_trie(merged, copy);
    report.truncated += truncated;
  }
  report.root = to_profile_node(merged, detail::label_names(), 0);
  report.duration_seconds = clock.now() - start_seconds;
  return report;
}

std::uint64_t fold_value(const ProfileNode& node, FoldMetric metric) {
  switch (metric) {
    case FoldMetric::self_micros:
      return static_cast<std::uint64_t>(std::llround(node.self_seconds * 1e6));
    case FoldMetric::entries: return node.entries;
    case FoldMetric::alloc_bytes: return node.alloc_bytes;
  }
  return 0;
}

void folded_walk(const ProfileNode& node, const std::string& prefix,
                 FoldMetric metric, std::string& out) {
  for (const ProfileNode& child : node.children) {
    const std::string path =
        prefix.empty() ? child.name : prefix + ";" + child.name;
    if (const std::uint64_t value = fold_value(child, metric); value > 0) {
      out += path;
      out += ' ';
      out += std::to_string(value);
      out += '\n';
    }
    folded_walk(child, path, metric, out);
  }
}

}  // namespace

Profiler& Profiler::global() {
  static Profiler* profiler = new Profiler();
  return *profiler;
}

bool Profiler::start(const Config& config) {
  ProfilerImpl& profiler = impl();
  std::lock_guard<std::mutex> control(profiler.control);
  if (profiler.running) return false;

  const Clock* clock = &profiler_clock(config);
  {
    ProfRegistry& registry = prof_registry();
    std::lock_guard<std::mutex> lock(registry.mutex);
    registry.retired.clear();
    registry.retired_truncated = 0;
    ++registry.capture;
    registry.clock = clock;
    for (ThreadState* state : registry.threads)
      reset_state_locked(*state, registry.capture, clock);
  }

  profiler.config = config;
  profiler.start_seconds = clock->now();
  profiler.running = true;
  g_profiling.store(true, std::memory_order_relaxed);
  return true;
}

ProfileReport Profiler::stop() {
  ProfilerImpl& profiler = impl();
  std::lock_guard<std::mutex> control(profiler.control);
  if (!profiler.running) return profiler.last_report;

  // The report detaches the clock before the flag drops: a boundary between
  // the two still updates its trie but charges no time.
  profiler.last_report = build_report(profiler_clock(profiler.config),
                                      profiler.start_seconds, true);
  g_profiling.store(false, std::memory_order_relaxed);
  profiler.running = false;
  profiler.last_summary = summarize_profile(profiler.last_report);
  ++profiler.finished_captures;
  return profiler.last_report;
}

bool Profiler::running() const {
  ProfilerImpl& profiler = impl();
  std::lock_guard<std::mutex> control(profiler.control);
  return profiler.running;
}

ProfileReport Profiler::report() const {
  ProfilerImpl& profiler = impl();
  std::lock_guard<std::mutex> control(profiler.control);
  if (!profiler.running) return profiler.last_report;
  return build_report(profiler_clock(profiler.config), profiler.start_seconds,
                      false);
}

std::optional<CaptureSummary> Profiler::last_capture() const {
  ProfilerImpl& profiler = impl();
  std::lock_guard<std::mutex> control(profiler.control);
  return profiler.last_summary;
}

std::uint64_t Profiler::captures() const {
  ProfilerImpl& profiler = impl();
  std::lock_guard<std::mutex> control(profiler.control);
  return profiler.finished_captures;
}

// ---------------------------------------------------------------------------

std::string folded_stacks(const ProfileReport& report, FoldMetric metric) {
  std::string out;
  folded_walk(report.root, "", metric, out);
  return out;
}

std::string profile_top_table(const ProfileReport& report, std::size_t limit) {
  std::vector<TableRow> rows;
  collect_rows(report.root, "", rows);
  std::sort(rows.begin(), rows.end(), hot_rank_before);
  if (rows.size() > limit) rows.resize(limit);

  std::string out = "=== profile: top scopes (self) ===\n";
  char line[256];
  std::snprintf(line, sizeof(line), "%10s %10s %10s %10s %14s  %s\n",
                "self_s", "incl_s", "entries", "allocs", "alloc_bytes",
                "scope");
  out += line;
  for (const TableRow& row : rows) {
    std::snprintf(line, sizeof(line), "%10.6f %10.6f %10llu %10llu %14llu  ",
                  row.self, row.inclusive,
                  static_cast<unsigned long long>(row.entries),
                  static_cast<unsigned long long>(row.alloc_count),
                  static_cast<unsigned long long>(row.alloc_bytes));
    out += line;
    out += row.path;
    out += '\n';
  }
  std::snprintf(line, sizeof(line), "(%.6fs charged over a %.3fs capture",
                inclusive_seconds(report.root), report.duration_seconds);
  out += line;
  if (report.truncated > 0) {
    std::snprintf(line, sizeof(line), ", %llu truncated",
                  static_cast<unsigned long long>(report.truncated));
    out += line;
  }
  if (!report.alloc_available) out += "; alloc counters unavailable";
  out += ")\n";
  return out;
}

CaptureSummary summarize_profile(const ProfileReport& report) {
  CaptureSummary summary;
  summary.duration_seconds = report.duration_seconds;
  summary.self_seconds = inclusive_seconds(report.root);
  std::vector<TableRow> rows;
  collect_rows(report.root, "", rows);
  const auto hottest =
      std::min_element(rows.begin(), rows.end(), hot_rank_before);
  if (hottest != rows.end()) {
    summary.hot_path = hottest->path;
    summary.hot_self_seconds = hottest->self;
    summary.hot_alloc_bytes = hottest->alloc_bytes;
  }
  return summary;
}

}  // namespace patchecko::obs
