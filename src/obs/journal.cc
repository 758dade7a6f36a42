#include "obs/journal.h"

#include <algorithm>
#include <cstdio>
#include <tuple>

#include "obs/json.h"

namespace hoyan::obs {
namespace {

void appendField(std::string& out, std::string_view name, std::string_view value) {
  out += ",\"";
  out += name;
  out += "\":\"";
  appendJsonEscaped(out, value);
  out += '"';
}

void appendField(std::string& out, std::string_view name, uint64_t value) {
  out += ",\"";
  out += name;
  out += "\":";
  out += std::to_string(value);
}

// The names of the type-specific numeric payload slots, per event type; null
// when the type carries none.
struct CountNames {
  const char* names[4] = {nullptr, nullptr, nullptr, nullptr};
};

CountNames countNames(JournalEventType type) {
  switch (type) {
    case JournalEventType::kCacheEvict:
      return {{"bytes"}};
    case JournalEventType::kImpact:
      return {{"dirty_devices", "dirty_ranges"}};
    case JournalEventType::kRibAssembly:
      return {{"fragment_hits", "fragment_misses", "rows_reused", "rows_rendered"}};
    case JournalEventType::kSweepPlan:
      return {{"enumerated", "pruned", "deduped", "scheduled"}};
    case JournalEventType::kSweepVerdict:
      return {{"shared"}};
    case JournalEventType::kSweepResult:
      return {{"checked", "counterexamples", "cache_hits", "retries"}};
    case JournalEventType::kPolicyKernel:
      return {{"memo_hits", "memo_misses", "regex_hits", "regex_misses"}};
    default:
      return {};
  }
}

}  // namespace

std::string_view journalEventTypeName(JournalEventType type) {
  switch (type) {
    case JournalEventType::kRunBegin: return "run_begin";
    case JournalEventType::kPhaseBegin: return "phase_begin";
    case JournalEventType::kImpact: return "impact";
    case JournalEventType::kCacheBypass: return "cache_bypass";
    case JournalEventType::kCacheHit: return "cache_hit";
    case JournalEventType::kCacheMiss: return "cache_miss";
    case JournalEventType::kCacheEvict: return "cache_evict";
    case JournalEventType::kSubtaskEnqueue: return "subtask_enqueue";
    case JournalEventType::kSubtaskStart: return "subtask_start";
    case JournalEventType::kSubtaskRetry: return "subtask_retry";
    case JournalEventType::kSubtaskExhaust: return "subtask_exhaust";
    case JournalEventType::kSubtaskFinish: return "subtask_finish";
    case JournalEventType::kRibAssembly: return "rib_assembly";
    case JournalEventType::kSweepPlan: return "sweep_plan";
    case JournalEventType::kSweepVerdict: return "sweep_verdict";
    case JournalEventType::kSweepResult: return "sweep_result";
    case JournalEventType::kPolicyKernel: return "policy_kernel";
    case JournalEventType::kPhaseEnd: return "phase_end";
    case JournalEventType::kRunEnd: return "run_end";
  }
  return "unknown";
}

std::string journalEventJson(const JournalEvent& event, bool canonical) {
  std::string out = "{\"ev\":\"";
  out += journalEventTypeName(event.type);
  out += '"';
  appendField(out, "run", static_cast<uint64_t>(event.run));
  if (!canonical) {
    appendField(out, "seq", event.seq);
    out += ",\"t_ms\":";
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.3f",
                  static_cast<double>(event.tMicros) / 1000.0);
    out += buffer;
  }
  if (!event.phase.empty()) appendField(out, "phase", event.phase);
  if (!event.id.empty()) appendField(out, "id", event.id);
  if (!event.key.empty()) appendField(out, "key", event.key);
  if (!event.note.empty()) appendField(out, "note", event.note);
  if (event.attempt >= 0)
    appendField(out, "attempt", static_cast<uint64_t>(event.attempt));
  if (!canonical && event.worker >= 0)
    appendField(out, "worker", static_cast<uint64_t>(event.worker));
  if (!canonical && event.seconds >= 0) {
    out += ",\"ms\":";
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.3f", event.seconds * 1000.0);
    out += buffer;
  }
  if (event.hasFp) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%016llx",
                  static_cast<unsigned long long>(event.fp));
    appendField(out, "fp", std::string_view(buffer));
  }
  if (event.hasCounts) {
    const CountNames names = countNames(event.type);
    for (int i = 0; i < 4; ++i)
      if (names.names[i]) appendField(out, names.names[i], event.counts[i]);
  }
  out += '}';
  return out;
}

RunJournal::RunJournal(JournalOptions options)
    : enabled_(options.enabled),
      capacity_(std::max<size_t>(options.capacity, 1)),
      epoch_(std::chrono::steady_clock::now()) {
  if (enabled_) {
    std::lock_guard lock(mutex_);
    events_.reserve(std::min<size_t>(capacity_, 4096));
  }
}

void RunJournal::record(JournalEvent event) {
  const auto now = std::chrono::steady_clock::now();
  std::lock_guard lock(mutex_);
  if (events_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  event.seq = nextSeq_++;
  event.tMicros = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(now - epoch_).count());
  event.run = runIndex_;
  events_.push_back(std::move(event));
}

uint32_t RunJournal::runBegin(std::string_view run, uint64_t optionsFp) {
  if (!enabled_) return 0;
  uint32_t index;
  {
    std::lock_guard lock(mutex_);
    index = ++runIndex_;
  }
  JournalEvent event;
  event.type = JournalEventType::kRunBegin;
  event.id = std::string(run);
  event.fp = optionsFp;
  event.hasFp = true;
  record(std::move(event));
  return index;
}

void RunJournal::runEnd(std::string_view run, double seconds) {
  if (!enabled_) return;
  JournalEvent event;
  event.type = JournalEventType::kRunEnd;
  event.id = std::string(run);
  event.seconds = seconds;
  record(std::move(event));
}

void RunJournal::phaseBegin(std::string_view phase) {
  if (!enabled_) return;
  JournalEvent event;
  event.type = JournalEventType::kPhaseBegin;
  event.phase = std::string(phase);
  record(std::move(event));
}

void RunJournal::phaseEnd(std::string_view phase, double seconds) {
  if (!enabled_) return;
  JournalEvent event;
  event.type = JournalEventType::kPhaseEnd;
  event.phase = std::string(phase);
  event.seconds = seconds;
  record(std::move(event));
}

void RunJournal::subtaskEnqueue(std::string_view phase, std::string_view id) {
  if (!enabled_) return;
  JournalEvent event;
  event.type = JournalEventType::kSubtaskEnqueue;
  event.phase = std::string(phase);
  event.id = std::string(id);
  record(std::move(event));
}

void RunJournal::subtaskStart(std::string_view phase, std::string_view id,
                              int attempt, int worker) {
  if (!enabled_) return;
  JournalEvent event;
  event.type = JournalEventType::kSubtaskStart;
  event.phase = std::string(phase);
  event.id = std::string(id);
  event.attempt = attempt;
  event.worker = worker;
  record(std::move(event));
}

void RunJournal::subtaskFinish(std::string_view phase, std::string_view id,
                               int attempt, int worker, double seconds) {
  if (!enabled_) return;
  JournalEvent event;
  event.type = JournalEventType::kSubtaskFinish;
  event.phase = std::string(phase);
  event.id = std::string(id);
  event.attempt = attempt;
  event.worker = worker;
  event.seconds = seconds;
  record(std::move(event));
}

void RunJournal::subtaskRetry(std::string_view phase, std::string_view id,
                              int attempt) {
  if (!enabled_) return;
  JournalEvent event;
  event.type = JournalEventType::kSubtaskRetry;
  event.phase = std::string(phase);
  event.id = std::string(id);
  event.attempt = attempt;
  record(std::move(event));
}

void RunJournal::subtaskExhaust(std::string_view phase, std::string_view id,
                                int attempts) {
  if (!enabled_) return;
  JournalEvent event;
  event.type = JournalEventType::kSubtaskExhaust;
  event.phase = std::string(phase);
  event.id = std::string(id);
  event.attempt = attempts;
  record(std::move(event));
}

void RunJournal::cacheHit(std::string_view phase, std::string_view id,
                          std::string_view key) {
  if (!enabled_) return;
  JournalEvent event;
  event.type = JournalEventType::kCacheHit;
  event.phase = std::string(phase);
  event.id = std::string(id);
  event.key = std::string(key);
  record(std::move(event));
}

void RunJournal::cacheMiss(std::string_view phase, std::string_view id,
                           std::string_view key) {
  if (!enabled_) return;
  JournalEvent event;
  event.type = JournalEventType::kCacheMiss;
  event.phase = std::string(phase);
  event.id = std::string(id);
  event.key = std::string(key);
  record(std::move(event));
}

void RunJournal::cacheEvict(std::string_view key, size_t bytes) {
  if (!enabled_) return;
  JournalEvent event;
  event.type = JournalEventType::kCacheEvict;
  event.key = std::string(key);
  event.counts[0] = bytes;
  event.hasCounts = true;
  record(std::move(event));
}

void RunJournal::cacheBypass(std::string_view reason, std::string_view id,
                             std::string_view key) {
  if (!enabled_) return;
  JournalEvent event;
  event.type = JournalEventType::kCacheBypass;
  event.note = std::string(reason);
  event.id = std::string(id);
  event.key = std::string(key);
  record(std::move(event));
}

void RunJournal::impact(std::string_view verdict, std::string_view reason,
                        size_t dirtyDevices, size_t dirtyRanges) {
  if (!enabled_) return;
  JournalEvent event;
  event.type = JournalEventType::kImpact;
  event.note = std::string(verdict);
  event.key = std::string(reason);
  event.counts[0] = dirtyDevices;
  event.counts[1] = dirtyRanges;
  event.hasCounts = true;
  record(std::move(event));
}

void RunJournal::ribAssembly(std::string_view outcome, size_t fragmentHits,
                             size_t fragmentMisses, size_t rowsReused,
                             size_t rowsRendered) {
  if (!enabled_) return;
  JournalEvent event;
  event.type = JournalEventType::kRibAssembly;
  event.note = std::string(outcome);
  event.counts[0] = fragmentHits;
  event.counts[1] = fragmentMisses;
  event.counts[2] = rowsReused;
  event.counts[3] = rowsRendered;
  event.hasCounts = true;
  record(std::move(event));
}

void RunJournal::sweepPlan(std::string_view phase, size_t enumerated, size_t pruned,
                           size_t deduped, size_t scheduled,
                           std::string_view hintSource) {
  if (!enabled_) return;
  JournalEvent event;
  event.type = JournalEventType::kSweepPlan;
  event.phase = std::string(phase);
  event.note = std::string(hintSource);
  event.counts[0] = enumerated;
  event.counts[1] = pruned;
  event.counts[2] = deduped;
  event.counts[3] = scheduled;
  event.hasCounts = true;
  record(std::move(event));
}

void RunJournal::sweepVerdict(std::string_view phase, std::string_view id, bool pass,
                              std::string_view key, size_t shared) {
  if (!enabled_) return;
  JournalEvent event;
  event.type = JournalEventType::kSweepVerdict;
  event.phase = std::string(phase);
  event.id = std::string(id);
  event.note = pass ? "pass" : "fail";
  event.key = std::string(key);
  event.counts[0] = shared;
  event.hasCounts = true;
  record(std::move(event));
}

void RunJournal::sweepResult(std::string_view phase, size_t checked,
                             size_t counterexamples, size_t cacheHits,
                             size_t retries) {
  if (!enabled_) return;
  JournalEvent event;
  event.type = JournalEventType::kSweepResult;
  event.phase = std::string(phase);
  event.counts[0] = checked;
  event.counts[1] = counterexamples;
  event.counts[2] = cacheHits;
  event.counts[3] = retries;
  event.hasCounts = true;
  record(std::move(event));
}

void RunJournal::policyKernel(std::string_view phase, uint64_t memoHits,
                              uint64_t memoMisses, uint64_t regexHits,
                              uint64_t regexMisses) {
  if (!enabled_) return;
  JournalEvent event;
  event.type = JournalEventType::kPolicyKernel;
  event.phase = std::string(phase);
  event.counts[0] = memoHits;
  event.counts[1] = memoMisses;
  event.counts[2] = regexHits;
  event.counts[3] = regexMisses;
  event.hasCounts = true;
  record(std::move(event));
}

size_t RunJournal::eventCount() const {
  std::lock_guard lock(mutex_);
  return events_.size();
}

size_t RunJournal::droppedEvents() const {
  std::lock_guard lock(mutex_);
  return dropped_;
}

std::vector<JournalEvent> RunJournal::events() const {
  std::lock_guard lock(mutex_);
  return events_;
}

void RunJournal::clear() {
  std::lock_guard lock(mutex_);
  events_.clear();
  dropped_ = 0;
  nextSeq_ = 0;
  runIndex_ = 0;
}

std::string RunJournal::toJsonl() const {
  std::vector<JournalEvent> snapshot;
  size_t dropped;
  {
    std::lock_guard lock(mutex_);
    snapshot = events_;
    dropped = dropped_;
  }
  std::string out;
  out.reserve(snapshot.size() * 96);
  for (const JournalEvent& event : snapshot) {
    out += journalEventJson(event, /*canonical=*/false);
    out += '\n';
  }
  out += "{\"ev\":\"journal_summary\",\"events\":" + std::to_string(snapshot.size()) +
         ",\"dropped\":" + std::to_string(dropped) + "}\n";
  return out;
}

std::string RunJournal::canonicalJsonl() const {
  std::vector<JournalEvent> snapshot;
  {
    std::lock_guard lock(mutex_);
    snapshot = events_;
  }
  // Stable key: (run, phase, id, key, type rank, attempt). The stable sort
  // keeps record order for ties — master-side events within one phase are
  // emitted in deterministic order, worker-side events are disambiguated by
  // (id, attempt, type).
  std::stable_sort(snapshot.begin(), snapshot.end(),
                   [](const JournalEvent& a, const JournalEvent& b) {
                     return std::tie(a.run, a.phase, a.id, a.key, a.type, a.attempt) <
                            std::tie(b.run, b.phase, b.id, b.key, b.type, b.attempt);
                   });
  std::string out;
  out.reserve(snapshot.size() * 80);
  for (const JournalEvent& event : snapshot) {
    out += journalEventJson(event, /*canonical=*/true);
    out += '\n';
  }
  return out;
}

}  // namespace hoyan::obs
