#include "src/obs/trace.h"

#include <algorithm>
#include <cstdio>

namespace obladi {
namespace {

void AppendEscaped(std::string& out, const char* s) {
  for (; *s != '\0'; ++s) {
    char c = *s;
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
}

// One Chrome trace-event object (no separators) — shared by the batch dump
// and the continuous stream so both stay loadable by the same viewers.
void AppendEventJson(std::string& out, const ObsEvent& ev) {
  char buf[256];
  double ts_us = static_cast<double>(ev.ts_ns) / 1e3;
  switch (ev.kind) {
    case ObsEvent::Kind::kSpan: {
      double dur_us = static_cast<double>(ev.dur_ns) / 1e3;
      std::snprintf(buf, sizeof(buf),
                    "{\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f",
                    ev.tid, ts_us, dur_us);
      out += buf;
      break;
    }
    case ObsEvent::Kind::kInstant:
      std::snprintf(buf, sizeof(buf),
                    "{\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":%u,\"ts\":%.3f",
                    ev.tid, ts_us);
      out += buf;
      break;
    case ObsEvent::Kind::kCounter:
      std::snprintf(buf, sizeof(buf), "{\"ph\":\"C\",\"pid\":1,\"tid\":%u,\"ts\":%.3f",
                    ev.tid, ts_us);
      out += buf;
      break;
  }
  out += ",\"cat\":\"";
  AppendEscaped(out, ev.category != nullptr ? ev.category : "obs");
  out += "\",\"name\":\"";
  AppendEscaped(out, ev.name != nullptr ? ev.name : "?");
  out.push_back('"');
  if (ev.kind == ObsEvent::Kind::kCounter) {
    out += ",\"args\":{\"value\":";
    out += std::to_string(ev.arg);
    out += "}";
  } else if (ev.has_arg) {
    out += ",\"args\":{\"v\":";
    out += std::to_string(ev.arg);
    out += "}";
  }
  out.push_back('}');
}

}  // namespace

Tracer& Tracer::Get() {
  static Tracer* tracer = new Tracer();  // never destroyed: rings may outlive main
  return *tracer;
}

void Tracer::Enable(size_t ring_capacity) {
  ring_capacity_.store(std::max<size_t>(ring_capacity, 16), std::memory_order_relaxed);
  enabled_.store(true, std::memory_order_release);
}

void Tracer::Disable() { enabled_.store(false, std::memory_order_release); }

Tracer::Ring* Tracer::ThisThreadRing() {
  // One registered ring per thread per process lifetime. The registry owns
  // it and never drops a ring (the tracer is never destroyed), so records
  // survive thread exit, and a plain pointer needs no destructor that could
  // run at thread exit.
  static thread_local Ring* tl_ring = nullptr;
  if (tl_ring == nullptr) {
    auto ring = std::make_shared<Ring>();
    ring->tid = next_tid_.fetch_add(1, std::memory_order_relaxed);
    ring->events.reserve(ring_capacity_.load(std::memory_order_relaxed));
    tl_ring = ring.get();
    std::lock_guard<std::mutex> lk(registry_mu_);
    rings_.push_back(std::move(ring));
  }
  return tl_ring;
}

void Tracer::Push(const ObsEvent& ev) {
  Ring* ring = ThisThreadRing();
  ObsEvent copy = ev;
  copy.tid = ring->tid;
  {
    std::lock_guard<std::mutex> lk(ring->mu);
    size_t cap = std::max(ring->events.capacity(), size_t{16});
    if (ring->events.size() < cap) {
      ring->events.push_back(copy);
      ring->next = ring->events.size() % cap;
    } else {
      ring->events[ring->next] = copy;
      ring->next = (ring->next + 1) % cap;
      ring->wrapped = true;
    }
  }
  if (streaming_.load(std::memory_order_relaxed)) {
    // Rendered outside stream_mu_ so concurrent pushers only serialize on
    // the (stdio-buffered) write itself.
    std::string line;
    line.reserve(128);
    AppendEventJson(line, copy);
    line.push_back('\n');
    std::lock_guard<std::mutex> slk(stream_mu_);
    if (stream_ != nullptr) {
      if (!stream_first_event_) {
        std::fputc(',', stream_);
      }
      stream_first_event_ = false;
      std::fwrite(line.data(), 1, line.size(), stream_);
    }
  }
}

void Tracer::RecordSpan(const char* category, const char* name, uint64_t start_ns,
                        uint64_t dur_ns) {
  if (!enabled()) {
    return;
  }
  ObsEvent ev;
  ev.category = category;
  ev.name = name;
  ev.kind = ObsEvent::Kind::kSpan;
  ev.ts_ns = start_ns;
  ev.dur_ns = dur_ns;
  Push(ev);
}

void Tracer::RecordSpanArg(const char* category, const char* name, uint64_t start_ns,
                           uint64_t dur_ns, uint64_t arg) {
  if (!enabled()) {
    return;
  }
  ObsEvent ev;
  ev.category = category;
  ev.name = name;
  ev.kind = ObsEvent::Kind::kSpan;
  ev.ts_ns = start_ns;
  ev.dur_ns = dur_ns;
  ev.arg = arg;
  ev.has_arg = true;
  Push(ev);
}

void Tracer::RecordInstant(const char* category, const char* name) {
  if (!enabled()) {
    return;
  }
  ObsEvent ev;
  ev.category = category;
  ev.name = name;
  ev.kind = ObsEvent::Kind::kInstant;
  ev.ts_ns = NowNanos();
  Push(ev);
}

void Tracer::RecordCounter(const char* category, const char* name, uint64_t value) {
  if (!enabled()) {
    return;
  }
  ObsEvent ev;
  ev.category = category;
  ev.name = name;
  ev.kind = ObsEvent::Kind::kCounter;
  ev.ts_ns = NowNanos();
  ev.arg = value;
  ev.has_arg = true;
  Push(ev);
}

void Tracer::SetThreadName(const char* name) {
  Ring* ring = ThisThreadRing();
  std::lock_guard<std::mutex> lk(ring->mu);
  ring->thread_name = name;
}

std::vector<ObsEvent> Tracer::Collect() const {
  std::vector<std::shared_ptr<Ring>> rings;
  {
    std::lock_guard<std::mutex> lk(registry_mu_);
    rings = rings_;
  }
  std::vector<ObsEvent> out;
  for (const auto& ring : rings) {
    std::lock_guard<std::mutex> lk(ring->mu);
    out.insert(out.end(), ring->events.begin(), ring->events.end());
  }
  std::sort(out.begin(), out.end(),
            [](const ObsEvent& a, const ObsEvent& b) { return a.ts_ns < b.ts_ns; });
  return out;
}

size_t Tracer::CollectedCount() const {
  std::vector<std::shared_ptr<Ring>> rings;
  {
    std::lock_guard<std::mutex> lk(registry_mu_);
    rings = rings_;
  }
  size_t n = 0;
  for (const auto& ring : rings) {
    std::lock_guard<std::mutex> lk(ring->mu);
    n += ring->events.size();
  }
  return n;
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lk(registry_mu_);
  for (const auto& ring : rings_) {
    std::lock_guard<std::mutex> rlk(ring->mu);
    ring->events.clear();
    ring->next = 0;
    ring->wrapped = false;
  }
}

std::string Tracer::ChromeTraceJson() const {
  std::vector<ObsEvent> events = Collect();
  // Thread-name metadata rows.
  std::vector<std::pair<uint32_t, const char*>> names;
  {
    std::lock_guard<std::mutex> lk(registry_mu_);
    for (const auto& ring : rings_) {
      std::lock_guard<std::mutex> rlk(ring->mu);
      if (ring->thread_name != nullptr) {
        names.emplace_back(ring->tid, ring->thread_name);
      }
    }
  }

  std::string out;
  out.reserve(events.size() * 96 + 256);
  out += "{\"traceEvents\":[";
  bool first = true;
  for (const auto& [tid, name] : names) {
    if (!first) out.push_back(',');
    first = false;
    out += "{\"ph\":\"M\",\"pid\":1,\"tid\":";
    out += std::to_string(tid);
    out += ",\"name\":\"thread_name\",\"args\":{\"name\":\"";
    AppendEscaped(out, name);
    out += "\"}}";
  }
  for (const ObsEvent& ev : events) {
    if (!first) out.push_back(',');
    first = false;
    AppendEventJson(out, ev);
  }
  out += "]}";
  return out;
}

Status Tracer::StartStreaming(const std::string& path) {
  std::lock_guard<std::mutex> lk(stream_mu_);
  if (stream_ != nullptr) {
    return Status::Internal("trace streaming already active");
  }
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::Internal("cannot open trace stream file: " + path);
  }
  std::fputs("[\n", f);
  stream_ = f;
  stream_first_event_ = true;
  streaming_.store(true, std::memory_order_release);
  return Status::Ok();
}

void Tracer::StopStreaming() {
  streaming_.store(false, std::memory_order_release);
  std::lock_guard<std::mutex> lk(stream_mu_);
  if (stream_ == nullptr) {
    return;
  }
  // Close the array so strict JSON parsers accept the file too.
  std::fputs("\n]\n", stream_);
  std::fclose(stream_);
  stream_ = nullptr;
}

Status Tracer::WriteChromeTrace(const std::string& path) const {
  std::string json = ChromeTraceJson();
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::Internal("cannot open trace file: " + path);
  }
  size_t wrote = std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  if (wrote != json.size()) {
    return Status::Internal("short write to trace file: " + path);
  }
  return Status::Ok();
}

}  // namespace obladi
